"""One rule for what a number is, for a scenario file and a record alike.

A number is a finite float: numeric text is read, a bool is refused, and
a vector or matrix has exactly its shape, neither flattened nor nested to
fit.  The loader and the record constructors convert through the same
function (`spatial._numbers`), so they refuse, or accept, the same values.
"""

import cProfile
import gc
import pstats

import numpy as np
import pytest
import yaml

from wiredrive.allocation import TensionBounds
from wiredrive.anchors import Pillar
from wiredrive.scenario import build_scenario, bundled_scenario_path, load_scenario
from wiredrive.simulator import BodyModel, SimState
from wiredrive.spatial import PidGains, Pose, Twist
from wiredrive.wires import WireAttachment

NAN = float("nan")
ZEROS6 = (0.0,) * 6


def _diagonal(a, b, c):
    return [[a, 0.0, 0.0], [0.0, b, 0.0], [0.0, 0.0, c]]


def _body(mass=11.0, inertia=_diagonal(0.4, 0.4, 0.4)):
    return BodyModel(mass, inertia, 0.2)


# document path: bundled scenario, unit, and the record built with a value
# for the field the path names
_FIELDS = {
    "body.mass": ("cube8", "kg", lambda v: _body(mass=v)),
    # the file states the diagonal, the record the matrix
    "body.inertia_diagonal": ("cube8", "kg m^2", lambda v: _body(inertia=v)),
    "wires[0].exit_body": ("cube8", "m", lambda v: WireAttachment(v, (1.0, 1.0, 1.0))),
    "control.pid.kp": ("cube8", "N/m, N m/rad", lambda v: PidGains(v, ZEROS6, ZEROS6, ZEROS6)),
    # the file states one lower bound, which the loader gives every wire; the
    # record is given its (lower, upper) pair
    "tension_bounds.lower": ("cube8", "N", lambda v: TensionBounds(*v)),
    "pillars[0].center": ("anchors2", "m", lambda v: Pillar(v)),
}

# document path, the value in the file, the same value for the record, accepted
_CASES = [
    ("body.mass", True, True, False),
    ("body.mass", [11.0], [11.0], False),
    ("body.mass", NAN, NAN, False),
    ("body.mass", "11.0", "11.0", True),
    ("body.inertia_diagonal", True, True, False),
    ("body.inertia_diagonal", [True, 0.4, 0.4], _diagonal(True, 0.4, 0.4), False),
    ("body.inertia_diagonal", [[0.4, 0.4, 0.4]], [_diagonal(0.4, 0.4, 0.4)], False),
    ("body.inertia_diagonal", [2, 0, 0, 0, 2, 0, 0, 0, 2], [2, 0, 0, 0, 2, 0, 0, 0, 2], False),
    ("body.inertia_diagonal", [0.4, NAN, 0.4], _diagonal(0.4, NAN, 0.4), False),
    ("body.inertia_diagonal", ["0.4", "4e-1", "0.4"], _diagonal("0.4", "4e-1", "0.4"), True),
    ("wires[0].exit_body", True, True, False),
    ("wires[0].exit_body", [0.0, False, 0.1], [0.0, False, 0.1], False),
    ("wires[0].exit_body", [[0.0, 0.0, 0.1]], [[0.0, 0.0, 0.1]], False),
    ("wires[0].exit_body", [0.0, NAN, 0.1], np.array([0.0, NAN, 0.1]), False),
    ("wires[0].exit_body", ["0.0", "0", "1.0e-1"], ["0.0", "0", "1.0e-1"], True),
    ("control.pid.kp", True, True, False),
    ("control.pid.kp", [True] + [1.0] * 5, np.array([True] * 6), False),
    ("control.pid.kp", [[1.0] * 3] * 2, np.ones((2, 3)), False),
    ("control.pid.kp", [1.0] * 5 + [NAN], [1.0] * 5 + [NAN], False),
    ("control.pid.kp", ["1.0e2"] + [1] * 5, ["1.0e2"] + [1] * 5, True),
    ("tension_bounds.lower", True, ((True,) * 8, (180.0,) * 8), False),
    # a list for the one number of the file, one number for the wires of the record
    ("tension_bounds.lower", [2.0], (2.0, 180.0), False),
    ("tension_bounds.lower", NAN, ((NAN,) * 8, (180.0,) * 8), False),
    ("tension_bounds.lower", "2", (("2",) * 8, (180.0,) * 8), True),
    ("pillars[0].center", True, True, False),
    ("pillars[0].center", [0.0, True], [0.0, True], False),
    ("pillars[0].center", [[0.0], [-1.2]], np.array([[0.0], [-1.2]]), False),
    ("pillars[0].center", [0.0, -1.2, 0.0], [0.0, -1.2, 0.0], False),
    ("pillars[0].center", [NAN, -1.2], [NAN, -1.2], False),
    ("pillars[0].center", ["0", "-1.2"], ["0", "-1.2"], True),
]


def _accepts(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


def _document(path, value):
    scenario, unit, _ = _FIELDS[path]
    doc = yaml.safe_load(bundled_scenario_path(scenario).read_text())
    parent, key = path.rsplit(".", 1)
    node = doc
    for part in parent.split("."):
        name, _, index = part.rstrip("]").partition("[")
        node = node[name] if not index else node[name][int(index)]
    if key == "inertia_diagonal":
        del node["inertia_cube_side"]  # the body states its inertia one way
    node[key] = {"value": value, "unit": unit}
    return doc


@pytest.mark.parametrize("path, in_file, in_record, accepted", _CASES,
                         ids=[f"{path}-{k}" for k, (path, *_) in enumerate(_CASES)])
def test_a_file_and_a_record_refuse_a_number_alike(path, in_file, in_record, accepted):
    assert _accepts(lambda: build_scenario(_document(path, in_file))) is accepted
    assert _accepts(lambda: _FIELDS[path][2](in_record)) is accepted


@pytest.mark.parametrize("build", [
    lambda: Pose([[0, 0, 1]], (1.0, 0.0, 0.0, 0.0)),
    lambda: Pose((0.0, 0.0, 1.0), [[1.0, 0.0], [0.0, 0.0]]),
    lambda: Pose((0.0, 0.0, True), (1.0, 0.0, 0.0, 0.0)),
    lambda: Twist(np.zeros((1, 3)), (0.0, 0.0, 0.0)),
    lambda: Twist.from_array(np.zeros((2, 3))),
    lambda: SimState(Pose.identity(), Twist.zero(), np.zeros((2, 2))),
], ids=["pose-nested", "quaternion-square", "pose-bool", "twist-nested", "twist-from-matrix",
        "tensions-square"])
def test_a_tick_record_refuses_a_bool_or_a_shape_it_would_have_to_flatten(build):
    with pytest.raises(ValueError, match="expected"):
        build()


@pytest.mark.parametrize("name", ["anchors2", "cube8", "cube8_saturated", "outdoor4"])
def test_loading_a_scenario_converts_at_most_two_arrays(name):
    # the loader and the records read numbers on floats; the two arrays left
    # are taken inside `BodyModel`'s `np.linalg.eigvalsh` and `np.linalg.inv`
    profile = cProfile.Profile()
    profile.runcall(load_scenario, bundled_scenario_path(name))
    calls = {key[2]: value[1] for key, value in pstats.Stats(profile).stats.items()
             if key[0] == "~"}
    arrays = [calls.get(f"<built-in method numpy.{f}>", 0) for f in ("array", "asarray")]
    assert sum(arrays) <= 2, arrays


@pytest.mark.parametrize("name", ["anchors2", "cube8", "cube8_saturated", "outdoor4"])
def test_loading_a_scenario_leaves_no_reference_cycles(name):
    # what a load converts, reference counting frees: garbage left for the
    # cycle collector makes it run inside whatever the caller times next
    gc.collect()
    gc.disable()
    try:
        load_scenario(bundled_scenario_path(name))
        assert gc.collect() == 0
    finally:
        gc.enable()
