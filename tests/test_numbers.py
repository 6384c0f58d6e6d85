"""One rule for what a number is, for a scenario file, a record and a kernel alike.

A number is a finite float: numeric text is read, a bool is refused, and
a vector or matrix has exactly its shape, neither flattened nor nested to
fit.  The loader and the record constructors convert through the same
function (`spatial._numbers`), so they refuse, or accept, the same values;
the kernels take anything but the tick's own tuples through it too.  A
whole number is an int, or a float of integer value, and never a bool
(`spatial._integer`).
"""

import cProfile
import dataclasses
import gc
import pstats

import numpy as np
import pytest
import yaml

from wiredrive.allocation import (
    TensionBounds, allocate, compensate, tension_command, to_currents,
)
from wiredrive.anchors import Pillar
from wiredrive.feasibility import controllability
from wiredrive.qp import kkt_residual, solve_box_qp
from wiredrive.scenario import (
    AnchorTask, build_scenario, bundled_scenario_path, dump_scenario, load_scenario,
)
from wiredrive.simulator import BodyModel, OdometrySensor, SensorModel, SimState, step
from wiredrive.spatial import PidGains, Pose, Twist, Wrench, _numbers
from wiredrive.wires import WireAttachment, wire_jacobian

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


# document path: bundled scenario, and the record built with a value for
# the field the path names
_INTEGER_FIELDS = {
    "sim.sensor.latency": ("cube8", lambda v: SensorModel(latency=v)),
    "anchors[0].wire_id": ("anchors2", lambda v: AnchorTask(v, 0, (0.0, -0.4, 2.2), 0.3, 1.9)),
    "anchors[0].pillar": ("anchors2", lambda v: AnchorTask(0, v, (0.0, -0.4, 2.2), 0.3, 1.9)),
}

# document path, the value in the file and for the record, accepted
_INTEGER_CASES = [
    ("sim.sensor.latency", True, False),
    ("sim.sensor.latency", 2.0, True),
    ("sim.sensor.latency", 1.5, False),
    ("sim.sensor.latency", "2", False),
    ("anchors[0].wire_id", True, False),
    ("anchors[0].wire_id", 0.0, True),
    ("anchors[0].pillar", False, False),
    ("anchors[0].pillar", 0.0, True),
]


@pytest.mark.parametrize("path, value, accepted", _INTEGER_CASES,
                         ids=[f"{path}-{k}" for k, (path, *_) in enumerate(_INTEGER_CASES)])
def test_a_file_and_a_record_refuse_an_integer_alike(path, value, accepted):
    scenario, build = _INTEGER_FIELDS[path]
    doc = yaml.safe_load(bundled_scenario_path(scenario).read_text())
    parent, key = path.rsplit(".", 1)
    node = doc
    for part in parent.split("."):
        name, _, index = part.rstrip("]").partition("[")
        node = node.setdefault(name, {}) if not index else node[name][int(index)]
    node[key] = value
    assert _accepts(lambda: build_scenario(doc)) is accepted
    assert _accepts(lambda: build(value)) is accepted
    if accepted:  # stored as the int it is
        assert type(getattr(build(value), key)) is int


def test_a_scenario_given_whole_floats_holds_ints_and_reloads_from_its_dump():
    scenario = load_scenario(bundled_scenario_path("anchors2"))
    changed = dataclasses.replace(
        scenario, sensor=SensorModel(latency=2.0),
        anchors=tuple(dataclasses.replace(task, wire_id=float(task.wire_id),
                                          pillar=float(task.pillar))
                      for task in scenario.anchors))
    assert changed.sensor.latency == 2 and OdometrySensor(changed.sensor, seed=0)
    assert all(type(task.wire_id) is int and type(task.pillar) is int
               for task in changed.anchors)
    text = dump_scenario(changed)
    assert dump_scenario(build_scenario(yaml.safe_load(text))) == text


# the kernels at cube8's start pose, each with its arguments: the value the
# tick would pass and the shape `_numbers` holds it to
_CUBE8 = load_scenario(bundled_scenario_path("cube8"))
_MATRIX = wire_jacobian(_CUBE8.start_pose, _CUBE8.wires)
_TENSIONS = tuple(10.0 + 2.5 * k for k in range(8))
_SIX = (0.5, -1.0, 9.0, 0.1, -0.2, 0.05)
_HESSIAN = tuple(tuple(2.0 + 8.0 * (i == j) for j in range(8)) for i in range(8))
_GRADIENT = tuple(-10.0 * (k + 1) for k in range(8))
_KERNELS = {
    "allocate": (
        lambda matrix, start: allocate(matrix, Wrench.from_array(_SIX), _CUBE8.bounds,
                                       _CUBE8.weights, start=start),
        {"matrix": (_MATRIX, (6, 8)), "start": (_TENSIONS, (8,))}),
    "compensate": (
        lambda tensions, accel_ref, rates, matrix: compensate(tensions, accel_ref, rates, matrix,
                                                              _CUBE8.winch),
        {"tensions": (_TENSIONS, (-1,)), "accel_ref": (_SIX, (6,)),
         "rates": (tuple(0.01 * k for k in range(8)), (8,)), "matrix": (_MATRIX, (6, 8))}),
    "to_currents": (lambda tensions: to_currents(tensions, _CUBE8.winch),
                    {"tensions": (_TENSIONS, (-1,))}),
    "tension_command": (
        lambda tensions, final, residual: tension_command(tensions, final, residual,
                                                          _CUBE8.bounds, _CUBE8.winch),
        {"tensions": (_TENSIONS, (-1,)), "final": (_TENSIONS[::-1], (8,)),
         "residual": (_SIX, (6,))}),
    "step": (
        lambda currents: step(SimState.at_rest(_CUBE8.start_pose, 8), currents, _CUBE8.dt,
                              _CUBE8.body, _CUBE8.wires, _CUBE8.winch),
        {"currents": (to_currents(_TENSIONS, _CUBE8.winch), (8,))}),
    "solve_box_qp": (
        lambda hessian, gradient, lower, upper, start: solve_box_qp(hessian, gradient, lower,
                                                                    upper, start=start),
        {"hessian": (_HESSIAN, (8, 8)), "gradient": (_GRADIENT, (-1,)),
         "lower": ((0.0,) * 8, (8,)), "upper": ((5.0,) * 8, (8,)), "start": ((1.0,) * 8, (8,))}),
    "kkt_residual": (
        kkt_residual,
        {"hessian": (_HESSIAN, (8, 8)), "gradient": (_GRADIENT, (8,)), "x": ((1.0,) * 8, (-1,)),
         "lower": ((0.0,) * 8, (8,)), "upper": ((5.0,) * 8, (8,))}),
    "controllability": (
        lambda matrix: controllability(matrix, _CUBE8.bounds, torque_scale=_CUBE8.torque_lever),
        {"matrix": (_MATRIX, (6, -1))}),
}


def _misshapen(value, shape):
    """`value` one entry short along its last fixed axis, or nested one deeper."""
    if len(shape) == 2:
        return [list(row) for row in value[:-1]] if shape[1] == -1 else [
            list(row[:-1]) for row in value]
    return [[v] for v in value] if shape[0] == -1 else list(value[:-1])


def _text(value):
    return [_text(v) for v in value] if isinstance(value, tuple) else repr(value)


# what stands in for an argument, and whether it is read (else refused)
_STAND_INS = {
    "bool-array": (lambda value, shape: np.ones(np.shape(value), dtype=bool), False),
    "numpy-bools": (lambda value, shape: list(np.ones(np.shape(value), dtype=bool)), False),
    "text": (lambda value, shape: _text(value), True),
    "misshapen": (_misshapen, False),
    "short-tuple": (lambda value, shape: value[:-1], False),
}
_ENTRY_CASES = [(kernel, argument, kind) for kernel, (_, arguments) in _KERNELS.items()
                for argument, (_, shape) in arguments.items() for kind in _STAND_INS
                if kind != "short-tuple" or shape[0] != -1]


@pytest.mark.parametrize("kernel, argument, kind", _ENTRY_CASES,
                         ids=["-".join(case) for case in _ENTRY_CASES])
def test_a_kernel_refuses_what_a_record_refuses(kernel, argument, kind):
    # an argument that is not the tick's own float tuple meets `_numbers`:
    # a kernel reads what a record reads and refuses, naming the argument,
    # what a record refuses
    call, arguments = _KERNELS[kernel]
    given = {name: value for name, (value, _) in arguments.items()}
    value, shape = arguments[argument]
    make, read = _STAND_INS[kind]
    stand_in = make(value, shape)
    if read:
        assert _numbers(argument, stand_in, shape) == value
        assert repr(call(**dict(given, **{argument: stand_in}))) == repr(call(**given))
    else:
        with pytest.raises(ValueError, match=f"for {argument}, got"):
            _numbers(argument, stand_in, shape)
        with pytest.raises(ValueError, match=f"for {argument}, got"):
            call(**dict(given, **{argument: stand_in}))
