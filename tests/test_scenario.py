import contextlib
import dataclasses
import re
import string

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from wiredrive import cli
from wiredrive import scenario as scenario_module
from wiredrive.allocation import TensionBounds
from wiredrive.scenario import (
    _UNIT_ALIASES,
    INTEGER,
    POSE_CONTROL,
    QUANTITY,
    REQUIRED,
    SCHEMA,
    TENSION_SCHEDULE,
    ParseError,
    Rows,
    Scenario,
    ValidationError,
    build_scenario,
    bundled_scenario_path,
    dump_scenario,
    load_scenario,
    scenario_document,
)
from wiredrive.wires import WireAttachment

MINIMAL = """
format_version: 1
name: minimal
seed: 3
body:
  mass: {value: 5.0, unit: kg}
  inertia_cube_side: {value: 0.3, unit: m}
  radius: {value: 0.2, unit: m}
wires:
  - exit_body: {value: [0.0, 0.0, 0.1], unit: m}
    anchor_world: {value: [1.0, 0.0, 1.0], unit: m}
  - exit_body: {value: [0.0, 0.0, 0.1], unit: m}
    anchor_world: {value: [-1.0, 0.0, 1.0], unit: m}
trajectory:
  start:
    position: {value: [0.0, 0.0, 0.0], unit: m}
  segments:
    - goal_position: {value: [0.0, 0.0, 0.2], unit: m}
      duration: {value: 2.0, unit: s}
"""


def write(tmp_path, text, name="scenario.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


def edit(text, transform):
    doc = yaml.safe_load(text)
    transform(doc)
    return yaml.safe_dump(doc)


def test_minimal_scenario_defaults(tmp_path):
    s = load_scenario(write(tmp_path, MINIMAL))
    assert s.name == "minimal"
    assert s.wire_count == 2
    assert s.bounds.lower[0] == 2.0
    assert s.bounds.upper[0] == 180.0
    assert s.winch.gear_ratio == 53.0
    assert s.winch.torque_constant == 0.014
    assert s.winch.pulley_radius == 0.008
    assert s.winch.max_line_speed == 0.242
    assert s.winch.winding_capacity == 5.3
    assert s.gravity == 9.80665
    assert s.mode == "pose_control"
    assert s.control_rate == 200.0
    assert s.substeps == 5
    assert s.duration == 4.0  # segment time + 2 s settle


def test_bundled_scenarios_load():
    for name in ("cube8", "cube8_saturated", "outdoor4", "anchors2"):
        s = load_scenario(bundled_scenario_path(name))
        assert s.name == name


def test_bundled_cube8_matches_frame_geometry():
    s = load_scenario(bundled_scenario_path("cube8"))
    assert s.wire_count == 8
    anchors = np.stack([w.anchor_world for w in s.wires])
    # anchors on the corners of the 1 m cube frame
    assert np.allclose(np.abs(anchors), 0.5, atol=1e-9)
    assert s.bounds.upper[0] == 180.0


def test_missing_mass_names_field(tmp_path):
    text = edit(MINIMAL, lambda d: d["body"].pop("mass"))
    with pytest.raises(ValidationError) as info:
        load_scenario(write(tmp_path, text))
    assert info.value.field == "body.mass"


def test_bounds_ordering_rejected(tmp_path):
    def bad(d):
        d["tension_bounds"] = {
            "lower": {"value": 50.0, "unit": "N"},
            "upper": {"value": 10.0, "unit": "N"},
        }
    with pytest.raises(ValidationError) as info:
        load_scenario(write(tmp_path, edit(MINIMAL, bad)))
    assert info.value.field == "tension_bounds"


def test_wrong_unit_rejected(tmp_path):
    def bad(d):
        d["body"]["mass"] = {"value": 5.0, "unit": "lb"}
    with pytest.raises(ValidationError) as info:
        load_scenario(write(tmp_path, edit(MINIMAL, bad)))
    assert info.value.field == "body.mass"
    assert "unit" in str(info.value)


def test_bare_number_rejected_for_physical_quantity(tmp_path):
    def bad(d):
        d["body"]["mass"] = 5.0
    with pytest.raises(ValidationError) as info:
        load_scenario(write(tmp_path, edit(MINIMAL, bad)))
    assert info.value.field == "body.mass"


def test_exit_point_outside_body_radius_rejected(tmp_path):
    def bad(d):
        d["wires"][0]["exit_body"] = {"value": [0.5, 0.0, 0.0], "unit": "m"}
    with pytest.raises(ValidationError) as info:
        load_scenario(write(tmp_path, edit(MINIMAL, bad)))
    assert "exit_body" in info.value.field


@contextlib.contextmanager
def pure_python_yaml():
    """Scenario I/O through PyYAML's pure-Python loader and dumper."""
    saved = scenario_module._YAML_LOADER, scenario_module._YAML_DUMPER
    scenario_module._YAML_LOADER, scenario_module._YAML_DUMPER = yaml.SafeLoader, yaml.SafeDumper
    try:
        yield
    finally:
        scenario_module._YAML_LOADER, scenario_module._YAML_DUMPER = saved


@pytest.mark.parametrize("name", ["cube8", "cube8_saturated", "outdoor4", "anchors2"])
def test_both_yaml_classes_read_and_write_the_same_bundled_scenario(name):
    path = bundled_scenario_path(name)
    document = scenario_document(load_scenario(path))
    dumped = dump_scenario(load_scenario(path))
    with pure_python_yaml():
        assert scenario_document(load_scenario(path)) == document
        assert dump_scenario(load_scenario(path)) == dumped


@pytest.mark.parametrize("io", [contextlib.nullcontext, pure_python_yaml])
def test_malformed_file_exits_2_naming_it_under_both_yaml_classes(io, tmp_path, capsys):
    bad = write(tmp_path, "body: {mass: [unclosed\n", name="broken_scenario.yaml")
    with io():
        with pytest.raises(ParseError, match="broken_scenario.yaml"):
            load_scenario(bad)
        assert cli.main(["validate", str(bad)]) == 2
    assert "broken_scenario.yaml" in capsys.readouterr().err


def test_malformed_yaml_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(write(tmp_path, "f: [unclosed"))
    with pytest.raises(ParseError):
        load_scenario(write(tmp_path, "- just\n- a\n- list\n"))
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "does_not_exist.yaml")


def test_control_rate_must_divide_dt(tmp_path):
    def bad(d):
        d["control"] = {"rate": {"value": 333.0, "unit": "Hz"}}
    with pytest.raises(ValidationError) as info:
        load_scenario(write(tmp_path, edit(MINIMAL, bad)))
    assert info.value.field == "control.rate"


def test_schedule_table_validation(tmp_path):
    def good(d):
        d["control"] = {
            "mode": "tension_schedule",
            "schedule": [
                {"t": {"value": 0.0, "unit": "s"},
                 "tensions": {"value": [5.0, 5.0], "unit": "N"}},
                {"t": {"value": 1.0, "unit": "s"},
                 "tensions": {"value": [8.0, 2.0], "unit": "N"}},
            ],
        }
    s = load_scenario(write(tmp_path, edit(MINIMAL, good)))
    assert s.mode == "tension_schedule"
    assert len(s.schedule_table) == 2

    def bad_times(d):
        good(d)
        d["control"]["schedule"][1]["t"]["value"] = -1.0
    with pytest.raises(ValidationError) as info:
        load_scenario(write(tmp_path, edit(MINIMAL, bad_times)))
    assert "schedule[1].t" in info.value.field


def test_anchor_wire_reference_checked(tmp_path):
    def bad(d):
        d["pillars"] = [{"center": {"value": [0.0, 1.0], "unit": "m"}}]
        d["anchors"] = [{
            "wire_id": 9,
            "pillar": 0,
            "approach": {"value": [0.0, 0.0, 1.0], "unit": "m"},
        }]
    with pytest.raises(ValidationError) as info:
        load_scenario(write(tmp_path, edit(MINIMAL, bad)))
    assert "wire_id" in info.value.field


def test_round_trip_resolved_dump(tmp_path):
    first = load_scenario(write(tmp_path, MINIMAL))
    dumped = dump_scenario(first)
    second = load_scenario(write(tmp_path, dumped, name="resolved.yaml"))
    assert dump_scenario(second) == dumped
    assert scenario_document(first) == scenario_document(second) == yaml.safe_load(dumped)


def test_round_trip_bundled_scenarios(tmp_path):
    for name in ("cube8", "outdoor4", "anchors2"):
        first = load_scenario(bundled_scenario_path(name))
        dumped = dump_scenario(first)
        second = load_scenario(write(tmp_path, dumped, name=f"{name}_resolved.yaml"))
        assert dump_scenario(second) == dumped


def test_dump_writes_no_anchor_for_a_wire_waiting_on_its_anchor_task():
    # without its anchor tasks, nothing anchors the wires the dump leaves bare
    doc = scenario_document(load_scenario(bundled_scenario_path("anchors2")))
    for section in ("anchors", "pillars", "deployment"):
        del doc[section]
    with pytest.raises(ValidationError) as info:
        build_scenario(doc)
    assert info.value.field == "wires[0].anchor_world"


def test_anchor_on_a_claimed_wire_is_rejected():
    doc = scenario_document(load_scenario(bundled_scenario_path("anchors2")))
    doc["wires"][0]["anchor_world"] = {"value": [0.0, 0.0, 5.0], "unit": "m"}
    with pytest.raises(ValidationError) as info:
        build_scenario(doc)
    assert info.value.field == "wires[0].anchor_world"


def test_two_anchor_tasks_cannot_claim_one_wire():
    doc = yaml.safe_load(bundled_scenario_path("anchors2").read_text())
    doc["anchors"][1]["wire_id"] = 0
    doc["wires"][1]["anchor_world"] = {"value": [0.0, 0.0, 5.0], "unit": "m"}
    with pytest.raises(ValidationError, match=r"anchors\[0\] already claims wire 0") as info:
        build_scenario(doc)
    assert info.value.field == "anchors[1].wire_id"


@pytest.mark.parametrize("name, path, value", [
    ("cube8", "winch.max_tensoin", {"value": 90.0, "unit": "N"}),
    ("cube8", "wires[0].anchr_world", {"value": [0.5, 0.5, 0.5], "unit": "m"}),
    ("cube8", "controll", {"mode": "pose_control"}),
    ("cube8", "trajectory.segments[0].duraton", {"value": 1.0, "unit": "s"}),
    # what a resolved.yaml dumped before the sensor lost its range holds
    ("anchors2", "deployment.sensor.detection_range", {"value": 5.0, "unit": "m"}),
])
def test_unknown_keys_are_refused_by_path(name, path, value):
    doc = yaml.safe_load(bundled_scenario_path(name).read_text())
    *parents, key = path.split(".")
    _at(doc, ".".join(parents))[key] = value
    with pytest.raises(ValidationError, match="unknown field") as info:
        build_scenario(doc)
    assert info.value.field == path


@pytest.mark.parametrize("key", ["capture_radius", "waypoint_spacing", "drone_dt"])
def test_deployment_lengths_and_step_must_be_positive(key):
    # at a zero drone step the tracker's clock never reaches its timeout
    doc = yaml.safe_load(bundled_scenario_path("anchors2").read_text())
    unit = "s" if key == "drone_dt" else "m"
    doc.setdefault("deployment", {})[key] = {"value": 0.0, "unit": unit}
    with pytest.raises(ValidationError, match=f"{key} must be positive") as info:
        build_scenario(doc)
    assert info.value.field == "deployment"


def test_a_quantity_with_a_third_key_is_refused():
    doc = yaml.safe_load(bundled_scenario_path("cube8").read_text())
    doc["body"]["mass"]["note"] = "with payload"
    with pytest.raises(ValidationError) as info:
        build_scenario(doc)
    assert info.value.field == "body.mass"


@pytest.mark.parametrize("name", ["cube8", "cube8_saturated", "outdoor4", "anchors2"])
def test_validate_output_loads_and_dumps_to_the_same_text(name, tmp_path, capsys):
    # the dumper writes only keys the strict reader accepts
    assert cli.main(["validate", str(bundled_scenario_path(name))]) == 0
    text = capsys.readouterr().out
    resolved = write(tmp_path, text, name="resolved.yaml")
    assert dump_scenario(load_scenario(resolved)) == text


@pytest.mark.parametrize("path, value", [("seed", "abc"), ("seed", 2.5),
                                         ("sim.sensor.latency", 1.7), ("seed", True),
                                         ("sim.sensor.latency", False)])
def test_integer_fields_reject_non_integers(tmp_path, path, value):
    def bad(d):
        *sections, key = path.split(".")
        for section in sections:
            d = d.setdefault(section, {})
        d[key] = value
    with pytest.raises(ValidationError) as info:
        load_scenario(write(tmp_path, edit(MINIMAL, bad)))
    assert info.value.field == path


def _set(doc, path, value):
    *sections, key = path.split(".")
    for section in sections:
        doc = doc.setdefault(section, {})
    doc[key] = value


@pytest.mark.parametrize("path, value", [
    ("body.mass", {"value": True, "unit": "kg"}),
    ("gravity", {"value": False, "unit": "m/s^2"}),
    ("allocation_weights.scale", True),
    ("sim.speed_limit", False),
    ("control.pid.kp", {"value": [True, 1, 1, 1, 1, 1], "unit": "N/m, N m/rad"}),
    ("trajectory.start.position", {"value": [0.0, False, 0.0], "unit": "m"}),
])
def test_number_fields_reject_booleans(tmp_path, capsys, path, value):
    path_file = write(tmp_path, edit(MINIMAL, lambda d: _set(d, path, value)))
    with pytest.raises(ValidationError, match="expected a number") as info:
        load_scenario(path_file)
    assert info.value.field == path
    assert cli.main(["validate", str(path_file)]) == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("path", ["allocation_weights.scale", "winch.gear_ratio",
                                  "sim.speed_limit"])
@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_number_fields_must_be_finite(tmp_path, capsys, path, value):
    path_file = write(tmp_path, edit(MINIMAL, lambda d: _set(d, path, yaml.safe_load(value))))
    with pytest.raises(ValidationError, match="must be finite") as info:
        load_scenario(path_file)
    assert info.value.field == path
    assert cli.main(["validate", str(path_file)]) == 2
    assert path in capsys.readouterr().err


def test_number_fields_still_read_numeric_text(tmp_path):
    text = edit(MINIMAL, lambda d: _set(d, "allocation_weights.scale", "1.0e8"))
    text = edit(text, lambda d: _set(d, "control.pid.kp",
                                     {"value": ["1.0e2", 1, 1, 1, 1, 1], "unit": "N/m, N m/rad"}))
    scenario = load_scenario(write(tmp_path, text))
    assert scenario.weights.matrix[0, 0] == 1e8
    assert scenario.gains.kp.tolist() == [100.0, 1.0, 1.0, 1.0, 1.0, 1.0]


@pytest.mark.parametrize("path, value", [
    ("name", {"a": [1, 2]}), ("name", 12), ("name", True), ("control.mode", 3.5),
])
def test_string_fields_take_only_yaml_strings(tmp_path, capsys, path, value):
    path_file = write(tmp_path, edit(MINIMAL, lambda d: _set(d, path, value)))
    with pytest.raises(ValidationError, match="expected text") as info:
        load_scenario(path_file)
    assert info.value.field == path
    assert cli.main(["validate", str(path_file)]) == 2
    assert path in capsys.readouterr().err


# --- property tests over the field table -----------------------------------

# strategies for fields whose valid values the table alone does not pin down
_SPECIAL = {
    "format_version": st.just(1),
    "name": st.text(string.ascii_letters + string.digits + "_- ", min_size=1, max_size=12),
    "seed": st.integers(0, 2**32),
    "body.mass": st.floats(0.5, 20.0),
    "body.inertia_diagonal": st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    "body.inertia_cube_side": st.floats(0.05, 0.5),
    "wires[].exit_body": st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3),
    "allocation_weights.torque_lever": st.floats(0.05, 0.5),
    "winch.max_tension": st.floats(10.0, 200.0),
    "trajectory.segments[].duration": st.floats(0.1, 5.0),
    "sim.duration": st.floats(0.5, 10.0),
    "sim.sensor.latency": st.integers(0, 3),
    "pillars[].z_range": st.tuples(st.floats(0.0, 1.0), st.floats(0.5, 2.0)).map(
        lambda z: [z[0], z[0] + z[1]]
    ),
    "anchors[].wrap_altitude": st.floats(0.5, 3.0),
}


def _aliases(unit):
    return [unit] + [alias for alias, canonical in _UNIT_ALIASES.items() if canonical == unit]


def _generic(spec):
    """Values near the field's default keep every single-field check satisfied."""
    default = spec.default
    if spec.kind == INTEGER:
        return st.integers(0, 3)
    if default is REQUIRED or default is None:
        element = st.floats(-2.0, 2.0)
    elif np.all(np.asarray(default) == 0):
        element = st.floats(0.0, 1.0)
    else:
        scale = float(np.max(np.asarray(default)))
        element = st.floats(0.5, 1.0).map(lambda f: f * scale)
    if spec.shape is None:
        return element
    return st.lists(element, min_size=spec.shape[0], max_size=spec.shape[0])


@st.composite
def documents(draw, wire_counts=st.integers(2, 4)):
    """A valid scenario document and, per leaf path, (table field, written value).

    The value is None where the field was left out.
    """
    m = draw(wire_counts)
    mode = draw(st.sampled_from([POSE_CONTROL, TENSION_SCHEDULE]))
    n_pillars = draw(st.integers(0, 2))
    claimed = draw(st.sets(st.integers(0, m - 1), max_size=2)) if n_pillars else set()
    rate = draw(st.sampled_from([None, 100.0, 200.0, 250.0, 500.0]))
    substeps = draw(st.sampled_from([None, 1, 2, 5, 10]))
    rows = {"wires": m, "trajectory.segments": draw(st.integers(1, 3)),
            "pillars": n_pillars, "anchors": len(claimed),
            "control.schedule": draw(st.integers(1, 3))}
    leaves = {}

    def leaf(spec, pattern, index):
        if pattern == "control.mode":
            return None if mode == POSE_CONTROL and draw(st.booleans()) else mode
        if pattern == "control.rate":
            return rate
        if pattern == "sim.dt":
            return None if substeps is None else 1.0 / ((rate or 200.0) * substeps)
        if pattern == "anchors[].wire_id":
            return sorted(claimed)[index]
        if pattern == "anchors[].pillar":
            return draw(st.integers(0, n_pillars - 1))
        if pattern == "control.schedule[].t":
            return float(index)
        if pattern == "control.schedule[].tensions":
            return draw(st.lists(st.floats(0.0, 50.0), min_size=m, max_size=m))
        if pattern == "wires[].anchor_world":
            # required on an unclaimed wire, rejected on a claimed one
            return None if index in claimed else draw(_generic(spec))
        if not (spec.default is REQUIRED or draw(st.booleans())):
            return None
        return draw(_SPECIAL.get(pattern, _generic(spec)))

    def section(fields, path, pattern, index=None):
        node = {}
        for key, spec in fields.items():
            full = f"{path}.{key}" if path else key
            full_pattern = f"{pattern}.{key}" if pattern else key
            if isinstance(spec, dict):
                if full == "deployment" and not claimed:
                    continue
                node[key] = section(spec, full, full_pattern)
            elif isinstance(spec, Rows):
                if full == "control.schedule":
                    if mode == POSE_CONTROL or draw(st.booleans()):
                        continue
                    if draw(st.booleans()):
                        node[key] = "quasistatic"
                        continue
                node[key] = [section(spec.fields, f"{full}[{k}]", full_pattern + "[]", k)
                             for k in range(rows[full])]
            else:
                value = leaf(spec, full_pattern, index)
                leaves[full] = (spec, value)
                if value is None:
                    continue
                if spec.kind == QUANTITY:
                    value = {"value": value, "unit": draw(st.sampled_from(_aliases(spec.unit)))}
                node[key] = value
        return node

    doc = section(SCHEMA, "", "")
    if "inertia_diagonal" not in doc["body"] and "inertia_cube_side" not in doc["body"]:
        doc["body"]["inertia_cube_side"] = {"value": 0.3, "unit": "m"}
    return doc, leaves


def _at(doc, path):
    for key, index in re.findall(r"(\w+)(?:\[(\d+)\])?", path):
        doc = doc[key] if not index else doc[key][int(index)]
    return doc


def _load_text(text):
    return build_scenario(yaml.load(text, Loader=scenario_module._YAML_LOADER))


_PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@_PROPERTY
@given(documents())
def test_round_trip_is_a_fixed_point_of_the_table(generated):
    _check_fixed_point(generated)


@_PROPERTY
@given(documents(), st.floats(0.05, 10.0), st.integers(0, 2**32))
def test_dump_of_a_replaced_scenario_reloads_as_replaced(generated, duration, seed):
    _check_replaced(generated, duration, seed)


@_PROPERTY
@given(documents(), st.floats(0.05, 10.0), st.integers(0, 2**32))
def test_round_trip_properties_hold_under_pure_python_yaml(generated, duration, seed):
    with pure_python_yaml():
        _check_fixed_point(generated)
        _check_replaced(generated, duration, seed)


def _check_fixed_point(generated):
    doc, leaves = generated
    first = _load_text(yaml.safe_dump(doc))
    dumped = dump_scenario(first)
    assert dump_scenario(_load_text(dumped)) == dumped
    document = yaml.safe_load(dumped)
    for path, (spec, value) in leaves.items():
        if value is None:
            if spec.default in (REQUIRED, None):
                continue  # derived from other fields
            value = np.asarray(spec.default).tolist()
        if path == "body.inertia_cube_side":
            continue  # resolved into inertia_diagonal
        got = _at(document, path)
        if spec.kind == QUANTITY:
            assert got["unit"] == spec.unit
            got = got["value"]
        assert got == value, path


def _check_replaced(generated, duration, seed):
    first = _load_text(yaml.safe_dump(generated[0]))
    replaced = dataclasses.replace(first, duration=duration, seed=seed)
    dumped = dump_scenario(replaced)
    second = _load_text(dumped)
    assert (second.duration, second.seed) == (duration, seed)
    expected = yaml.safe_load(dump_scenario(first))
    expected["sim"]["duration"]["value"] = duration
    expected["seed"] = seed
    assert yaml.safe_load(dumped) == expected  # every other leaf as before
    assert dump_scenario(second) == dumped


@_PROPERTY
@given(documents(), st.data())
def test_wrong_unit_names_the_field(generated, data):
    doc, leaves = generated
    quantities = sorted(path for path, (spec, value) in leaves.items()
                        if spec.kind == QUANTITY and value is not None)
    path = data.draw(st.sampled_from(quantities))
    unit = leaves[path][0].unit
    wrong = sorted({spec.unit for spec, _ in leaves.values() if spec.kind == QUANTITY}
                   - {unit} | {"furlong"})
    _at(doc, path)["unit"] = data.draw(st.sampled_from(wrong))
    with pytest.raises(ValidationError) as info:
        _load_text(yaml.safe_dump(doc))
    assert info.value.field == path


def _stored(value):
    """Every value a scenario stores, arrays as (shape, bytes), for exact comparison."""
    if dataclasses.is_dataclass(value):
        return {f.name: _stored(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_stored(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    return value


# each example loads and dumps a scenario once per stored field
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(documents(), st.data())
def test_a_scenario_holds_only_what_its_file_can_say(generated, data):
    # each stored field replaced by another scenario's value: what the
    # Scenario accepts, the loader reads back exactly, weight matrix included
    scenario = _load_text(yaml.safe_dump(generated[0]))
    m = scenario.wire_count
    donor = _load_text(yaml.safe_dump(data.draw(documents(st.just(m)))[0]))
    for field in dataclasses.fields(Scenario):
        try:
            replaced = dataclasses.replace(scenario, **{field.name: getattr(donor, field.name)})
        except ValidationError:
            continue
        reloaded = build_scenario(scenario_document(replaced))
        assert _stored(reloaded) == _stored(replaced), field.name
        assert reloaded.weights.matrix.tobytes() == replaced.weights.matrix.tobytes()
        assert dump_scenario(reloaded) == dump_scenario(replaced)
    # and what a file cannot say, it refuses, naming the field
    lower, upper = scenario.bounds.lower, scenario.bounds.upper
    inertia = scenario.body.inertia.copy()
    inertia[0, 1] = inertia[1, 0] = 1e-3 * inertia[0, 0]
    refused = [
        ("tension_bounds",
         {"bounds": TensionBounds(lower, np.append(upper[:-1], upper[-1] + 1.0))}),
        ("tension_bounds", {"wires": scenario.wires[:-1]}),
        ("body", {"body": dataclasses.replace(scenario.body, inertia=inertia)}),
    ]
    if scenario.anchors:
        moved = [dataclasses.replace(p, center=p.center + 0.5) for p in scenario.pillars]
        refused.append((r"wires\[\d+\]\.anchor_world", {"pillars": moved}))
    for name, replacement in refused:
        with pytest.raises(ValueError, match=f"^{name}: "):
            dataclasses.replace(scenario, **replacement)


def _quantity(value, unit):
    return {"value": value, "unit": unit}


def _schedule_document():
    """cube8 in tension_schedule mode, with a two-row table."""
    doc = yaml.safe_load(bundled_scenario_path("cube8").read_text())
    doc["control"]["mode"] = TENSION_SCHEDULE
    doc["control"]["schedule"] = [{"t": _quantity(t, "s"), "tensions": _quantity([5.0] * 8, "N")}
                                  for t in (0.0, 1.0)]
    return doc


def _edit_wire(scenario, i, exit_body=None, anchor_world=None):
    wire = scenario.wires[i]
    changed = WireAttachment(wire.exit_body if exit_body is None else exit_body,
                             wire.anchor_world if anchor_world is None else anchor_world)
    return {"wires": scenario.wires[:i] + (changed,) + scenario.wires[i + 1:]}


def _edit_row(scenario, section, k, **change):
    rows = list(getattr(scenario, section))
    rows[k] = dataclasses.replace(rows[k], **change)
    return {section: rows}


def _unclaim(doc, i):
    doc["wires"][i]["anchor_world"] = _quantity([0.0, 0.0, 3.0], "m")


# (field named, base document, edit of that document, replace of its scenario)
_REFUSALS = [
    ("seed", "cube8", lambda d: _set(d, "seed", -1), lambda s: {"seed": -1}),
    ("seed", "cube8", lambda d: _set(d, "seed", 2.5), lambda s: {"seed": 2.5}),
    ("name", "cube8", lambda d: _set(d, "name", 12), lambda s: {"name": 12}),
    ("wires", "cube8", lambda d: _set(d, "wires", []), lambda s: {"wires": ()}),
    ("trajectory.segments", "cube8", lambda d: _set(d, "trajectory.segments", []),
     lambda s: {"segments": ()}),
    ("trajectory.segments[0].duration", "cube8",
     lambda d: _at(d, "trajectory.segments[0]").update(duration=_quantity(0.0, "s")),
     lambda s: _edit_row(s, "segments", 0, duration=0.0)),
    ("wires[0].exit_body", "cube8",
     lambda d: _at(d, "wires[0]").update(exit_body=_quantity([0.5, 0.0, 0.0], "m")),
     lambda s: _edit_wire(s, 0, exit_body=[0.5, 0.0, 0.0])),
    ("anchors[0].wire_id", "anchors2",
     lambda d: (_unclaim(d, 0), _at(d, "anchors[0]").update(wire_id=9)),
     lambda s: _edit_row(s, "anchors", 0, wire_id=9)),
    ("anchors[1].wire_id", "anchors2",
     lambda d: (_unclaim(d, 1), _at(d, "anchors[1]").update(wire_id=0)),
     lambda s: _edit_row(s, "anchors", 1, wire_id=0)),
    ("anchors[0].pillar", "anchors2", lambda d: _at(d, "anchors[0]").update(pillar=5),
     lambda s: _edit_row(s, "anchors", 0, pillar=5)),
    ("wires[0].anchor_world", "anchors2",
     lambda d: _at(d, "wires[0]").update(anchor_world=_quantity([0.0, -1.2, 2.0], "m")),
     lambda s: _edit_wire(s, 0, anchor_world=[0.0, -1.2, 2.0])),
    ("allocation_weights", "cube8", lambda d: _set(d, "allocation_weights.scale", -1.0),
     lambda s: {"weight_scale": -1.0}),
    ("control.mode", "cube8", lambda d: _set(d, "control.mode", "bogus"),
     lambda s: {"mode": "bogus"}),
    ("control.rate", "cube8", lambda d: _set(d, "control.rate", _quantity(0.0, "Hz")),
     lambda s: {"control_rate": 0.0}),
    ("control.rate", "cube8", lambda d: _set(d, "control.rate", _quantity(333.0, "Hz")),
     lambda s: {"control_rate": 333.0}),
    ("control.rate", "cube8", lambda d: _set(d, "sim.dt", _quantity(0.003, "s")),
     lambda s: {"dt": 0.003}),
    ("sim.dt", "cube8", lambda d: _set(d, "sim.dt", _quantity(0.02, "s")),
     lambda s: {"dt": 0.02}),
    ("sim.dt", "cube8", lambda d: _set(d, "sim.dt", _quantity(0.0, "s")),
     lambda s: {"dt": 0.0}),
    ("sim.dt", "cube8", lambda d: _set(d, "sim.dt", _quantity(float("inf"), "s")),
     lambda s: {"dt": float("inf")}),
    ("sim.duration", "cube8", lambda d: _set(d, "sim.duration", _quantity(-1.0, "s")),
     lambda s: {"duration": -1.0}),
    ("sim.speed_limit", "cube8", lambda d: _set(d, "sim.speed_limit", -1.0),
     lambda s: {"speed_limit": -1.0}),
    ("gravity", "cube8", lambda d: _set(d, "gravity", _quantity(float("nan"), "m/s^2")),
     lambda s: {"gravity": float("nan")}),
    ("winch.max_tension", "cube8",
     lambda d: _set(d, "winch.max_tension", _quantity(float("inf"), "N")),
     lambda s: {"winch": dataclasses.replace(s.winch, max_tension=float("inf"))}),
    ("tension_bounds.upper", "cube8",
     lambda d: _set(d, "tension_bounds.upper", _quantity(float("inf"), "N")),
     lambda s: {"bounds": TensionBounds(s.bounds.lower, np.full(s.wire_count, np.inf))}),
    ("control.schedule[0].tensions", "schedule",
     lambda d: _at(d, "control.schedule[0]").update(tensions=_quantity([5.0] * 7, "N")),
     lambda s: {"schedule_table": [(0.0, np.full(7, 5.0)), s.schedule_table[1]]}),
    ("control.schedule[1].t", "schedule",
     lambda d: _at(d, "control.schedule[1]").update(t=_quantity(0.0, "s")),
     lambda s: {"schedule_table": [s.schedule_table[0], (0.0, s.schedule_table[1][1])]}),
    ("control.schedule[0].tensions", "schedule",
     lambda d: _at(d, "control.schedule[0].tensions").update(value=[-1.0] + [5.0] * 7),
     lambda s: {"schedule_table": [(0.0, np.array([-1.0] + [5.0] * 7)), s.schedule_table[1]]}),
    ("anchors[0].clearance", "anchors2",
     lambda d: _at(d, "anchors[0]").update(clearance=_quantity(0.0, "m")),
     lambda s: _edit_row(s, "anchors", 0, clearance=0.0)),
]


@pytest.mark.parametrize("path, base, edit, change", _REFUSALS,
                         ids=[f"{path}-{k}" for k, (path, *_) in enumerate(_REFUSALS)])
def test_a_file_and_a_replace_are_refused_alike(path, base, edit, change):
    # one rule, stated by Scenario, refuses the bad value by its document path
    # whether it comes from a file or from dataclasses.replace
    def document():
        if base == "schedule":
            return _schedule_document()
        return yaml.safe_load(bundled_scenario_path(base).read_text())

    scenario = build_scenario(document())
    bad = document()
    edit(bad)
    with pytest.raises(ValidationError) as from_file:
        build_scenario(bad)
    with pytest.raises(ValidationError) as from_replace:
        dataclasses.replace(scenario, **change(scenario))
    assert from_file.value.field == from_replace.value.field == path
    assert isinstance(from_replace.value, ValueError)


def test_a_scenario_is_frozen():
    scenario = load_scenario(bundled_scenario_path("cube8"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.dt = 0.003
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.bounds = TensionBounds(np.zeros(7), np.ones(7))
    with pytest.raises(AttributeError):
        scenario.wires.append(scenario.wires[0])
    assert scenario.dt == 1e-3 and scenario.wire_count == 8


def test_the_rows_of_a_scenario_are_read_only():
    # a frozen Scenario's rows hold no array that can be edited in place
    anchors2 = load_scenario(bundled_scenario_path("anchors2"))
    schedule = build_scenario(_schedule_document())
    replaced = dataclasses.replace(schedule, schedule_table=[(0.0, [1.0] * 8), (1.0, [2.0] * 8)])
    segment = anchors2.segments[0]
    arrays = [anchors2.anchors[0].approach, segment.goal_position,
              segment.goal_orientation_rotvec, segment.goal_velocity]
    arrays += [tensions for s in (schedule, replaced) for _, tensions in s.schedule_table]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


@st.composite
def anchor_documents(draw):
    """A scenario document with 1-3 pillars and 1-3 anchor tasks, and per
    claimed wire the anchor its wrap should give it, as (cx, cy, altitude)."""
    doc = yaml.safe_load(MINIMAL)
    n_pillars = draw(st.integers(1, 3))
    n_tasks = draw(st.integers(1, 3))
    m = draw(st.integers(n_tasks, 4))
    coordinate = st.floats(-5.0, 5.0, allow_subnormal=False)
    pillars = []
    for _ in range(n_pillars):
        center = [draw(coordinate), draw(coordinate)]
        low = draw(st.floats(0.0, 2.0))
        pillars.append((center, [low, low + draw(st.floats(0.1, 2.0))]))
    doc["pillars"] = [{"center": {"value": c, "unit": "m"}, "z_range": {"value": z, "unit": "m"}}
                      for c, z in pillars]
    claimed = draw(st.lists(st.integers(0, m - 1), min_size=n_tasks, max_size=n_tasks,
                            unique=True))
    doc["anchors"], expected = [], {}
    for wire_id in claimed:
        pillar = draw(st.integers(0, n_pillars - 1))
        task = {"wire_id": wire_id, "pillar": pillar,
                "approach": {"value": [draw(coordinate) for _ in range(3)], "unit": "m"}}
        altitude = draw(st.none() | st.floats(0.0, 4.0))
        (cx, cy), (z0, z1) = pillars[pillar]
        if altitude is None:
            altitude = 0.5 * (z0 + z1)
        else:
            task["wrap_altitude"] = {"value": altitude, "unit": "m"}
        doc["anchors"].append(task)
        expected[wire_id] = np.array([cx, cy, altitude])
    exit_body = {"value": [0.0, 0.0, 0.1], "unit": "m"}
    doc["wires"] = [{"exit_body": exit_body} if i in expected else
                    {"exit_body": exit_body,
                     "anchor_world": {"value": [float(i + 1), 0.0, 1.0], "unit": "m"}}
                    for i in range(m)]
    return doc, expected


@_PROPERTY
@given(anchor_documents())
def test_claimed_wires_are_anchored_at_load_where_their_wraps_put_them(generated):
    doc, expected = generated
    text = yaml.safe_dump(doc)
    scenario = _load_text(text)
    for wire_id, anchor in expected.items():
        assert scenario.wires[wire_id].anchor_world.tobytes() == anchor.tobytes()
    old_placeholder = np.full(3, 1e6)
    assert not any(np.array_equal(w.anchor_world, old_placeholder) for w in scenario.wires)
    dumped = dump_scenario(scenario)
    reloaded = _load_text(dumped)
    assert dump_scenario(reloaded) == dumped
    for first, second in zip(scenario.wires, reloaded.wires):
        assert first.anchor_world.tobytes() == second.anchor_world.tobytes()
