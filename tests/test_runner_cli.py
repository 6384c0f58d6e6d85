import cProfile
import csv
import dataclasses
import json
import pstats
import struct
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import numpy_table_tensions
from wiredrive import allocation, cli, runner, spatial, trajectory, wires
from wiredrive.allocation import TensionBounds
from wiredrive.errors import NumericalBlowup, SolverFailure
from wiredrive.feasibility import controllability
from wiredrive.runner import run_scenario
from wiredrive.scenario import build_scenario, bundled_scenario_path, load_scenario
from wiredrive.simulator import OdometrySensor, SimState
from wiredrive.spatial import Pose, Twist, Wrench
from wiredrive.telemetry import column_names
from wiredrive.trajectory import PoseController
from wiredrive.wires import WireSet, wire_jacobian

SMALL = """
format_version: 1
name: small
seed: 11
body:
  mass: {value: 4.0, unit: kg}
  inertia_cube_side: {value: 0.2, unit: m}
  radius: {value: 0.2, unit: m}
wires:
  - exit_body: {value: [0.0, 0.0, 0.1], unit: m}
    anchor_world: {value: [0.6, 0.0, 1.5], unit: m}
  - exit_body: {value: [0.0, 0.0, 0.1], unit: m}
    anchor_world: {value: [-0.6, 0.0, 1.5], unit: m}
  - exit_body: {value: [0.0, 0.0, 0.1], unit: m}
    anchor_world: {value: [0.0, 0.6, 1.5], unit: m}
  - exit_body: {value: [0.0, 0.0, 0.1], unit: m}
    anchor_world: {value: [0.0, -0.6, 1.5], unit: m}
allocation_weights:
  scale: 1.0e8
  torque_lever: {value: 0.2, unit: m}
control:
  mode: pose_control
  rate: {value: 200.0, unit: Hz}
  pid:
    kp: {value: [150.0, 150.0, 150.0, 5.0, 5.0, 5.0], unit: "N/m, N m/rad"}
    ki: {value: [10.0, 10.0, 10.0, 0.5, 0.5, 0.5], unit: "N/(m s), N m/(rad s)"}
    kd: {value: [40.0, 40.0, 40.0, 1.0, 1.0, 1.0], unit: "N s/m, N m s/rad"}
    integral_limit: {value: [0.1, 0.1, 0.1, 0.1, 0.1, 0.1], unit: "m s, rad s"}
trajectory:
  start:
    position: {value: [0.0, 0.0, 0.0], unit: m}
  segments:
    - goal_position: {value: [0.0, 0.0, 0.05], unit: m}
      duration: {value: 0.5, unit: s}
sim:
  dt: {value: 0.001, unit: s}
  duration: {value: 0.8, unit: s}
  sensor:
    position_noise: {value: 0.0002, unit: m}
    latency: 1
"""


@pytest.fixture
def small_scenario(tmp_path):
    p = tmp_path / "small.yaml"
    p.write_text(SMALL)
    return p


def test_run_writes_all_artifacts(small_scenario, tmp_path):
    scenario = load_scenario(small_scenario)
    out = tmp_path / "out"
    summary = run_scenario(scenario, out)
    assert (out / "telemetry.csv").is_file()
    assert (out / "summary.json").is_file()
    assert (out / "resolved.yaml").is_file()
    assert summary["ticks"] == 160
    assert summary["fault_ticks"] == 0
    lines = (out / "telemetry.csv").read_text().splitlines()
    assert lines[0].split(",") == column_names(4)
    assert len(lines) == 1 + summary["ticks"]
    ticks = [int(row.split(",")[1]) for row in lines[1:]]
    assert ticks == sorted(ticks)
    saved = json.loads((out / "summary.json").read_text())
    assert saved["scenario"] == "small"
    assert saved["status"] == "ok"
    assert saved["fault_cause"] is None
    assert saved["telemetry_rows"] == 160


def test_rerun_is_byte_identical(small_scenario, tmp_path):
    scenario = load_scenario(small_scenario)
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_scenario(scenario, out_a)
    run_scenario(load_scenario(small_scenario), out_b)
    run_scenario(load_scenario(small_scenario), out_c, seed=99)
    telem_a = (out_a / "telemetry.csv").read_bytes()
    telem_b = (out_b / "telemetry.csv").read_bytes()
    telem_c = (out_c / "telemetry.csv").read_bytes()
    assert telem_a == telem_b
    assert telem_a != telem_c


def test_resolved_dump_reproduces_a_replaced_run(tmp_path):
    # the dump describes the scenario that ran: its duration and its seed
    cube8 = load_scenario(bundled_scenario_path("cube8"))
    first = run_scenario(dataclasses.replace(cube8, duration=0.05), tmp_path / "a", seed=7)
    again = run_scenario(load_scenario(tmp_path / "a" / "resolved.yaml"), tmp_path / "b")
    assert first["ticks"] == again["ticks"] == 10
    assert first["seed"] == again["seed"] == 7
    telemetry = (tmp_path / "a" / "telemetry.csv").read_bytes()
    assert (tmp_path / "b" / "telemetry.csv").read_bytes() == telemetry
    default_seed = run_scenario(dataclasses.replace(cube8, duration=0.05), tmp_path / "c")
    assert default_seed["seed"] == 42
    assert (tmp_path / "c" / "telemetry.csv").read_bytes() != telemetry


def _rows(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("mode", ["pose_control", "quasistatic_schedule"])
def test_fault_holds_currents_and_flags(mode, small_scenario, tmp_path, monkeypatch):
    if mode == "pose_control":
        scenario = load_scenario(small_scenario)
    else:
        outdoor4 = load_scenario(bundled_scenario_path("outdoor4"))
        scenario = dataclasses.replace(outdoor4, duration=0.4)
    run_scenario(scenario, tmp_path / "clean")
    # both modes solve one allocation QP per tick
    original = allocation.solve_box_qp
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if 50 <= calls["n"] < 55:
            raise SolverFailure("injected failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(allocation, "solve_box_qp", flaky)
    out = tmp_path / "out"
    summary = run_scenario(scenario, out)
    assert summary["fault_ticks"] == 5
    rows = _rows(out / "telemetry.csv")
    clean = _rows(tmp_path / "clean" / "telemetry.csv")
    cols = list(rows[0])
    faulted = [k for k, row in enumerate(rows) if row["fault"] == "1"]
    assert faulted == [49, 50, 51, 52, 53]
    # a held row repeats the last good tick: its reference, wrenches and
    # command (currents included) ...
    held = ("ref_", "wfb_", "wg_", "wdes_", "tension_ref_", "tension_cmd_", "current_", "sat_")
    held_cols = [c for c in cols if c.startswith(held)] + ["residual_norm"]
    last_good = rows[48]
    for k in faulted:
        assert [rows[k][c] for c in held_cols] == [last_good[c] for c in held_cols]
    # ... with its own run time and measurement
    meas_cols = [c for c in cols if c.startswith("meas_")]
    for k in faulted:
        assert float(rows[k]["t"]) == k / scenario.control_rate
        assert [rows[k][c] for c in meas_cols] != [rows[k - 1][c] for c in meas_cols]
    # the first held tick measured the plant the clean run measured
    assert [rows[49][c] for c in ["t"] + meas_cols] == [clean[49][c] for c in ["t"] + meas_cols]
    assert [rows[49][c] for c in held_cols] != [clean[49][c] for c in held_cols]


def test_nan_desired_wrench_is_a_held_tick(small_scenario, tmp_path, monkeypatch):
    # a NaN wrench must fail the QP and hold the last currents, not reach
    # the plant as NaN currents
    original = trajectory.wrench_error_pid
    calls = {"n": 0}

    def nan_feedback(*args):
        calls["n"] += 1
        wrench = original(*args)
        if 50 <= calls["n"] < 53:
            return Wrench(np.full(3, np.nan), wrench.torque)
        return wrench

    monkeypatch.setattr(trajectory, "wrench_error_pid", nan_feedback)
    out = tmp_path / "out"
    summary = run_scenario(load_scenario(small_scenario), out)
    assert summary["status"] == "ok"
    assert summary["fault_ticks"] == 3
    with (out / "telemetry.csv").open() as stream:
        rows = list(csv.DictReader(stream))
    faulted = [k for k, row in enumerate(rows) if row["fault"] == "1"]
    assert faulted == [49, 50, 51]
    for row in rows:
        assert all(np.isfinite(float(row[f"current_{i}"])) for i in range(4))


def test_fault_on_first_tick_is_fatal(small_scenario, tmp_path, monkeypatch):
    scenario = load_scenario(small_scenario)

    def broken(self, pose, twist, t):
        raise SolverFailure("always")

    monkeypatch.setattr(PoseController, "step", broken)
    with pytest.raises(SolverFailure):
        run_scenario(scenario, tmp_path / "out")
    # partial telemetry (the header) was still flushed
    assert (tmp_path / "out" / "telemetry.csv").is_file()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "fault"
    assert summary["fault_cause"] == "SolverFailure: always"
    assert summary["telemetry_rows"] == 0
    assert summary["rms_position_error_m"] == 0.0


def test_plant_fault_still_writes_summary(small_scenario, tmp_path, monkeypatch):
    scenario = load_scenario(small_scenario)
    # the statistics of a faulted run cover its completed ticks only, so
    # they match a clean run that stops after those ticks
    clean = run_scenario(dataclasses.replace(scenario, duration=0.05), tmp_path / "clean")
    original = runner.step
    calls = {"n": 0}

    def blowing_up(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 51:
            raise NumericalBlowup("injected blowup")
        return original(*args, **kwargs)

    # five substeps per tick: call 51 is the first substep of tick 10
    monkeypatch.setattr(runner, "step", blowing_up)
    out = tmp_path / "out"
    with pytest.raises(NumericalBlowup):
        run_scenario(scenario, out)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "fault"
    assert "NumericalBlowup" in summary["fault_cause"]
    assert summary["telemetry_rows"] == 10
    assert len((out / "telemetry.csv").read_text().splitlines()) == 1 + 10
    for key in ("rms_position_error_m", "max_position_error_m", "terminal_position_error_m",
                "max_tension_n", "displacement_axes_m"):
        assert summary[key] == clean[key], key


def test_telemetry_t_is_run_time_in_every_segment(tmp_path):
    # the second segment starts at 0.5 s; its rows still write run time
    doc = yaml.safe_load(SMALL)
    doc["trajectory"]["segments"].append({
        "goal_position": {"value": [0.0, 0.0, 0.0], "unit": "m"},
        "duration": {"value": 0.3, "unit": "s"},
    })
    scenario = build_scenario(doc)
    run_scenario(scenario, tmp_path / "out")
    with (tmp_path / "out" / "telemetry.csv").open() as stream:
        times = [row["t"] for row in csv.DictReader(stream)]
    assert len(times) == 160
    assert times == [repr(k / scenario.control_rate) for k in range(160)]


def test_tension_table_interpolates_and_clamps_to_the_cap(tmp_path):
    doc = yaml.safe_load(bundled_scenario_path("outdoor4").read_text())
    times = [0.1, 0.4]
    table = np.array([[50.0, 60.0, 70.0, 80.0], [100.0, 200.0, 90.0, 40.0]])
    doc["control"]["schedule"] = [
        {"t": {"value": t, "unit": "s"}, "tensions": {"value": row.tolist(), "unit": "N"}}
        for t, row in zip(times, table)
    ]
    doc["sim"]["duration"] = {"value": 0.5, "unit": "s"}
    scenario = build_scenario(doc)
    upper = scenario.bounds.upper
    assert table.max() > max(upper)
    summary = run_scenario(scenario, tmp_path / "out")
    assert summary["max_residual_norm"] == 0.0
    with (tmp_path / "out" / "telemetry.csv").open() as stream:
        rows = list(csv.DictReader(stream))
    assert len(rows) == 100
    for row in rows:
        t = float(row["t"])
        for i in range(4):
            expected = min(np.interp(t, times, table[:, i]), upper[i])
            got = float(row[f"tension_ref_{i}"])
            assert abs(got - expected) <= 1e-12 * expected
            assert row[f"tension_cmd_{i}"] == row[f"tension_ref_{i}"]
            assert row[f"sat_{i}"] == ("1" if expected >= upper[i] - 1e-6 else "0")
        assert float(row["residual_norm"]) == 0.0
        assert all(float(row[f"wdes_{f}"]) == 0.0 for f in ("fx", "fy", "fz", "tx", "ty", "tz"))
    assert any(row["sat_1"] == "1" for row in rows)


def test_tension_table_clamps_to_the_lower_bound(tmp_path):
    # quasistatic mode's QP keeps every wire at or above `lower`; so does the table
    doc = yaml.safe_load(bundled_scenario_path("outdoor4").read_text())
    doc["control"]["schedule"] = [
        {"t": {"value": 0.0, "unit": "s"},
         "tensions": {"value": [1.0, 50.0, 50.0, 50.0], "unit": "N"}}
    ]
    doc["sim"]["duration"] = {"value": 0.05, "unit": "s"}
    scenario = build_scenario(doc)
    assert scenario.bounds.lower[0] == 2.0
    run_scenario(scenario, tmp_path / "out")
    with (tmp_path / "out" / "telemetry.csv").open() as stream:
        rows = list(csv.DictReader(stream))
    assert rows
    for row in rows:
        assert row["tension_ref_0"] == row["tension_cmd_0"] == "2.0"


@st.composite
def tension_tables(draw):
    """outdoor4 with a table of up to five rows, zeros of either sign among
    its tensions, a tension box, and run times on, between and beyond the rows."""
    scenario = load_scenario(bundled_scenario_path("outdoor4"))
    times = sorted(draw(st.sets(st.floats(0.0, 5.0), min_size=1, max_size=5)))
    tension = st.one_of(st.floats(0.0, 300.0), st.sampled_from([0.0, -0.0, 2.0, 80.0]))
    rows = [(t, draw(st.lists(tension, min_size=4, max_size=4))) for t in times]
    lower = draw(st.sampled_from([0.0, 2.0]))
    bounds = TensionBounds.uniform(4, lower, draw(st.sampled_from([80.0, 180.0])))
    scenario = dataclasses.replace(scenario, schedule_table=rows, bounds=bounds)
    instants = draw(st.lists(st.one_of(st.floats(-1.0, 6.0), st.sampled_from(times)),
                             min_size=1, max_size=8))
    return scenario, instants


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(tension_tables())
def test_table_mode_is_bit_identical_to_the_array_formulation(case):
    # bisect and min/max on float tuples give np.searchsorted's row and
    # np.clip's bits, signed zeros included
    scenario, instants = case
    controller = runner._ScheduleController(scenario, WireSet(scenario.wires),
                                            runner._schedule_from_specs(scenario))
    table, lower, upper = scenario.schedule_table, scenario.bounds.lower, scenario.bounds.upper
    for t in instants:
        tensions = controller.step(scenario.start_pose, Twist.zero(), t).command.tensions
        assert all(type(v) is float for v in tensions)
        assert struct.pack("4d", *tensions) == numpy_table_tensions(table, t, lower, upper).tobytes()


def test_anchor_point_files_are_numeric_csv(tmp_path, capsys, monkeypatch):
    flown = []

    def recording_track_path(*args, **kwargs):
        flown.append(track_path(*args, **kwargs))
        return flown[-1]

    track_path = runner.track_path
    monkeypatch.setattr(runner, "track_path", recording_track_path)
    scenario = load_scenario(bundled_scenario_path("anchors2"))
    run_scenario(dataclasses.replace(scenario, duration=0.05), tmp_path / "run")
    assert cli.main(["plan-anchor", str(bundled_scenario_path("anchors2")),
                     "--out", str(tmp_path / "plans")]) == 0
    capsys.readouterr()
    for k, task in enumerate(scenario.anchors):
        header = (tmp_path / "run" / f"anchor_{k}.csv").read_text().splitlines()[0]
        assert header == "x,y,z"
        got = np.loadtxt(tmp_path / "run" / f"anchor_{k}.csv", delimiter=",", skiprows=1)
        assert np.array_equal(got, flown[k])
        got = np.loadtxt(tmp_path / "plans" / f"anchor_plan_{k}.csv", delimiter=",", skiprows=1)
        assert np.array_equal(got, runner.plan_anchor(scenario, task))


def test_cli_validate_ok_and_exit_codes(small_scenario, capsys):
    assert cli.main(["validate", str(small_scenario)]) == 0
    out = capsys.readouterr().out
    assert "name: small" in out


def test_cli_validate_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("format_version: 1\nname: broken\n")
    assert cli.main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "body" in err


def test_cli_run_and_seed_override(small_scenario, tmp_path, capsys):
    out = tmp_path / "cli_run"
    code = cli.main(["run", str(small_scenario), "--out", str(out), "--seed", "5"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["seed"] == 5
    assert (out / "telemetry.csv").is_file()


def test_cli_analyze_cube8_vs_outdoor4(capsys, tmp_path):
    code = cli.main([
        "analyze", str(bundled_scenario_path("cube8")),
        "--out", str(tmp_path / "cube8"),
    ])
    assert code == 0
    cube = json.loads(capsys.readouterr().out)
    assert cube["rank"] == 6
    assert cube["fully_constrained"] is True
    assert (tmp_path / "cube8" / "feasibility.json").is_file()

    code = cli.main([
        "analyze", str(bundled_scenario_path("outdoor4")),
        "--out", str(tmp_path / "outdoor4"),
    ])
    assert code == 0
    outdoor = json.loads(capsys.readouterr().out)
    assert outdoor["fully_constrained"] is False


def test_cli_analyze_uses_the_anchors_deployment_gives(capsys, tmp_path):
    path = bundled_scenario_path("anchors2")
    assert cli.main(["analyze", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    scenario = load_scenario(path)
    deployed = controllability(wire_jacobian(scenario.start_pose, scenario.wires),
                               scenario.bounds, torque_scale=scenario.torque_lever)
    assert report["rank"] == deployed.rank == 2
    assert report["margin"] == deployed.margin


@pytest.mark.parametrize("name", ["cube8", "outdoor4"])
def test_cli_analyze_writes_the_witness_tensions(name, capsys, tmp_path):
    path = bundled_scenario_path(name)
    assert cli.main(["analyze", str(path), "--out", str(tmp_path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert json.loads((tmp_path / "feasibility.json").read_text()) == printed
    scenario = load_scenario(path)
    report = controllability(wire_jacobian(scenario.start_pose, scenario.wires), scenario.bounds,
                             torque_scale=scenario.torque_lever)
    if name == "cube8":
        assert printed["witness_tensions"] == report.witness_tensions.tolist()
        assert len(printed["witness_tensions"]) == 8
    else:  # rank-deficient outdoor4 has no witness
        assert printed["witness_tensions"] is None


@pytest.mark.parametrize("flags, name", [
    (["--pose", "nan", "0", "0"], "--pose"),
])
def test_cli_analyze_bad_flags_exit_2(flags, name, capsys, tmp_path):
    argv = ["analyze", str(bundled_scenario_path("outdoor4")), "--out", str(tmp_path)]
    assert cli.main(argv + flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name}:")
    assert captured.out == ""


def test_cli_plan_anchor(capsys, tmp_path):
    code = cli.main([
        "plan-anchor", str(bundled_scenario_path("anchors2")),
        "--out", str(tmp_path / "plans"),
    ])
    assert code == 0
    plans = json.loads(capsys.readouterr().out)
    assert [p["planned_winding_number"] for p in plans] == [1, 1]
    assert (tmp_path / "plans" / "anchor_plan_0.csv").is_file()
    assert (tmp_path / "plans" / "anchor_plan_1.csv").is_file()


def test_cli_dt_override_must_divide(small_scenario):
    assert cli.main(["validate", str(small_scenario), "--dt", "0.003"]) == 2
    assert cli.main(["validate", str(small_scenario), "--dt", "0.0025"]) == 0


@pytest.mark.parametrize("latency", [0, 1])
def test_sensor_latency_counts_control_ticks(latency, tmp_path):
    # a row's sim_* columns hold the state after the tick's substeps, so a
    # noiseless zero-latency measurement already trails them by one row
    doc = yaml.safe_load(SMALL)
    doc["sim"]["sensor"] = {"latency": latency}
    path = tmp_path / "latency.yaml"
    path.write_text(yaml.safe_dump(doc))
    run_scenario(load_scenario(path), tmp_path / "out")
    with (tmp_path / "out" / "telemetry.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    keys = ["x", "y", "z", "qw", "qx", "qy", "qz"]
    sim = np.array([[float(row[f"sim_{k}"]) for k in keys] for row in rows])
    meas = np.array([[float(row[f"meas_{k}"]) for k in keys] for row in rows])
    lag = 1 + latency
    assert np.allclose(meas[lag:], sim[:-lag], rtol=0.0, atol=1e-12)
    assert not np.allclose(meas[lag + 1:], sim[:-lag - 1], rtol=0.0, atol=1e-12)


def test_sensor_measures_the_plants_own_state(tmp_path, monkeypatch):
    # each tick's measurement is taken of the state object the plant holds:
    # the start state, then whatever the previous tick's last substep returned
    made, measured = [], []
    at_rest, step, measure = SimState.at_rest.__func__, runner.step, OdometrySensor.measure

    def record_at_rest(cls, *args):
        made.append(at_rest(cls, *args))
        return made[-1]

    def record_step(*args, **kwargs):
        made.append(step(*args, **kwargs))
        return made[-1]

    def record_measure(self, state):
        measured.append((state, made[-1], len(made)))
        return measure(self, state)

    monkeypatch.setattr(SimState, "at_rest", classmethod(record_at_rest))
    monkeypatch.setattr(runner, "step", record_step)
    monkeypatch.setattr(OdometrySensor, "measure", record_measure)
    scenario = load_scenario(bundled_scenario_path("cube8"))
    summary = run_scenario(dataclasses.replace(scenario, duration=0.05), tmp_path)
    assert summary["ticks"] == len(measured) == 10
    for k, (state, latest, count) in enumerate(measured):
        assert count == 1 + k * scenario.substeps  # the start state, then k ticks of substeps
        assert state is latest


def test_cli_non_integer_seed_exits_2(tmp_path, capsys):
    path = tmp_path / "seed.yaml"
    path.write_text(SMALL.replace("seed: 11", "seed: abc"))
    assert cli.main(["validate", str(path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_cli_bad_dt_override_exits_2(small_scenario, tmp_path, capsys):
    assert cli.main(["validate", str(small_scenario), "--dt", "0"]) == 2
    assert "sim.dt" in capsys.readouterr().err
    # at 50 Hz a 0.02 s step divides the control period but is too coarse
    slow = tmp_path / "slow.yaml"
    slow.write_text(SMALL.replace("{value: 200.0, unit: Hz}", "{value: 50.0, unit: Hz}"))
    assert cli.main(["validate", str(slow)]) == 0
    capsys.readouterr()
    for command in ("validate", "run"):
        argv = [command, str(slow), "--dt", "0.02", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert "sim.dt" in capsys.readouterr().err


def test_negative_seed_exits_2(small_scenario, tmp_path, capsys):
    # the sensor stream is seeded with seed + 1000, so -1001 used to reach
    # numpy's generator and die there with a traceback
    out = tmp_path / "out"
    assert cli.main(["run", str(small_scenario), "--seed", "-1001", "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["validate", str(small_scenario), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    path = tmp_path / "seed.yaml"
    path.write_text(SMALL.replace("seed: 11", "seed: -5"))
    assert cli.main(["validate", str(path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_run_scenario_rejects_negative_seed_before_writing(small_scenario, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="seed"):
        run_scenario(load_scenario(small_scenario), out, seed=-1)
    assert not out.exists()


@pytest.mark.parametrize("name, calls_per_tick", [("cube8", 13), ("anchors2", 12)])
def test_a_tick_makes_at_most_seven_geometry_passes(name, calls_per_tick, tmp_path, monkeypatch):
    # the substeps and the controller each ask for the wire rates and the
    # wire matrix at one pose; a WireSet's memo serves the second call, and
    # each pass rotates the exit points once, by wires.rotation_rows
    calls, passes = [], []
    rotation_rows = wires.rotation_rows

    def count_pass(orientation):
        passes.append(orientation)
        return rotation_rows(orientation)

    monkeypatch.setattr(wires, "rotation_rows", count_pass)
    for kernel in (wires.wire_jacobian, wires.wire_lengths_and_rates):
        def count_call(*args, _kernel=kernel):
            calls.append(_kernel.__name__)
            return _kernel(*args)

        for module in [m for n, m in sys.modules.items() if n.startswith("wiredrive")]:
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, count_call)
    scenario = load_scenario(bundled_scenario_path(name))
    summary = run_scenario(dataclasses.replace(scenario, duration=0.2), tmp_path)
    ticks = summary["ticks"]
    assert ticks == 40
    assert len(calls) == calls_per_tick * ticks  # the calls perfbench counts
    assert 0 < len(passes) <= 7 * ticks


@pytest.mark.parametrize("name", ["cube8", "anchors2"])
def test_a_run_builds_its_allocation_weight_at_most_once(name, tmp_path, monkeypatch):
    # Scenario.weights builds the matrix on each read: the controller reads it
    # once, not every tick
    built = []
    post_init = allocation.AllocationWeights.__post_init__

    def count(weights):
        built.append(weights)
        post_init(weights)

    scenario = dataclasses.replace(load_scenario(bundled_scenario_path(name)), duration=0.2)
    monkeypatch.setattr(allocation.AllocationWeights, "__post_init__", count)
    assert run_scenario(scenario, tmp_path)["ticks"] == 40
    assert len(built) <= 1


def test_a_tick_takes_no_numpy_norm_and_no_public_pose_constructor(tmp_path, monkeypatch):
    # the tick's quaternions are normalized in floats and its poses built by
    # Pose._of; runs of 20 and 40 ticks make the same calls, all in setup
    norms, poses = [], []
    linalg_norm, post_init = np.linalg.norm, Pose.__post_init__

    def count_norm(*args, **kwargs):
        norms.append(args)
        return linalg_norm(*args, **kwargs)

    def count_pose(pose):
        poses.append(pose)
        post_init(pose)

    monkeypatch.setattr(np.linalg, "norm", count_norm)
    monkeypatch.setattr(Pose, "__post_init__", count_pose)
    scenario = load_scenario(bundled_scenario_path("cube8"))
    counts = []
    for ticks in (20, 40):
        norms.clear()
        poses.clear()
        summary = run_scenario(dataclasses.replace(scenario, duration=ticks / 200.0),
                               tmp_path / str(ticks))
        assert summary["ticks"] == ticks
        counts.append((len(norms), len(poses)))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name, arrays", [("cube8", 1), ("anchors2", 1)],
                         ids=["cube8", "anchors2"])
def test_a_tick_converts_few_arrays_and_keys_no_memo_on_bytes(name, arrays, tmp_path,
                                                             monkeypatch):
    # the tick records, the configuration it reads, the wire kinematics and
    # the allocation are float tuples, so a tick converts an array to floats
    # only for the sensor's noise draw, takes `np.asarray` of nothing, and
    # never converts or checks a number again (`spatial._numbers`); a profile of a
    # 40-tick run less one of a 20-tick run counts 20 ticks, of pose control
    # (cube8) and of schedule mode (anchors2); the allocation QP factors its
    # own blocks, so no tick calls `np.linalg.solve`, and the wire matrix is
    # no array (`np.fromiter`)
    code = spatial._numbers.__code__
    names = {
        "tolist": "<method 'tolist' of 'numpy.ndarray' objects>",
        "array": "<built-in method numpy.array>",
        "asarray": "<built-in method numpy.asarray>",
        "tobytes": "<method 'tobytes' of 'numpy.ndarray' objects>",
        "fromiter": "<built-in method numpy.fromiter>",
        "_numbers": (code.co_filename, code.co_firstlineno, code.co_name),
    }
    scenario = load_scenario(bundled_scenario_path(name))
    solves = []
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *args, _solve=np.linalg.solve: solves.append(1) or _solve(*args))
    counts = []
    for ticks in (20, 40):
        profile = cProfile.Profile()
        profile.runcall(run_scenario,
                        dataclasses.replace(scenario, duration=ticks / scenario.control_rate),
                        tmp_path / str(ticks))
        # a built-in is keyed by its name alone, a Python function by its code
        calls = {key[2] if key[0] == "~" else key: value[1]
                 for key, value in pstats.Stats(profile).stats.items()}
        counts.append({kind: calls.get(key, 0) for kind, key in names.items()})
        counts[-1]["solve"] = len(solves)
        solves.clear()
    per_tick = {kind: (counts[1][kind] - counts[0][kind]) / 20 for kind in counts[0]}
    assert per_tick["solve"] == 0, per_tick
    assert per_tick["tobytes"] == 0, per_tick
    assert per_tick["fromiter"] == 0, per_tick
    assert per_tick["asarray"] == 0, per_tick
    assert per_tick["tolist"] + per_tick["array"] <= arrays, per_tick
    assert per_tick["_numbers"] == 0, per_tick
