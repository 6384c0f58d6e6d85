import csv
import dataclasses
import json

import numpy as np
import pytest
import yaml

from wiredrive import cli, runner
from wiredrive.errors import NumericalBlowup, SolverFailure
from wiredrive.runner import run_scenario
from wiredrive.scenario import bundled_scenario_path, load_scenario
from wiredrive.telemetry import column_names
from wiredrive.trajectory import PoseController

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


def test_fault_holds_currents_and_flags(small_scenario, tmp_path, monkeypatch):
    scenario = load_scenario(small_scenario)
    original = PoseController.step
    calls = {"n": 0}

    def flaky(self, pose, twist, segment, t):
        calls["n"] += 1
        if 50 <= calls["n"] < 55:
            raise SolverFailure("injected failure")
        return original(self, pose, twist, segment, t)

    monkeypatch.setattr(PoseController, "step", flaky)
    out = tmp_path / "out"
    summary = run_scenario(scenario, out)
    assert summary["fault_ticks"] == 5
    lines = (out / "telemetry.csv").read_text().splitlines()
    cols = lines[0].split(",")
    fault_idx = cols.index("fault")
    current_idx = cols.index("current_0")
    rows = [line.split(",") for line in lines[1:]]
    faulted = [r for r in rows if r[fault_idx] == "1"]
    assert len(faulted) == 5
    # held currents repeat the last good command
    last_good = rows[48]
    assert faulted[0][current_idx] == last_good[current_idx]


def test_fault_on_first_tick_is_fatal(small_scenario, tmp_path, monkeypatch):
    scenario = load_scenario(small_scenario)

    def broken(self, pose, twist, segment, t):
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
