"""The tracing and timing machinery: transparent wrappers, exact self times."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import wiredrive as wd
from wiredrive import runner, simulator, trajectory, wires

from timing import PROBE_REF_S, OpTimer
from tracer import Tracer, caller_self_times, instrument, patched, self_times, totals_by_name
from workloads import PACKAGE, TRACE_TARGETS, WORKLOADS, best_of_jobs, percentile


class FakeClock:
    """Advances by a fixed step on every read."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def test_wrapper_passes_arguments_and_result_through():
    tracer = Tracer()
    seen = []

    def fn(a, b=2, *rest, **extra):
        seen.append((a, b, rest, extra))
        return {"sum": a + b}

    traced = tracer.wrap("layer.fn", fn, note=lambda args, kwargs, result: result["sum"])
    result = traced(1, 5, 7, key="v")
    assert result == {"sum": 6}
    assert seen == [(1, 5, (7,), {"key": "v"})]
    assert traced.__name__ == "fn"
    [span] = tracer.spans
    assert (span.name, span.parent, span.failed, span.note) == ("layer.fn", -1, False, 6)
    assert span.end >= span.start


def test_wrapper_passes_exceptions_through_and_marks_the_span():
    tracer = Tracer()
    error = wd.NumericalBlowup("speed")

    def fn():
        raise error

    with pytest.raises(wd.NumericalBlowup) as caught:
        tracer.wrap("simulator.step", fn)()
    assert caught.value is error
    assert tracer.spans[0].failed
    assert tracer._open == []


def test_patched_replaces_every_reference_and_restores_them():
    original = wires.wire_jacobian
    marker = object()
    with pytest.raises(RuntimeError):
        with patched(PACKAGE, {"wires.wire_jacobian": lambda orig: marker}):
            # the consuming modules imported the name, so each is patched
            for module in (wires, runner, trajectory, simulator, wd):
                assert module.wire_jacobian is marker
            raise RuntimeError("leave the block early")
    for module in (wires, runner, trajectory, simulator, wd):
        assert module.wire_jacobian is original


def test_patched_method_is_restored_on_its_class():
    original = trajectory.PoseController.step
    with instrument(PACKAGE, Tracer(), {"trajectory.PoseController.step": None}):
        assert trajectory.PoseController.step is not original
    assert trajectory.PoseController.step is original


def test_self_times_subtract_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    top()
    # every clock read advances one unit: leaf spans last 1, mid 5, top 9
    durations = [s.end - s.start for s in tracer.spans]
    assert [s.name for s in tracer.spans] == ["top", "mid", "leaf", "leaf", "leaf"]
    assert durations == [9.0, 5.0, 1.0, 1.0, 1.0]
    assert self_times(tracer.spans) == [3.0, 3.0, 1.0, 1.0, 1.0]
    assert sum(self_times(tracer.spans)) == durations[0]
    totals = totals_by_name([tracer.spans, tracer.spans])
    assert totals["leaf"].calls == 6 and totals["leaf"].self_seconds == 6.0


def test_caller_self_time_completes_each_operation():
    clock = FakeClock()
    tracer = Tracer(clock)
    timer = OpTimer(tracer=tracer, probing=False, clock=clock)
    child = tracer.wrap("child", lambda: None)
    timer.start()  # t=1
    child()  # t=2..3
    child()  # t=4..5
    timer.mark()  # t=6: op 0 lasted 5
    child()  # t=7..8
    timer.mark()  # t=9: op 1 lasted 3
    assert timer.op_seconds() == [5.0, 3.0]
    assert [s.op for s in tracer.spans] == [0, 0, 1]
    assert caller_self_times(tracer.spans, timer.op_seconds()) == [3.0, 2.0]


def test_reference_time_scales_each_segment_by_its_local_probe():
    timer = OpTimer(probing=False)
    timer.seconds = [1.0, 2.0, 4.0]
    timer.ops = [0, 0, 1]
    timer.op = 2
    timer.probes = [PROBE_REF_S * 2] * 3  # the machine ran at half speed
    assert timer.op_ref_seconds() == pytest.approx([1.5, 2.0])
    assert timer.ref_seconds(wall_s=7.0) == pytest.approx(3.5)


def test_nearest_rank_percentile():
    values = list(range(1, 201))
    assert percentile(values, 50) == 100
    assert percentile(values, 99) == 198
    assert percentile([3.0], 99) == 3.0


def test_best_of_jobs_takes_each_operations_minimum():
    assert best_of_jobs([[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], []]) == [2.0, 1.0, 5.0]


def test_a_run_that_raises_is_a_failed_job_not_a_crash(tmp_path):
    def blow_up(original):
        def step(*args, **kwargs):
            raise wd.NumericalBlowup("injected")

        return step

    with patched(PACKAGE, {"simulator.step": blow_up}):
        job = WORKLOADS["cube8_track"].job(1, tmp_path, None)
    assert job.failed
    assert "NumericalBlowup" in job.problems[0]


def _short_run(tmp_path, tracer):
    scenario = dataclasses.replace(wd.load_scenario(wd.bundled_scenario_path("cube8")), duration=0.05)
    timer = OpTimer(tracer=tracer, probing=False)
    out = tmp_path / ("traced" if tracer else "plain")
    with instrument(PACKAGE, tracer or Tracer(), TRACE_TARGETS if tracer else {}):
        with patched(PACKAGE, {"runner.TelemetryWriter": timer.writer_class}):
            runner.run_scenario(scenario, out, seed=3)
    return timer, (out / "telemetry.csv").read_bytes()


def test_traced_tick_accounts_exactly_and_leaves_output_unchanged(tmp_path):
    tracer = Tracer()
    timer, traced_bytes = _short_run(tmp_path, tracer)
    _, plain_bytes = _short_run(tmp_path, None)
    assert traced_bytes == plain_bytes

    ticks = timer.op_seconds()
    assert len(ticks) == 10
    spans = tracer.spans
    own = self_times(spans)
    runner_self = caller_self_times(spans, ticks)
    for k, tick in enumerate(ticks):
        in_tick = [i for i, s in enumerate(spans) if s.op == k]
        assert sum(own[i] for i in in_tick) + runner_self[k] == pytest.approx(tick, abs=1e-9)
        names = [spans[i].name for i in in_tick]
        assert names.count("simulator.step") == 5
        assert names.count("wires.wire_jacobian") + names.count("wires.wire_lengths_and_rates") == 13


def test_exits_nonzero_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parents[1]
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in bench.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cube8_track", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
