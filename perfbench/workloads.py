"""The benchmark's workloads: what each runs, how it is timed, what it checks.

Every workload is closed loop with one caller: the next control tick (or
analyzed pose) starts only when the previous one has returned.  A *job* is
one complete user-visible operation, a ``run_scenario`` call or one
``analyze`` pass over the seed's poses.  A measurement repeats jobs on the
same seed while another fits in the time given, at least twice, and
requires every job to produce the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import wiredrive as wd
from wiredrive import runner

from timing import OpTimer
from tracer import (
    LayerTotals,
    Tracer,
    caller_self_times,
    instrument,
    patched,
    totals_by_name,
    write_spans,
)

PACKAGE = "wiredrive"
ANALYZE_POSES = 4  # poses per analyze job; about 10 s on the seed code
# cube8's lift runs along z from -0.225 m to +0.225 m; analyzed poses are
# drawn from that stroke widened by 5 cm on each side in x and y
ANALYZE_BOX = (np.array([-0.05, -0.05, -0.225]), np.array([0.05, 0.05, 0.225]))
TRACK_RMS_LIMIT_MM = 10.0  # "tracking stays inside a centimeter"
RESIDUAL_FLOOR_N = 1e-3  # above the regularisation-level residual (~5e-6 N)
SETUP_REPEATS = 3
SETUP_SCRIPT = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import wiredrive\n"
    "t1 = time.perf_counter()\n"
    "wiredrive.load_scenario(sys.argv[1])\n"
    "print(t1 - t0)\n"
)
# the yardstick for set-up time: a fresh process importing libraries the
# program uses, but none of the program's own code
SETUP_REF_SCRIPT = "import numpy, scipy.linalg, scipy.sparse\n"
SETUP_REF_S = 0.5  # about SETUP_REF_SCRIPT's time on a shared 2-vCPU Xeon VM


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else (args[index] if len(args) > index else None)


# target -> note taken from each call (or None); see tracer.patched
TRACE_TARGETS = {
    "scenario.load_scenario": None,
    "scenario.dump_scenario": None,
    "runner.deploy_anchors": None,
    "anchors.plan_wrap_path": None,
    "anchors.track_path": lambda args, kwargs, result: len(result),
    "trajectory.sample": None,
    "trajectory.PoseController.step": None,
    "spatial.wrench_error_pid": None,
    "spatial.transform_odometry": None,
    "wires.wire_jacobian": None,
    "wires.wire_lengths_and_rates": None,
    "allocation.solve_tension_command": None,
    "allocation.allocate": None,
    "allocation.compensate": None,
    "allocation.to_currents": None,
    "qp.solve_box_qp": lambda args, kwargs, result: (
        result[1], result[2], _arg(args, kwargs, 4, "start") is not None
    ),
    "simulator.step": None,
    "simulator.OdometrySensor.measure": None,
    "telemetry.TelemetryWriter.write_tick": None,
    "feasibility.controllability": lambda args, kwargs, result: result.directions_checked,
    "feasibility.linprog": lambda args, kwargs, result: bool(result.success),
}


@dataclass
class Job:
    op_seconds: list[float] = field(default_factory=list)  # wall time per tick or pose
    op_ref_seconds: list[float] = field(default_factory=list)  # same at reference speed
    wall_s: float = 0.0  # the job's wall time without the probes
    ref_s: float = 0.0  # the job's time at reference speed
    probe_s: float = 0.0  # median probe time during the job
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    spans: list | None = None
    caller_self: list[float] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_track(summary) -> list[str]:
    problems = []
    if summary["fault_ticks"]:
        problems.append(f"{summary['fault_ticks']} fault ticks, expected none")
    if summary["saturation_ticks"]:
        problems.append(f"{summary['saturation_ticks']} saturated ticks, expected none")
    rms_mm = summary["rms_position_error_m"] * 1e3
    if not rms_mm < TRACK_RMS_LIMIT_MM:
        problems.append(f"tracking RMS {rms_mm:.3f} mm, expected < {TRACK_RMS_LIMIT_MM} mm")
    return problems


def _check_saturated(summary) -> list[str]:
    problems = []
    if not summary["saturation_ticks"] > 0:
        problems.append("no saturated ticks, expected some")
    if not summary["max_residual_norm"] > RESIDUAL_FLOOR_N:
        problems.append(
            f"allocation residual {summary['max_residual_norm']:.3e} N, expected > {RESIDUAL_FLOOR_N} N"
        )
    return problems


def _check_anchors(summary) -> list[str]:
    anchors = summary["anchors"]
    if len(anchors) != 2 or not all(a["wrap_succeeded"] for a in anchors):
        return [f"anchor wraps {[a['wrap_succeeded'] for a in anchors]}, expected two successes"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    scenario_name: str  # a bundled scenario
    why: str

    @property
    def scenario_path(self) -> Path:
        return wd.bundled_scenario_path(self.scenario_name)


@dataclass(frozen=True)
class RunWorkload(Workload):
    """``run_scenario`` on one bundled scenario; the operation is a tick."""

    check: Callable[[dict], list[str]]
    op_unit = "tick"

    def job(self, seed: int, out_dir: Path, tracer: Tracer | None) -> Job:
        job = Job()
        timer = OpTimer(tracer=tracer, probing=tracer is None)
        with contextlib.ExitStack() as stack:
            # spans go on first, so the timed writer subclasses the traced one
            if tracer is not None:
                stack.enter_context(instrument(PACKAGE, tracer, TRACE_TARGETS))
            stack.enter_context(patched(PACKAGE, {"runner.TelemetryWriter": timer.writer_class}))
            scenario = wd.load_scenario(self.scenario_path)
            start = time.perf_counter()
            try:
                summary = runner.run_scenario(scenario, out_dir, seed=seed)
            except Exception as exc:  # a raised run is a failed operation, not a crash
                traceback.print_exc()
                job.problems.append(f"run_scenario raised {type(exc).__name__}: {exc}")
                return job
            wall = time.perf_counter() - start
        _finish_timing(job, timer, wall)
        telemetry = out_dir / "telemetry.csv"
        job.digest = _sha256(telemetry)
        if len(job.op_seconds) != summary["ticks"]:
            job.problems.append(f"timed {len(job.op_seconds)} ticks of {summary['ticks']}")
        job.problems += self.check(summary)
        header = len(",".join(wd.telemetry.column_names(scenario.wire_count))) + 1
        job.quality = {
            "ticks": summary["ticks"],
            "track_rms_mm": summary["rms_position_error_m"] * 1e3,
            "fault_ticks": summary["fault_ticks"],
            "saturation_ticks": summary["saturation_ticks"],
            "max_residual_norm": summary["max_residual_norm"],
            "bytes_per_row": (telemetry.stat().st_size - header) / max(summary["ticks"], 1),
        }
        if tracer is not None:
            job.spans = tracer.spans
            job.caller_self = caller_self_times(tracer.spans, job.op_seconds)
        return job


def _finish_timing(job: Job, timer: OpTimer, wall: float) -> None:
    job.op_seconds = timer.op_seconds()
    job.wall_s = wall - timer.overhead_s
    if timer.probing:
        job.op_ref_seconds = timer.op_ref_seconds()
        job.ref_s = timer.ref_seconds(wall)
        job.probe_s = statistics.median(timer.probes)


def _segmenting(timer: OpTimer):
    def make(original):
        def call(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                timer.mark(op_done=False)

        return call

    return make


class AnalyzeWorkload(Workload):
    """``wire_jacobian`` + ``controllability`` at seeded poses; the
    operation is one pose."""

    op_unit = "pose"

    @staticmethod
    def poses(seed: int):
        rng = np.random.default_rng(seed)
        lo, hi = ANALYZE_BOX
        return [wd.Pose.from_translation(rng.uniform(lo, hi)) for _ in range(ANALYZE_POSES)]

    def job(self, seed: int, out_dir: Path, tracer: Tracer | None) -> Job:
        job = Job()
        timer = OpTimer(tracer=tracer, probing=tracer is None)
        results = []
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(instrument(PACKAGE, tracer, TRACE_TARGETS))
            # each LP ends a segment, so the speed is sampled within a pose
            stack.enter_context(patched(PACKAGE, {"feasibility.linprog": _segmenting(timer)}))
            scenario = wd.load_scenario(self.scenario_path)
            weights = scenario.weights.matrix
            lever = float(np.sqrt(weights[0, 0] / weights[3, 3]))  # as the analyze command does
            poses = self.poses(seed)
            start = time.perf_counter()
            timer.start()
            for pose in poses:
                try:
                    jacobian = wd.wire_jacobian(pose, scenario.wires)
                    report = wd.controllability(jacobian, scenario.bounds, torque_scale=lever)
                    results.append((jacobian, report))
                except Exception as exc:  # a raised pose is a failed operation
                    traceback.print_exc()
                    job.problems.append(f"pose raised {type(exc).__name__}: {exc}")
                timer.mark()
            wall = time.perf_counter() - start
        _finish_timing(job, timer, wall)
        digest = hashlib.sha256()
        for jacobian, report in results:
            digest.update(repr((report.rank, report.margin, report.worst_direction.tolist(),
                                report.saturating_wires)).encode())
            job.problems += self._check(jacobian, report, scenario.bounds)
        job.digest = digest.hexdigest()
        job.quality = {
            "poses": len(poses),
            "margin_min": min((r.margin for _, r in results), default=0.0),
        }
        if tracer is not None:
            job.spans = tracer.spans
        return job

    @staticmethod
    def _check(jacobian, report, bounds) -> list[str]:
        problems = []
        if report.rank != 6:
            problems.append(f"rank {report.rank}, expected 6")
        target = wd.Wrench.from_array(report.margin * report.worst_direction)
        achievable, _, residual = wd.wrench_achievable(jacobian, target, bounds)
        if not achievable:
            problems.append(
                f"margin x worst direction not realised (residual {np.linalg.norm(residual.as_array()):.3e})"
            )
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        RunWorkload(
            "cube8_track", "cube8",
            "8 wires, full cascade each tick, mostly interior QP: wire kinematics, controller and QP work show most",
            _check_track,
        ),
        RunWorkload(
            "cube8_saturated", "cube8_saturated",
            "80 N caps pin wires at the bound and the QP takes up to 11 iterations: bound-active QP cost shows in the tail",
            _check_saturated,
        ),
        RunWorkload(
            "anchors2_schedule", "anchors2",
            "2 wires, anchor wraps then an open-loop schedule with 1-iteration QPs: plant, odometry and telemetry dominate",
            _check_anchors,
        ),
        AnalyzeWorkload(
            "analyze_cube8", "cube8",
            "controllability at seeded poses, 1000 LPs each: feasibility only, bypassing the tick loop",
        ),
    )
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def measure(workload, seed: int, seconds: float, out_dir: Path, trace: bool) -> list[tuple[bool, Job]]:
    """Repeat jobs while another one fits in ``seconds``, at least two.
    Traced runs alternate untraced and traced jobs, untraced first."""
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(jobs) >= 2 and elapsed * (len(jobs) + 1) / len(jobs) > seconds:
            break
        traced = trace and len(jobs) % 2 == 1
        jobs.append((traced, workload.job(seed, out_dir, Tracer() if traced else None)))
    digests = [job.digest for _, job in jobs if job.digest]
    for traced, job in jobs:
        if job.digest and job.digest != digests[0]:
            job.problems.append(
                f"{'traced' if traced else 'untraced'} job output differs from the first job's"
            )
    return jobs


def _timed_process(args: list[str], env: dict) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return time.perf_counter() - start, proc.stdout


def measure_setup(scenario_path: Path) -> dict:
    """Time fresh processes that import wiredrive and load the scenario.

    Import time does not follow the probe (see timing.py), but it does
    follow another import: each set-up runs between two runs of
    SETUP_REF_SCRIPT, and its reference time is its wall time scaled by
    SETUP_REF_S over theirs.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(wd.__file__).resolve().parents[1]))
    out = {"wall_s": [], "ref_s": [], "import_s": []}
    refs = [_timed_process(["-c", SETUP_REF_SCRIPT], env)[0]]
    for _ in range(SETUP_REPEATS):
        wall, stdout = _timed_process(["-c", SETUP_SCRIPT, str(scenario_path)], env)
        refs.append(_timed_process(["-c", SETUP_REF_SCRIPT], env)[0])
        out["wall_s"].append(wall)
        out["ref_s"].append(wall * SETUP_REF_S / ((refs[-2] + refs[-1]) / 2))
        out["import_s"].append(float(stdout.split()[-1]))
    return out


def run(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Set-up timing, then the jobs; returns the run's record."""
    setup = measure_setup(workload.scenario_path)
    jobs = measure(workload, seed, seconds, out_dir, trace)
    if trace:
        metrics = per_layer(workload, jobs, setup)
        write_spans(out_dir / "spans.csv", [job.spans for traced, job in jobs if traced and job.spans])
    else:
        metrics = end_to_end(workload, jobs, setup)
    first = next((job for _, job in jobs if not job.failed), jobs[0][1])
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "jobs": len(jobs),
        "ops": sum(len(job.op_seconds) for _, job in jobs),
        "op_unit": workload.op_unit,
        "failed": sum(job.failed for _, job in jobs),
        "problems": [p for _, job in jobs for p in job.problems],
        "digest_name": "telemetry_sha256" if workload.op_unit == "tick" else "report_sha256",
        "digests": sorted({job.digest for _, job in jobs if job.digest}),
        "quality": first.quality,
        "metrics": metrics,
        "wall_clock": wall_clock(jobs, setup),
    }


def _p50_p99(values):
    if not values:
        return 0.0, 0.0
    return statistics.median(values), percentile(values, 99)


def best_of_jobs(series: list[list[float]]) -> list[float]:
    """Each operation's fastest time over the jobs.  Jobs repeat the same
    seed, so operation k does the same work in each; the minimum drops
    the stalls a busy host adds to one job or another."""
    complete = [s for s in series if s and len(s) == max(map(len, series))]
    return [min(times) for times in zip(*complete)]


def end_to_end(workload, jobs, setup) -> dict:
    """Metric name -> (value, unit, samples); times at reference speed."""
    done = [job for _, job in jobs if not job.failed]
    ops = best_of_jobs([job.op_ref_seconds for job in done])
    p50, p99 = _p50_p99(ops)
    ref_runs = [job.ref_s for job in done]
    return {
        "latency_us_p50": (p50 * 1e6, "us", len(ops)),
        "latency_us_p99": (p99 * 1e6, "us", len(ops)),
        "run_s": (statistics.median(ref_runs) if ref_runs else 0.0, "s", len(ref_runs)),
        "setup_s": (statistics.median(setup["ref_s"]), "s", len(setup["ref_s"])),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def wall_clock(jobs, setup) -> dict:
    """The untraced jobs' times as the wall clock read them, for the record."""
    done = [job for traced, job in jobs if not traced and not job.failed]
    ops = best_of_jobs([job.op_seconds for job in done])
    p50, p99 = _p50_p99(ops)
    probes = [job.probe_s for job in done if job.probe_s]
    return {
        "wall.latency_us_p50": (p50 * 1e6, "us", len(ops)),
        "wall.latency_us_p99": (p99 * 1e6, "us", len(ops)),
        "wall.run_s": (statistics.median(job.wall_s for job in done) if done else 0.0, "s", len(done)),
        "wall.setup_s": (statistics.median(setup["wall_s"]), "s", len(setup["wall_s"])),
        "probe_us": (statistics.median(probes) * 1e6 if probes else 0.0, "us", len(probes)),
    }


def per_layer(workload, jobs, setup) -> dict:
    """Metric name -> (value, unit, samples) from the traced jobs."""
    traced = [job for is_traced, job in jobs if is_traced]
    plain = [job for is_traced, job in jobs if not is_traced]
    totals = totals_by_name([job.spans for job in traced if job.spans is not None])
    n_jobs = len(traced)
    ticks = sum(len(job.op_seconds) for job in traced) if workload.op_unit == "tick" else 0
    row_bytes = [job.quality["bytes_per_row"] for job in traced if "bytes_per_row" in job.quality]

    def get(name):
        return totals.get(name, LayerTotals())

    def ratio(a, b):
        return a / b if b else 0.0

    def us_per_call(name):
        return ratio(get(name).seconds * 1e6, get(name).calls)

    def ms_per_job(name):
        return ratio(get(name).seconds * 1e3, n_jobs)

    qp_notes = get("qp.solve_box_qp").notes
    lp = get("feasibility.linprog")
    poses = get("feasibility.controllability")
    traced_ops = [s for job in traced for s in job.op_seconds]
    plain_ops = [s for job in plain for s in job.op_seconds]
    metrics = {
        "simulator.step.us_per_call": (us_per_call("simulator.step"), "us"),
        "simulator.steps_per_tick": (ratio(get("simulator.step").op_calls, ticks), "calls/tick"),
        "simulator.OdometrySensor.measure.us_per_call": (us_per_call("simulator.OdometrySensor.measure"), "us"),
        "wires.evals_per_tick": (
            ratio(get("wires.wire_jacobian").op_calls + get("wires.wire_lengths_and_rates").op_calls, ticks),
            "calls/tick",
        ),
        "wires.wire_jacobian.us_per_call": (us_per_call("wires.wire_jacobian"), "us"),
        "wires.wire_lengths_and_rates.us_per_call": (us_per_call("wires.wire_lengths_and_rates"), "us"),
        "qp.solve_box_qp.us_per_call": (us_per_call("qp.solve_box_qp"), "us"),
        "qp.iters_mean": (ratio(sum(n[0] for n in qp_notes), len(qp_notes)), "iterations"),
        "qp.iters_max": (max((n[0] for n in qp_notes), default=0), "iterations"),
        "qp.kkt_max": (max((n[1] for n in qp_notes), default=0.0), "ratio"),
        "qp.warm_start_frac": (ratio(sum(n[2] for n in qp_notes), len(qp_notes)), "ratio"),
        "qp.failures": (ratio(get("qp.solve_box_qp").failures, n_jobs), "count/job"),
        "allocation.solve_tension_command.self_us_per_call": (
            ratio(get("allocation.solve_tension_command").self_seconds * 1e6,
                  get("allocation.solve_tension_command").calls),
            "us",
        ),
        "allocation.allocate.self_us_per_call": (
            ratio(get("allocation.allocate").self_seconds * 1e6, get("allocation.allocate").calls), "us"
        ),
        "allocation.compensate.us_per_call": (us_per_call("allocation.compensate"), "us"),
        "allocation.to_currents.us_per_call": (us_per_call("allocation.to_currents"), "us"),
        "trajectory.sample.us_per_call": (us_per_call("trajectory.sample"), "us"),
        "trajectory.PoseController.step.self_us_per_tick": (
            ratio(get("trajectory.PoseController.step").self_seconds * 1e6, ticks), "us/tick"
        ),
        "spatial.wrench_error_pid.us_per_call": (us_per_call("spatial.wrench_error_pid"), "us"),
        "spatial.transform_odometry.us_per_call": (us_per_call("spatial.transform_odometry"), "us"),
        "telemetry.write_tick.us_per_row": (us_per_call("telemetry.TelemetryWriter.write_tick"), "us"),
        "telemetry.bytes_per_row": (
            statistics.mean(row_bytes) if row_bytes else 0.0, "bytes"
        ),
        "runner.self_us_per_tick": (ratio(sum(s for job in traced for s in job.caller_self) * 1e6, ticks), "us/tick"),
        "runner.deploy_anchors.ms": (ms_per_job("runner.deploy_anchors"), "ms/job"),
        "anchors.plan_wrap_path.ms": (ms_per_job("anchors.plan_wrap_path"), "ms/job"),
        "anchors.track_path.ms": (ms_per_job("anchors.track_path"), "ms/job"),
        "anchors.track_samples": (ratio(sum(get("anchors.track_path").notes), n_jobs), "count/job"),
        "feasibility.controllability.ms_per_pose": (ratio(poses.seconds * 1e3, poses.calls), "ms"),
        "feasibility.lp_calls_per_pose": (ratio(lp.calls, poses.calls), "calls/pose"),
        # what the report claims, next to the count above; ROADMAP item 3
        "feasibility.directions_checked_per_pose": (ratio(sum(poses.notes), poses.calls), "calls/pose"),
        "feasibility.lp.us_per_call": (us_per_call("feasibility.linprog"), "us"),
        "feasibility.lp_fail_frac": (ratio(sum(not ok for ok in lp.notes), lp.calls), "ratio"),
        "scenario.load_scenario.ms": (us_per_call("scenario.load_scenario") / 1e3, "ms"),
        "scenario.dump_scenario.ms": (us_per_call("scenario.dump_scenario") / 1e3, "ms"),
        "setup.import_s": (statistics.median(setup["import_s"]), "s"),
        "trace.overhead_frac": (
            ratio(statistics.median(traced_ops), statistics.median(plain_ops)) - 1.0
            if traced_ops and plain_ops else 0.0,
            "ratio",
        ),
        "trace.exceptions": (ratio(sum(t.failures for t in totals.values()), n_jobs), "count/job"),
    }
    samples = f"{n_jobs} traced jobs, {sum(len(job.op_seconds) for job in traced)} {workload.op_unit}s"
    return {name: (value, unit, samples) for name, (value, unit) in metrics.items()}
