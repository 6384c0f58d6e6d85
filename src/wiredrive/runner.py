"""Experiment orchestration: deployment phase, closed loop, outputs.

The scenario's wires already hold their anchors, those of wrapped wires
included, so the deployment phase only flies each wrap and checks that
it winds its pillar; a wrap that does not ends the run.

Each control tick, the odometry sensor measures the plant's own
body-center state (delayed and noisy as the scenario's sensor model
says), and the controller acts on that measurement.  The scenario's mode
picks the controller once: `PoseController` closes the loop, schedule
mode's controller runs open loop.  Both sample the run's schedule at run
time and return a `ControlTick` carrying its `TensionCommand`.

A run is reproducible from (scenario file, seed) alone: every random
stream is derived from the run seed with fixed offsets, and telemetry is
written with byte-stable formatting.  On a controller fault inside the
loop the last tick, its currents included, is held and the row is
flagged; the row still carries its own run time and measurement.  Any other
exception (a plant fault, a failed deployment, a controller fault on the
first tick) ends the run: the telemetry written so far is kept, and
summary.json records `status` "fault" and its `fault_cause` before the
exception propagates.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import numpy as np

from .allocation import allocate, tension_command
from .anchors import plan_wrap_path, track_path, winding_number
from .errors import WireDriveError
from .scenario import POSE_CONTROL, AnchorTask, Scenario, dump_scenario
from .simulator import OdometrySensor, SimState, step
from .spatial import Pose, Twist, Wrench, attitude_error, norm3
from .telemetry import TelemetryWriter
from .trajectory import (
    ControlTick,
    PoseController,
    chain_segments,
    gravity_feedforward,
    sample_schedule,
)
from .wires import WireSet, wire_jacobian, wire_lengths_and_rates

# fixed offsets carve independent, reproducible streams out of one seed
_SENSOR_SEED_OFFSET = 1_000
_ANCHOR_SEED_OFFSET = 2_000


def _schedule_from_specs(scenario: Scenario):
    points = [(scenario.start_pose, Twist.zero(), 0.0)]
    for spec in scenario.segments:
        points.append((spec.goal_pose, Twist.from_array(spec.goal_velocity), spec.duration))
    return chain_segments(points)


class _ScheduleController:
    """Schedule mode's open-loop controller, stepped like `PoseController`.

    Quasistatic mode allocates the gravity-plus-feedforward wrench at the
    reference pose (measurements are never consulted, which is what makes
    it open loop); table mode interpolates the scheduled tensions and
    clips them to the tension box, which also holds the QP's solution.
    No winch compensation follows: the final tensions are the allocated
    ones.
    """

    def __init__(self, scenario: Scenario, wires: WireSet, schedule):
        self.scenario = scenario
        self.wires = wires
        self.segments, self.starts = schedule
        self.weights = scenario.weights
        self.gravity = gravity_feedforward(scenario.body, scenario.gravity)
        if scenario.schedule_table is not None:
            self.times = np.array([row[0] for row in scenario.schedule_table])

    def _interp_table(self, t: float) -> np.ndarray:
        table = self.scenario.schedule_table
        times = self.times
        if t <= times[0]:
            return table[0][1]
        if t >= times[-1]:
            return table[-1][1]
        hi = int(np.searchsorted(times, t))
        lo = hi - 1
        w = (t - times[lo]) / (times[hi] - times[lo])
        return (1.0 - w) * table[lo][1] + w * table[hi][1]

    def step(self, pose: Pose, twist: Twist, t: float) -> ControlTick:
        scenario = self.scenario
        pose_ref, twist_ref, accel_ref = sample_schedule(self.segments, self.starts, t)
        if scenario.schedule_table is not None:
            tensions = np.clip(self._interp_table(t), scenario.bounds.lower, scenario.bounds.upper)
            residual = np.zeros(6)
            desired = Wrench.zero()
        else:
            jacobian = wire_jacobian(pose_ref, self.wires)
            force = tuple(g + scenario.body.mass * a for g, a in zip(self.gravity.force, accel_ref))
            desired = Wrench._of(force, tuple(g + 0.0 for g in self.gravity.torque))
            tensions, residual = allocate(jacobian, desired, scenario.bounds, self.weights)
        command = tension_command(tensions, tensions, residual, scenario.bounds, scenario.winch)
        return ControlTick._of(pose_ref, twist_ref, accel_ref, Wrench.zero(), self.gravity, desired,
                               command)


def write_points_csv(path: Path, points) -> None:
    """Write (n, 3) points under an `x,y,z` header, one row of float reprs each."""
    with path.open("w") as fh:
        fh.write("x,y,z\n")
        for x, y, z in np.asarray(points).tolist():
            fh.write(f"{x!r},{y!r},{z!r}\n")


def plan_anchor(scenario: Scenario, task: AnchorTask) -> np.ndarray:
    """Wrap path waypoints, (n, 3), for one anchor task."""
    return plan_wrap_path(
        scenario.pillars[task.pillar],
        task.approach,
        task.clearance,
        spacing=scenario.deployment.waypoint_spacing,
        altitude=task.wrap_altitude,
    )


def deploy_anchors(scenario: Scenario, seed: int, out_dir: Path | None = None) -> list[dict]:
    """Fly every anchor task; returns one report per task.

    Raises WireDriveError if a flown wrap does not wind its pillar.
    """
    reports = []
    dep = scenario.deployment
    for k, task in enumerate(scenario.anchors):
        pillar = scenario.pillars[task.pillar]
        trajectory = track_path(
            plan_anchor(scenario, task),
            dep.sensor,
            gains=dep.tracker,
            dt=dep.drone_dt,
            capture_radius=dep.capture_radius,
            seed=seed + _ANCHOR_SEED_OFFSET + k,
        )
        turns = winding_number(trajectory, pillar.center)
        succeeded = abs(turns) >= 1
        if not succeeded:
            raise WireDriveError(
                f"anchor {k} failed to wrap pillar {task.pillar} "
                f"(winding number {turns})"
            )
        traj_file = None
        if out_dir is not None:
            traj_file = out_dir / f"anchor_{k}.csv"
            write_points_csv(traj_file, trajectory)
        reports.append(
            {
                "anchor": k,
                "wire_id": task.wire_id,
                "pillar": task.pillar,
                "winding_number": turns,
                "wrap_succeeded": succeeded,
                "samples": int(len(trajectory)),
                "trajectory_file": str(traj_file) if traj_file else None,
            }
        )
    return reports


def run_scenario(scenario: Scenario, out_dir, seed: int | None = None) -> dict:
    """Execute a scenario end to end and persist its artifacts.

    Writes resolved.yaml, telemetry.csv, summary.json and (with anchor
    tasks) one anchor_<k>.csv per deployed wire into `out_dir`.  Returns
    the summary dictionary.  A given `seed` replaces the scenario's, for
    the random streams, summary.json and resolved.yaml alike; `Scenario`
    refuses a negative one (a ValidationError, so a ValueError) before
    anything is written.  An exception out of the deployment or the tick
    loop (a plant fault, or a controller fault on the first tick) still
    writes summary.json, with `status` "fault", its `fault_cause` and the
    statistics of the ticks completed before it, and is then re-raised.
    """
    scenario = scenario if seed is None else dataclasses.replace(scenario, seed=int(seed))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wall_start = time.perf_counter()

    (out_dir / "resolved.yaml").write_text(dump_scenario(scenario))

    ticks = int(round(scenario.duration * scenario.control_rate))
    pos_errors = np.empty(ticks)
    rot_errors = np.empty(ticks)
    max_tension = 0.0
    max_residual = 0.0
    saturation_ticks = 0
    max_simultaneous_sat = 0
    fault_ticks = 0
    capacity_violations = 0
    anchor_reports = []
    rows, end_pose = 0, scenario.start_pose
    fault_cause = None
    try:
        if scenario.anchors:
            anchor_reports = deploy_anchors(scenario, scenario.seed, out_dir)
        wires = WireSet(scenario.wires)

        schedule = _schedule_from_specs(scenario)
        if scenario.mode == POSE_CONTROL:
            controller = PoseController(
                scenario.body, wires, scenario.bounds, scenario.weights, scenario.winch,
                scenario.gains, schedule, dt=1.0 / scenario.control_rate, gravity=scenario.gravity,
            )
        else:
            controller = _ScheduleController(scenario, wires, schedule)
        sensor = OdometrySensor(scenario.sensor, seed=scenario.seed + _SENSOR_SEED_OFFSET)
        state = SimState.at_rest(scenario.start_pose, scenario.wire_count)
        tick: ControlTick | None = None

        with (out_dir / "telemetry.csv").open("w", newline="") as stream:
            writer = TelemetryWriter(stream, scenario.wire_count)
            for k in range(ticks):
                t = k / scenario.control_rate
                meas_pose, meas_twist = sensor.measure(state)

                fault = False
                try:
                    tick = controller.step(meas_pose, meas_twist, t)
                except WireDriveError:
                    if tick is None:
                        raise
                    fault = True  # hold the last tick, its command included
                    fault_ticks += 1
                command = tick.command

                for _ in range(scenario.substeps):
                    state = step(
                        state,
                        command.currents,
                        scenario.dt,
                        scenario.body,
                        wires,
                        scenario.winch,
                        gravity=scenario.gravity,
                        speed_limit=scenario.speed_limit,
                    )

                lengths, _ = wire_lengths_and_rates(state.pose, state.twist, wires)
                if np.any(lengths > scenario.winch.winding_capacity):
                    capacity_violations += 1

                pos_errors[k] = norm3([p - r for p, r in zip(state.pose.position,
                                                             tick.pose_ref.position)])
                rot_errors[k] = norm3(attitude_error(tick.pose_ref.orientation,
                                                     state.pose.orientation))
                max_tension = max(max_tension, float(np.max(command.tensions_final, initial=0.0)))
                max_residual = max(max_residual, command.residual_norm)
                n_sat = int(np.sum(command.saturated))
                if n_sat:
                    saturation_ticks += 1
                max_simultaneous_sat = max(max_simultaneous_sat, n_sat)
                writer.write_tick(k, t, state, meas_pose, meas_twist, tick, fault)
                rows, end_pose = k + 1, state.pose
    except BaseException as exc:
        fault_cause = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        pos_errors, rot_errors = pos_errors[:rows], rot_errors[:rows]
        terminal_error = np.subtract(end_pose.position, scenario.segments[-1].goal_pose.position)
        displacement = np.subtract(end_pose.position, scenario.start_pose.position)
        summary = {
            "scenario": scenario.name,
            "mode": scenario.mode,
            "seed": scenario.seed,
            "ticks": ticks,
            "status": "ok" if fault_cause is None else "fault",
            "fault_cause": fault_cause,
            "sim_duration_s": scenario.duration,
            "control_rate_hz": scenario.control_rate,
            "dt_s": scenario.dt,
            "rms_position_error_m": float(np.sqrt(np.mean(pos_errors**2))) if rows else 0.0,
            "rms_rotation_error_rad": float(np.sqrt(np.mean(rot_errors**2))) if rows else 0.0,
            "max_position_error_m": float(np.max(pos_errors)) if rows else 0.0,
            "terminal_position_error_m": float(np.linalg.norm(terminal_error)),
            "terminal_position_error_axes_m": [float(v) for v in terminal_error],
            "displacement_axes_m": [float(v) for v in displacement],
            "max_tension_n": max_tension,
            "max_residual_norm": max_residual,
            "saturation_ticks": saturation_ticks,
            "max_simultaneous_saturated": max_simultaneous_sat,
            "fault_ticks": fault_ticks,
            "capacity_violations": capacity_violations,
            "anchors": anchor_reports,
            "telemetry_rows": rows,
            "wall_time_s": time.perf_counter() - wall_start,
        }
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary

