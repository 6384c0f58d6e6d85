"""Experiment orchestration: deployment phase, closed loop, outputs.

A run is reproducible from (scenario file, seed) alone: every random
stream is derived from the run seed with fixed offsets, and telemetry is
written with byte-stable formatting.  On a controller fault inside the
loop the previous currents are held and the tick is flagged.  Any other
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

from .allocation import allocate, to_currents
from .anchors import AnchorPath, plan_wrap_path, track_path, winding_number, wrap_succeeded
from .errors import WireDriveError
from .scenario import POSE_CONTROL, AnchorTask, Scenario, dump_scenario
from .simulator import OdometrySensor, SimState, step
from .spatial import (
    Extrinsic,
    Pose,
    Twist,
    Wrench,
    orientation_error,
    transform_odometry,
)
from .telemetry import TelemetryWriter
from .trajectory import (
    ControlTick,
    PoseController,
    active_segment,
    chain_segments,
    gravity_feedforward,
    sample_schedule,
)
from .wires import WireAttachment, wire_jacobian, wire_lengths_and_rates

# fixed offsets carve independent, reproducible streams out of one seed
_SENSOR_SEED_OFFSET = 1_000
_ANCHOR_SEED_OFFSET = 2_000


def _schedule_from_specs(scenario: Scenario):
    points = [(scenario.start_pose, Twist.zero(), 0.0)]
    for spec in scenario.segments:
        points.append((spec.goal_pose, Twist.from_array(spec.goal_velocity), spec.duration))
    return chain_segments(points)


def _interp_schedule(table, t: float) -> np.ndarray:
    times = [row[0] for row in table]
    if t <= times[0]:
        return table[0][1]
    if t >= times[-1]:
        return table[-1][1]
    hi = int(np.searchsorted(times, t))
    lo = hi - 1
    w = (t - times[lo]) / (times[hi] - times[lo])
    return (1.0 - w) * table[lo][1] + w * table[hi][1]


def plan_anchor(scenario: Scenario, task: AnchorTask) -> AnchorPath:
    """Wrap path for one anchor task, starting at its wire's exit point."""
    origin = scenario.start_pose.transform_point(scenario.wires[task.wire_id].exit_body)
    return plan_wrap_path(
        scenario.pillars[task.pillar_index],
        task.approach,
        task.clearance,
        spacing=scenario.deployment.waypoint_spacing,
        altitude=task.wrap_altitude,
        wire_origin=origin,
    )


def deploy_anchors(scenario: Scenario, seed: int, out_dir: Path | None = None):
    """Fly every anchor task; returns (updated wires, per-anchor reports).

    Each wrapped wire's anchor becomes the pillar center at the wrap
    altitude.  Raises WireDriveError if any wrap fails outright.
    """
    wires = list(scenario.wires)
    reports = []
    dep = scenario.deployment
    for k, task in enumerate(scenario.anchors):
        pillar = scenario.pillars[task.pillar_index]
        wire = wires[task.wire_id]
        trajectory = track_path(
            plan_anchor(scenario, task),
            dep.sensor,
            pillar,
            gains=dep.tracker,
            dt=dep.drone_dt,
            capture_radius=dep.capture_radius,
            seed=seed + _ANCHOR_SEED_OFFSET + k,
        )
        turns = winding_number(trajectory, pillar.center)
        succeeded = wrap_succeeded(trajectory, pillar)
        if not succeeded:
            raise WireDriveError(
                f"anchor {k} failed to wrap pillar {task.pillar_index} "
                f"(winding number {turns})"
            )
        new_anchor = np.array([pillar.center[0], pillar.center[1], task.wrap_altitude])
        wires[task.wire_id] = WireAttachment(wire.exit_body, new_anchor, wire_id=wire.wire_id)
        traj_file = None
        if out_dir is not None:
            traj_file = out_dir / f"anchor_{k}.csv"
            with traj_file.open("w") as fh:
                fh.write("x,y,z\n")
                for p in trajectory:
                    fh.write(f"{p[0]!r},{p[1]!r},{p[2]!r}\n")
        reports.append(
            {
                "anchor": k,
                "wire_id": task.wire_id,
                "pillar": task.pillar_index,
                "winding_number": turns,
                "wrap_succeeded": succeeded,
                "samples": int(len(trajectory)),
                "trajectory_file": str(traj_file) if traj_file else None,
            }
        )
    return wires, reports


def _held_tick(last: ControlTick, t: float, pose: Pose, twist: Twist) -> ControlTick:
    return dataclasses.replace(last, timestamp=t, pose=pose, twist=twist)


def run_scenario(
    scenario: Scenario,
    out_dir,
    seed: int | None = None,
    extrinsic: Extrinsic | None = None,
) -> dict:
    """Execute a scenario end to end and persist its artifacts.

    Writes resolved.yaml, telemetry.csv, summary.json and (with anchor
    tasks) one anchor_<k>.csv per deployed wire into `out_dir`.  Returns
    the summary dictionary.  An exception out of the deployment or the
    tick loop (a plant fault, or a controller fault on the first tick)
    still writes summary.json, with `status` "fault", its `fault_cause`
    and the statistics of the ticks completed before it, and is then
    re-raised.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = scenario.seed if seed is None else int(seed)
    ext = extrinsic or Extrinsic.identity()
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
        wires = list(scenario.wires)
        if scenario.anchors:
            wires, anchor_reports = deploy_anchors(scenario, seed, out_dir)

        segments, seg_starts = _schedule_from_specs(scenario)
        controller = PoseController(
            scenario.body,
            wires,
            scenario.bounds,
            scenario.weights,
            scenario.winch,
            scenario.gains,
            dt=1.0 / scenario.control_rate,
            gravity=scenario.gravity,
        )
        sensor = OdometrySensor(scenario.sensor, seed=seed + _SENSOR_SEED_OFFSET)
        cam_in_body = Extrinsic(ext.body_in_camera.inverse())
        gravity = gravity_feedforward(scenario.body, scenario.gravity)
        state = SimState.at_rest(scenario.start_pose, scenario.wire_count)
        last_tick: ControlTick | None = None

        with (out_dir / "telemetry.csv").open("w", newline="") as stream:
            writer = TelemetryWriter(stream, scenario.wire_count)
            for k in range(ticks):
                t = k / scenario.control_rate
                # odometry: camera-frame measurement pushed to the body center
                cam_pose, cam_twist = transform_odometry(state.pose, state.twist, cam_in_body)
                cam_state = SimState(cam_pose, cam_twist, state.tensions, state.time)
                meas_pose, meas_twist = transform_odometry(*sensor.measure(cam_state), ext)

                fault = False
                try:
                    if scenario.mode == POSE_CONTROL:
                        seg, local_t = active_segment(segments, seg_starts, t)
                        tick = controller.step(meas_pose, meas_twist, seg, local_t)
                    else:
                        tick = _schedule_tick(
                            scenario, segments, seg_starts, wires, gravity,
                            t, meas_pose, meas_twist,
                        )
                except WireDriveError:
                    if last_tick is None:
                        raise
                    fault = True
                    fault_ticks += 1
                    tick = _held_tick(last_tick, t, meas_pose, meas_twist)
                last_tick = tick

                for _ in range(scenario.substeps):
                    state = step(
                        state,
                        tick.currents,
                        scenario.dt,
                        scenario.body,
                        wires,
                        scenario.winch,
                        gravity=scenario.gravity,
                        speed_limit=scenario.speed_limit,
                    )

                lengths = wire_lengths_and_rates(state.pose, state.twist, wires).lengths
                if np.any(lengths > scenario.winch.winding_capacity):
                    capacity_violations += 1

                pos_errors[k] = np.linalg.norm(state.pose.position - tick.pose_ref.position)
                rot_errors[k] = np.linalg.norm(orientation_error(tick.pose_ref, state.pose))
                max_tension = max(max_tension, float(np.max(tick.tensions_final, initial=0.0)))
                max_residual = max(max_residual, tick.residual_norm)
                n_sat = int(np.sum(tick.saturated))
                if n_sat:
                    saturation_ticks += 1
                max_simultaneous_sat = max(max_simultaneous_sat, n_sat)
                writer.write_tick(k, state, tick, fault)
                rows, end_pose = k + 1, state.pose
    except BaseException as exc:
        fault_cause = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        pos_errors, rot_errors = pos_errors[:rows], rot_errors[:rows]
        terminal_error = end_pose.position - scenario.segments[-1].goal_pose.position
        displacement = end_pose.position - scenario.start_pose.position
        summary = {
            "scenario": scenario.name,
            "mode": scenario.mode,
            "seed": seed,
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


def _schedule_tick(
    scenario: Scenario,
    segments,
    seg_starts,
    wires,
    gravity: Wrench,
    t: float,
    meas_pose: Pose,
    meas_twist: Twist,
) -> ControlTick:
    """Open-loop tension command for one tick of schedule mode.

    Quasistatic mode allocates the gravity-plus-feedforward wrench at the
    reference pose (measurements are never consulted, which is what makes
    it open loop); table mode interpolates the scheduled tensions.
    """
    pose_ref, twist_ref, accel_ref = sample_schedule(segments, seg_starts, t)
    if scenario.schedule_table is not None:
        tensions = np.clip(
            _interp_schedule(scenario.schedule_table, t),
            0.0,
            scenario.bounds.upper,
        )
        residual_norm = 0.0
        desired = Wrench.zero()
    else:
        jacobian = wire_jacobian(pose_ref, wires)
        need = gravity.as_array() + np.concatenate(
            [scenario.body.mass * accel_ref[:3], np.zeros(3)]
        )
        desired = Wrench.from_array(need)
        tensions, residual = allocate(jacobian, desired, scenario.bounds, scenario.weights)
        residual_norm = float(np.linalg.norm(residual.as_array()))
    currents = to_currents(tensions, scenario.winch)
    return ControlTick(
        timestamp=t,
        pose=meas_pose,
        twist=meas_twist,
        pose_ref=pose_ref,
        twist_ref=twist_ref,
        accel_ref=accel_ref,
        feedback_wrench=Wrench.zero(),
        gravity_wrench=gravity,
        desired_wrench=desired,
        tensions=tensions,
        tensions_final=tensions,
        currents=currents,
        residual_norm=residual_norm,
        saturated=scenario.bounds.saturated(tensions),
    )
