"""Pose trajectories and the full control pipeline.

Segments are per-axis cubics: three translation axes plus three axes of a
rotation-vector chart anchored at the segment's start orientation, so the
chart singularity sits a full half-turn away from the path.  Boundary
angular velocities are pulled into the chart through the inverse left
Jacobian (`chart_rate`), and sampling pushes chart rates back out
analytically, second derivatives included (`chart_rates`).

`PoseController` samples its chained schedule at run time and runs the
classic cascade: sampled reference -> PID feedback wrench + gravity
feedforward -> bounded tension allocation -> winch compensation -> motor
currents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import (
    AllocationWeights, TensionBounds, TensionCommand, WinchParams, solve_tension_command
)
from .errors import RotationTooLarge
from .simulator import STANDARD_GRAVITY, BodyModel
from .spatial import (
    PidGains,
    PidState,
    Pose,
    Twist,
    Wrench,
    _Record,
    attitude_error,
    chart_rate,
    chart_rates,
    hamilton,
    norm3,
    quat_unit,
    rotvec_exp,
    wrench_error_pid,
)
from .wires import WireSet, wire_jacobian, wire_lengths_and_rates

ROTATION_CHART_LIMIT = np.pi - 0.1  # rad; reject segments near the chart edge


def _cubic_coeffs(p0, v0, p1, v1, t):
    """Per axis, the coefficients (a, b, c, d) of a*t^3 + b*t^2 + c*t + d, on floats."""
    coeffs = []
    for d, c, end, rate_end in zip(p0, v0, p1, v1):
        a = (rate_end * t + c * t - 2.0 * (end - d)) / t**3
        coeffs.append((a, (end - d - c * t) / t**2 - a * t, c, d))
    return tuple(coeffs)


def _cubic_eval(coeffs, t):
    """Value, rate and acceleration tuples of the per-axis cubics at t, on floats."""
    return (tuple(((a * t + b) * t + c) * t + d for a, b, c, d in coeffs),
            tuple((3.0 * a * t + 2.0 * b) * t + c for a, b, c, _ in coeffs),
            tuple(6.0 * a * t + 2.0 * b for a, b, _, _ in coeffs))


@dataclass(frozen=True, eq=False)
class SplineSegment:
    """One cubic segment between boundary poses and twists."""

    start_pose: Pose
    end_pose: Pose
    duration: float
    translation: tuple  # per axis, cubic coefficients (a, b, c, d)
    rotation: tuple  # per axis of the start chart, cubic coefficients (a, b, c, d)


def plan_spline(
    start_pose: Pose,
    start_twist: Twist,
    end_pose: Pose,
    end_twist: Twist,
    duration: float,
) -> SplineSegment:
    """Fit boundary-matching cubics in position and the rotation chart."""
    if duration <= 0:
        raise ValueError("segment duration must be positive")
    chart_end = attitude_error(end_pose.orientation, start_pose.orientation)
    angle = norm3(chart_end)
    if angle >= ROTATION_CHART_LIMIT:
        raise RotationTooLarge(
            f"relative rotation {angle:.3f} rad is too close to the chart "
            f"singularity (limit {ROTATION_CHART_LIMIT:.3f})"
        )
    chart_rate_start = start_twist.angular  # J_l(0) is the identity
    chart_rate_end = chart_rate(chart_end, end_twist.angular)
    return SplineSegment(
        start_pose=start_pose,
        end_pose=end_pose,
        duration=float(duration),
        translation=_cubic_coeffs(start_pose.position, start_twist.linear,
                                  end_pose.position, end_twist.linear, duration),
        rotation=_cubic_coeffs((0.0, 0.0, 0.0), chart_rate_start, chart_end, chart_rate_end,
                               duration),
    )


def sample(segment: SplineSegment, t: float) -> tuple[Pose, Twist, tuple]:
    """Reference pose, twist and 6-D acceleration (a float tuple) at time t.

    On Python floats: the cubics, exp(chart) * start normalized once, and
    `chart_rates`.  Outside [0, duration] the sample clamps to the nearer
    endpoint pose with zero velocity and acceleration.
    """
    if t < 0.0:
        return segment.start_pose, Twist.zero(), (0.0,) * 6
    if t > segment.duration:
        return segment.end_pose, Twist.zero(), (0.0,) * 6
    pos, vel, acc = _cubic_eval(segment.translation, t)
    chart, chart_rate, chart_acc = _cubic_eval(segment.rotation, t)
    orientation = quat_unit(hamilton(rotvec_exp(chart), segment.start_pose.orientation))
    omega, omega_dot = chart_rates(chart, chart_rate, chart_acc)
    return Pose._of(pos, orientation), Twist._of(vel, omega), acc + omega_dot


@dataclass(frozen=True, eq=False)
class ControlTick(_Record):
    """Everything one pass of the control loop produced; the run time and
    the measurement it acted on stay with the caller."""

    pose_ref: Pose
    twist_ref: Twist
    accel_ref: tuple
    feedback_wrench: Wrench
    gravity_wrench: Wrench
    desired_wrench: Wrench
    command: TensionCommand
    _tuples = {"accel_ref": 6}


def gravity_feedforward(body: BodyModel, gravity: float = STANDARD_GRAVITY) -> Wrench:
    """Wrench the wires must supply to hold the body against gravity."""
    return Wrench((0.0, 0.0, body.mass * gravity), (0.0, 0.0, 0.0))


class PoseController:
    """Full pose-control loop for one wire-driven body along one schedule.

    `schedule` is the (segments, starts) pair that `chain_segments`
    returns; `step` samples it at absolute run time.  Owns the PID
    integral state and the previous tension solution (used to warm-start
    the allocator).  One instance drives one loop; it is not meant to be
    shared across threads.
    """

    def __init__(
        self,
        body: BodyModel,
        attachments,
        bounds: TensionBounds,
        weights: AllocationWeights,
        winch: WinchParams,
        gains: PidGains,
        schedule,
        dt: float,
        gravity: float = STANDARD_GRAVITY,
    ):
        if dt <= 0:
            raise ValueError("controller period must be positive")
        self.attachments = WireSet(attachments)
        self.bounds = bounds
        self.weights = weights
        self.winch = winch
        self.gains = gains
        self.segments, self.starts = schedule
        self.dt = dt
        self.gravity_ff = gravity_feedforward(body, gravity)
        self.pid_state = PidState()
        self._warm_start: tuple | None = None

    def step(self, pose: Pose, twist: Twist, t: float) -> ControlTick:
        """One control tick at run time t: may raise DegenerateWire or
        SolverFailure; the loop policy on those is the caller's (hold last
        currents)."""
        pose_ref, twist_ref, accel_ref = sample_schedule(self.segments, self.starts, t)
        feedback = wrench_error_pid(
            pose, twist, pose_ref, twist_ref, self.gains, self.pid_state, self.dt
        )
        desired = feedback + self.gravity_ff
        matrix = wire_jacobian(pose, self.attachments)
        _, rates = wire_lengths_and_rates(pose, twist, self.attachments)
        command = solve_tension_command(
            matrix,
            desired,
            self.bounds,
            self.weights,
            accel_ref,
            rates,
            self.winch,
            start=self._warm_start,
        )
        self._warm_start = command.tensions
        return ControlTick._of(pose_ref, twist_ref, accel_ref, feedback, self.gravity_ff, desired,
                               command)


def chain_segments(poses_twists_durations):
    """Plan consecutive segments through a waypoint schedule.

    Takes an iterable of (pose, twist, duration) where the first entry's
    duration is ignored (it is the start state).  Returns the segment
    list plus each segment's start time.
    """
    items = list(poses_twists_durations)
    if len(items) < 2:
        raise ValueError("need a start state and at least one waypoint")
    segments = []
    starts = []
    clock = 0.0
    for (pose_a, twist_a, _), (pose_b, twist_b, duration) in zip(items, items[1:]):
        segments.append(plan_spline(pose_a, twist_a, pose_b, twist_b, duration))
        starts.append(clock)
        clock += duration
    return segments, starts


def sample_schedule(segments, starts, t: float):
    """Sample a chained schedule at absolute time t: the last segment
    started at or before t (the first one before any has), at the time
    since its start.  `sample` clamps past either end of the schedule."""
    for segment, start in zip(reversed(segments), reversed(starts)):
        if t >= start:
            return sample(segment, t - start)
    return sample(segments[0], t - starts[0])
