"""Closed-loop plant: 6-DoF rigid body driven by wire tensions and gravity.

The winches are ideal current-to-tension sources (the inverse of the
controller's current map) with two physical limits layered on top: the
tension clamp and a line-speed limit.  When the geometric length rate of
a wire exceeds what the drum can wind or pay out, the wire cannot be kept
taut and its tension collapses to zero for that step.  Integration is
symplectic-Euler in velocity with a trapezoidal position/attitude update,
which keeps constant-gravity trajectories exact and static equilibria
drift-free.  Non-finite state is a NumericalBlowup: a step whose new
speed is over the speed limit or not finite raises it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .allocation import WinchParams, tensions_from_currents
from .errors import NumericalBlowup
from .spatial import Pose, Twist, quat_from_rotvec, quat_multiply
from .wires import WireAttachment, wire_jacobian, wire_lengths_and_rates

STANDARD_GRAVITY = 9.80665  # m/s^2
DEFAULT_SPEED_LIMIT = 1e3  # m/s and rad/s; only insane states trip this


@dataclass(frozen=True, eq=False)
class BodyModel:
    """Rigid-body mass properties of the floating link.

    The torque reference point, the wire-matrix origin and the center of
    mass are all the same configurable body center; the inertia tensor is
    taken about that point in body axes.
    """

    mass: float
    inertia: np.ndarray
    radius: float = 0.2  # bounding radius; wire exits must stay inside

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be strictly positive")
        if self.radius <= 0:
            raise ValueError("radius must be strictly positive")
        inertia = np.asarray(self.inertia, dtype=float).reshape(3, 3).copy()
        if np.max(np.abs(inertia - inertia.T)) > 1e-12:
            raise ValueError("inertia tensor must be symmetric")
        try:
            np.linalg.cholesky(inertia)
        except np.linalg.LinAlgError as exc:
            raise ValueError("inertia tensor must be positive definite") from exc
        inertia.setflags(write=False)
        object.__setattr__(self, "inertia", inertia)

    @classmethod
    def solid_cube(cls, mass: float, side: float) -> "BodyModel":
        moment = mass * side**2 / 6.0
        return cls(mass, np.eye(3) * moment, radius=side * np.sqrt(3.0) / 2.0)


@dataclass(frozen=True, eq=False)
class SimState:
    """Simulation snapshot: body state plus the tensions actually exerted."""

    pose: Pose
    twist: Twist
    tensions: np.ndarray
    time: float = 0.0

    @classmethod
    def at_rest(cls, pose: Pose, wire_count: int) -> "SimState":
        return cls(pose, Twist.zero(), np.zeros(wire_count), 0.0)


def step(
    state: SimState,
    currents: np.ndarray,
    dt: float,
    body: BodyModel,
    attachments: Sequence[WireAttachment],
    winch: WinchParams,
    gravity: float = STANDARD_GRAVITY,
    speed_limit: float = DEFAULT_SPEED_LIMIT,
) -> SimState:
    """Advance the body one step under commanded winch currents."""
    if not 0.0 < dt <= 0.01:
        raise ValueError("dt must lie in (0, 0.01] seconds")
    currents = np.asarray(currents, dtype=float)
    tensions = tensions_from_currents(np.maximum(currents, 0.0), winch)
    tensions = np.minimum(tensions, winch.max_tension)

    wire_state = wire_lengths_and_rates(state.pose, state.twist, attachments)
    # a drum that cannot match the geometric length rate cannot hold the
    # wire taut; the wire goes slack and exerts nothing this step
    tensions = np.where(np.abs(wire_state.rates) > winch.max_line_speed, 0.0, tensions)

    jac = wire_jacobian(state.pose, attachments).matrix
    wrench = jac @ tensions
    force = wrench[:3] + np.array([0.0, 0.0, -body.mass * gravity])
    torque_world = wrench[3:]

    accel = force / body.mass
    velocity_new = state.twist.linear + dt * accel

    rot = state.pose.rotation_matrix()
    omega_body = rot.T @ state.twist.angular
    torque_body = rot.T @ torque_world
    omega_dot = np.linalg.solve(
        body.inertia, torque_body - np.cross(omega_body, body.inertia @ omega_body)
    )
    omega_new = rot @ (omega_body + dt * omega_dot)
    # written so that a NaN speed fails the check too
    if not (
        np.linalg.norm(velocity_new) <= speed_limit
        and np.linalg.norm(omega_new) <= speed_limit
    ):
        raise NumericalBlowup(
            f"body speed exceeded {speed_limit} or is not finite "
            f"at t={state.time + dt:.4f} s"
        )

    position_new = state.pose.position + 0.5 * dt * (state.twist.linear + velocity_new)
    rotvec_step = 0.5 * dt * (state.twist.angular + omega_new)
    orientation_new = quat_multiply(quat_from_rotvec(rotvec_step), state.pose.orientation)

    return SimState(
        Pose(position_new, orientation_new),
        Twist(velocity_new, omega_new),
        tensions,
        state.time + dt,
    )


@dataclass(frozen=True)
class SensorModel:
    """Synthetic odometry: Gaussian noise plus a fixed delay in control ticks."""

    position_noise: float = 0.0  # m, per axis
    rotation_noise: float = 0.0  # rad, per axis of the perturbation rotvec
    velocity_noise: float = 0.0  # m/s
    angular_velocity_noise: float = 0.0  # rad/s
    latency: int = 0  # whole control ticks: OdometrySensor.measure runs once per tick

    def __post_init__(self):
        for name in ("position_noise", "rotation_noise", "velocity_noise",
                     "angular_velocity_noise"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.latency < 0 or int(self.latency) != self.latency:
            raise ValueError("latency must be a non-negative integer")


class OdometrySensor:
    """Stateful sensor: owns the delay line and the seeded noise stream.

    Identical seeds and input sequences produce identical measurements.
    """

    def __init__(self, model: SensorModel, seed: int):
        self.model = model
        self._rng = np.random.default_rng(seed)
        self._buffer: deque[SimState] = deque(maxlen=model.latency + 1)

    def measure(self, state: SimState) -> tuple[Pose, Twist]:
        self._buffer.append(state)
        delayed = self._buffer[0]
        m = self.model
        position = delayed.pose.position + self._draw(m.position_noise)
        orientation = quat_multiply(
            quat_from_rotvec(self._draw(m.rotation_noise)), delayed.pose.orientation
        )
        linear = delayed.twist.linear + self._draw(m.velocity_noise)
        angular = delayed.twist.angular + self._draw(m.angular_velocity_noise)
        return Pose(position, orientation), Twist(linear, angular)

    def _draw(self, std: float) -> np.ndarray:
        # always consume the stream so latency/noise settings do not
        # silently change the sequence of later draws
        sample = self._rng.normal(size=3)
        return std * sample
