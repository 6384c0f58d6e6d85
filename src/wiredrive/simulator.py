"""Closed-loop plant: 6-DoF rigid body driven by wire tensions and gravity.

The winches are ideal current-to-tension sources (the inverse of the
controller's current map) with two physical limits layered on top: the
tension clamp and a line-speed limit.  When the geometric length rate of
a wire exceeds what the drum can wind or pay out, the wire cannot be kept
taut and its tension collapses to zero for that step.  Integration is
symplectic-Euler in velocity with a trapezoidal position/attitude update,
which keeps constant-gravity trajectories exact and static equilibria
drift-free.  Non-finite state is a NumericalBlowup: a step raises it
for a NaN current on any wire, slack or taut (naming the wire), and for
a new speed over the speed limit or not finite.

A step asks for the wire rates (for the slack rule) and then the wire
matrix (for the wrench) at its pose, one pass over a `WireSet` (see
`wires`).  One loop over the command's currents, a float tuple, makes the
NaN check, the tension min(max(0, i) / current_per_newton, max_tension)
and the slack rule.  The wrench is `wire_wrench`'s sum; the rest runs
through the float cores in `spatial`, on `BodyModel`'s inertia and inverse
as row tuples, with one normalization of the new attitude (`quat_unit`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .allocation import WinchParams
from .errors import NumericalBlowup
from .spatial import (
    Pose, Twist, _as_floats, _integer, _Record, _set_field, cross3, hamilton, mat_t_vec,
    mat_vec, norm3, quat_unit, rotation_rows, rotvec_exp,
)
from .wires import WireAttachment, wire_jacobian, wire_lengths_and_rates, wire_wrench

STANDARD_GRAVITY = 9.80665  # m/s^2
DEFAULT_SPEED_LIMIT = 1e3  # m/s and rad/s; only insane states trip this
MAX_DT = 0.01  # s, the longest step; a step must be in (0, MAX_DT]


@dataclass(frozen=True, eq=False)
class BodyModel:
    """Rigid-body mass properties of the floating link.

    The torque reference point, the wire-matrix origin and the center of
    mass are all the same configurable body center; the inertia tensor is
    taken about that point in body axes.  `inertia` is stored as three row
    tuples of floats once validated, and `inertia_inverse` as the rows of
    `np.linalg.inv` of it, computed once; the inverse is not a field, so
    `dataclasses.replace` computes it again.
    """

    mass: float
    inertia: tuple  # of three rows
    radius: float = 0.2  # bounding radius; wire exits must stay inside

    def __post_init__(self):
        _set_field(self, "mass", sign="positive")
        _set_field(self, "radius", sign="positive")
        _set_field(self, "inertia", (3, 3), sign="symmetric positive definite")
        object.__setattr__(self, "inertia_inverse",
                           tuple(map(tuple, np.linalg.inv(self.inertia).tolist())))

    @staticmethod
    def cube_moment(mass: float, side: float) -> float:
        return mass * side**2 / 6.0  # of a solid cube, about its center

    @classmethod
    def solid_cube(cls, mass: float, side: float) -> "BodyModel":
        return cls(mass, np.eye(3) * cls.cube_moment(mass, side), radius=side * np.sqrt(3.0) / 2.0)


@dataclass(frozen=True, eq=False)
class SimState(_Record):
    """Simulation snapshot: body state plus the tensions actually exerted."""

    pose: Pose
    twist: Twist
    tensions: tuple
    time: float = 0.0
    _tuples = {"tensions": -1}

    @classmethod
    def at_rest(cls, pose: Pose, wire_count: int) -> "SimState":
        return cls(pose, Twist.zero(), (0.0,) * wire_count, 0.0)


def step(
    state: SimState,
    currents,
    dt: float,
    body: BodyModel,
    attachments: Sequence[WireAttachment],
    winch: WinchParams,
    gravity: float = STANDARD_GRAVITY,
    speed_limit: float = DEFAULT_SPEED_LIMIT,
) -> SimState:
    """Advance the body one step under winch currents, one per wire (`_as_floats`)."""
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"dt must lie in (0, {MAX_DT}] seconds")
    _, rates = wire_lengths_and_rates(state.pose, state.twist, attachments)
    per_newton, speed = winch.current_per_newton, winch.max_line_speed
    cap = winch.max_tension
    tensions = []
    currents = _as_floats("currents", currents, (len(rates),))
    for i, (current, rate) in enumerate(zip(currents, rates)):
        if current != current:
            # checked before the slack rule, which would give a slack wire 0
            raise NumericalBlowup(f"wire {i}: current is NaN at t={state.time:.4f} s")
        # a drum that cannot match the geometric length rate cannot hold the
        # wire taut; the wire goes slack and exerts nothing this step.
        # max(0.0, c) is +0.0 for c = -0.0, as np.maximum(c, 0.0) was
        tensions.append(0.0 if abs(rate) > speed else min(max(0.0, current) / per_newton, cap))
    tensions = tuple(tensions)

    fx, fy, fz, *torque_world = wire_wrench(wire_jacobian(state.pose, attachments), tensions)
    mass = body.mass
    accel = (fx / mass, fy / mass, (fz - mass * gravity) / mass)
    linear, angular, orientation = state.twist.linear, state.twist.angular, state.pose.orientation
    velocity_new = tuple(v + dt * a for v, a in zip(linear, accel))

    rot = rotation_rows(orientation)
    omega_body = mat_t_vec(rot, angular)
    torque_body = mat_t_vec(rot, torque_world)
    gyro = cross3(omega_body, mat_vec(body.inertia, omega_body))
    omega_dot = mat_vec(body.inertia_inverse, [t - g for t, g in zip(torque_body, gyro)])
    omega_new = mat_vec(rot, [w + dt * a for w, a in zip(omega_body, omega_dot)])
    # written so that a NaN speed fails the check too
    if not (norm3(velocity_new) <= speed_limit and norm3(omega_new) <= speed_limit):
        raise NumericalBlowup(
            f"body speed exceeded {speed_limit} or is not finite "
            f"at t={state.time + dt:.4f} s"
        )

    half = 0.5 * dt
    position_new = tuple(
        p + half * (v0 + v1) for p, v0, v1 in zip(state.pose.position, linear, velocity_new)
    )
    rotvec_step = [half * (w0 + w1) for w0, w1 in zip(angular, omega_new)]
    orientation_new = quat_unit(hamilton(rotvec_exp(rotvec_step), orientation))

    return SimState._of(
        Pose._of(position_new, orientation_new),
        Twist._of(velocity_new, omega_new),
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
            _set_field(self, name, sign="non-negative")
        object.__setattr__(self, "latency", _integer("latency", self.latency))
        if self.latency < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency}")


def _perturbed(values: tuple, std: float, draws) -> tuple:
    return tuple(v + std * n for v, n in zip(values, draws))


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
        # one draw of 12 a tick (the stream of four draws of 3), whatever the
        # noise levels, so the settings never shift later draws
        noise = self._rng.normal(size=12).tolist()
        pose, twist = delayed.pose, delayed.twist
        rotation = rotvec_exp([m.rotation_noise * n for n in noise[3:6]])
        return (
            Pose._of(_perturbed(pose.position, m.position_noise, noise[0:3]),
                     quat_unit(hamilton(rotation, pose.orientation))),
            Twist._of(_perturbed(twist.linear, m.velocity_noise, noise[6:9]),
                      _perturbed(twist.angular, m.angular_velocity_noise, noise[9:12])),
        )
