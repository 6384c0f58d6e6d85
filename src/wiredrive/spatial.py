"""Spatial algebra for a wire-driven floating body.

A pose is a world-frame position plus a unit quaternion (world-from-body,
scalar first, canonicalized to a non-negative scalar part).  Twists and
wrenches are world-frame 6-vectors split into linear/angular and
force/torque halves, with torques referenced to the body center.  Like
every record a control tick passes on (`_Record`), they are frozen, hold
float tuples and check nothing else (a pose only normalizes its
quaternion): values are checked where they enter the program, and the
simulator catches non-finite state.  The PID integral accumulator is the
one mutable object, owned by whoever runs the control loop.  Config
records (these gains and those of the other modules) keep arrays, each
stored through `_set_field`, which refuses a value that is not finite,
or +inf where that is no limit.

Each rotation fact is written once, as a float core below: the Hamilton
product, the rotation matrix, `quat_unit`, the exp and log maps, and the
chart's left Jacobian (`chart_rates`, and its inverse `chart_rate`).  All
else calls them; the tick normalizes each quaternion it makes once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_QUAT_EPS = 1e-12
# 4 ulps of 1: the float norm of a `quat_unit` result misses 1 by under 3.5
UNIT_NORM_TOLERANCE = 4 * 2.0**-52


def _checked(name: str, value, shape=(), sign=None, limitless: bool = False):
    """`value` as a float, or for a `shape` other than () as a read-only,
    C-ordered float copy of that shape.  ValueError naming it `name` unless
    every value is finite, or +inf where `limitless` (an infinite bound is
    no limit), and unless it is as `sign` says: "positive" (> 0),
    "non-negative" (>= 0), or a "symmetric positive definite" matrix; NaN
    fails each."""
    value = np.array(value, dtype=float, order="C").reshape(shape)
    if not np.all(np.isfinite(value) | (limitless & (value == np.inf))):
        raise ValueError(f"{name} must be finite{' or +inf' * limitless}, got {value}")
    if sign == "symmetric positive definite":
        ok = np.max(np.abs(value - value.T)) <= 1e-12 and np.linalg.eigvalsh(value)[0] > 0.0
    else:
        ok = not sign or np.all(value > 0.0 if sign == "positive" else value >= 0.0)
    if not ok:
        raise ValueError(f"{name} must be {sign}, got {value}")
    value.setflags(write=False)
    return float(value) if shape == () else value


def _set_field(record, name: str, shape=(), sign=None, limitless: bool = False) -> None:
    """Store field `name` of the frozen `record` as `_checked` gives it."""
    object.__setattr__(record, name, _checked(name, getattr(record, name), shape, sign, limitless))


def _floats(v, n: int = -1) -> tuple:
    """A vector (of length n, unless -1) as a tuple of Python floats."""
    return tuple(np.asarray(v, dtype=float).reshape(n).tolist())


_ZERO3 = (0.0, 0.0, 0.0)


class _Record:
    """Base of the records a tick passes on.  The constructor stores each
    field `_tuples` names, with its length (-1: any), as a float tuple;
    `_of` stores its fields, in order and in that form, as they are."""

    _tuples = {}

    def __post_init__(self):
        for name, n in self._tuples.items():
            object.__setattr__(self, name, _floats(getattr(self, name), n))

    @classmethod
    def _of(cls, *values):
        record = object.__new__(cls)
        record.__dict__.update(zip(cls.__dataclass_fields__, values))
        return record


# Float cores: the formulas on Python floats, taking and returning tuples
# (or any sequence).  Python floats round exactly as float64 arrays do, and
# on 3- and 4-vectors they skip numpy's per-call setup.  Each is the one
# formulation of its fact; the records' fields go in as they are.


def norm3(v) -> float:
    """Euclidean length of a 3-vector: sqrt of the sum of squares in order."""
    x, y, z = v
    return math.sqrt(x * x + y * y + z * z)


def cross3(a, b) -> tuple:
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def mat_vec(rows, v) -> tuple:
    """M v for a 3 x 3 matrix given by its rows."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    x, y, z = v
    return (a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)


def mat_t_vec(rows, v) -> tuple:
    """M^T v for a 3 x 3 matrix given by its rows."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    x, y, z = v
    return (a * x + d * y + g * z, b * x + e * y + h * z, c * x + f * y + i * z)


def hamilton(a, b) -> tuple:
    """Hamilton product of two (w, x, y, z) quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def rotation_rows(q) -> tuple:
    """Rows of the rotation matrix of a unit (w, x, y, z) quaternion."""
    w, x, y, z = q
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


def quat_unit(q) -> tuple:
    """A (w, x, y, z) quaternion over its norm (the root of the sum of
    squares in order), with w >= 0; ValueError unless 1e-12 <= norm < inf."""
    w, x, y, z = q
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    if not _QUAT_EPS <= norm < math.inf:
        raise ValueError(f"quaternion norm {norm} is not usable")
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    return (-w, -x, -y, -z) if w < 0.0 else (w, x, y, z)


def rotvec_log(q) -> tuple:
    """Logarithm map of a unit (w, x, y, z) quaternion to a rotation vector
    (axis * angle), angle in [0, pi]."""
    w, x, y, z = q
    sin_half = norm3((x, y, z))
    if sin_half < 1e-10:
        return (2.0 * x, 2.0 * y, 2.0 * z)
    scale = 2.0 * math.atan2(sin_half, min(1.0, w)) / sin_half
    return (scale * x, scale * y, scale * z)


def attitude_error(target, current) -> tuple:
    """World-frame rotation vector carrying unit quaternion `current` onto
    `target`: the log of their relative rotation, normalized once."""
    w, x, y, z = current
    return rotvec_log(quat_unit(hamilton(target, (w, -x, -y, -z))))


# the Taylor series of (a, b, a'/t, b'/t, c) in t^2, six terms each
_CHART_SERIES = (
    (1 / 2, -1 / 24, 1 / 720, -1 / 40320, 1 / 3628800, -1 / 479001600),
    (1 / 6, -1 / 120, 1 / 5040, -1 / 362880, 1 / 39916800, -1 / 6227020800),
    (-1 / 12, 1 / 180, -1 / 6720, 1 / 453600, -1 / 47900160, 1 / 7264857600),
    (-1 / 60, 1 / 1260, -1 / 60480, 1 / 4989600, -1 / 622702080, 1 / 108972864000),
    (1 / 12, 1 / 720, 1 / 30240, 1 / 1209600, 1 / 47900160, 691 / 1307674368000),
)


def _chart_coefficients(t: float) -> list:
    """[a, b, a'/t, b'/t, c] of the chart's left Jacobian at angle t >= 0,
    with a = (1 - cos t)/t^2, b = (t - sin t)/t^3, c = (1 - (t/2) cot(t/2))/t^2:
    the six-term series (Horner in t^2) below t = 0.5, the closed forms with
    1 - cos t = 2 sin^2(t/2) above; within 1e-12 relative of exact on both."""
    t2 = t * t
    if t < 0.5:
        return [c0 + t2 * (c1 + t2 * (c2 + t2 * (c3 + t2 * (c4 + t2 * c5))))
                for c0, c1, c2, c3, c4, c5 in _CHART_SERIES]
    sin, sin_half = math.sin(t), math.sin(0.5 * t)
    one_minus_cos = 2.0 * sin_half * sin_half
    a, b = one_minus_cos / t2, (t - sin) / (t2 * t)
    return [a, b, (sin / t - 2.0 * a) / t2, (a - 3.0 * b) / t2,
            (1.0 - 0.5 * t * sin / one_minus_cos) / t2]


def chart_rates(rv, rate, accel) -> tuple[tuple, tuple]:
    """World angular velocity J_l rate and acceleration J_l accel +
    J_l_dot rate of q(t) = exp(rv(t)) * q0, from the chart's rv and its
    first two derivatives, with J_l = I + a [rv]x + b [rv]x^2 applied as
    cross products.  Since rate x rate = 0, J_l_dot rate is
    (rv . rate)(a'/t rv x rate + b'/t rv x (rv x rate)) + b rate x (rv x rate),
    t = |rv| (see `_chart_coefficients`).
    """
    a, b, a_prime_over, b_prime_over, _ = _chart_coefficients(norm3(rv))
    c1 = cross3(rv, rate)
    c2, d1, e = cross3(rv, c1), cross3(rv, accel), cross3(rate, c1)
    dot = rv[0] * rate[0] + rv[1] * rate[1] + rv[2] * rate[2]
    omega = tuple(v + a * p + b * q for v, p, q in zip(rate, c1, c2))
    omega_dot = tuple(
        (v + a * p + b * q) + dot * (a_prime_over * m + b_prime_over * n) + b * r
        for v, p, q, m, n, r in zip(accel, d1, cross3(rv, d1), c1, c2, e)
    )
    return omega, omega_dot


def chart_rate(rv, omega) -> tuple:
    """Chart rate J_l^-1 omega that gives world angular velocity omega at
    chart point rv: omega - rv x omega / 2 + c rv x (rv x omega), with c
    from `_chart_coefficients` at t = |rv|."""
    c = _chart_coefficients(norm3(rv))[4]
    c1 = cross3(rv, omega)
    return tuple(w - 0.5 * p + c * q for w, p, q in zip(omega, c1, cross3(rv, c1)))


def rotvec_exp(rv) -> tuple:
    """Exponential map of a rotation vector (axis * angle) to a quaternion,
    not normalized: its norm is 1 to rounding."""
    x, y, z = rv
    angle = norm3(rv)
    if angle < 1e-10:
        # second-order series keeps the map smooth through zero
        return (1.0 - angle * angle / 8.0, 0.5 * x, 0.5 * y, 0.5 * z)
    s = math.sin(0.5 * angle) / angle
    return (math.cos(0.5 * angle), s * x, s * y, s * z)


@dataclass(frozen=True, eq=False)
class Pose(_Record):
    """World-frame rigid-body pose: position plus world-from-body quaternion.

    The constructor normalizes the quaternion unless its float norm is
    within `UNIT_NORM_TOLERANCE` (4 ulps) of 1; then it keeps it, up to its
    sign.  So `Pose(p.position, p.orientation)` equals `p` bit for bit."""

    position: tuple
    orientation: tuple

    def __post_init__(self):
        w, x, y, z = q = _floats(self.orientation, 4)
        if not abs(math.sqrt(w * w + x * x + y * y + z * z) - 1.0) <= UNIT_NORM_TOLERANCE:
            q = quat_unit(q)  # NaN and inf land here too, and raise
        elif w < 0.0:
            q = (-w, -x, -y, -z)
        object.__setattr__(self, "position", _floats(self.position, 3))
        object.__setattr__(self, "orientation", q)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(_ZERO3, (1.0, 0.0, 0.0, 0.0))

    @classmethod
    def from_translation(cls, position) -> "Pose":
        return cls(position, (1.0, 0.0, 0.0, 0.0))

    @classmethod
    def from_rotvec(cls, position, rotvec) -> "Pose":
        return cls(position, quat_unit(rotvec_exp(_floats(rotvec, 3))))

    def rotation_matrix(self) -> np.ndarray:
        return np.array(rotation_rows(self.orientation))


def orientation_error(target: Pose, current: Pose) -> np.ndarray:
    """World-frame rotation vector carrying `current` onto `target`."""
    return np.array(attitude_error(target.orientation, current.orientation))


class _SixVector(_Record):
    """A 6-vector held as the two 3-tuples `_tuples` names, in order."""

    @classmethod
    def zero(cls):
        return cls._of(_ZERO3, _ZERO3)

    @classmethod
    def from_array(cls, v):
        v = np.asarray(v, dtype=float).reshape(6)
        return cls(v[:3], v[3:])

    def as_array(self) -> np.ndarray:
        first, second = (getattr(self, name) for name in self._tuples)
        return np.array(first + second)


@dataclass(frozen=True, eq=False)
class Twist(_SixVector):
    """World-frame velocity 6-vector of the body center."""

    linear: tuple
    angular: tuple
    _tuples = {"linear": 3, "angular": 3}


@dataclass(frozen=True, eq=False)
class Wrench(_SixVector):
    """World-frame force/torque 6-vector referenced to the body center."""

    force: tuple
    torque: tuple
    _tuples = {"force": 3, "torque": 3}

    def __add__(self, other: "Wrench") -> "Wrench":
        return Wrench._of(tuple(a + b for a, b in zip(self.force, other.force)),
                          tuple(a + b for a, b in zip(self.torque, other.torque)))


def transform_odometry(
    cam_pose: Pose, cam_twist: Twist, body_in_camera: Pose
) -> tuple[Pose, Twist]:
    """Convert camera-frame odometry to body-center pose and twist.

    `body_in_camera` is the pose of the body center in the camera frame
    (the camera's mounting transform).  The angular velocity is shared by
    every point of the rigid body; the linear velocity picks up the w x
    lever-arm term for the offset between the camera and the body center.
    The control loop does not call this: its sensor measures the
    body-center state directly.
    """
    lever = mat_vec(rotation_rows(cam_pose.orientation), body_in_camera.position)
    body_pose = Pose(
        [p + r for p, r in zip(cam_pose.position, lever)],
        hamilton(cam_pose.orientation, body_in_camera.orientation),
    )
    linear = [v + c for v, c in zip(cam_twist.linear, cross3(cam_twist.angular, lever))]
    return body_pose, Twist(linear, cam_twist.angular)


@dataclass(frozen=True, eq=False)
class PidGains:
    """Per-axis PID gains for the 6-D pose loop (x, y, z, rx, ry, rz)."""

    kp: np.ndarray
    ki: np.ndarray
    kd: np.ndarray
    integral_limit: np.ndarray

    def __post_init__(self):
        for name in ("kp", "ki", "kd"):
            _set_field(self, name, 6)
        _set_field(self, "integral_limit", 6, sign="non-negative")

    @classmethod
    def zero(cls) -> "PidGains":
        z = np.zeros(6)
        return cls(z, z, z, z)


@dataclass
class PidState(_Record):
    """Mutable integral accumulator, owned by one control loop."""

    integral: tuple = (0.0,) * 6
    _tuples = {"integral": 6}


def wrench_error_pid(
    pose: Pose,
    twist: Twist,
    pose_ref: Pose,
    twist_ref: Twist,
    gains: PidGains,
    state: PidState,
    dt: float,
) -> Wrench:
    """Feedback wrench from 6-D pose/velocity error.

    The orientation error is the world-frame rotation vector of the
    relative rotation, so the three rotational axes map directly onto
    torque components.  The integral accumulates the pose error and is
    clamped per axis before the gain is applied (anti-windup).
    """
    err = [r - p for r, p in zip(pose_ref.position, pose.position)]
    err += attitude_error(pose_ref.orientation, pose.orientation)
    derr = [r - m for r, m in zip(twist_ref.linear + twist_ref.angular,
                                  twist.linear + twist.angular)]
    accumulated = [i + e * dt for i, e in zip(state.integral, err)]
    # np.clip: max with -hi, then min with hi; a NaN passes, a zero limit gives hi
    state.integral = integral = tuple(-hi if v <= -hi and hi else hi if v >= hi or v <= -hi else v
                                      for v, hi in zip(accumulated, gains.integral_limit.tolist()))
    out = tuple(p * e + i * s + d * de for p, e, i, s, d, de in zip(
        gains.kp.tolist(), err, gains.ki.tolist(), integral, gains.kd.tolist(), derr))
    return Wrench._of(out[:3], out[3:])
