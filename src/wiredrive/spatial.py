"""Spatial algebra for a wire-driven floating body.

A pose is a world-frame position plus a unit quaternion (world-from-body,
scalar first, canonicalized to a non-negative scalar part).  Twists and
wrenches are world-frame 6-vectors split into linear/angular and
force/torque halves, with torques referenced to the body center.  The
records are frozen but neither copy nor check their arrays (a pose only
normalizes its quaternion): values are checked where they enter the
program, and the simulator catches non-finite state.  The PID integral
accumulator is the one mutable object and is owned by whoever runs the
control loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_QUAT_EPS = 1e-12


def _vec3(v) -> np.ndarray:
    return np.asarray(v, dtype=float).reshape(3)


def _floats(v) -> list:
    """The elements of a vector as Python floats."""
    return np.asarray(v, dtype=float).tolist()


# Float cores: the formulas on Python floats, taking and returning tuples
# (or any sequence).  Python floats round exactly as float64 arrays do, and
# on 3- and 4-vectors they skip numpy's per-call setup.  The array-returning
# functions below are built on them, and `simulator.step` calls them
# directly.


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


def cross(a, b) -> np.ndarray:
    """Cross product of two 3-vectors, as an array.

    Multiplied out in Python floats in the operation order of `np.cross`
    (`a1*b2 - a2*b1`, each product rounded, then one subtraction), so
    bit-identical to it, at a fraction of the cost of numpy's per-call
    setup on 3 elements."""
    return np.array(cross3(a.tolist(), b.tolist()))


def quat_normalize(q) -> np.ndarray:
    """Unit-normalize a (w, x, y, z) quaternion and force w >= 0."""
    arr = np.asarray(q, dtype=float).reshape(4)
    norm = float(np.linalg.norm(arr))
    if not math.isfinite(norm) or norm < _QUAT_EPS:
        raise ValueError(f"quaternion norm {norm} is not usable")
    arr = arr / norm
    if arr[0] < 0.0:
        arr = -arr
    return arr


def quat_multiply(a, b) -> np.ndarray:
    return np.array(hamilton(_floats(a), _floats(b)))


def quat_conjugate(q) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_rotate(q, v) -> np.ndarray:
    """Rotate a 3-vector by a unit quaternion (body -> world for a pose)."""
    w = q[0]
    u = np.asarray(q[1:], dtype=float)
    v = np.asarray(v, dtype=float)
    # Rodrigues form of q v q*
    return v + 2.0 * cross(u, cross(u, v) + w * v)


def quat_to_matrix(q) -> np.ndarray:
    return np.array(rotation_rows(_floats(q)))


def quat_from_rotvec(rv) -> np.ndarray:
    """Exponential map: rotation vector (axis * angle) to unit quaternion."""
    return quat_normalize(rotvec_exp(_floats(rv)))


def rotvec_from_quat(q) -> np.ndarray:
    """Logarithm map: quaternion to rotation vector, angle in [0, pi]."""
    q = quat_normalize(q)
    w = min(1.0, q[0])
    sin_half = float(np.linalg.norm(q[1:]))
    angle = 2.0 * np.arctan2(sin_half, w)
    if sin_half < 1e-10:
        return 2.0 * np.asarray(q[1:], dtype=float)
    return (angle / sin_half) * np.asarray(q[1:], dtype=float)


def skew(v) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_left_jacobian_and_dot(rv, rv_rate) -> tuple[np.ndarray, np.ndarray]:
    """Left Jacobian of SO(3) and its time derivative along rv(t) with rate
    rv_rate, from one pass over the angle, skew(rv) and its square.

    J_l maps rotation-vector rates to world angular velocity for
    q(t) = exp(rv(t)) * q0; with J_l_dot it gives the analytic angular
    acceleration of a spline evaluated in a rotation-vector chart:
    w_dot = J_l * rv_ddot + J_l_dot * rv_dot.
    """
    rv = np.asarray(rv, dtype=float)
    rv_rate = np.asarray(rv_rate, dtype=float)
    angle = float(np.linalg.norm(rv))
    k = skew(rv)
    k2 = k @ k
    kd = skew(rv_rate)
    # a = (1-cos)/t^2 and b = (t-sin)/t^3; a'(t)/t and b'(t)/t stay finite at
    # zero and, times (rv . rv_rate), give the chain-rule terms of J_l_dot
    # without dividing by the angle.  Series fallbacks near zero.
    if angle < 1e-4:
        t2 = angle * angle
        a, b = 0.5 - t2 / 24.0, 1.0 / 6.0 - t2 / 120.0
        a_prime_over = -1.0 / 12.0 + t2 / 180.0
        b_prime_over = -1.0 / 60.0 + t2 / 1260.0
    else:
        cos, sin = np.cos(angle), np.sin(angle)
        a = (1.0 - cos) / angle**2
        b = (angle - sin) / angle**3
        a_prime_over = (sin / angle**2 - 2.0 * (1.0 - cos) / angle**3) / angle
        b_prime_over = ((1.0 - cos) / angle**3 - 3.0 * (angle - sin) / angle**4) / angle
    jac = np.eye(3) + a * k + b * k2
    dot = float(rv @ rv_rate)
    jac_dot = dot * (a_prime_over * k + b_prime_over * k2) + a * kd + b * (kd @ k + k @ kd)
    return jac, jac_dot


def so3_left_jacobian_inv(rv) -> np.ndarray:
    rv = np.asarray(rv, dtype=float)
    angle = float(np.linalg.norm(rv))
    k = skew(rv)
    if angle < 1e-4:
        c = 1.0 / 12.0 + angle * angle / 720.0
    else:
        c = (1.0 - 0.5 * angle * np.sin(angle) / (1.0 - np.cos(angle))) / angle**2
    return np.eye(3) - 0.5 * k + c * (k @ k)


@dataclass(frozen=True, eq=False)
class Pose:
    """World-frame rigid-body pose: position plus world-from-body quaternion."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _vec3(self.position))
        object.__setattr__(self, "orientation", quat_normalize(self.orientation))

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))

    @classmethod
    def from_translation(cls, position) -> "Pose":
        return cls(position, np.array([1.0, 0.0, 0.0, 0.0]))

    @classmethod
    def from_rotvec(cls, position, rotvec) -> "Pose":
        return cls(position, quat_from_rotvec(rotvec))

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.orientation)

    def rotate(self, v) -> np.ndarray:
        return quat_rotate(self.orientation, v)


def compose(a: Pose, b: Pose) -> Pose:
    """Rigid composition: the pose of b's frame expressed through a."""
    return Pose(
        a.position + a.rotate(b.position),
        quat_multiply(a.orientation, b.orientation),
    )


def orientation_error(target: Pose, current: Pose) -> np.ndarray:
    """World-frame rotation vector carrying `current` onto `target`."""
    rel = quat_multiply(target.orientation, quat_conjugate(current.orientation))
    return rotvec_from_quat(rel)


@dataclass(frozen=True, eq=False)
class Twist:
    """World-frame velocity 6-vector of the body center."""

    linear: np.ndarray
    angular: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "linear", _vec3(self.linear))
        object.__setattr__(self, "angular", _vec3(self.angular))

    @classmethod
    def zero(cls) -> "Twist":
        return cls(np.zeros(3), np.zeros(3))

    @classmethod
    def from_array(cls, v) -> "Twist":
        v = np.asarray(v, dtype=float).reshape(6)
        return cls(v[:3], v[3:])

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.linear, self.angular])


@dataclass(frozen=True, eq=False)
class Wrench:
    """World-frame force/torque 6-vector referenced to the body center."""

    force: np.ndarray
    torque: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "force", _vec3(self.force))
        object.__setattr__(self, "torque", _vec3(self.torque))

    @classmethod
    def zero(cls) -> "Wrench":
        return cls(np.zeros(3), np.zeros(3))

    @classmethod
    def from_array(cls, v) -> "Wrench":
        v = np.asarray(v, dtype=float).reshape(6)
        return cls(v[:3], v[3:])

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.force, self.torque])

    def __add__(self, other: "Wrench") -> "Wrench":
        return Wrench(self.force + other.force, self.torque + other.torque)


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
    body_pose = compose(cam_pose, body_in_camera)
    lever_world = cam_pose.rotate(body_in_camera.position)
    linear = cam_twist.linear + cross(cam_twist.angular, lever_world)
    return body_pose, Twist(linear, cam_twist.angular)


@dataclass(frozen=True, eq=False)
class PidGains:
    """Per-axis PID gains for the 6-D pose loop (x, y, z, rx, ry, rz)."""

    kp: np.ndarray
    ki: np.ndarray
    kd: np.ndarray
    integral_limit: np.ndarray

    def __post_init__(self):
        for name in ("kp", "ki", "kd", "integral_limit"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(6).copy()
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.integral_limit < 0):
            raise ValueError("integral_limit must be non-negative")

    @classmethod
    def zero(cls) -> "PidGains":
        z = np.zeros(6)
        return cls(z, z, z, z)


@dataclass
class PidState:
    """Mutable integral accumulator, owned by one control loop."""

    integral: np.ndarray = field(default_factory=lambda: np.zeros(6))


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
    err = np.concatenate(
        [pose_ref.position - pose.position, orientation_error(pose_ref, pose)]
    )
    derr = twist_ref.as_array() - twist.as_array()
    state.integral = np.clip(
        state.integral + err * dt, -gains.integral_limit, gains.integral_limit
    )
    out = gains.kp * err + gains.ki * state.integral + gains.kd * derr
    return Wrench.from_array(out)
