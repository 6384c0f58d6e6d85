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

from dataclasses import dataclass, field

import numpy as np

_QUAT_EPS = 1e-12


def _vec3(v) -> np.ndarray:
    return np.asarray(v, dtype=float).reshape(3)


def quat_normalize(q) -> np.ndarray:
    """Unit-normalize a (w, x, y, z) quaternion and force w >= 0."""
    arr = np.asarray(q, dtype=float).reshape(4)
    norm = float(np.linalg.norm(arr))
    if not np.isfinite(norm) or norm < _QUAT_EPS:
        raise ValueError(f"quaternion norm {norm} is not usable")
    arr = arr / norm
    if arr[0] < 0.0:
        arr = -arr
    return arr


def quat_multiply(a, b) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conjugate(q) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_rotate(q, v) -> np.ndarray:
    """Rotate a 3-vector by a unit quaternion (body -> world for a pose)."""
    w = q[0]
    u = np.asarray(q[1:], dtype=float)
    v = np.asarray(v, dtype=float)
    # Rodrigues form of q v q*
    return v + 2.0 * np.cross(u, np.cross(u, v) + w * v)


def quat_to_matrix(q) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_rotvec(rv) -> np.ndarray:
    """Exponential map: rotation vector (axis * angle) to quaternion."""
    rv = np.asarray(rv, dtype=float)
    angle = float(np.linalg.norm(rv))
    if angle < 1e-10:
        # second-order series keeps the map smooth through zero
        q = np.concatenate(([1.0 - angle * angle / 8.0], 0.5 * rv))
    else:
        q = np.concatenate(
            ([np.cos(0.5 * angle)], np.sin(0.5 * angle) / angle * rv)
        )
    return quat_normalize(q)


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


def _ab_coeffs(angle: float) -> tuple[float, float]:
    # a = (1-cos)/t^2, b = (t-sin)/t^3 with series fallbacks
    if angle < 1e-4:
        t2 = angle * angle
        return 0.5 - t2 / 24.0, 1.0 / 6.0 - t2 / 120.0
    return (
        (1.0 - np.cos(angle)) / angle**2,
        (angle - np.sin(angle)) / angle**3,
    )


def so3_left_jacobian(rv) -> np.ndarray:
    """Left Jacobian of SO(3): maps rotation-vector rates to world angular
    velocity for q(t) = exp(rv(t)) * q0."""
    rv = np.asarray(rv, dtype=float)
    angle = float(np.linalg.norm(rv))
    k = skew(rv)
    a, b = _ab_coeffs(angle)
    return np.eye(3) + a * k + b * (k @ k)


def so3_left_jacobian_inv(rv) -> np.ndarray:
    rv = np.asarray(rv, dtype=float)
    angle = float(np.linalg.norm(rv))
    k = skew(rv)
    if angle < 1e-4:
        c = 1.0 / 12.0 + angle * angle / 720.0
    else:
        c = (1.0 - 0.5 * angle * np.sin(angle) / (1.0 - np.cos(angle))) / angle**2
    return np.eye(3) - 0.5 * k + c * (k @ k)


def so3_left_jacobian_dot(rv, rv_rate) -> np.ndarray:
    """Time derivative of the left Jacobian along rv(t) with rate rv_rate.

    Needed for analytic angular acceleration of a spline evaluated in a
    rotation-vector chart: w_dot = J_l * rv_ddot + J_l_dot * rv_dot.
    """
    rv = np.asarray(rv, dtype=float)
    rv_rate = np.asarray(rv_rate, dtype=float)
    angle = float(np.linalg.norm(rv))
    k = skew(rv)
    kd = skew(rv_rate)
    a, b = _ab_coeffs(angle)
    # a'(t)/t and b'(t)/t stay finite at zero; combined with (rv . rv_rate)
    # they give the chain-rule terms without dividing by the angle.
    if angle < 1e-4:
        t2 = angle * angle
        a_prime_over = -1.0 / 12.0 + t2 / 180.0
        b_prime_over = -1.0 / 60.0 + t2 / 1260.0
    else:
        a_prime = np.sin(angle) / angle**2 - 2.0 * (1.0 - np.cos(angle)) / angle**3
        b_prime = (1.0 - np.cos(angle)) / angle**3 - 3.0 * (angle - np.sin(angle)) / angle**4
        a_prime_over = a_prime / angle
        b_prime_over = b_prime / angle
    dot = float(rv @ rv_rate)
    return (
        dot * (a_prime_over * k + b_prime_over * (k @ k))
        + a * kd
        + b * (kd @ k + k @ kd)
    )


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

    def transform_point(self, p_body) -> np.ndarray:
        return self.position + self.rotate(p_body)

    def inverse(self) -> "Pose":
        q_inv = quat_conjugate(self.orientation)
        return Pose(-quat_rotate(q_inv, self.position), q_inv)

    def almost_equal(self, other: "Pose", tol: float = 1e-9) -> bool:
        if np.linalg.norm(self.position - other.position) > tol:
            return False
        return np.linalg.norm(orientation_error(self, other)) <= tol


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


@dataclass(frozen=True, eq=False)
class Extrinsic:
    """Fixed mounting transform: pose of the body center in the camera frame.

    Odometry reported in the camera frame is pushed through this to get
    body-center estimates.  The transform must be rigid; the quaternion
    representation guarantees that by construction, and `from_matrix`
    checks it for matrix input.
    """

    body_in_camera: Pose

    @classmethod
    def identity(cls) -> "Extrinsic":
        return cls(Pose.identity())

    @classmethod
    def from_matrix(cls, rotation, translation) -> "Extrinsic":
        rot = np.asarray(rotation, dtype=float).reshape(3, 3)
        if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(translation))):
            raise ValueError("extrinsic rotation and translation must be finite")
        if np.linalg.norm(rot.T @ rot - np.eye(3)) > 1e-9:
            raise ValueError("extrinsic rotation is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > 1e-9:
            raise ValueError("extrinsic rotation must have determinant +1")
        w = 0.5 * np.sqrt(max(0.0, 1.0 + rot[0, 0] + rot[1, 1] + rot[2, 2]))
        if w > 1e-6:
            quat = np.array(
                [
                    w,
                    (rot[2, 1] - rot[1, 2]) / (4 * w),
                    (rot[0, 2] - rot[2, 0]) / (4 * w),
                    (rot[1, 0] - rot[0, 1]) / (4 * w),
                ]
            )
        else:
            # fall back through the rotation vector for 180-degree cases
            angle_axis = _rotvec_from_matrix(rot)
            quat = quat_from_rotvec(angle_axis)
        return cls(Pose(translation, quat))


def _rotvec_from_matrix(rot: np.ndarray) -> np.ndarray:
    trace = float(np.trace(rot))
    angle = np.arccos(np.clip(0.5 * (trace - 1.0), -1.0, 1.0))
    if angle < 1e-8:
        return 0.5 * np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]])
    if np.pi - angle < 1e-6:
        diag = np.diag(rot)
        i = int(np.argmax(diag))
        axis = np.zeros(3)
        axis[i] = np.sqrt(max(0.0, (diag[i] + 1.0) * 0.5))
        for j in range(3):
            if j != i:
                axis[j] = rot[min(i, j), max(i, j)] / (2.0 * axis[i])
        return axis / np.linalg.norm(axis) * angle
    scale = angle / (2.0 * np.sin(angle))
    return scale * np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]])


def transform_odometry(cam_pose: Pose, cam_twist: Twist, ext: Extrinsic) -> tuple[Pose, Twist]:
    """Convert camera-frame odometry to body-center pose and twist.

    The angular velocity is shared by every point of the rigid body; the
    linear velocity picks up the w x lever-arm term for the offset between
    the camera and the body center.
    """
    body_pose = compose(cam_pose, ext.body_in_camera)
    lever_world = cam_pose.rotate(ext.body_in_camera.position)
    linear = cam_twist.linear + np.cross(cam_twist.angular, lever_world)
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
