import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    pose_inverse,
    poses_almost_equal,
    reference_quat_multiply,
    reference_quat_to_matrix,
)
from wiredrive.spatial import (
    PidGains,
    PidState,
    Pose,
    Twist,
    compose,
    cross,
    orientation_error,
    quat_from_rotvec,
    quat_multiply,
    quat_to_matrix,
    rotvec_from_quat,
    so3_left_jacobian_and_dot,
    so3_left_jacobian_inv,
    transform_odometry,
    wrench_error_pid,
)


def random_pose(rng):
    rv = rng.normal(size=3)
    rv *= rng.uniform(0.0, 2.5) / max(np.linalg.norm(rv), 1e-12)
    return Pose.from_rotvec(rng.normal(scale=2.0, size=3), rv)


def test_compose_identity():
    rng = np.random.default_rng(1)
    p = random_pose(rng)
    assert poses_almost_equal(compose(Pose.identity(), p), p, tol=1e-12)
    assert poses_almost_equal(compose(p, Pose.identity()), p, tol=1e-12)


def test_compose_inverse_is_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = random_pose(rng)
        assert poses_almost_equal(compose(p, pose_inverse(p)), Pose.identity(), tol=1e-12)
        assert poses_almost_equal(compose(pose_inverse(p), p), Pose.identity(), tol=1e-12)


def test_compose_pure_translations_add():
    a = Pose.from_translation([1.0, 0.0, 0.0])
    b = Pose.from_translation([0.0, 2.0, 0.0])
    c = compose(a, b)
    assert np.allclose(c.position, [1.0, 2.0, 0.0])
    assert np.allclose(c.orientation, [1.0, 0.0, 0.0, 0.0])


def test_quaternion_stays_normalized_and_canonical():
    rng = np.random.default_rng(3)
    p = random_pose(rng)
    for _ in range(200):
        p = compose(p, random_pose(rng))
        assert abs(np.linalg.norm(p.orientation) - 1.0) < 1e-9
        assert p.orientation[0] >= 0.0


def test_orientation_error_zero_for_identical_poses():
    rng = np.random.default_rng(4)
    p = random_pose(rng)
    assert np.linalg.norm(orientation_error(p, p)) < 1e-12


def test_orientation_error_matches_relative_rotation():
    base = Pose.identity()
    target = Pose.from_rotvec(np.zeros(3), [0.0, 0.0, 0.3])
    err = orientation_error(target, base)
    assert np.allclose(err, [0.0, 0.0, 0.3], atol=1e-12)


def test_rotvec_quat_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(100):
        rv = rng.normal(size=3)
        rv *= rng.uniform(0, 3.1) / np.linalg.norm(rv)
        back = rotvec_from_quat(quat_from_rotvec(rv))
        assert np.allclose(back, rv, atol=1e-9)


def test_quat_multiply_matches_matrix_product():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a, b = random_pose(rng), random_pose(rng)
        q = quat_multiply(a.orientation, b.orientation)
        r = Pose(np.zeros(3), q).rotation_matrix()
        assert np.allclose(r, a.rotation_matrix() @ b.rotation_matrix(), atol=1e-12)


def test_transform_odometry_identity_extrinsic_passthrough():
    rng = np.random.default_rng(7)
    cam_pose = random_pose(rng)
    cam_twist = Twist(rng.normal(size=3), rng.normal(size=3))
    pose, twist = transform_odometry(cam_pose, cam_twist, Pose.identity())
    assert poses_almost_equal(pose, cam_pose, tol=1e-12)
    assert np.allclose(twist.as_array(), cam_twist.as_array())


def test_transform_odometry_lever_arm_velocity():
    body_in_camera = Pose.from_translation([0.1, 0.0, 0.0])
    omega = np.array([0.0, 0.0, 2.0])
    pose, twist = transform_odometry(Pose.identity(), Twist(np.zeros(3), omega), body_in_camera)
    assert np.allclose(pose.position, [0.1, 0.0, 0.0])
    assert np.allclose(twist.linear, np.cross(omega, [0.1, 0.0, 0.0]))
    assert np.allclose(twist.angular, omega)


def test_transform_odometry_translation_only():
    body_in_camera = Pose.from_translation([0.0, 0.2, -0.1])
    pose, twist = transform_odometry(Pose.identity(), Twist.zero(), body_in_camera)
    assert np.allclose(pose.position, [0.0, 0.2, -0.1])
    assert np.allclose(twist.as_array(), np.zeros(6))


def _jac(rv):
    """The left Jacobian alone: the first of the pair, at any rate."""
    return so3_left_jacobian_and_dot(rv, np.zeros(3))[0]


def test_left_jacobian_inverse_pair():
    rng = np.random.default_rng(9)
    for _ in range(50):
        rv = rng.normal(size=3)
        prod = _jac(rv) @ so3_left_jacobian_inv(rv)
        assert np.allclose(prod, np.eye(3), atol=1e-10)


def test_left_jacobian_maps_chart_rate_to_angular_velocity():
    # finite-difference the chart composition against J_l * rv_rate
    rng = np.random.default_rng(10)
    h = 1e-6
    for _ in range(30):
        rv = rng.normal(size=3) * 0.8
        rate = rng.normal(size=3)
        q_plus = quat_from_rotvec(rv + h * rate)
        q_minus = quat_from_rotvec(rv - h * rate)
        omega_fd = rotvec_from_quat(quat_multiply(q_plus, [q_minus[0], *(-q_minus[1:])])) / (
            2 * h
        )
        omega = _jac(rv) @ rate
        assert np.allclose(omega, omega_fd, atol=1e-6)


def test_left_jacobian_dot_matches_finite_difference():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(30):
        rv = rng.normal(size=3) * 0.9
        rate = rng.normal(size=3)
        fd = (_jac(rv + h * rate) - _jac(rv - h * rate)) / (2 * h)
        assert np.allclose(so3_left_jacobian_and_dot(rv, rate)[1], fd, atol=1e-6)


def test_left_jacobian_dot_small_angle_branch():
    rng = np.random.default_rng(12)
    rate = rng.normal(size=3)
    h = 1e-7
    rv = rng.normal(size=3) * 1e-6
    fd = (_jac(rv + h * rate) - _jac(rv - h * rate)) / (2 * h)
    assert np.allclose(so3_left_jacobian_and_dot(rv, rate)[1], fd, atol=1e-6)


def test_pid_zero_error_zero_output():
    gains = PidGains(np.full(6, 100.0), np.full(6, 10.0), np.full(6, 5.0), np.full(6, 1.0))
    state = PidState()
    rng = np.random.default_rng(13)
    pose = random_pose(rng)
    twist = Twist(rng.normal(size=3), rng.normal(size=3))
    out = wrench_error_pid(pose, twist, pose, twist, gains, state, dt=0.005)
    assert np.allclose(out.as_array(), np.zeros(6), atol=1e-12)


def test_pid_proportional_law():
    kp = np.zeros(6)
    kp[0] = 100.0
    gains = PidGains(kp, np.zeros(6), np.zeros(6), np.zeros(6))
    state = PidState()
    pose = Pose.identity()
    ref = Pose.from_translation([0.1, 0.0, 0.0])
    out = wrench_error_pid(pose, Twist.zero(), ref, Twist.zero(), gains, state, dt=0.005)
    assert np.allclose(out.force, [10.0, 0.0, 0.0])
    assert np.allclose(out.torque, np.zeros(3))


def test_pid_integral_saturates_at_clamp():
    ki = np.zeros(6)
    ki[1] = 4.0
    limit = np.full(6, 0.05)
    gains = PidGains(np.zeros(6), ki, np.zeros(6), limit)
    state = PidState()
    pose = Pose.identity()
    ref = Pose.from_translation([0.0, 0.1, 0.0])
    dt = 0.01
    outputs = []
    for step in range(1, 201):
        out = wrench_error_pid(pose, Twist.zero(), ref, Twist.zero(), gains, state, dt)
        outputs.append(out.force[1])
        expected_integral = min(step * dt * 0.1, 0.05)
        assert out.force[1] == pytest.approx(4.0 * expected_integral, abs=1e-12)
    # saturated long before the end and stays there
    assert outputs[-1] == pytest.approx(4.0 * 0.05)
    assert outputs[-1] == outputs[-50]


def test_wrench_addition_commutative_and_associative():
    from wiredrive.spatial import Wrench

    rng = np.random.default_rng(15)
    a = Wrench(rng.normal(size=3), rng.normal(size=3))
    b = Wrench(rng.normal(size=3), rng.normal(size=3))
    ab = (a + b).as_array()
    ba = (b + a).as_array()
    assert np.array_equal(ab, ba)  # commutativity is exact in IEEE floats
    # associativity is exact whenever the components are exactly representable
    c = Wrench([1.0, -2.0, 4.0], [0.5, 0.25, -8.0])
    d = Wrench([3.0, 7.0, -1.0], [2.0, -0.75, 16.0])
    e = Wrench([-5.0, 0.5, 2.0], [1.25, 4.0, -32.0])
    assert np.array_equal(((c + d) + e).as_array(), (c + (d + e)).as_array())


def test_pid_output_linear_in_error_for_p_only():
    gains = PidGains(np.full(6, 7.0), np.zeros(6), np.zeros(6), np.zeros(6))
    rng = np.random.default_rng(14)
    for _ in range(10):
        d = rng.normal(size=3) * 0.05
        out1 = wrench_error_pid(
            Pose.identity(), Twist.zero(), Pose.from_translation(d), Twist.zero(),
            gains, PidState(), dt=0.01,
        )
        out2 = wrench_error_pid(
            Pose.identity(), Twist.zero(), Pose.from_translation(2 * d), Twist.zero(),
            gains, PidState(), dt=0.01,
        )
        assert np.allclose(2 * out1.as_array(), out2.as_array(), atol=1e-12)


# finite magnitudes from subnormal through 1e-300 (products underflow) to
# 1e150 (products near the top of the range), either sign, plus both zeros
_CROSS_ELEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(1e-300, 1e150),
    st.floats(-1e150, -1e-300),
    st.floats(-2.2e-308, 2.2e-308, allow_subnormal=True),
)


_VECTORS = arrays(float, 3, elements=_CROSS_ELEMENTS)


def _same_bits(got, expected):
    """Equal bits and equal memory layout: a later einsum or matmul can sum
    in another order over another layout."""
    return got.strides == expected.strides and np.array_equal(
        got.view(np.int64), expected.view(np.int64)
    )


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_VECTORS, _VECTORS)
def test_cross_is_bit_identical_to_numpy(a, b):
    assert _same_bits(cross(a, b), np.cross(a, b))


_QUATERNIONS = arrays(float, 4, elements=_CROSS_ELEMENTS)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_QUATERNIONS, _QUATERNIONS)
def test_quat_multiply_is_bit_identical_to_numpy_scalars(a, b):
    assert _same_bits(quat_multiply(a, b), reference_quat_multiply(a, b))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_QUATERNIONS)
def test_quat_to_matrix_is_bit_identical_to_numpy_scalars(q):
    assert _same_bits(quat_to_matrix(q), reference_quat_to_matrix(q))
