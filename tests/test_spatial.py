import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    poses_almost_equal,
    reference_chart_rates,
    reference_quat_multiply,
    reference_quat_normalize,
    reference_quat_to_matrix,
    reference_quat_unit,
    reference_rotvec_log,
    reference_so3_left_jacobian_and_dot,
    reference_wrench_error_pid,
    so3_left_jacobian_inv,
    transform_point,
)
from wiredrive.simulator import OdometrySensor, SensorModel, SimState
from wiredrive.spatial import (
    UNIT_NORM_TOLERANCE,
    PidGains,
    PidState,
    Pose,
    Twist,
    Wrench,
    _chart_coefficients,
    chart_rate,
    chart_rates,
    cross3,
    hamilton,
    orientation_error,
    quat_unit,
    rotation_rows,
    rotvec_exp,
    rotvec_log,
    transform_odometry,
    wrench_error_pid,
)


def random_pose(rng):
    rv = rng.normal(size=3)
    rv *= rng.uniform(0.0, 2.5) / max(np.linalg.norm(rv), 1e-12)
    return Pose.from_rotvec(rng.normal(scale=2.0, size=3), rv)


def test_quaternion_stays_normalized_and_canonical():
    rng = np.random.default_rng(3)
    p = random_pose(rng)
    for _ in range(200):
        p = Pose(p.position, hamilton(p.orientation, random_pose(rng).orientation))
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
        back = rotvec_log(quat_unit(rotvec_exp(rv.tolist())))
        assert np.allclose(back, rv, atol=1e-9)


def test_quat_multiply_matches_matrix_product():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a, b = random_pose(rng), random_pose(rng)
        q = hamilton(a.orientation, b.orientation)
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


def test_transform_odometry_matches_the_quaternion_sandwich():
    # a rotated camera and a rotated, offset body: the lever R_cam p_body,
    # rotated once, sets both the body position and the w x lever term
    rng = np.random.default_rng(8)
    for _ in range(50):
        cam_pose, body_in_camera = random_pose(rng), random_pose(rng)
        cam_twist = Twist(rng.normal(size=3), rng.normal(size=3))
        pose, twist = transform_odometry(cam_pose, cam_twist, body_in_camera)
        lever = transform_point(cam_pose, body_in_camera.position) - cam_pose.position
        assert np.allclose(pose.position, np.asarray(cam_pose.position) + lever, rtol=0.0,
                           atol=1e-12)
        assert np.allclose(pose.rotation_matrix(),
                           cam_pose.rotation_matrix() @ body_in_camera.rotation_matrix(),
                           rtol=0.0, atol=1e-12)
        assert np.allclose(twist.linear,
                           np.asarray(cam_twist.linear) + np.cross(cam_twist.angular, lever),
                           rtol=0.0, atol=1e-12)
        assert np.array(twist.angular).tobytes() == np.array(cam_twist.angular).tobytes()


def _jac(rv):
    """The left Jacobian, column by column: J_l e_i is `chart_rates`' omega
    at rate e_i."""
    return np.array([chart_rates(rv, e, np.zeros(3))[0] for e in np.eye(3)]).T


def _omega_dot_fd(rv, rate, accel, h):
    """Central difference of omega = J_l(rv(t)) rv'(t) along
    rv(t) = rv + t rate + t^2/2 accel, at t = 0."""
    omega = [np.array(chart_rates(rv + s * h * rate + 0.5 * h * h * accel, rate + s * h * accel,
                                  np.zeros(3))[0]) for s in (1.0, -1.0)]
    return (omega[0] - omega[1]) / (2 * h)


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
        q_plus = quat_unit(rotvec_exp((rv + h * rate).tolist()))
        w, x, y, z = quat_unit(rotvec_exp((rv - h * rate).tolist()))
        omega_fd = np.array(rotvec_log(quat_unit(hamilton(q_plus, (w, -x, -y, -z))))) / (2 * h)
        omega = _jac(rv) @ rate
        assert np.allclose(omega, omega_fd, atol=1e-6)


def test_left_jacobian_dot_matches_finite_difference():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(30):
        rv = rng.normal(size=3) * 0.9
        rate, accel = rng.normal(size=3), rng.normal(size=3)
        fd = _omega_dot_fd(rv, rate, accel, h)
        assert np.allclose(chart_rates(rv, rate, accel)[1], fd, atol=1e-6)


def test_left_jacobian_dot_small_angle_branch():
    rng = np.random.default_rng(12)
    rate, accel = rng.normal(size=3), rng.normal(size=3)
    h = 1e-7
    rv = rng.normal(size=3) * 1e-6
    fd = _omega_dot_fd(rv, rate, accel, h)
    assert np.allclose(chart_rates(rv, rate, accel)[1], fd, atol=1e-6)


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
    assert _same_bits(np.array(cross3(a.tolist(), b.tolist())), np.cross(a, b))


_QUATERNIONS = arrays(float, 4, elements=_CROSS_ELEMENTS)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_QUATERNIONS, _QUATERNIONS)
def test_quat_multiply_is_bit_identical_to_numpy_scalars(a, b):
    assert _same_bits(np.array(hamilton(a.tolist(), b.tolist())), reference_quat_multiply(a, b))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_QUATERNIONS)
def test_quat_to_matrix_is_bit_identical_to_numpy_scalars(q):
    assert _same_bits(np.array(rotation_rows(q.tolist())), reference_quat_to_matrix(q))


_EPS = 2.0**-52  # one ulp of 1


def _ulps(got, want):
    """Largest distance between two float sequences, in ulps of `want`."""
    return max(abs(g - w) / np.spacing(abs(w)) if g != w else 0.0 for g, w in zip(got, want))


# quaternions at any scale from 1e-5 to 1e5, or near the identity, as the
# bundled runs' attitudes are; either sign of w, and exact zeros
@st.composite
def raw_quaternions(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        q = rng.normal(size=4) * 10.0 ** rng.uniform(-5, 5)
    else:
        q = np.array([draw(st.sampled_from([1.0, -1.0])),
                      *(rng.normal(size=3) * 10.0 ** rng.uniform(-8, 0))])
    for i in draw(st.lists(st.integers(1, 3), max_size=2)):
        q[i] = draw(st.sampled_from([0.0, -0.0]))
    return q.tolist()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(raw_quaternions())
def test_quat_unit_is_bit_identical_to_numpy_scalars(q):
    assert np.array(quat_unit(q)).tobytes() == np.array(reference_quat_unit(q)).tobytes()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(raw_quaternions())
def test_quat_unit_is_within_two_ulps_of_the_linalg_norm_normalization(q):
    # np.linalg.norm's dot may round the norm one ulp away from the in-order
    # sum of squares; each quotient then moves by at most 2 ulps
    unit = quat_unit(q)
    assert _ulps(unit, reference_quat_normalize(q).tolist()) <= 2.0
    # and the result measures unit to within the tolerance Pose keeps it by
    assert abs(math.sqrt(sum(v * v for v in unit)) - 1.0) <= UNIT_NORM_TOLERANCE


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(raw_quaternions())
def test_rotvec_log_is_within_two_ulps_of_numpy_scalars(q):
    # bit for bit but for np.arctan2, which can round apart from math.atan2
    unit = quat_unit(q)
    got, want = rotvec_log(unit), reference_rotvec_log(unit)
    assert _ulps(got, want) <= 2.0
    if unit[0] > 0.999:  # near the identity, as in the bundled runs: bit for bit
        assert got == tuple(want)


@st.composite
def chart_states(draw):
    """A chart point inside the chart limit (or within 1e-4 of zero, the
    series branch), and its rate and acceleration at scales 1e-3 to 10."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axis = rng.normal(size=3)
    rv = axis / np.linalg.norm(axis) * draw(st.sampled_from([rng.uniform(0.0, 3.0),
                                                             rng.uniform(0.0, 1e-4), 0.0]))
    rate = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 1)
    accel = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 1)
    return rv.tolist(), rate.tolist(), accel.tolist()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(chart_states())
def test_chart_rates_are_bit_identical_to_numpy_scalars(case):
    got = chart_rates(*case)
    want = reference_chart_rates(*case)
    assert np.array(got).tobytes() == np.array(want).tobytes()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(chart_states())
def test_chart_rates_agree_with_the_left_jacobian_matrices(case):
    # the cross-product form sums in another order than J_l @ rate and
    # J_l @ accel + J_l_dot @ rate; the gap stays within 32 ulps of the
    # terms' scale, |rate| (1 + |rv|)^2 and (|accel| + |rate|^2)(1 + |rv|)^2
    rv, rate, accel = (np.array(v) for v in case)
    omega, omega_dot = chart_rates(*case)
    jac, jac_dot = reference_so3_left_jacobian_and_dot(rv, rate)
    grow = (1.0 + np.linalg.norm(rv)) ** 2
    assert np.max(np.abs(omega - jac @ rate)) <= 32 * _EPS * np.linalg.norm(rate) * grow
    assert np.max(np.abs(omega_dot - (jac @ accel + jac_dot @ rate))) <= (
        32 * _EPS * (np.linalg.norm(accel) + np.linalg.norm(rate) ** 2) * grow
    )


@st.composite
def chart_rate_cases(draw):
    """A chart point up to the chart limit, within 1e-4 of zero (the series
    branch), from 1e-4 to 0.1 (where 1 - cos t cancels most), or zero; and
    an angular velocity at scales 1e-3 to 10."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axis = rng.normal(size=3)
    angle = draw(st.sampled_from([rng.uniform(0.0, np.pi - 0.1), rng.uniform(0.0, 1e-4),
                                  10.0 ** rng.uniform(-4, -1), 0.0]))
    omega = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 1)
    return (axis / np.linalg.norm(axis) * angle).tolist(), omega.tolist()


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(chart_rate_cases())
def test_chart_rate_is_the_inverse_left_jacobian(case):
    rv, omega = case
    got = np.array(chart_rate(rv, omega))
    # the matrix form sums in another order, on numpy scalars
    want = so3_left_jacobian_inv(rv) @ np.array(omega)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # chart_rates maps it back onto omega to rounding, small angles included
    back = np.array(chart_rates(rv, got.tolist(), [0.0, 0.0, 0.0])[0])
    assert np.max(np.abs(back - omega)) <= 1e-14 * np.max(np.abs(omega))


def _exact_chart_coefficients(t):
    """(a, b, a'/t, b'/t, c) from their closed forms in 120-digit mpmath;
    at t >= 1e-12 they cancel at most 50 of those digits."""
    with mpmath.workdps(120):
        t = mpmath.mpf(t)
        cos, sin = mpmath.cos(t), mpmath.sin(t)
        a, b = (1 - cos) / t**2, (t - sin) / t**3
        return (a, b, (sin / t**2 - 2 * (1 - cos) / t**3) / t,
                ((1 - cos) / t**3 - 3 * (t - sin) / t**4) / t,
                (1 - t * sin / (2 * (1 - cos))) / t**2)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.one_of(st.floats(-12.0, math.log10(3.0)).map(lambda e: 10.0**e),
                 st.floats(0.45, 0.6), st.sampled_from([0.5, math.nextafter(0.5, 0.0)])))
def test_chart_coefficients_are_within_1e_12_of_their_exact_values(t):
    # both sides of the series switch at 0.5, up to past the chart limit
    for got, want in zip(_chart_coefficients(t), _exact_chart_coefficients(t)):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert _chart_coefficients(0.0) == [1 / 2, 1 / 6, -1 / 12, -1 / 60, 1 / 12]


_PID_ELEMENTS = st.one_of(st.sampled_from([0.0, -0.0, math.nan]), st.floats(-10.0, 10.0))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1), arrays(float, 6, elements=_PID_ELEMENTS),
       arrays(float, 6, elements=st.sampled_from([0.0, -0.0, 0.05, 1.0])),
       st.sampled_from([0.005, 0.01]))
def test_pid_is_bit_identical_to_its_array_formulation(seed, offsets, limits, dt):
    # a NaN in the state or the integral, and zero limits, where np.clip
    # turns either zero into +0
    rng = np.random.default_rng(seed)
    gains = PidGains(rng.normal(size=6), rng.normal(size=6), rng.normal(size=6), limits)
    pose, ref = random_pose(rng), random_pose(rng)
    pose = Pose(np.asarray(pose.position) + offsets[:3], pose.orientation)
    twist, twist_ref = Twist(offsets[3:], rng.normal(size=3)), Twist.from_array(rng.normal(size=6))
    state, reference = PidState(offsets[::-1] * 0.01), PidState(offsets[::-1] * 0.01)
    for _ in range(3):
        got = wrench_error_pid(pose, twist, ref, twist_ref, gains, state, dt)
        want = reference_wrench_error_pid(pose, twist, ref, twist_ref, gains, reference, dt)
        assert got.as_array().tobytes() == want.as_array().tobytes()
        assert np.array(state.integral).tobytes() == np.array(reference.integral).tobytes()


@st.composite
def any_pose(draw):
    """A pose from each constructor, and from the producers that use the
    private one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    position = rng.normal(scale=2.0, size=3)
    kind = draw(st.sampled_from(["raw", "near unit", "rotvec", "translation", "identity",
                                 "product", "private", "measure"]))
    if kind == "raw":
        return Pose(position, draw(raw_quaternions()))
    if kind == "near unit":  # a unit quaternion a few ulps off, either sign
        q = np.array(quat_unit(rng.normal(size=4).tolist()))
        q *= draw(st.sampled_from([1.0, -1.0])) * (1.0 + draw(st.integers(-8, 8)) * _EPS)
        return Pose(position, q)
    if kind == "rotvec":
        return Pose.from_rotvec(position, rng.normal(size=3) * rng.uniform(0.0, 3.0))
    if kind == "translation":
        return Pose.from_translation(position)
    if kind == "identity":
        return Pose.identity()
    if kind == "product":
        a, b = random_pose(rng), random_pose(rng)
        return Pose(position, hamilton(a.orientation, b.orientation))
    if kind == "private":
        return Pose._of(tuple(position.tolist()), quat_unit(draw(raw_quaternions())))
    sensor = OdometrySensor(SensorModel(0.01, 0.01, 0.01, 0.01), seed=int(rng.integers(100)))
    return sensor.measure(SimState(random_pose(rng), Twist.zero(), np.zeros(1)))[0]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(any_pose())
def test_a_pose_rebuilt_from_its_fields_is_the_same_pose(pose):
    again = Pose(pose.position, pose.orientation)
    assert np.array(again.position).tobytes() == np.array(pose.position).tobytes()
    assert np.array(again.orientation).tobytes() == np.array(pose.orientation).tobytes()


def test_a_pose_copies_the_callers_arrays():
    position, orientation = np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0])
    pose = Pose(position, orientation)
    position[0], orientation[1] = 1.0, 0.5
    assert pose.position == (0.0, 0.0, 0.0)
    assert pose.orientation == (1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("record", [Twist, Wrench])
def test_twist_and_wrench_halves_own_their_buffers(record):
    v = np.zeros(3)
    built = record(v, v)
    first, second = (getattr(built, f) for f in record.__dataclass_fields__)
    v[0] = 1.0
    # float tuples: the caller's array is copied, and a half cannot be edited
    assert type(first) is type(second) is tuple and first == second == (0.0, 0.0, 0.0)
    with pytest.raises(TypeError):
        first[1] = 2.0
