import numpy as np
import pytest

from wiredrive.allocation import AllocationWeights, TensionBounds, WinchParams
from wiredrive.errors import RotationTooLarge
from wiredrive.simulator import BodyModel
from wiredrive.spatial import (
    PidGains,
    Pose,
    Twist,
    attitude_error,
)
from wiredrive.trajectory import (
    PoseController,
    chain_segments,
    gravity_feedforward,
    plan_spline,
    sample,
    sample_schedule,
)

from oracles import poses_almost_equal
from test_wires import eight_wire_cube_layout


def random_boundary(rng, max_angle=1.2):
    rv = rng.normal(size=3)
    rv *= rng.uniform(0, max_angle) / max(np.linalg.norm(rv), 1e-12)
    pose = Pose.from_rotvec(rng.normal(scale=0.5, size=3), rv)
    twist = Twist(rng.normal(scale=0.4, size=3), rng.normal(scale=0.4, size=3))
    return pose, twist


def test_degenerate_segment_is_constant():
    pose = Pose.from_rotvec([0.1, 0.2, 0.3], [0.0, 0.5, 0.0])
    seg = plan_spline(pose, Twist.zero(), pose, Twist.zero(), duration=2.0)
    for t in (0.0, 0.7, 1.3, 2.0):
        q, qd, qdd = sample(seg, t)
        assert poses_almost_equal(q, pose, tol=1e-12)
        assert np.allclose(qd.as_array(), np.zeros(6), atol=1e-12)
        assert np.allclose(qdd, np.zeros(6), atol=1e-12)


def test_scalar_unit_cubic_profile():
    # 0 -> 1 over 1 s with zero boundary velocity: q(t) = 3t^2 - 2t^3
    start = Pose.identity()
    end = Pose.from_translation([1.0, 0.0, 0.0])
    seg = plan_spline(start, Twist.zero(), end, Twist.zero(), duration=1.0)
    q, qd, _ = sample(seg, 0.5)
    assert q.position[0] == pytest.approx(0.5, abs=1e-12)
    assert qd.linear[0] == pytest.approx(1.5, abs=1e-12)
    for t in np.linspace(0, 1, 11):
        q, qd, _ = sample(seg, t)
        assert q.position[0] == pytest.approx(3 * t**2 - 2 * t**3, abs=1e-12)


def test_boundary_reproduction_random_segments():
    rng = np.random.default_rng(0)
    for _ in range(100):
        pose_a, twist_a = random_boundary(rng)
        pose_b, twist_b = random_boundary(rng)
        duration = rng.uniform(0.3, 5.0)
        seg = plan_spline(pose_a, twist_a, pose_b, twist_b, duration)
        q0, qd0, _ = sample(seg, 0.0)
        qT, qdT, _ = sample(seg, duration)
        assert np.linalg.norm(np.subtract(q0.position, pose_a.position)) < 1e-9
        assert np.linalg.norm(attitude_error(q0.orientation, pose_a.orientation)) < 1e-9
        assert np.linalg.norm(qd0.as_array() - twist_a.as_array()) < 1e-9
        assert np.linalg.norm(np.subtract(qT.position, pose_b.position)) < 1e-9
        assert np.linalg.norm(attitude_error(qT.orientation, pose_b.orientation)) < 1e-9
        assert np.linalg.norm(qdT.as_array() - twist_b.as_array()) < 1e-9


def test_sampled_derivatives_match_central_differences():
    rng = np.random.default_rng(1)
    h = 1e-5
    for _ in range(50):
        pose_a, twist_a = random_boundary(rng)
        pose_b, twist_b = random_boundary(rng)
        duration = rng.uniform(0.5, 3.0)
        seg = plan_spline(pose_a, twist_a, pose_b, twist_b, duration)
        for t in rng.uniform(2 * h, duration - 2 * h, size=4):
            q_m, qd_m, _ = sample(seg, t - h)
            q_p, qd_p, _ = sample(seg, t + h)
            _, qd, qdd = sample(seg, t)
            vel_fd = np.subtract(q_p.position, q_m.position) / (2 * h)
            omega_fd = np.array(attitude_error(q_p.orientation, q_m.orientation)) / (2 * h)
            assert np.allclose(qd.linear, vel_fd, atol=1e-6)
            assert np.allclose(qd.angular, omega_fd, atol=1e-6)
            acc_fd = (qd_p.as_array() - qd_m.as_array()) / (2 * h)
            assert np.allclose(qdd, acc_fd, atol=1e-4)


def test_clamp_outside_segment():
    start = Pose.identity()
    end = Pose.from_rotvec([1.0, 2.0, 3.0], [0.0, 0.0, 0.4])
    seg = plan_spline(start, Twist([1, 0, 0], [0, 0, 0.2]), end, Twist.zero(), 1.5)
    q, qd, qdd = sample(seg, 3.0)
    assert poses_almost_equal(q, end, tol=1e-12)
    assert np.allclose(qd.as_array(), np.zeros(6))
    assert np.allclose(qdd, np.zeros(6))
    q, qd, qdd = sample(seg, -1.0)
    assert poses_almost_equal(q, start, tol=1e-12)
    assert np.allclose(qd.as_array(), np.zeros(6))


def test_rotation_too_large_rejected():
    start = Pose.identity()
    end = Pose.from_rotvec(np.zeros(3), [0.0, 0.0, np.pi - 0.05])
    with pytest.raises(RotationTooLarge):
        plan_spline(start, Twist.zero(), end, Twist.zero(), 1.0)


@pytest.mark.parametrize("duration", [0.0, -1.0])
def test_a_segment_needs_a_positive_duration(duration):
    # the cubic fit divides by the duration
    pose = Pose.identity()
    with pytest.raises(ValueError, match="duration must be positive"):
        plan_spline(pose, Twist.zero(), Pose.from_translation([0.1, 0.0, 0.0]), Twist.zero(),
                    duration)


def test_chain_segments_and_schedule_sampling():
    poses = [
        (Pose.identity(), Twist.zero(), 0.0),
        (Pose.from_translation([1, 0, 0]), Twist.zero(), 2.0),
        (Pose.from_translation([1, 1, 0]), Twist.zero(), 3.0),
    ]
    segments, starts = chain_segments(poses)
    assert len(segments) == 2
    assert starts == [0.0, 2.0]
    q, _, _ = sample_schedule(segments, starts, 2.0)
    assert np.allclose(q.position, [1, 0, 0], atol=1e-9)
    q, _, _ = sample_schedule(segments, starts, 99.0)
    assert np.allclose(q.position, [1, 1, 0], atol=1e-9)
    # the segment lookup: last start at or before t, the first one before the schedule
    for t, index, local_t in [(-1.0, 0, -1.0), (0.0, 0, 0.0), (1.5, 0, 1.5),
                              (2.0, 1, 0.0), (3.5, 1, 1.5), (99.0, 1, 97.0)]:
        got = sample_schedule(segments, starts, t)
        expected = sample(segments[index], local_t)
        assert np.array_equal(got[0].position, expected[0].position)
        assert np.array_equal(got[0].orientation, expected[0].orientation)
        assert np.array_equal(got[1].as_array(), expected[1].as_array())
        assert np.array_equal(got[2], expected[2])


def hover_controller(segment, dt=0.005, gains=None):
    """A controller on the one-segment schedule ([segment], [0.0])."""
    body = BodyModel.solid_cube(11.0, 0.4)
    wires = eight_wire_cube_layout()
    bounds = TensionBounds.uniform(8)
    weights = AllocationWeights.diagonal(scale=1e8, torque_lever=0.2)
    controller = PoseController(
        body, wires, bounds, weights, WinchParams(),
        gains or PidGains.zero(), ([segment], [0.0]), dt=dt,
    )
    return body, controller


@pytest.mark.parametrize("dt", [0.0, -0.005, float("nan"), float("inf")])
def test_controller_refuses_a_period_that_is_not_finite_and_positive(dt):
    # a NaN period would first fail the QP's KKT check, which names the QP
    pose = Pose.identity()
    seg = plan_spline(pose, Twist.zero(), pose, Twist.zero(), 1.0)
    with pytest.raises(ValueError, match="^controller period must be finite and positive"):
        hover_controller(seg, dt=dt)


def test_hover_gravity_feedforward_statics():
    pose = Pose.identity()
    seg = plan_spline(pose, Twist.zero(), pose, Twist.zero(), 1.0)
    body, controller = hover_controller(seg)
    tick = controller.step(pose, Twist.zero(), 0.5)
    expected = np.array([0, 0, body.mass * 9.80665, 0, 0, 0])
    assert np.allclose(tick.desired_wrench.as_array(), expected, atol=1e-12)
    assert np.allclose(tick.feedback_wrench.as_array(), np.zeros(6), atol=1e-12)
    # allocation realizes the support wrench with tiny residual
    assert tick.command.residual_norm < 1e-6
    assert not any(tick.command.saturated)
    tensions = np.asarray(tick.command.tensions)
    assert np.all(tensions >= np.asarray(controller.bounds.lower) - 1e-10)
    assert np.all(tensions <= np.asarray(controller.bounds.upper) + 1e-10)


def test_control_step_deterministic():
    pose = Pose.from_translation([0.02, -0.01, 0.05])
    twist = Twist([0.01, 0, 0], [0, 0, 0.02])
    seg = plan_spline(Pose.identity(), Twist.zero(), Pose.from_translation([0, 0, 0.1]), Twist.zero(), 2.0)
    _, c1 = hover_controller(seg)
    _, c2 = hover_controller(seg)
    t1 = c1.step(pose, twist, 0.3)
    t2 = c2.step(pose, twist, 0.3)
    assert np.array_equal(t1.command.currents, t2.command.currents)
    assert np.array_equal(t1.command.tensions, t2.command.tensions)
    assert t1.command.residual_norm == t2.command.residual_norm


def test_saturated_wrench_flags_at_least_two_wires():
    # demand far more lateral force than the 30 N caps can express
    body = BodyModel.solid_cube(11.0, 0.4)
    wires = eight_wire_cube_layout()
    bounds = TensionBounds.uniform(8, lower=0.0, upper=30.0)
    weights = AllocationWeights.diagonal(scale=1e8, torque_lever=0.2)
    kp = np.full(6, 0.0)
    kp[:3] = 2000.0
    gains = PidGains(kp, np.zeros(6), np.zeros(6), np.zeros(6))
    seg = plan_spline(
        Pose.from_translation([0.3, 0.0, 0.0]), Twist.zero(),
        Pose.from_translation([0.3, 0.0, 0.0]), Twist.zero(), 1.0,
    )
    controller = PoseController(
        body, wires, bounds, weights, WinchParams(), gains, ([seg], [0.0]), dt=0.005
    )
    tick = controller.step(Pose.identity(), Twist.zero(), 0.5)
    assert int(np.sum(tick.command.saturated)) >= 2
    assert tick.command.residual_norm > 1.0


def test_gravity_feedforward_value():
    body = BodyModel.solid_cube(10.0, 0.4)
    w = gravity_feedforward(body, gravity=9.81)
    assert np.allclose(w.as_array(), [0, 0, 98.1, 0, 0, 0])
