"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  Criteria that exercise the bundled scenarios share
cached runs through module-scoped fixtures, so the whole suite stays
within its time budgets.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    allocation_qp_terms,
    box_qp_objective,
    grid_search_box_qp,
    random_wire_matrix,
)
from wiredrive.allocation import (
    AllocationWeights,
    TensionBounds,
    WinchParams,
    allocate,
    to_currents,
)
from wiredrive.feasibility import controllability
from wiredrive.runner import deploy_anchors, run_scenario
from wiredrive.scenario import bundled_scenario_path, load_scenario
from wiredrive.simulator import (
    STANDARD_GRAVITY,
    BodyModel,
    SimState,
    step,
)
from wiredrive.spatial import (
    Pose,
    Twist,
    Wrench,
    attitude_error,
    hamilton,
    rotation_rows,
)
from wiredrive.trajectory import plan_spline, sample
from wiredrive.wires import WireAttachment, wire_jacobian, wire_lengths_and_rates


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL - {label}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS - {label}")


@pytest.fixture(scope="module")
def cube8_run(tmp_path_factory):
    scenario = load_scenario(bundled_scenario_path("cube8"))
    out = tmp_path_factory.mktemp("cube8")
    summary = run_scenario(scenario, out)
    return scenario, out, summary


@pytest.fixture(scope="module")
def cube8_saturated_run(tmp_path_factory):
    scenario = load_scenario(bundled_scenario_path("cube8_saturated"))
    out = tmp_path_factory.mktemp("cube8_sat")
    summary = run_scenario(scenario, out)
    return scenario, out, summary


@pytest.fixture(scope="module")
def anchors2_run(tmp_path_factory):
    scenario = load_scenario(bundled_scenario_path("anchors2"))
    out = tmp_path_factory.mktemp("anchors2")
    summary = run_scenario(scenario, out)
    return scenario, out, summary


def test_criterion_1_qp_matches_grid_oracle():
    with criterion(1, "allocator matches exhaustive 0.01 N grid on 200 instances"):
        rng = np.random.default_rng(2026)
        started = time.perf_counter()
        for _ in range(200):
            m = int(rng.integers(2, 5))
            matrix = random_wire_matrix(rng, m)
            weights = AllocationWeights(
                np.diag(np.concatenate([rng.uniform(0.2, 1.0, 3), rng.uniform(0.2, 1.0, 3)]))
            )
            wrench = rng.normal(scale=8.0, size=6)
            bounds = TensionBounds(np.zeros(m), np.full(m, 180.0))
            tensions, _ = allocate(matrix, Wrench.from_array(wrench), bounds, weights)
            hessian, gradient = allocation_qp_terms(matrix, wrench, weights.matrix)
            _, grid_obj = grid_search_box_qp(
                hessian, gradient, bounds.lower, bounds.upper, step=0.01
            )
            solver_obj = box_qp_objective(hessian, gradient, tensions)
            assert abs(solver_obj - grid_obj) <= 1e-3
            assert solver_obj <= grid_obj + 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f} s"


def test_criterion_2_current_map_constants():
    with criterion(2, "drivetrain constants map 92.75 N to 1.000 A, exactly linear"):
        winch = WinchParams(
            pulley_radius=0.008, gear_ratio=53.0, torque_constant=0.014,
            eff_pulley=1.0, eff_gear=1.0,
        )
        current = to_currents(np.array([92.75]), winch)[0]
        assert abs(current - 1.0) <= 1e-3
        rng = np.random.default_rng(0)
        f = rng.uniform(0.0, 180.0, size=8)
        assert np.array_equal(to_currents(2.0 * f, winch), 2.0 * np.asarray(to_currents(f, winch)))
        assert np.array_equal(to_currents(f, winch), f * winch.current_per_newton)
        assert np.array_equal(to_currents(np.zeros(8), winch), np.zeros(8))


def test_criterion_3_spline_contract():
    with criterion(3, "1000 random segments: boundaries 1e-9, derivatives 1e-6/1e-4"):
        rng = np.random.default_rng(7)
        h = 1e-5
        for i in range(1000):
            rv_a, rv_b = rng.normal(size=3) * 0.4, rng.normal(size=3) * 0.4
            pose_a = Pose.from_rotvec(rng.normal(scale=0.6, size=3), rv_a)
            pose_b = Pose.from_rotvec(rng.normal(scale=0.6, size=3), rv_b)
            twist_a = Twist(rng.normal(scale=0.4, size=3), rng.normal(scale=0.4, size=3))
            twist_b = Twist(rng.normal(scale=0.4, size=3), rng.normal(scale=0.4, size=3))
            duration = rng.uniform(0.4, 4.0)
            seg = plan_spline(pose_a, twist_a, pose_b, twist_b, duration)
            for t_b, pose_ref, twist_ref in (
                (0.0, pose_a, twist_a), (duration, pose_b, twist_b),
            ):
                q, qd, _ = sample(seg, t_b)
                assert np.linalg.norm(np.subtract(q.position, pose_ref.position)) < 1e-9
                assert np.linalg.norm(attitude_error(q.orientation, pose_ref.orientation)) < 1e-9
                assert np.linalg.norm(qd.as_array() - twist_ref.as_array()) < 1e-9
            if i % 10 == 0:
                for t in rng.uniform(2 * h, duration - 2 * h, size=2):
                    q_m, qd_m, _ = sample(seg, t - h)
                    q_p, qd_p, _ = sample(seg, t + h)
                    _, qd, qdd = sample(seg, t)
                    vel_fd = np.subtract(q_p.position, q_m.position) / (2 * h)
                    omega_fd = np.array(attitude_error(q_p.orientation, q_m.orientation)) / (2 * h)
                    assert np.allclose(qd.linear, vel_fd, atol=1e-6)
                    assert np.allclose(qd.angular, omega_fd, atol=1e-6)
                    acc_fd = (qd_p.as_array() - qd_m.as_array()) / (2 * h)
                    assert np.allclose(qdd, acc_fd, atol=1e-4)


def test_criterion_4_jacobian_and_rates():
    with criterion(4, "wire matrix vs per-wire accumulation 1e-12; rates vs FD 1e-6"):
        rng = np.random.default_rng(12)
        h = 1e-5
        for _ in range(100):
            m = int(rng.integers(2, 9))
            wires = []
            for i in range(m):
                exit_body = rng.uniform(-0.2, 0.2, size=3)
                anchor = rng.uniform(-2.0, 2.0, size=3)
                anchor += np.sign(anchor) * 0.8
                wires.append(WireAttachment(exit_body, anchor))
            rv = rng.normal(size=3) * 0.8
            pose = Pose.from_rotvec(rng.normal(scale=0.3, size=3), rv)
            tensions = rng.uniform(0.0, 180.0, size=m)
            matrix = wire_jacobian(pose, wires)
            combined = matrix @ tensions
            rot = np.array(rotation_rows(pose.orientation))
            accumulated = np.zeros(6)
            for wire, tension in zip(wires, tensions):
                exit_world = np.asarray(pose.position) + rot @ wire.exit_body
                span = wire.anchor_world - exit_world
                direction = span / np.linalg.norm(span)
                accumulated[:3] += tension * direction
                accumulated[3:] += np.cross(rot @ wire.exit_body, tension * direction)
            assert np.allclose(combined, accumulated, atol=1e-12)

            twist = Twist(rng.normal(size=3), rng.normal(size=3))
            _, rates = wire_lengths_and_rates(pose, twist, wires)

            def lengths_at(offset):
                pos = np.asarray(pose.position) + offset * np.asarray(twist.linear)
                quat = hamilton(
                    Pose.from_rotvec(np.zeros(3), offset * np.asarray(twist.angular)).orientation,
                    pose.orientation,
                )
                return wire_lengths_and_rates(Pose(pos, quat), Twist.zero(), wires)[0]

            fd = (np.array(lengths_at(h)) - lengths_at(-h)) / (2 * h)
            assert np.allclose(rates, fd, atol=1e-6)


def test_criterion_5_cube8_lift(cube8_run):
    with criterion(5, "cube8 lift: terminal < 1 cm, RMS < 2 cm, no saturation, < 30 s"):
        _, _, summary = cube8_run
        assert summary["terminal_position_error_m"] < 0.01
        assert summary["rms_position_error_m"] < 0.02
        assert summary["saturation_ticks"] == 0
        assert summary["fault_ticks"] == 0
        assert summary["displacement_axes_m"][2] > 0.44  # completed the 0.45 m rise
        assert summary["wall_time_s"] < 30.0


def test_criterion_6_saturation_failure(cube8_run, cube8_saturated_run):
    with criterion(6, "capped scenario: >= 2 saturated wires, residual, worse tracking"):
        _, _, feasible = cube8_run
        _, _, saturated = cube8_saturated_run
        assert saturated["max_simultaneous_saturated"] >= 2
        assert saturated["max_residual_norm"] > 1.0
        assert saturated["rms_position_error_m"] > feasible["rms_position_error_m"]


def test_criterion_7_controllability_rule(anchors2_run):
    with criterion(7, "positive spanning: false for all bundled m <= 6, true for cube8"):
        cube8 = load_scenario(bundled_scenario_path("cube8"))
        report = controllability(
            wire_jacobian(cube8.start_pose, cube8.wires), cube8.bounds,
            torque_scale=0.2,
        )
        assert report.rank == 6
        assert report.fully_constrained

        outdoor4 = load_scenario(bundled_scenario_path("outdoor4"))
        report4 = controllability(
            wire_jacobian(outdoor4.start_pose, outdoor4.wires), outdoor4.bounds,
            torque_scale=0.2,
        )
        assert not report4.fully_constrained

        anchors2_scenario, _, _ = anchors2_run
        report2 = controllability(
            wire_jacobian(anchors2_scenario.start_pose, anchors2_scenario.wires),
            anchors2_scenario.bounds,
            torque_scale=0.2,
        )
        assert not report2.fully_constrained


def test_criterion_8_outdoor4_traversal(tmp_path):
    with criterion(8, "outdoor4: y traverses -0.5 -> +0.5 m, terminal error < 5 cm"):
        scenario = load_scenario(bundled_scenario_path("outdoor4"))
        summary = run_scenario(scenario, tmp_path / "outdoor4")
        y_err = abs(summary["terminal_position_error_axes_m"][1])
        assert y_err < 0.05
        assert summary["displacement_axes_m"][1] > 0.9  # moved a full meter in y
        assert summary["fault_ticks"] == 0


def test_criterion_9_anchor_wrap_and_drive(anchors2_run):
    with criterion(9, "20/20 noisy wraps wind +1; drive moves >= 0.2 m up and sideways"):
        scenario, _, summary = anchors2_run
        for seed in range(20):
            reports = deploy_anchors(scenario, seed=seed)
            assert [r["winding_number"] for r in reports] == [1, 1]
            assert all(r["wrap_succeeded"] for r in reports)
        displacement = summary["displacement_axes_m"]
        assert abs(displacement[2]) >= 0.2  # vertical
        assert abs(displacement[1]) >= 0.2  # lateral
        assert summary["fault_ticks"] == 0


def test_criterion_10_simulator_physics(cube8_run, tmp_path):
    with criterion(10, "free fall 0.1%; momentum 1e-9; bit-reproducible runs"):
        body = BodyModel.solid_cube(10.0, 0.4)
        wires = [WireAttachment([0, 0, 0], [50.0, 0.0, 0.0])]
        winch = WinchParams()

        state = SimState(Pose.from_translation([0, 0, 2.0]), Twist.zero(), np.zeros(1))
        t_final = 0.5
        for _ in range(int(round(t_final / 1e-3))):
            state = step(state, np.zeros(1), 1e-3, body, wires, winch)
        drop = 2.0 - state.pose.position[2]
        expected = 0.5 * STANDARD_GRAVITY * t_final**2
        assert abs(drop - expected) / expected < 1e-3

        state = SimState(
            Pose.identity(), Twist([0.3, -0.2, 0.1], [0.4, 0.1, -0.2]), np.zeros(1)
        )
        p0 = body.mass * np.asarray(state.twist.linear)
        rot = np.array(rotation_rows(state.pose.orientation))
        l0 = rot @ (body.inertia @ (rot.T @ state.twist.angular))
        for _ in range(10_000):
            state = step(state, np.zeros(1), 1e-3, body, wires, winch, gravity=0.0)
        rot = np.array(rotation_rows(state.pose.orientation))
        p1 = body.mass * np.asarray(state.twist.linear)
        l1 = rot @ (body.inertia @ (rot.T @ state.twist.angular))
        assert np.linalg.norm(p1 - p0) / np.linalg.norm(p0) < 1e-9
        assert np.linalg.norm(l1 - l0) / np.linalg.norm(l0) < 1e-9

        scenario, first_out, _ = cube8_run
        rerun_out = tmp_path / "cube8_rerun"
        run_scenario(load_scenario(bundled_scenario_path("cube8")), rerun_out)
        first = (first_out / "telemetry.csv").read_bytes()
        second = (rerun_out / "telemetry.csv").read_bytes()
        assert first == second
