import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiredrive import feasibility
from wiredrive.allocation import TensionBounds
from wiredrive.feasibility import (
    controllability,
    sample_wrench_directions,
    saturated_wires,
    wrench_achievable,
)
from wiredrive.scenario import bundled_scenario_path, load_scenario
from wiredrive.spatial import Pose, Wrench
from wiredrive.wires import WireAttachment, wire_jacobian

from test_wires import eight_wire_cube_layout


def jac_for(wires, pose=None):
    return wire_jacobian(pose or Pose.identity(), wires)


def spread_wires(m, radius=2.0):
    """m wires fanned over directions that at least span what they can."""
    rng = np.random.default_rng(17)
    wires = []
    for i in range(m):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        exit_body = 0.1 * rng.normal(size=3)
        wires.append(WireAttachment(exit_body, exit_body + radius * direction, wire_id=i))
    return wires


def test_direction_sampler_is_deterministic_and_weighted():
    a = sample_wrench_directions(64, torque_scale=0.5)
    b = sample_wrench_directions(64, torque_scale=0.5)
    assert np.array_equal(a, b)
    weighted = a.copy()
    weighted[:, 3:] /= 0.5
    assert np.allclose(np.linalg.norm(weighted, axis=1), 1.0, atol=1e-12)


def test_eight_wire_cube_is_fully_constrained():
    report = controllability(
        jac_for(eight_wire_cube_layout()), TensionBounds.uniform(8),
        directions=500, torque_scale=0.2,
    )
    assert report.rank == 6
    assert report.fully_constrained
    assert report.margin > 1.0


def test_single_wire_rank_one_not_constrained():
    wires = [WireAttachment([0, 0, 0], [2.0, 0, 0], wire_id=0)]
    report = controllability(jac_for(wires), TensionBounds.uniform(1), directions=100)
    assert report.rank == 1
    assert not report.fully_constrained
    assert report.margin == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_six_or_fewer_wires_never_fully_constrained(m):
    bounds = TensionBounds(np.zeros(m), np.full(m, 180.0))
    report = controllability(jac_for(spread_wires(m)), bounds, directions=300)
    assert not report.fully_constrained


def test_four_wire_underactuated_layout_not_constrained():
    # two wires to each of two overhead anchor clusters
    wires = [
        WireAttachment([-0.12, -0.12, 0.12], [-0.4, -2.5, 1.8], wire_id=0),
        WireAttachment([0.12, -0.12, 0.12], [0.4, -2.5, 1.8], wire_id=1),
        WireAttachment([-0.12, 0.12, 0.12], [-0.4, 2.5, 1.8], wire_id=2),
        WireAttachment([0.12, 0.12, 0.12], [0.4, 2.5, 1.8], wire_id=3),
    ]
    report = controllability(
        jac_for(wires), TensionBounds.uniform(4), directions=300, torque_scale=0.2
    )
    assert not report.fully_constrained


def test_zero_wrench_achievable_with_pretension_nullspace():
    jac = jac_for(eight_wire_cube_layout())
    bounds = TensionBounds.uniform(8, lower=2.0)
    achievable, tensions, residual = wrench_achievable(jac, Wrench.zero(), bounds)
    assert achievable
    assert np.all(tensions >= 2.0 - 1e-9)
    assert np.linalg.norm(residual.as_array()) < 1e-4


def test_one_sided_anchors_cannot_pull_away():
    # all anchors on the +x side: a -x force is unachievable
    wires = [
        WireAttachment([0, 0, 0], [2.0, 0.45 * sy, 0.4 * sz], wire_id=k)
        for k, (sy, sz) in enumerate([(-1, -1), (-1, 1), (1, -1), (1, 1)])
    ]
    jac = jac_for(wires)
    bounds = TensionBounds(np.zeros(4), np.full(4, 180.0))
    achievable, tensions, residual = wrench_achievable(
        jac, Wrench.from_array([-50.0, 0, 0, 0, 0, 0]), bounds
    )
    assert not achievable
    assert np.linalg.norm(residual.as_array()) > 1.0
    # and a modest +x pull is achievable
    ok, tensions, _ = wrench_achievable(jac, Wrench.from_array([30.0, 0, 0, 0, 0, 0]), bounds)
    assert ok


def test_achievable_set_scales_down():
    jac = jac_for(eight_wire_cube_layout())
    bounds = TensionBounds(np.zeros(8), np.full(8, 180.0))
    rng = np.random.default_rng(4)
    for _ in range(10):
        w = rng.normal(scale=30.0, size=6)
        w[3:] *= 0.1
        ok_full, _, _ = wrench_achievable(jac, Wrench.from_array(w), bounds)
        if ok_full:
            ok_half, _, _ = wrench_achievable(jac, Wrench.from_array(0.5 * w), bounds)
            assert ok_half


def test_achievable_set_convex_midpoints():
    jac = jac_for(eight_wire_cube_layout())
    bounds = TensionBounds(np.zeros(8), np.full(8, 180.0))
    rng = np.random.default_rng(5)
    found = 0
    for _ in range(20):
        wa = rng.normal(scale=25.0, size=6)
        wb = rng.normal(scale=25.0, size=6)
        wa[3:] *= 0.1
        wb[3:] *= 0.1
        ok_a, _, _ = wrench_achievable(jac, Wrench.from_array(wa), bounds)
        ok_b, _, _ = wrench_achievable(jac, Wrench.from_array(wb), bounds)
        if ok_a and ok_b:
            found += 1
            ok_mid, _, _ = wrench_achievable(jac, Wrench.from_array(0.5 * (wa + wb)), bounds)
            assert ok_mid
    assert found > 5


def test_adding_a_wire_never_shrinks_feasible_set():
    rng = np.random.default_rng(6)
    base = spread_wires(5)
    extra = base + [WireAttachment([0.05, 0, 0], [1.0, 1.0, 1.0], wire_id=99)]
    jac_small = jac_for(base)
    jac_big = jac_for(extra)
    bounds_small = TensionBounds(np.zeros(5), np.full(5, 180.0))
    bounds_big = TensionBounds(np.zeros(6), np.full(6, 180.0))
    for _ in range(20):
        w = rng.normal(scale=20.0, size=6)
        w[3:] *= 0.1
        ok_small, _, _ = wrench_achievable(jac_small, Wrench.from_array(w), bounds_small)
        if ok_small:
            ok_big, _, _ = wrench_achievable(jac_big, Wrench.from_array(w), bounds_big)
            assert ok_big


def test_margin_zero_when_no_tension_budget():
    # upper bound barely above lower: almost no wrench authority
    jac = jac_for(eight_wire_cube_layout())
    bounds = TensionBounds(np.zeros(8), np.full(8, 1e-6))
    report = controllability(jac, bounds, directions=100, torque_scale=0.2)
    assert report.margin < 1e-4


def test_saturated_wires_helper():
    bounds = TensionBounds(np.zeros(3), np.array([10.0, 20.0, 30.0]))
    assert saturated_wires(np.array([10.0, 5.0, 30.0]), bounds) == (0, 2)


@st.composite
def tensions_near_bounds(draw):
    """Per-wire upper bounds and tensions, many within a few 1e-6 of the bound."""
    m = draw(st.integers(1, 8))
    upper = np.array(draw(st.lists(st.floats(1.0, 200.0), min_size=m, max_size=m)))
    gaps = st.one_of(st.sampled_from([0.0, 5e-7, 1e-6, 2e-6]), st.floats(-1e-5, 1.0))
    tensions = upper - np.array(draw(st.lists(gaps, min_size=m, max_size=m)))
    return TensionBounds(np.zeros(m), upper), tensions


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(tensions_near_bounds())
def test_saturated_wires_lists_the_flagged_wires(case):
    bounds, tensions = case
    flags = bounds.saturated(tensions)
    assert saturated_wires(tensions, bounds) == tuple(i for i, flag in enumerate(flags) if flag)
    # the rule itself: at or within 1e-6 of the upper bound
    assert list(flags) == [t >= u - 1e-6 for t, u in zip(tensions, bounds.upper)]


@pytest.mark.parametrize("name, lps", [("outdoor4", 1), ("cube8", 1000)])
def test_directions_checked_counts_lps_solved(name, lps, monkeypatch):
    calls = []

    def counting_linprog(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    original = feasibility.linprog
    monkeypatch.setattr(feasibility, "linprog", counting_linprog)
    scenario = load_scenario(bundled_scenario_path(name))
    report = controllability(jac_for(scenario.wires, scenario.start_pose), scenario.bounds)
    # outdoor4 cannot pull along the first direction, which ends the scan
    assert len(calls) == lps
    assert report.directions_checked == lps
