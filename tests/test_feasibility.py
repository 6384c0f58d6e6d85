import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wiredrive import cli, feasibility
from wiredrive.allocation import TensionBounds
from wiredrive.errors import SolverFailure
from wiredrive.feasibility import controllability, saturated_wires, wrench_achievable
from wiredrive.scenario import bundled_scenario_path, load_scenario
from wiredrive.spatial import Pose, Wrench
from wiredrive.wires import WireAttachment, wire_jacobian

from oracles import (balanced_tensions, reach, reference_facet_normals, reference_supports,
                     sample_wrench_directions, sampled_margin)
from test_wires import eight_wire_cube_layout


def jac_for(wires, pose=None):
    return np.asarray(wire_jacobian(pose or Pose.identity(), wires))


def spread_wires(m, radius=2.0):
    """m wires fanned over directions that at least span what they can."""
    rng = np.random.default_rng(17)
    wires = []
    for i in range(m):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        exit_body = 0.1 * rng.normal(size=3)
        wires.append(WireAttachment(exit_body, exit_body + radius * direction))
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
        jac_for(eight_wire_cube_layout()), TensionBounds.uniform(8), torque_scale=0.2
    )
    assert report.rank == 6
    assert report.fully_constrained
    assert report.margin > 1.0


def test_single_wire_rank_one_not_constrained():
    wires = [WireAttachment([0, 0, 0], [2.0, 0, 0])]
    report = controllability(jac_for(wires), TensionBounds.uniform(1))
    assert report.rank == 1
    assert not report.fully_constrained
    assert report.margin == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_six_or_fewer_wires_never_fully_constrained(m):
    bounds = TensionBounds(np.zeros(m), np.full(m, 180.0))
    report = controllability(jac_for(spread_wires(m)), bounds)
    assert not report.fully_constrained


def test_four_wire_underactuated_layout_not_constrained():
    # two wires to each of two overhead anchor clusters
    wires = [
        WireAttachment([-0.12, -0.12, 0.12], [-0.4, -2.5, 1.8]),
        WireAttachment([0.12, -0.12, 0.12], [0.4, -2.5, 1.8]),
        WireAttachment([-0.12, 0.12, 0.12], [-0.4, 2.5, 1.8]),
        WireAttachment([0.12, 0.12, 0.12], [0.4, 2.5, 1.8]),
    ]
    report = controllability(jac_for(wires), TensionBounds.uniform(4), torque_scale=0.2)
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
        WireAttachment([0, 0, 0], [2.0, 0.45 * sy, 0.4 * sz])
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
    extra = base + [WireAttachment([0.05, 0, 0], [1.0, 1.0, 1.0])]
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
    report = controllability(jac, bounds, torque_scale=0.2)
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


def counting(monkeypatch, name):
    """Replace `feasibility.<name>` by a wrapper that counts its calls; returns the count list."""
    calls = []
    original = getattr(feasibility, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(feasibility, name, counted)
    return calls


@pytest.mark.parametrize("name, normals", [("outdoor4", 0), ("cube8", 112)])
def test_no_lp_and_every_facet_normal(name, normals, monkeypatch):
    calls = counting(monkeypatch, "linprog")
    scenario = load_scenario(bundled_scenario_path(name))
    report = controllability(jac_for(scenario.wires, scenario.start_pose), scenario.bounds)
    # no LP at any rank; cube8 checks both signs of C(8, 5) normals
    assert len(calls) == 0
    assert report.directions_checked == normals


@pytest.mark.parametrize("name", ["cube8", "cube8_saturated"])
def test_margin_is_realised_and_names_the_binding_facet(name):
    scenario = load_scenario(bundled_scenario_path(name))
    jac = jac_for(scenario.wires, scenario.start_pose)
    report = controllability(jac, scenario.bounds, torque_scale=scenario.torque_lever)
    assert len(set(report.binding_wires)) == 5
    assert not set(report.binding_wires) & set(report.saturating_wires)
    target = report.margin * report.worst_direction
    assert wrench_achievable(jac, Wrench.from_array(target), scenario.bounds)[0]
    assert not wrench_achievable(jac, Wrench.from_array(1.001 * target), scenario.bounds)[0]


def test_rank_deficient_worst_direction_is_unreachable():
    scenario = load_scenario(bundled_scenario_path("outdoor4"))
    jac = jac_for(scenario.wires, scenario.start_pose)
    report = controllability(jac, scenario.bounds, torque_scale=0.2)
    assert report.rank < 6 and report.binding_wires == ()
    weighting = np.array([1.0, 1.0, 1.0, 0.2, 0.2, 0.2])
    unit = report.worst_direction / weighting
    assert np.linalg.norm(unit) == pytest.approx(1.0)
    # orthogonal, in the weighted norm, to every wrench the wires can pull
    assert np.allclose(unit @ (jac / weighting[:, None]), 0.0, atol=1e-9)


def cube8_with_twin(duplicate):
    """cube8's scenario, and its wires and bounds with a ninth wire duplicating wire `duplicate`."""
    scenario = load_scenario(bundled_scenario_path("cube8"))
    wires = list(scenario.wires)
    twin = wires[duplicate]
    wires.append(WireAttachment(twin.exit_body, twin.anchor_world))
    bounds = TensionBounds(np.append(scenario.bounds.lower, scenario.bounds.lower[duplicate]),
                           np.append(scenario.bounds.upper, scenario.bounds.upper[duplicate]))
    return scenario, wires, bounds


def rank_five_blocks(jac, twins=None):
    """5-subsets of `jac`'s columns, not holding both `twins`, that np.linalg.matrix_rank finds rank 5."""
    return sum(
        not (twins and set(twins) <= set(subset)) and np.linalg.matrix_rank(jac[:, subset]) == 5
        for subset in itertools.combinations(range(jac.shape[1]), 5)
    )


@pytest.mark.parametrize("duplicate", range(8))
def test_margin_is_exact_with_a_parallel_wire(duplicate):
    # a ninth wire duplicating one of cube8's: every 5-subset holding both
    # copies is rank-deficient and spans no facet, yet the margin stays exact
    scenario, wires, bounds = cube8_with_twin(duplicate)
    rng = np.random.default_rng(duplicate)
    for _ in range(5):
        # along cube8's lift stroke, widened by 5 cm in x and y
        pose = Pose.from_translation(rng.uniform([-0.05, -0.05, -0.225], [0.05, 0.05, 0.225]))
        jac = jac_for(wires, pose)
        report = controllability(jac, bounds, torque_scale=scenario.torque_lever)
        assert report.rank == 6 and report.margin > 1.0
        # the rank filter drops exactly the blocks holding both twins
        assert report.directions_checked == 2 * rank_five_blocks(jac, (duplicate, 8))
        target = report.margin * report.worst_direction
        assert wrench_achievable(jac, Wrench.from_array(target), bounds)[0]
        assert not wrench_achievable(jac, Wrench.from_array(1.001 * target), bounds)[0]


@pytest.mark.parametrize("duplicate", [None, *range(8)])
def test_rank_filter_drops_the_rank_four_blocks_at_the_identity(duplicate):
    # at the identity the cube's symmetry leaves 8 of its 56 blocks at rank 4
    if duplicate is None:
        scenario = load_scenario(bundled_scenario_path("cube8"))
        wires, bounds, twins, expected = scenario.wires, scenario.bounds, None, 96
    else:
        scenario, wires, bounds = cube8_with_twin(duplicate)
        twins, expected = (duplicate, 8), 156
    jac = jac_for(wires)
    report = controllability(jac, bounds, torque_scale=scenario.torque_lever)
    assert report.directions_checked == 2 * rank_five_blocks(jac, twins) == expected


@pytest.mark.parametrize("name", ["cube8", "cube8_saturated"])
def test_mirror_symmetric_ties_bind_the_last_subset(name):
    # at the start pose, x = y = 0, the cube's mirror symmetry ties four
    # facets; which one rounding favours must not decide the binding wires
    scenario = load_scenario(bundled_scenario_path(name))
    jac = jac_for(scenario.wires, scenario.start_pose)
    lever = scenario.torque_lever
    report = controllability(jac, scenario.bounds, torque_scale=lever)
    scaled = jac / np.array([1.0, 1.0, 1.0, lever, lever, lever])[:, None]
    subsets, supports = reference_supports(scaled, scenario.bounds.lower, scenario.bounds.upper)
    least = supports.min()
    tied = sorted(tuple(int(i) for i in subsets[k])
                  for k in np.flatnonzero(supports - least <= 1e-12 * (1 + least)))
    assert len(tied) == 4
    assert report.binding_wires == tied[-1]
    assert report.margin == pytest.approx(least, rel=1e-14)


CUBE8_JAC = jac_for(eight_wire_cube_layout())


@pytest.mark.parametrize("matrix, bounds, torque_scale, argument", [
    (CUBE8_JAC[:5], TensionBounds.uniform(8), 0.2, "matrix"),
    (CUBE8_JAC[:, 0], TensionBounds.uniform(8), 0.2, "matrix"),
    (np.where(np.eye(6, 8, dtype=bool), np.nan, CUBE8_JAC), TensionBounds.uniform(8), 0.2, "matrix"),
    (np.where(np.eye(6, 8, dtype=bool), np.inf, CUBE8_JAC), TensionBounds.uniform(8), 0.2, "matrix"),
    (CUBE8_JAC[:, :7], TensionBounds.uniform(8), 0.2, "bounds"),
    (CUBE8_JAC, TensionBounds.uniform(9), 0.2, "bounds"),
    (CUBE8_JAC, TensionBounds.uniform(8), 0.0, "torque_scale"),
    (CUBE8_JAC, TensionBounds.uniform(8), -0.2, "torque_scale"),
    (CUBE8_JAC, TensionBounds.uniform(8), float("nan"), "torque_scale"),
    (CUBE8_JAC, TensionBounds.uniform(8), float("inf"), "torque_scale"),
])
def test_controllability_names_the_bad_argument(matrix, bounds, torque_scale, argument):
    # a shape the entry rule refuses is named as `_numbers` names it
    with pytest.raises(ValueError, match=rf"^{argument} |^expected shape .* for {argument}, got"):
        controllability(matrix, bounds, torque_scale=torque_scale)


def test_witness_box_qp_keeps_an_unequal_twin_inside_its_box(monkeypatch):
    # a ninth wire duplicating wire 0 with a box only 0.5 N wide: splitting
    # the pair's tension evenly leaves that box, so the box QP places them
    scenario = load_scenario(bundled_scenario_path("cube8"))
    wires = list(scenario.wires)
    wires.append(WireAttachment(wires[0].exit_body, wires[0].anchor_world))
    lower = np.append(scenario.bounds.lower, scenario.bounds.lower[0])
    bounds = TensionBounds(lower, np.append(scenario.bounds.upper, lower[0] + 0.5))
    calls = counting(monkeypatch, "solve_box_qp")
    jac = jac_for(wires)
    report = controllability(jac, bounds, torque_scale=scenario.torque_lever)
    assert len(calls) == 1
    assert report.margin > 1.0
    witness = report.witness_tensions
    assert np.all((bounds.lower <= witness) & (witness <= bounds.upper))
    target = report.margin * report.worst_direction
    assert wrench_achievable(jac, Wrench.from_array(target), bounds)[0]
    assert not wrench_achievable(jac, Wrench.from_array(1.001 * target), bounds)[0]


def test_rank_six_layout_that_does_not_span_positively_has_no_witness():
    # six wires reach rank 6 but cannot hold the zero wrench above 2 N pretension
    report = controllability(jac_for(spread_wires(6)), TensionBounds.uniform(6, lower=2.0))
    assert report.rank == 6
    assert report.margin == 0.0
    assert report.saturating_wires == ()
    assert report.witness_tensions is None
    assert len(report.binding_wires) == 5


def test_a_witness_that_misses_the_margin_raises(monkeypatch, capsys, tmp_path):
    solve = np.linalg.lstsq

    def off_by_a_newton(a, b, rcond=None):
        x, *rest = solve(a, b, rcond=rcond)
        return (x - 1.0, *rest)

    monkeypatch.setattr(np.linalg, "lstsq", off_by_a_newton)
    path = bundled_scenario_path("cube8")
    scenario = load_scenario(path)
    with pytest.raises(SolverFailure, match="witness"):
        controllability(jac_for(scenario.wires, scenario.start_pose), scenario.bounds)
    assert cli.main(["analyze", str(path), "--out", str(tmp_path)]) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err.startswith("runtime fault: witness tensions miss")
    assert captured.out == ""
    assert not (tmp_path / "feasibility.json").exists()


def jittered_cube_wires(rng, m):
    """m wires around the cube8 geometry: cube wires jittered, extra wires to random anchors."""
    wires = []
    for k, wire in enumerate(eight_wire_cube_layout()[:m]):
        exit_body = wire.exit_body + rng.uniform(-0.03, 0.03, 3)
        anchor = wire.anchor_world + rng.uniform(-0.2, 0.2, 3)
        wires.append(WireAttachment(exit_body, anchor))
    for k in range(len(wires), m):
        direction = rng.normal(size=3)
        exit_body = rng.uniform(-0.15, 0.15, 3)
        anchor = exit_body + 1.5 * direction / np.linalg.norm(direction)
        wires.append(WireAttachment(exit_body, anchor))
    return wires


@st.composite
def perturbed_layouts(draw):
    """8 to 10 wires around the cube8 geometry, jittered, with random tension boxes.

    Starting from the eight-wire cube keeps most of these layouts
    positively spanning, so the margin checks see nonzero margins; more
    than eight add wires to random anchors.  Six wires never span
    positively and jittered sevens seldom do, so they would only repeat
    the margin-0 case, which pretension still gives about one layout in
    ten here.
    """
    m = draw(st.integers(8, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wires = jittered_cube_wires(rng, m)
    lower = rng.uniform(0.0, 10.0, m)
    bounds = TensionBounds(lower, lower + rng.uniform(20.0, 200.0, m))
    return jac_for(wires), bounds, draw(st.floats(0.2, 1.0))


def assert_achievable_up_to_the_margin(jac, report, bounds):
    """The zero wrench and 0.99 x the margin are achievable; 1.001 x the margin is not."""
    target = report.margin * report.worst_direction
    assert wrench_achievable(jac, Wrench.zero(), bounds)[0]
    assert wrench_achievable(jac, Wrench.from_array(0.99 * target), bounds)[0]
    assert not wrench_achievable(jac, Wrench.from_array(1.001 * target), bounds)[0]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(perturbed_layouts())
def test_exact_margin_against_sampled_oracle(case):
    jac, bounds, torque_scale = case
    report = controllability(jac, bounds, torque_scale=torque_scale)
    assert report.rank == 6
    # sampling only ever overestimates the inradius
    sampled = sampled_margin(jac, bounds.lower, bounds.upper, 64, torque_scale)
    assert report.margin <= sampled + 1e-9
    if report.margin > 1e-3:
        # realised along the normal by an independent LP, and nothing 0.1% further
        along = reach(jac, bounds.lower, bounds.upper, report.worst_direction)
        assert report.margin * (1 - 1e-9) <= along < 1.001 * report.margin
        assert_achievable_up_to_the_margin(jac, report, bounds)
        # witness tensions: the wires off the binding facet that push along its normal
        weighting = np.array([1.0, 1.0, 1.0, torque_scale, torque_scale, torque_scale])
        projections = report.worst_direction / weighting**2 @ jac
        off_facet = np.setdiff1d(np.arange(jac.shape[1]), report.binding_wires)
        assert report.saturating_wires == tuple(int(j) for j in off_facet if projections[j] > 0)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(perturbed_layouts())
def test_witness_realises_the_margin_inside_the_box(case):
    jac, bounds, torque_scale = case
    report = controllability(jac, bounds, torque_scale=torque_scale)
    witness = report.witness_tensions
    if report.margin == 0.0:
        assert witness is None and report.saturating_wires == ()
        return
    assert np.all((bounds.lower <= witness) & (witness <= bounds.upper))
    target = report.margin * report.worst_direction
    assert np.linalg.norm(jac @ witness - target) <= 1e-9 * np.linalg.norm(target)
    assert report.saturating_wires == saturated_wires(witness, bounds)


@st.composite
def twinned_layouts(draw):
    """6 to 10 jittered cube wires, up to two of them doubled by an exact twin, with random boxes."""
    m = draw(st.integers(6, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wires = jittered_cube_wires(rng, m)
    for k in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        wires.append(WireAttachment(wires[k].exit_body, wires[k].anchor_world))
    lower = rng.uniform(0.0, 10.0, len(wires))
    bounds = TensionBounds(lower, lower + rng.uniform(20.0, 200.0, len(wires)))
    return jac_for(wires), bounds, draw(st.floats(0.2, 1.0))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(twinned_layouts())
def test_facet_normals_and_margin_match_the_svd_reference(case):
    jac, bounds, torque_scale = case
    scaled = jac / np.array([1.0, 1.0, 1.0, torque_scale, torque_scale, torque_scale])[:, None]
    subsets, normals = feasibility._facet_normals(scaled)
    reference_subsets, reference_normals = reference_facet_normals(scaled)
    assert np.array_equal(subsets, reference_subsets)
    # the same unit normal, up to its sign
    apart = np.minimum(np.abs(normals - reference_normals).max(axis=1),
                       np.abs(normals + reference_normals).max(axis=1))
    assert np.all(apart <= 1e-12)
    report = controllability(jac, bounds, torque_scale=torque_scale)
    _, supports = reference_supports(scaled, bounds.lower, bounds.upper)
    assert report.rank == 6
    assert abs(report.margin - max(0.0, supports.min())) <= 1e-12 * (1 + report.margin)


@st.composite
def tight_box_layouts(draw):
    """8 to 10 jittered cube wires whose boxes are 0.1 to 5 N wide around a balanced tension set.

    Lower bounds of a few newtons force large tensions through a narrow
    box, the regime where a weighted least-squares allocation leaves a
    residual; the balanced tensions `W f0 = 0` inside every box keep the
    margin positive.  About one jittered layout in twenty no longer spans
    positively and is skipped.
    """
    m = draw(st.integers(8, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jac = jac_for(jittered_cube_wires(rng, m))
    balanced = balanced_tensions(jac, floor=1.0)
    assume(balanced is not None)
    lower = np.maximum(0.0, balanced - rng.uniform(0.05, 2.5, m))
    bounds = TensionBounds(lower, balanced + rng.uniform(0.05, 2.5, m))
    return jac, bounds, draw(st.floats(0.2, 1.0))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(tight_box_layouts())
def test_achievable_exactly_up_to_the_margin_in_tight_boxes(case):
    jac, bounds, torque_scale = case
    report = controllability(jac, bounds, torque_scale=torque_scale)
    assert report.margin > 1e-3
    assert_achievable_up_to_the_margin(jac, report, bounds)
