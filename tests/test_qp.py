import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    allocation_qp_terms,
    box_qp_objective,
    enumerate_box_qp,
    grid_search_box_qp,
    numpy_solve_box_qp,
    random_spd,
    random_wire_matrix,
    reference_kkt_residual,
    reference_solve_box_qp,
)
from wiredrive.errors import SolverFailure
from wiredrive.qp import kkt_residual, solve_box_qp


def test_unconstrained_minimum_inside_box():
    hessian = np.diag([2.0, 4.0])
    gradient = np.array([-2.0, -4.0])  # minimizer (1, 1)
    x, _, res = solve_box_qp(hessian, gradient, np.zeros(2), np.full(2, 10.0))
    assert np.allclose(x, [1.0, 1.0], atol=1e-10)
    assert res < 1e-8


def test_clipped_single_variable():
    hessian = np.array([[2.0]])
    gradient = np.array([-10.0])  # unconstrained minimizer at 5
    x, _, _ = solve_box_qp(hessian, gradient, np.array([0.0]), np.array([3.0]))
    assert x[0] == pytest.approx(3.0)


def test_matches_enumeration_oracle_random():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        hessian = random_spd(rng, n)
        gradient = rng.normal(scale=5.0, size=n)
        lower = rng.uniform(-3.0, 0.0, size=n)
        upper = lower + rng.uniform(0.5, 4.0, size=n)
        x, _, _ = solve_box_qp(hessian, gradient, lower, upper)
        x_ref, obj_ref = enumerate_box_qp(hessian, gradient, lower, upper)
        assert np.all(x >= lower - 1e-12) and np.all(x <= upper + 1e-12)
        assert box_qp_objective(hessian, gradient, x) == pytest.approx(obj_ref, abs=1e-8)
        assert np.allclose(x, x_ref, atol=1e-6)


def test_feasibility_is_hard_guarantee():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        hessian = random_spd(rng, n)
        gradient = rng.normal(scale=50.0, size=n)
        lower = np.zeros(n)
        upper = rng.uniform(0.1, 2.0, size=n)
        x, _, _ = solve_box_qp(hessian, gradient, lower, upper)
        assert np.all(x >= lower - 1e-12)
        assert np.all(x <= upper + 1e-12)


def test_grid_refinement_agrees_with_flat_lattice():
    # On a range small enough to afford the true flat 0.01 lattice, the
    # multilevel refinement must land on (numerically) the same objective.
    rng = np.random.default_rng(3)
    for _ in range(10):
        hessian = random_spd(rng, 2)
        gradient = rng.normal(scale=2.0, size=2)
        lower = np.zeros(2)
        upper = np.full(2, 2.0)
        axis = np.arange(0.0, 2.0 + 1e-9, 0.01)
        mesh = np.meshgrid(axis, axis, indexing="ij")
        flat = np.stack([m.ravel() for m in mesh], axis=1)
        flat_best = float(np.min(box_qp_objective(hessian, gradient, flat)))
        _, refined_best = grid_search_box_qp(hessian, gradient, lower, upper, step=0.01)
        assert refined_best == pytest.approx(flat_best, abs=5e-4)


def test_solver_beats_or_matches_grid():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        hessian = random_spd(rng, n)
        gradient = rng.normal(scale=3.0, size=n)
        lower = np.zeros(n)
        upper = np.full(n, 5.0)
        x, _, _ = solve_box_qp(hessian, gradient, lower, upper)
        _, grid_obj = grid_search_box_qp(hessian, gradient, lower, upper, step=0.01)
        solver_obj = box_qp_objective(hessian, gradient, x)
        assert solver_obj <= grid_obj + 1e-9


def test_badly_scaled_hessian_still_converges():
    # mimics the huge residual weights used for achievability checks
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = rng.normal(size=(6, 4))
        hessian = 2.0 * (np.eye(4) + 1e8 * w.T @ w)
        gradient = -2.0 * (1e8 * w.T @ rng.normal(size=6))
        x, _, res = solve_box_qp(hessian, gradient, np.zeros(4), np.full(4, 180.0))
        assert res < 1e-8
        assert np.all(np.asarray(x) >= 0) and np.all(np.asarray(x) <= 180.0)


def test_iteration_cap_raises_solver_failure():
    hessian = np.diag([2.0, 2.0])
    gradient = np.array([-10.0, -10.0])
    with pytest.raises(SolverFailure):
        solve_box_qp(hessian, gradient, np.zeros(2), np.full(2, 1.0), max_iter=0)


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        solve_box_qp(np.eye(2), np.zeros(2), np.ones(2), np.zeros(2))


def test_kkt_residual_flags_suboptimal_point():
    hessian = np.diag([2.0, 2.0])
    gradient = np.array([-2.0, -2.0])
    lower, upper = np.zeros(2), np.full(2, 10.0)
    good, _, _ = solve_box_qp(hessian, gradient, lower, upper)
    assert kkt_residual(hessian, gradient, good, lower, upper) < 1e-10
    assert kkt_residual(hessian, gradient, np.array([0.3, 0.4]), lower, upper) > 1e-3


def test_warm_start_returns_same_solution():
    rng = np.random.default_rng(21)
    hessian = random_spd(rng, 5)
    gradient = rng.normal(size=5)
    lower, upper = np.zeros(5), np.full(5, 1.0)
    cold, _, _ = solve_box_qp(hessian, gradient, lower, upper)
    warm, _, _ = solve_box_qp(hessian, gradient, lower, upper, start=np.add(cold, 0.01))
    assert np.allclose(cold, warm, atol=1e-9)


def test_nan_gradient_raises():
    with pytest.raises(SolverFailure, match="nan"):
        solve_box_qp(np.diag([2.0, 2.0]), np.array([np.nan, 1.0]), np.zeros(2), np.ones(2))


def test_nan_warm_start_raises():
    with pytest.raises(SolverFailure, match="nan"):
        solve_box_qp(np.diag([2.0, 2.0]), np.array([-1.0, -1.0]), np.zeros(2), np.ones(2),
                     start=np.array([np.nan, 0.5]))


def _tuple_bits(values):
    """The bytes of a tuple of Python floats; AssertionError for any other value."""
    assert type(values) is tuple and all(type(v) is float for v in values), values
    return struct.pack(f"{len(values)}d", *values)


def _same_float(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).view(np.int64) == np.float64(b).view(np.int64)


@st.composite
def kkt_points(draw):
    """A box QP and a candidate point whose entries sit free, at a bound,
    within the tolerance of one, at both bounds of a degenerate box, or NaN."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hessian = random_spd(rng, n)
    gradient = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e4])), size=n)
    lower = rng.uniform(-3.0, 0.0, size=n)
    upper = lower + rng.uniform(0.5, 4.0, size=n)
    x = rng.uniform(lower, upper)
    for i in range(n):
        kind = draw(st.sampled_from(["free", "lower", "upper", "near lower", "near upper",
                                     "both", "outside", "nan x", "nan g"]))
        if kind == "lower":
            x[i] = lower[i]
        elif kind == "upper":
            x[i] = upper[i]
        elif kind == "near lower":
            x[i] = lower[i] + 0.5e-9
        elif kind == "near upper":
            x[i] = upper[i] - 0.5e-9
        elif kind == "both":
            upper[i] = lower[i] + draw(st.sampled_from([0.0, 1e-10]))
            x[i] = draw(st.sampled_from([lower[i], upper[i]]))
        elif kind == "outside":
            x[i] = draw(st.sampled_from([lower[i] - 0.1, upper[i] + 0.1]))
        elif kind == "nan x":
            x[i] = np.nan
        elif kind == "nan g":
            gradient[i] = np.nan
    return hessian, gradient, x, lower, upper


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(kkt_points())
def test_kkt_residual_is_bit_identical_to_the_per_entry_oracle(case):
    got = kkt_residual(*case)
    assert isinstance(got, float)
    assert _same_float(got, reference_kkt_residual(*case))


@st.composite
def allocation_qps(draw):
    """Tension-allocation QPs like the control loop's: m wires, heavy wrench
    weights, boxes tight enough that some wires sit at a bound, and a warm
    start or none."""
    m = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.diag(np.full(6, draw(st.sampled_from([1.0, 1e4, 1e8]))))
    hessian, gradient = allocation_qp_terms(
        random_wire_matrix(rng, m), rng.normal(scale=draw(st.sampled_from([1.0, 50.0])), size=6),
        weights,
    )
    lower = np.full(m, draw(st.sampled_from([0.0, 1.0])))
    upper = lower + draw(st.sampled_from([2.0, 20.0, 180.0]))
    start = draw(st.one_of(st.none(), st.just(rng.uniform(lower, upper))))
    return hessian, gradient, lower, upper, start


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(allocation_qps())
def test_solver_is_bit_identical_to_the_reference_formulation(case):
    hessian, gradient, lower, upper, start = case
    try:
        expected = reference_solve_box_qp(hessian, gradient, lower, upper, start=start)
    except SolverFailure:
        with pytest.raises(SolverFailure):
            solve_box_qp(hessian, gradient, lower, upper, start=start)
        return
    x, iterations, residual = solve_box_qp(hessian, gradient, lower, upper, start=start)
    assert _tuple_bits(x) == _tuple_bits(expected[0])
    assert iterations == expected[1]
    assert _same_float(residual, expected[2])
    # the float tuples `allocate` hands over, read as they are, give the same bits
    as_tuples = solve_box_qp(tuple(map(tuple, hessian.tolist())), gradient, lower, upper,
                             start=None if start is None else tuple(start.tolist()))
    assert (_tuple_bits(as_tuples[0]), as_tuples[1]) == (_tuple_bits(x), iterations)


@st.composite
def edge_box_qps(draw):
    """Box QPs on the solver's edges: one variable or up to 8, degenerate
    boxes, infinite bounds, scalar bounds, a start outside the box, a NaN
    in the gradient, the Hessian (on or off its diagonal) or the start,
    and an iteration cap as low as 1.  Returns the arguments for the
    solver and the same with the bounds as arrays, for the reference."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hessian = random_spd(rng, n, scale=draw(st.sampled_from([1.0, 1e4])))
    gradient = rng.normal(scale=draw(st.sampled_from([1.0, 50.0])), size=n)
    kinds = ["box", "degenerate", "no lower", "no upper", "free"]
    if draw(st.booleans()):  # one scalar pair for every variable
        kind = draw(st.sampled_from(kinds))
        lo, hi = (0.5, 0.5) if kind == "degenerate" else (0.0, 2.0)
        lower = -math.inf if kind in ("no lower", "free") else lo
        upper = math.inf if kind in ("no upper", "free") else hi
        lower_arr, upper_arr = np.full(n, lower), np.full(n, upper)
    else:
        lower_arr = rng.uniform(-2.0, 0.0, size=n)
        upper_arr = lower_arr + rng.uniform(0.5, 3.0, size=n)
        for i in range(n):
            kind = draw(st.sampled_from(kinds))
            if kind == "degenerate":
                upper_arr[i] = lower_arr[i]
            if kind in ("no lower", "free"):
                lower_arr[i] = -math.inf
            if kind in ("no upper", "free"):
                upper_arr[i] = math.inf
        lower, upper = lower_arr, upper_arr
    start = draw(st.one_of(st.none(), st.just(rng.normal(scale=3.0, size=n))))
    nan = draw(st.sampled_from(["none"] * 4 + ["gradient", "hessian diagonal", "hessian pair",
                                              "start"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if nan == "gradient":
        gradient[i] = np.nan
    elif nan == "hessian diagonal":
        hessian[i, i] = np.nan
    elif nan == "hessian pair":
        hessian[i, j] = hessian[j, i] = np.nan
    elif nan == "start":
        start = rng.normal(scale=3.0, size=n) if start is None else start
        start[i] = np.nan
    max_iter = draw(st.sampled_from([None, None, None, 1, 2, 3]))
    args = dict(start=start, max_iter=max_iter)
    return (hessian, gradient, lower, upper, args), (hessian, gradient, lower_arr, upper_arr, args)


def _solve_or_message(solve, hessian, gradient, lower, upper, kwargs):
    try:
        return solve(hessian, gradient, lower, upper, **kwargs)
    except SolverFailure as exc:
        return str(exc)


# a fixed variable pushed on by its gradient: its multiplier takes the push
_FIXED = (np.array([[1.0]]), np.array([-27.96]))
_FIXED_ARGS = dict(start=None, max_iter=None)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(edge_box_qps())
@example(((*_FIXED, -1.072, -1.072, _FIXED_ARGS), (*_FIXED, np.array([-1.072]),
                                                  np.array([-1.072]), _FIXED_ARGS)))
def test_solver_is_bit_identical_to_the_reference_on_the_edges(case):
    (hessian, gradient, lower, upper, kwargs), reference_args = case
    expected = _solve_or_message(reference_solve_box_qp, *reference_args)
    got = _solve_or_message(solve_box_qp, hessian, gradient, lower, upper, kwargs)
    if isinstance(expected, str):
        assert got == expected  # the same failure, at the same iteration cap
        return
    assert not isinstance(got, str), got
    assert _tuple_bits(got[0]) == _tuple_bits(expected[0])
    assert got[1] == expected[1]
    assert _same_float(got[2], expected[2])


def _agrees_with_the_numpy_solver(got, expected, hessian, gradient, lower, upper):
    """The float solver against the numpy one it replaced: the same failures,
    the same iteration count, the same optimal value within 1e-9 relative,
    and the same working set on every entry whose multiplier is not a tie.
    The points themselves can differ by about cond(H) * eps, up to 1e-8
    relative on the allocation QPs, whose cond(H) reaches 5e8."""
    if isinstance(expected, str):
        assert isinstance(got, str), got
        return
    assert not isinstance(got, str), got
    (x, iterations, _), (x_ref, iterations_ref, _) = got, expected
    assert iterations == iterations_ref
    value, value_ref = (box_qp_objective(hessian, gradient, v) for v in (x, x_ref))
    assert abs(value - value_ref) <= 1e-9 * (1.0 + abs(value_ref))
    grad = hessian @ x_ref + gradient
    tie = np.abs(grad) <= 1e-6 * (1.0 + np.max(np.abs(gradient)))
    for side in (lower, upper):
        assert np.array_equal((x == side)[~tie], (x_ref == side)[~tie])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(allocation_qps())
def test_solver_agrees_with_the_numpy_solver(case):
    hessian, gradient, lower, upper, start = case
    expected = _solve_or_message(numpy_solve_box_qp, hessian, gradient, lower, upper,
                                 dict(start=start))
    got = _solve_or_message(solve_box_qp, hessian, gradient, lower, upper, dict(start=start))
    _agrees_with_the_numpy_solver(got, expected, hessian, gradient, lower, upper)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(edge_box_qps())
def test_solver_agrees_with_the_numpy_solver_on_the_edges(case):
    (hessian, gradient, lower, upper, kwargs), (_, _, lower_arr, upper_arr, _) = case
    expected = _solve_or_message(numpy_solve_box_qp, hessian, gradient, lower_arr, upper_arr,
                                 kwargs)
    got = _solve_or_message(solve_box_qp, hessian, gradient, lower, upper, kwargs)
    _agrees_with_the_numpy_solver(got, expected, hessian, gradient, lower_arr, upper_arr)


def test_scalar_bounds_give_the_answer_of_array_bounds():
    rng = np.random.default_rng(4)
    hessian, gradient = random_spd(rng, 4), rng.normal(scale=10.0, size=4)
    x, iterations, residual = solve_box_qp(hessian, gradient, 0.0, 5.0)
    x_arr, iterations_arr, residual_arr = solve_box_qp(hessian, gradient, np.zeros(4),
                                                       np.full(4, 5.0))
    assert _tuple_bits(x) == _tuple_bits(x_arr)
    assert (iterations, residual) == (iterations_arr, residual_arr)


@pytest.mark.parametrize("name, kwargs", [
    ("start", dict(start=np.array([0.5]))),
    ("lower", dict(lower=np.zeros(2))),
    ("upper", dict(upper=np.ones(4))),
    ("hessian", dict(hessian=np.eye(4))),
])
def test_a_vector_of_the_wrong_length_is_named(name, kwargs):
    args = dict(hessian=np.eye(3), gradient=-np.ones(3), lower=np.zeros(3), upper=np.ones(3))
    args.update(kwargs)
    with pytest.raises(ValueError, match=rf"^expected shape \(.*\) for {name}, got"):
        solve_box_qp(**args)


def test_an_empty_problem_is_a_value_error():
    with pytest.raises(ValueError, match="^expected at least one number for gradient, got"):
        solve_box_qp(np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0))


def test_a_fixed_variable_counts_no_stationarity_violation():
    x, _, residual = solve_box_qp(*_FIXED, -1.072, -1.072)
    assert x == (-1.072,) and residual == 0.0
    # within tol of both bounds of a narrow box, too; a free entry still counts |g|
    assert kkt_residual(*_FIXED, [0.5], [0.5], [0.5 + 1e-10]) == 0.0
    assert kkt_residual(*_FIXED, [0.5], [0.0], [1.0]) == pytest.approx((27.96 - 0.5) / 28.96)
    assert math.isnan(kkt_residual(np.array([[1.0]]), np.array([math.nan]), [0.5], [0.5], [0.5]))


# 200 allocation-like QPs whose H and g are built on Python floats (`math.fsum`
# rounds exactly), so only the solver can make the digest depend on the BLAS
_PORTABLE_QPS = """
import hashlib, math, random
from wiredrive.errors import SolverFailure
from wiredrive.qp import solve_box_qp
rng, digest = random.Random(29), hashlib.sha256()
for _ in range(200):
    m = rng.randint(2, 8)
    columns = [[rng.uniform(-1.0, 1.0) for _ in range(6)] for _ in range(m)]
    weight, wrench = rng.choice([1.0, 1e4, 1e8]), [rng.uniform(-50.0, 50.0) for _ in range(6)]
    hessian = [[2.0 * ((i == j) + weight * math.fsum(a * b for a, b in zip(ci, cj)))
                for j, cj in enumerate(columns)] for i, ci in enumerate(columns)]
    gradient = [-2.0 * weight * math.fsum(a * b for a, b in zip(c, wrench)) for c in columns]
    lower = rng.choice([0.0, 1.0])
    upper = lower + rng.choice([2.0, 20.0, 180.0])
    start = rng.choice([None, [rng.uniform(lower, upper) for _ in range(m)]])
    try:
        x, iterations, residual = solve_box_qp(hessian, gradient, lower, upper, start=start)
        digest.update(repr((x, iterations, residual)).encode())
    except SolverFailure as exc:
        digest.update(str(exc).encode())
print(digest.hexdigest())
"""


def test_the_solver_gives_the_same_bytes_on_every_blas_kernel():
    # OPENBLAS_CORETYPE picks OpenBLAS's kernels for one process (Prescott has
    # no FMA); a build that ignores it runs its one kernel three times
    digests = set()
    for kernel in ("Haswell", "Sandybridge", "Prescott"):
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", _PORTABLE_QPS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    assert len(digests) == 1, digests
