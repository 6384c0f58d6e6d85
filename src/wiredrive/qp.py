"""Dense active-set solver for strictly convex box-constrained QPs.

Solves  min 0.5 * x' H x + g' x  subject to  lower <= x <= upper  with H
symmetric positive definite.  The working set holds bound constraints
(per variable -1 at its lower bound, +1 at its upper, 0 free); each
iteration either moves the free block to its equality-constrained
minimizer or steps to the first blocking bound.  Ties in the ratio test
and in the multiplier check go to the lowest index, and a NaN multiplier
wins as in `np.argmin`.

Problems here are tiny (one variable per wire), so the solver runs on
Python floats.  It reads H, g, bounds and start by `spatial._as_floats` (the
tuples `allocate` and `TensionBounds` hand it as they are; anything else as a
file is read, so a bool or a wrong shape is a ValueError naming it) and returns
x as a float tuple.  The free block of H gets a Cholesky factor (Golub & Van
Loan, Matrix Computations, section 4.2), which the cold start, an iteration
that keeps the free set and both polish passes reuse.  Products with H are sums
in index order over only the rows read.
"""

from __future__ import annotations

import math

from .errors import SolverFailure
from .spatial import _as_floats, _numbers

# bound multipliers may come out slightly negative from rounding
_RELEASE_TOL = 1e-11


def _max(values):
    """Largest of `values`, or NaN if any is NaN."""
    total = sum(values)  # NaN if any value is, or from inf - inf
    return math.nan if total != total and any(v != v for v in values) else max(values)


def _vector(name, value, n):
    """`value` as n floats: one number for every entry, or n as `_as_floats` reads them."""
    listed = isinstance(value, (list, tuple)) or getattr(value, "ndim", 0)
    return _as_floats(name, value, (n,)) if listed else (_numbers(name, value),) * n


def _product(row, x):
    """The sum of row[k] * x[k] in index order, each step rounded."""
    total = 0.0
    for h, v in zip(row, x):
        total += h * v
    return total


def _cholesky(rows, block, name):
    """Lower Cholesky factor of H's block on `block`, rows ending at the diagonal."""
    factor = []
    for i in block:
        row, own = rows[i], []
        for j, other in zip(block, factor):
            entry = row[j]
            for a, b in zip(own, other):
                entry -= a * b
            own.append(entry / other[-1])
        pivot = row[i]
        for a in own:
            pivot -= a * a
        if not pivot > 0.0:  # NaN included
            raise SolverFailure(f"{name} is not positive definite")
        own.append(math.sqrt(pivot))
        factor.append(own)
    return factor


def _solve(factor, rhs):
    """The solution y of L L' y = rhs for the Cholesky factor L."""
    y = []
    for own, b in zip(factor, rhs):
        for a, v in zip(own, y):
            b -= a * v
        y.append(b / own[-1])
    for i in reversed(range(len(y))):
        for k in range(i + 1, len(y)):
            y[i] -= factor[k][i] * y[k]
        y[i] /= factor[i][i]
    return y


def _residual(rows, gradient, x, lo, hi, tol):
    """`kkt_residual` on lists of floats."""
    scale = 1.0 + _max([0.0] + [abs(g) for g in gradient])
    terms = [0.0]
    for row, g, xi, a, b in zip(rows, gradient, x, lo, hi):
        g = _product(row, x) + g
        # an infinite bound gives inf - inf = NaN here, so it never counts as reached
        at_lower = xi <= a + tol * max(1.0, abs(a))
        at_upper = xi >= b - tol * max(1.0, abs(b))
        if at_lower == at_upper:  # fixed: 0 (0 * g keeps a NaN); free: |g|
            stationarity = 0.0 * g if at_lower else abs(g)
        else:  # at one bound: the part pointing out of it
            stationarity = -g if at_lower else g
        terms += (stationarity / scale, a - xi, xi - b)
    return _max(terms)


def kkt_residual(hessian, gradient, x, lower, upper, tol=1e-9):
    """Relative KKT residual of a candidate: its largest per-entry violation, or 0.

    Stationarity is violated by |g_i| on a free entry, by -g_i at the lower
    bound only and by g_i at the upper bound only, and not at all within
    `tol` of both bounds (a fixed entry's multiplier may take either sign);
    that part is measured against the gradient scale (1 + |g|_inf) so the
    figure stays meaningful when large residual weights blow up the raw
    gradient magnitudes.  The gradient at x is H x + g, each row summed in
    index order.  The box is violated by the distance outside it.  A NaN
    anywhere makes the residual NaN.
    """
    x = _as_floats("x", x, (-1,))
    n = len(x)
    return _residual(_as_floats("hessian", hessian, (n, n)), _as_floats("gradient", gradient, (n,)),
                     x, _vector("lower", lower, n), _vector("upper", upper, n), tol)


def solve_box_qp(hessian, gradient, lower, upper, start=None, max_iter=None, tol=1e-8):
    """Solve the box QP; returns (x, iterations, relative KKT residual).

    `hessian` is n x n and `lower`, `upper` and `start` are scalars or of
    the gradient's length n >= 1 (else ValueError).  Raises SolverFailure on
    a Cholesky pivot that is not positive, if the working set does not
    settle within `max_iter` changes (default 10 per variable, floor of 30),
    or if the final point misses the KKT tolerance, a NaN residual included.
    """
    g = _as_floats("gradient", gradient, (-1,))
    n = len(g)
    if not n:
        raise ValueError(f"expected at least one number for gradient, got {gradient!r}")
    rows = _as_floats("hessian", hessian, (n, n))
    lo, hi = _vector("lower", lower, n), _vector("upper", upper, n)
    if any(a > b for a, b in zip(lo, hi)):
        raise ValueError("lower bound exceeds upper bound")
    if max_iter is None:
        max_iter = max(10 * n, 30)

    factored = None  # the free set that `factor` belongs to
    if start is None:
        factored = list(range(n))
        factor = _cholesky(rows, factored, "Hessian")
        start = tuple(_solve(factor, [-v for v in g]))
    x = _vector("start", start, n)
    x = [b if v > b else a if v < a else v for v, a, b in zip(x, lo, hi)]
    state = [-1 if v <= a else 1 if v >= b else 0 for v, a, b in zip(x, lo, hi)]
    release_tol = _RELEASE_TOL * (1.0 + _max([abs(v) for v in g]))

    for iterations in range(1, max_iter + 1):
        free = [j for j in range(n) if not state[j]]
        fixed = [j for j in range(n) if state[j]]
        if free:
            # minimizer over the free block with the clamped block held fixed
            if free != factored:
                factored, factor = free, _cholesky(rows, free, "free-block Hessian")
            held = [x[j] for j in fixed]
            rhs = [-(g[i] + _product([rows[i][j] for j in fixed], held)) for i in free]
            delta = [t - x[j] for t, j in zip(_solve(factor, rhs), free)]
            if _max([abs(d) for d in delta]) > 1e-14:
                # ratio test: largest step inside the box along delta
                alpha, blocker = 1.0, -1
                for j, d in zip(free, delta):
                    if d > 0 and hi[j] < math.inf:
                        a = (hi[j] - x[j]) / d
                        if a < alpha - 1e-15:
                            alpha, blocker, side = a, j, 1
                    elif d < 0 and lo[j] > -math.inf:
                        a = (lo[j] - x[j]) / d
                        if a < alpha - 1e-15:
                            alpha, blocker, side = a, j, -1
                alpha = max(alpha, 0.0)
                for j, d in zip(free, delta):
                    x[j] += alpha * d
                if blocker >= 0:
                    state[blocker] = side
                    x[blocker] = hi[blocker] if side > 0 else lo[blocker]
                    continue
        # free block is optimal; release the most negative multiplier (a NaN first)
        worst, least = -1, math.inf
        for j in fixed:
            lam = -state[j] * (_product(rows[j], x) + g[j])
            if not lam >= least:  # smaller, or NaN
                worst, least = j, lam
                if lam != lam:
                    break
        if not least < -release_tol:
            break
        state[worst] = 0
    else:
        raise SolverFailure(f"active set did not converge in {max_iter} iterations")

    # two refinement passes with the converged factor knock the free gradient
    # down to rounding level even when the Hessian is badly scaled
    for _ in range(2 if free else 0):
        correction = _solve(factor, [_product(rows[j], x) + g[j] for j in free])
        for j, c in zip(free, correction):
            x[j] -= c
    x = [b if v > b else a if v < a else v for v, a, b in zip(x, lo, hi)]  # a NaN stays

    residual = _residual(rows, g, x, lo, hi, 1e-9)
    if not residual <= tol:
        raise SolverFailure(f"KKT residual {residual:.3e} above tolerance {tol:.1e}")
    return tuple(x), iterations, residual
