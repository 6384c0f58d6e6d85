"""Dense active-set solver for strictly convex box-constrained QPs.

Solves  min 0.5 * x' H x + g' x  subject to  lower <= x <= upper  with H
symmetric positive definite.  The working set holds bound constraints;
each iteration either moves the free block to its equality-constrained
minimizer or steps to the first blocking bound.  Problems here are tiny
(one variable per wire), so dense linear solves are the right tool and
the whole thing stays deterministic: ties in the ratio test and in the
multiplier check are broken by lowest index.

At this size numpy's per-call setup outweighs the arithmetic, so the
bookkeeping runs on Python floats, which round as float64 arrays do: the
working set (per variable -1 at its lower bound, +1 at its upper, 0 free),
the bound check, the step test, the ratio test, x_j + alpha * d_j, the
multiplier check (first minimum wins, a NaN before it, as `np.argmin`)
and the KKT residual (any NaN makes a max NaN, as `np.max`).  Products
with H, every solve and both clips stay numpy: their summation order is
the BLAS's, which the recorded telemetry depends on.  The first polish
pass reuses the converged iteration's free block of H and gradient.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverFailure

# bound multipliers may come out slightly negative from rounding
_RELEASE_TOL = 1e-11


def _max(values):
    """Largest of `values`, or NaN if any is NaN."""
    total = sum(values)  # NaN if any value is, or from inf - inf
    return math.nan if total != total and any(v != v for v in values) else max(values)


def _vector(value, n, name):
    """`value` as a float array of length n; a scalar is repeated."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim and arr.shape != (n,):
        raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
    return arr if arr.ndim else np.full(n, arr)


def kkt_residual(hessian, gradient, x, lower, upper, tol=1e-9):
    """Relative KKT residual of a candidate: its largest per-entry violation, or 0.

    Stationarity is violated by |g_i| on a free entry, by -g_i at the lower
    bound only and by g_i at the upper bound only, and not at all within
    `tol` of both bounds (a fixed entry's multiplier may take either sign);
    that part is measured against the gradient scale (1 + |g|_inf) so the
    figure stays meaningful when large residual weights blow up the raw
    gradient magnitudes.  The box is violated by the distance outside it.
    A NaN anywhere makes the residual NaN.
    """
    x = np.asarray(x, dtype=float)
    gradient = np.asarray(gradient, dtype=float)
    scale = 1.0 + _max([0.0] + [abs(g) for g in gradient.tolist()])
    terms = [0.0]
    for g, xi, lo, hi in zip((hessian @ x + gradient).tolist(), x.tolist(),
                             _vector(lower, len(x), "lower").tolist(),
                             _vector(upper, len(x), "upper").tolist()):
        # an infinite bound gives inf - inf = NaN here, so it never counts as reached
        at_lower = xi <= lo + tol * max(1.0, abs(lo))
        at_upper = xi >= hi - tol * max(1.0, abs(hi))
        if at_lower == at_upper:  # fixed: 0 (0 * g keeps a NaN); free: |g|
            stationarity = 0.0 * g if at_lower else abs(g)
        else:  # at one bound: the part pointing out of it
            stationarity = -g if at_lower else g
        terms += (stationarity / scale, lo - xi, xi - hi)
    return _max(terms)


def solve_box_qp(hessian, gradient, lower, upper, start=None, max_iter=None, tol=1e-8):
    """Solve the box QP; returns (x, iterations, relative KKT residual).

    `lower`, `upper` and `start` are scalars or of the gradient's length
    n >= 1 (else ValueError).  Raises SolverFailure if the working set does
    not settle within `max_iter` changes (default 10 per variable, floor of
    30) or the final point misses the KKT tolerance, a NaN residual included.
    """
    hessian = np.asarray(hessian, dtype=float)
    gradient = np.asarray(gradient, dtype=float)
    if gradient.ndim != 1 or not gradient.size:
        raise ValueError(f"gradient has shape {gradient.shape}, expected (n,) with n >= 1")
    n = gradient.size
    lower, upper = _vector(lower, n, "lower"), _vector(upper, n, "upper")
    lo, hi = lower.tolist(), upper.tolist()
    if any(a > b for a, b in zip(lo, hi)):
        raise ValueError("lower bound exceeds upper bound")
    if max_iter is None:
        max_iter = max(10 * n, 30)

    if start is None:
        try:
            start = np.linalg.solve(hessian, -gradient)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure("Hessian is singular") from exc
    x = np.clip(_vector(start, n, "start"), lower, upper).tolist()
    state = [-1 if v <= a else 1 if v >= b else 0 for v, a, b in zip(x, lo, hi)]
    g_list = gradient.tolist()
    release_tol = _RELEASE_TOL * (1.0 + _max([abs(g) for g in g_list]))

    for iterations in range(1, max_iter + 1):
        free = [j for j in range(n) if not state[j]]
        if free:
            # minimizer over the free block with the clamped block held fixed
            fixed = [j for j in range(n) if state[j]]
            rows = np.array(free)[:, None]
            h_ff = hessian[rows, rows.T]
            pull = (hessian[rows, fixed] @ np.array([x[j] for j in fixed])).tolist() \
                if fixed else [0.0] * len(free)
            try:
                target = np.linalg.solve(h_ff, [-(g_list[j] + p) for j, p in zip(free, pull)])
            except np.linalg.LinAlgError as exc:
                raise SolverFailure("free-block Hessian is singular") from exc
            delta = [t - x[j] for t, j in zip(target.tolist(), free)]
            if _max([abs(d) for d in delta]) > 1e-14:
                # ratio test: largest step inside the box along delta
                alpha = 1.0
                blocker = -1
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
        # free block is optimal; release the bound with the most negative
        # multiplier, unless a NaN comes first (np.argmin's rule)
        grad = (hessian @ np.array(x) + gradient).tolist()
        worst, least = -1, math.inf
        for j, s in enumerate(state):
            lam = -s * grad[j] if s else math.inf
            if not lam >= least:  # smaller, or NaN
                worst, least = j, lam
                if lam != lam:
                    break
        if not least < -release_tol:
            break
        state[worst] = 0
    else:
        raise SolverFailure(f"active set did not converge in {max_iter} iterations")

    # polish the free block: two refinement passes knock the free gradient
    # down to rounding level even when the Hessian is badly scaled.  The
    # converged iteration factored the same block, so its solve cannot fail here.
    for polish in range(2 if free else 0):
        if polish:
            grad = (hessian @ np.array(x) + gradient).tolist()
        correction = np.linalg.solve(h_ff, [grad[j] for j in free]).tolist()
        for j, c in zip(free, correction):
            x[j] -= c
    x = np.clip(x, lower, upper) if free else np.array(x)

    residual = kkt_residual(hessian, gradient, x, lower, upper)
    if not residual <= tol:
        raise SolverFailure(f"KKT residual {residual:.3e} above tolerance {tol:.1e}")
    return x, iterations, residual
