"""Dense active-set solver for strictly convex box-constrained QPs.

Solves  min 0.5 * x' H x + g' x  subject to  lower <= x <= upper  with H
symmetric positive definite.  The working set holds bound constraints;
each iteration either moves the free block to its equality-constrained
minimizer or steps to the first blocking bound.  Problems here are tiny
(one variable per wire), so dense linear solves are the right tool and
the whole thing stays deterministic: ties in the ratio test and in the
multiplier check are broken by lowest index.

At this size numpy's per-call cost outweighs the arithmetic, so the
ratio test runs over Python floats (`tolist()`), which round exactly as
numpy's float64 scalars do, and the free block is taken with integer
index arrays.  Matrix products and solves stay numpy calls: their
summation order is the BLAS's, and the recorded telemetry depends on it.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverFailure

# bound multipliers may come out slightly negative from rounding
_RELEASE_TOL = 1e-11


def _free_minimizer(hessian, gradient, x, free, fixed):
    """Minimizer over the free block with the clamped block held fixed.

    `free` and `fixed` are sorted integer index arrays."""
    rows = free[:, None]
    rhs = -(gradient[free] + hessian[rows, fixed] @ x[fixed])
    try:
        return np.linalg.solve(hessian[rows, free], rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure("free-block Hessian is singular") from exc


def kkt_residual(hessian, gradient, x, lower, upper, tol=1e-9):
    """Relative KKT residual of a candidate: its largest per-entry violation, or 0.

    Stationarity is violated by |g_i| on a free entry or one within `tol`
    of both bounds, by -g_i at the lower bound only and by g_i at the upper
    bound only; that part is measured against the gradient scale
    (1 + |g|_inf) so the figure stays meaningful when large residual
    weights blow up the raw gradient magnitudes.  The box is violated by
    the distance outside it.  A NaN anywhere makes the residual NaN.
    """
    grad = hessian @ x + gradient
    at_lower = x <= lower + tol * np.maximum(1.0, np.abs(lower))
    at_upper = x >= upper - tol * np.maximum(1.0, np.abs(upper))
    # free or at both bounds: |g|; at one bound: the part pointing out of it
    stationarity = np.where(at_lower == at_upper, np.abs(grad), np.where(at_lower, -grad, grad))
    scale = 1.0 + float(np.max(np.abs(gradient), initial=0.0))
    terms = np.concatenate([stationarity / scale, lower - x, x - upper])
    return float(np.max(terms, initial=0.0)) + 0.0  # + 0.0 turns a -0.0 into 0.0


def solve_box_qp(hessian, gradient, lower, upper, start=None, max_iter=None, tol=1e-8):
    """Solve the box QP; returns (x, iterations, relative KKT residual).

    Raises SolverFailure if the working set does not settle within
    `max_iter` changes (default 10 per variable, floor of 30) or the
    final point misses the KKT tolerance, a NaN residual included.
    """
    hessian = np.asarray(hessian, dtype=float)
    gradient = np.asarray(gradient, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = gradient.shape[0]
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound")
    if max_iter is None:
        max_iter = max(10 * n, 30)

    if start is None:
        try:
            start = np.linalg.solve(hessian, -gradient)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure("Hessian is singular") from exc
    x = np.clip(np.asarray(start, dtype=float).copy(), lower, upper)
    at_lower = x <= lower
    at_upper = (x >= upper) & ~at_lower
    lower_list = lower.tolist()
    upper_list = upper.tolist()
    release_tol = _RELEASE_TOL * (1.0 + np.max(np.abs(gradient)))

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        clamped = at_lower | at_upper
        free = np.flatnonzero(~clamped)
        stepped = False
        if free.size:
            target = _free_minimizer(hessian, gradient, x, free, np.flatnonzero(clamped))
            delta = target - x[free]
            if np.max(np.abs(delta)) > 1e-14:
                # ratio test: largest step inside the box along delta
                alpha = 1.0
                blocker = -1
                blocker_upper = False
                x_list = x.tolist()
                for j, d in zip(free.tolist(), delta.tolist()):
                    if d > 0 and upper_list[j] < np.inf:
                        a = (upper_list[j] - x_list[j]) / d
                        if a < alpha - 1e-15:
                            alpha, blocker, blocker_upper = a, j, True
                    elif d < 0 and lower_list[j] > -np.inf:
                        a = (lower_list[j] - x_list[j]) / d
                        if a < alpha - 1e-15:
                            alpha, blocker, blocker_upper = a, j, False
                alpha = max(alpha, 0.0)
                x[free] += alpha * delta
                if blocker >= 0:
                    if blocker_upper:
                        x[blocker] = upper_list[blocker]
                        at_upper[blocker] = True
                    else:
                        x[blocker] = lower_list[blocker]
                        at_lower[blocker] = True
                    stepped = True
        if stepped:
            continue
        # free block is optimal; check bound multipliers for release
        grad = hessian @ x + gradient
        lam = np.where(at_lower, grad, np.where(at_upper, -grad, np.inf))
        worst = int(np.argmin(lam))
        if lam[worst] < -release_tol:
            at_lower[worst] = False
            at_upper[worst] = False
            continue
        converged = True
        break

    if not converged:
        raise SolverFailure(
            f"active set did not converge in {max_iter} iterations"
        )

    # polish the free block: two refinement passes knock the free gradient
    # down to rounding level even when the Hessian is badly scaled
    free = np.flatnonzero(~(at_lower | at_upper))
    if free.size:
        h_ff = hessian[free[:, None], free]
        for _ in range(2):
            grad = hessian @ x + gradient
            try:
                x[free] -= np.linalg.solve(h_ff, grad[free])
            except np.linalg.LinAlgError:
                break
        x = np.clip(x, lower, upper)

    residual = kkt_residual(hessian, gradient, x, lower, upper)
    if not residual <= tol:
        raise SolverFailure(f"KKT residual {residual:.3e} above tolerance {tol:.1e}")
    return x, iterations, residual
