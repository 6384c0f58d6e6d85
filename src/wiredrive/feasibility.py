"""Wrench-capability analysis of a wire configuration.

Wires only pull, so expressing an arbitrary wrench takes more than rank:
the columns of the wire matrix must positively span the wrench space,
which needs at least seven wires for six degrees of freedom.  The
analysis here samples the unit sphere of wrench directions with a
deterministic low-discrepancy sequence and, for each direction, finds the
largest achievable wrench magnitude inside the tension box via a linear
program.  Torques are expressed in a weighted norm (scaled by a lever
length) so force and torque magnitudes are commensurable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.special import ndtri
from scipy.stats import qmc

from .allocation import AllocationWeights, TensionBounds, allocate
from .spatial import Wrench
from .wires import WireJacobian

RANK_TOLERANCE = 1e-9  # relative to the largest singular value
ACHIEVABLE_SCALE = 1e-6  # N; a direction counts only above this magnitude
_SCALE_CAP = 1e6  # keeps the per-direction LP bounded


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Summary of what a wire layout can do at one pose."""

    rank: int
    fully_constrained: bool
    margin: float  # weighted-norm radius of the achievable wrench ball
    saturating_wires: tuple[int, ...]  # wires at a bound in the worst direction
    directions_checked: int  # LPs solved; the scan stops at the first unreachable direction
    worst_direction: np.ndarray


def sample_wrench_directions(count: int, torque_scale: float = 1.0) -> np.ndarray:
    """Deterministic low-discrepancy unit wrench directions.

    A Halton sequence is pushed through the inverse normal CDF and
    normalized, giving well-spread points on the 5-sphere; torque
    components are then scaled by the lever length so the directions have
    unit weighted norm.
    """
    if count < 1:
        raise ValueError("need at least one direction")
    sampler = qmc.Halton(d=6, scramble=False)
    sampler.fast_forward(1)  # the first Halton point is the origin corner
    u = sampler.random(count)
    z = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    directions = z / norms
    directions[:, 3:] *= torque_scale
    return directions


def _max_scale_along(matrix: np.ndarray, direction: np.ndarray, bounds: TensionBounds):
    """Largest alpha with W f = alpha * direction inside the tension box."""
    m = matrix.shape[1]
    cost = np.zeros(m + 1)
    cost[m] = -1.0
    eq = np.hstack([matrix, -direction[:, None]])
    box = [(lo, hi) for lo, hi in zip(bounds.lower, bounds.upper)]
    box.append((0.0, _SCALE_CAP))
    result = linprog(cost, A_eq=eq, b_eq=np.zeros(6), bounds=box, method="highs")
    if not result.success:
        return 0.0, None
    return float(result.x[m]), result.x[:m]


def controllability(
    jacobian: WireJacobian,
    bounds: TensionBounds,
    directions: int = 1000,
    torque_scale: float = 1.0,
) -> FeasibilityReport:
    """Rank plus positive-spanning check over sampled wrench directions.

    `fully_constrained` is true when every sampled direction is achievable
    at some positive magnitude with tensions inside the bounds; `margin`
    is the smallest such magnitude over the samples, i.e. the radius of a
    guaranteed wrench ball in the weighted norm.
    """
    matrix = jacobian.matrix
    svals = np.linalg.svd(matrix, compute_uv=False)
    rank = int(np.sum(svals > RANK_TOLERANCE * svals[0])) if svals.size else 0

    unit_dirs = sample_wrench_directions(directions, torque_scale)
    margin = np.inf
    worst = unit_dirs[0]
    worst_tensions = None
    for checked, direction in enumerate(unit_dirs, start=1):
        scale, tensions = _max_scale_along(matrix, direction, bounds)
        if scale < margin:
            margin = scale
            worst = direction
            worst_tensions = tensions
        if margin <= 0.0:
            break
    fully = margin > ACHIEVABLE_SCALE
    saturating: tuple[int, ...] = ()
    if worst_tensions is not None:
        saturating = saturated_wires(worst_tensions, bounds)
    return FeasibilityReport(
        rank=rank,
        fully_constrained=fully,
        margin=float(margin if np.isfinite(margin) else 0.0),
        saturating_wires=saturating,
        directions_checked=checked,
        worst_direction=worst,
    )


def wrench_achievable(
    jacobian: WireJacobian,
    wrench: Wrench,
    bounds: TensionBounds,
    force_tol: float = 1e-4,
    torque_tol: float = 1e-4,
) -> tuple[bool, np.ndarray, Wrench]:
    """Best-effort realization of one target wrench.

    Runs the allocation QP with the residual weight pushed to 1e8 so the
    answer is as close to the target as the tension box permits, then
    calls the target achievable when the force and torque residuals are
    below their tolerances.
    """
    weights = AllocationWeights(np.eye(6) * 1e8)
    tensions, residual = allocate(jacobian, wrench, bounds, weights)
    achievable = (
        float(np.linalg.norm(residual.force)) < force_tol
        and float(np.linalg.norm(residual.torque)) < torque_tol
    )
    return achievable, tensions, residual


def saturated_wires(tensions: np.ndarray, bounds: TensionBounds) -> tuple[int, ...]:
    """Indices of the wires that `bounds.saturated` flags."""
    return tuple(int(i) for i in np.flatnonzero(bounds.saturated(tensions)))
