"""Wrench-capability analysis of a wire configuration.

Wires only pull, so expressing an arbitrary wrench takes more than rank:
the columns of the wire matrix must positively span the wrench space,
which needs at least seven wires for six degrees of freedom.  Torques
are expressed in a weighted norm (divided by a lever length) so force
and torque magnitudes are commensurable.  In those units the wrenches
the tension box can produce form a zonotope, and the analysis computes
its inradius about the origin exactly: every facet normal is orthogonal
to five linearly independent wire columns, the distance to a facet is
the box's support value along its normal, and the margin is the smallest
such distance (hyperplane shifting; Gouttefarde & Gosselin 2006,
Bouchard, Gosselin & Moore 2010).  One linear program along the binding
facet's normal then finds tensions that realise the margin.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .allocation import AllocationWeights, TensionBounds, allocate
from .spatial import Wrench
from .wires import WireJacobian

RANK_TOLERANCE = 1e-9  # relative to the largest singular value
ACHIEVABLE_SCALE = 1e-6  # N; a margin counts only above this magnitude
_SCALE_CAP = 1e6  # keeps the witness LP bounded


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Summary of what a wire layout can do at one pose.

    `margin` is the exact radius, in the weighted norm, of the largest
    wrench ball about the origin that the tension box can produce.
    `worst_direction` has unit weighted norm, so `margin * worst_direction`
    is a wrench in N and N m on the boundary of what the wires can do.
    """

    rank: int
    fully_constrained: bool
    margin: float  # weighted-norm radius of the achievable wrench ball
    saturating_wires: tuple[int, ...]  # wires at their upper bound in the witness tensions
    directions_checked: int  # facet normals whose support was evaluated, both signs
    worst_direction: np.ndarray  # binding facet normal, or a wrench the wires cannot produce
    binding_wires: tuple[int, ...]  # the five wires spanning the binding facet; () below rank 6


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


def _facet_normals(scaled: np.ndarray):
    """Unit normals of the hyperplanes spanned by five independent columns.

    Returns (subsets, normals): the column 5-subsets whose block has rank
    5, and one unit normal per subset as the rows of a (k, 6) array.
    """
    subsets = np.array(list(itertools.combinations(range(scaled.shape[1]), 5)))
    u, svals, _ = np.linalg.svd(scaled[:, subsets].transpose(1, 0, 2))
    spanning = svals[:, 4] > RANK_TOLERANCE * svals[:, 0]
    return subsets[spanning], u[spanning, :, 5]


def controllability(
    jacobian: WireJacobian,
    bounds: TensionBounds,
    torque_scale: float = 1.0,
) -> FeasibilityReport:
    """Rank, positive spanning and the exact wrench margin at one pose.

    With `A` the wire matrix with its torque rows divided by
    `torque_scale`, the margin is the smallest support value
    `sum_j max(lo_j n.a_j, hi_j n.a_j)` over both signs of every facet
    normal `n`, floored at 0.  One LP along the binding normal is the
    witness: it supplies `saturating_wires`, and its scale caps the
    margin, so a solver disagreement can only lower the reported value.
    `fully_constrained` is true when the margin exceeds
    `ACHIEVABLE_SCALE`.  Below rank 6 the margin is 0, no LP runs, and
    `worst_direction` is a wrench direction the wires cannot produce.
    """
    matrix = jacobian.matrix
    svals = np.linalg.svd(matrix, compute_uv=False)
    rank = int(np.sum(svals > RANK_TOLERANCE * svals[0])) if svals.size else 0
    weighting = np.array([1.0, 1.0, 1.0, torque_scale, torque_scale, torque_scale])
    scaled = matrix / weighting[:, None]

    if rank < 6:
        u, _, _ = np.linalg.svd(scaled)
        return FeasibilityReport(
            rank=rank,
            fully_constrained=False,
            margin=0.0,
            saturating_wires=(),
            directions_checked=0,
            worst_direction=u[:, 5] * weighting,
            binding_wires=(),
        )

    subsets, normals = _facet_normals(scaled)
    normals = np.concatenate([normals, -normals])
    projections = normals @ scaled
    support = np.maximum(bounds.lower * projections, bounds.upper * projections).sum(axis=1)
    binding = int(np.argmin(support))
    worst = normals[binding] * weighting

    scale, tensions = _max_scale_along(matrix, worst, bounds)
    margin = max(0.0, min(float(support[binding]), scale))  # a failed LP reports scale 0
    return FeasibilityReport(
        rank=rank,
        fully_constrained=margin > ACHIEVABLE_SCALE,
        margin=margin,
        saturating_wires=() if tensions is None else saturated_wires(tensions, bounds),
        directions_checked=len(normals),
        worst_direction=worst,
        binding_wires=tuple(int(i) for i in subsets[binding % len(subsets)]),
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
