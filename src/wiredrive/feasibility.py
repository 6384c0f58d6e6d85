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
Bouchard, Gosselin & Moore 2010).  One batched Householder QR of all
6 x 5 column blocks gives every normal, the last column of a block's
complete Q, and its rank test, from the diagonal of its R.  Tensions
that realise the margin follow in closed form from the binding facet:
the wires off its plane sit at the bound their side of it picks, and one
least-squares solve splits the rest among the wires in its plane.  They
are verified before they are reported.

`wrench_achievable` decides one target wrench exactly with a feasibility
LP; the allocation QP only supplies best-effort tensions when the LP
finds none.  scipy solves that LP and is imported on the first one, so
`controllability` never loads it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .allocation import AllocationWeights, TensionBounds, allocate
from .errors import SolverFailure
from .qp import solve_box_qp
from .spatial import Wrench, _as_floats, _checked

# relative to the largest singular value, and for a 6 x 5 block to R's
# largest diagonal entry: sigma_5 <= min|r_ii| and max|r_ii| <= sigma_1, so
# R keeps every block the singular values would
RANK_TOLERANCE = 1e-9
ACHIEVABLE_SCALE = 1e-6  # N; a margin counts only above this magnitude
PLANE_TOLERANCE = 1e-9  # |n.a_j| / |a_j| at or below which wire j lies in a facet's plane
WITNESS_TOLERANCE = 1e-9  # witness residual |A f - margin n| allowed, per 1 + margin
TIE_TOLERANCE = 1e-12  # support above the minimum, per 1 + |minimum|, that still ties


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Summary of what a wire layout can do at one pose.

    `margin` is the exact radius, in the weighted norm, of the largest
    wrench ball about the origin that the tension box can produce.
    `worst_direction` has unit weighted norm, so `margin * worst_direction`
    is a wrench in N and N m on the boundary of what the wires can do,
    and `witness_tensions` are verified tensions that produce it.
    """

    rank: int
    fully_constrained: bool
    margin: float  # weighted-norm radius of the achievable wrench ball
    saturating_wires: tuple[int, ...]  # wires at their upper bound in the witness tensions
    directions_checked: int  # facet normals whose support was evaluated, both signs
    worst_direction: np.ndarray  # binding facet normal, or a wrench the wires cannot produce
    binding_wires: tuple[int, ...]  # the five wires spanning the binding facet; () below rank 6
    witness_tensions: np.ndarray | None  # realise margin * worst_direction; None at margin 0


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported on the first call.

    Only `wrench_achievable`'s LP needs scipy, and importing
    `scipy.optimize` takes longer than importing the rest of the package,
    so `run`, `analyze`, `validate` and `plan-anchor` never load it.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


@functools.cache
def _five_subsets(wire_count: int) -> np.ndarray:
    """The column 5-subsets of `wire_count` wires, as a read-only (k, 5) table."""
    subsets = np.array(list(itertools.combinations(range(wire_count), 5)), dtype=np.intp)
    subsets.setflags(write=False)
    return subsets


def _facet_normals(scaled: np.ndarray):
    """Unit normals of the hyperplanes spanned by five independent columns.

    Returns (subsets, normals): the column 5-subsets whose block has rank
    5, and one unit normal per subset as the rows of a (k, 6) array.  One
    batched complete QR factors every 6 x 5 block: the last column of Q is
    orthogonal to the block's columns, and a block counts as rank 5 when
    its smallest |r_ii| exceeds RANK_TOLERANCE times its largest.
    """
    subsets = _five_subsets(scaled.shape[1])
    q, r = np.linalg.qr(scaled[:, subsets].transpose(1, 0, 2), mode="complete")
    diagonal = np.abs(np.diagonal(r, axis1=1, axis2=2))
    spanning = diagonal.min(axis=1) > RANK_TOLERANCE * diagonal.max(axis=1)
    return subsets[spanning], q[spanning, :, 5]


def _witness(scaled, normal, projections, binding_wires, margin, lower, upper):
    """Tensions in the box with `scaled @ f = margin * normal`, verified.

    Wires whose column leaves the binding plane sit at the bound the sign
    of their projection picks, as in the support value.  The wires in the
    plane share the rest in a minimum-norm least-squares split.  Only when
    more than five lie there can it leave the box; a box QP then places
    them, its Tikhonov term (1e-14 of the Gram trace) making repeated
    columns definite.  Raises SolverFailure unless the result, clipped to
    the box against rounding at a bound, realises the wrench.
    """
    in_plane = np.abs(projections) <= PLANE_TOLERANCE * np.linalg.norm(scaled, axis=0)
    in_plane[list(binding_wires)] = True
    tensions = np.where(projections > 0, upper, lower)
    target = margin * normal
    columns = scaled[:, in_plane]
    rest = target - scaled[:, ~in_plane] @ tensions[~in_plane]
    split = np.linalg.lstsq(columns, rest, rcond=None)[0]
    low, high = lower[in_plane], upper[in_plane]
    if len(split) > 5 and not np.all((low <= split) & (split <= high)):
        gram = columns.T @ columns
        tikhonov = 1e-14 * np.trace(gram) * np.eye(len(split))
        split, _, _ = solve_box_qp(gram + tikhonov, -columns.T @ rest, low, high)
    tensions[in_plane] = split
    tensions = np.clip(tensions, lower, upper)
    residual = float(np.linalg.norm(scaled @ tensions - target))
    if not residual <= WITNESS_TOLERANCE * (1.0 + margin):
        raise SolverFailure(f"witness tensions miss the margin wrench by {residual:.3e}")
    return tensions


def controllability(
    matrix,
    bounds: TensionBounds,
    torque_scale: float = 1.0,
) -> FeasibilityReport:
    """Rank, positive spanning and the exact wrench margin at one pose.

    `matrix` is the 6 x m wire matrix at that pose.  With `A` that matrix
    with its torque rows divided by `torque_scale`, the margin is the
    smallest support value `sum_j max(lo_j n.a_j, hi_j n.a_j)` over both
    signs of every facet normal `n`, floored at 0.  Of the facets within
    `TIE_TOLERANCE` of that smallest value, the last 5-subset binds.  No
    LP runs: the binding facet gives witness tensions in closed form,
    verified to realise `margin * worst_direction` inside the box
    (SolverFailure otherwise), and `saturating_wires` are its wires at
    their upper bound.
    At margin 0 there is neither.  `fully_constrained` is true when the
    margin exceeds `ACHIEVABLE_SCALE`.  Below rank 6 the margin is 0 and
    `worst_direction` is a wrench direction the wires cannot produce.
    A ValueError names `matrix` unless it is 6 rows of m finite numbers (`_as_floats`),
    `bounds` unless it holds m wires, and `torque_scale` unless finite and positive.
    """
    matrix = np.array(_as_floats("matrix", matrix, (6, -1)))
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"matrix must be finite, got {matrix}")
    if len(bounds.lower) != matrix.shape[1]:
        raise ValueError(f"bounds must hold {matrix.shape[1]} wires, one per matrix column, "
                         f"got {len(bounds.lower)}")
    torque_scale = _checked("torque_scale", torque_scale, sign="positive")
    lower, upper = np.array(bounds.lower), np.array(bounds.upper)
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
            witness_tensions=None,
        )

    subsets, normals = _facet_normals(scaled)
    normals = np.concatenate([normals, -normals])
    projections = normals @ scaled
    support = np.maximum(lower * projections, upper * projections).sum(axis=1)
    least = float(support.min())
    margin = max(0.0, least)
    # a mirror-symmetric pose ties several facets up to rounding; the last
    # 5-subset among them binds, so the choice does not rest on the last bits
    tied = np.flatnonzero(support - least <= TIE_TOLERANCE * (1.0 + abs(least)))
    binding = int(tied[np.argmax(tied % len(subsets))])
    binding_wires = tuple(int(i) for i in subsets[binding % len(subsets)])
    tensions = None if margin == 0.0 else _witness(
        scaled, normals[binding], projections[binding], binding_wires, margin, lower, upper)
    return FeasibilityReport(
        rank=rank,
        fully_constrained=margin > ACHIEVABLE_SCALE,
        margin=margin,
        saturating_wires=() if tensions is None else saturated_wires(tensions, bounds),
        directions_checked=len(normals),
        worst_direction=normals[binding] * weighting,
        binding_wires=binding_wires,
        witness_tensions=tensions,
    )


def wrench_achievable(
    matrix,
    wrench: Wrench,
    bounds: TensionBounds,
    force_tol: float = 1e-4,
    torque_tol: float = 1e-4,
) -> tuple[bool, np.ndarray, Wrench]:
    """Whether the tension box can produce one target wrench, and how.

    With `A` the 6 x m wire `matrix`, one feasibility LP, `A f = w` with
    `lower <= f <= upper`, decides it exactly.  When it finds tensions
    they come back with the residual `w - A f`, and the target counts as
    achievable if that residual's force and torque parts are below their
    tolerances.  When it finds none, the target is not achievable, and
    the allocation QP with the residual weight pushed to 1e8 supplies the
    best-effort tensions and the residual they leave.
    """
    matrix, target = np.asarray(matrix, dtype=float), wrench.as_array()
    box = list(zip(bounds.lower, bounds.upper))
    result = linprog(np.zeros(matrix.shape[1]), A_eq=matrix, b_eq=target, bounds=box, method="highs")
    tensions = result.x if result.success else np.array(
        allocate(matrix, wrench, bounds, AllocationWeights(np.eye(6) * 1e8))[0])
    residual = Wrench.from_array(target - matrix @ tensions)
    achievable = (
        bool(result.success)
        and float(np.linalg.norm(residual.force)) < force_tol
        and float(np.linalg.norm(residual.torque)) < torque_tol
    )
    return achievable, tensions, residual


def saturated_wires(tensions, bounds: TensionBounds) -> tuple[int, ...]:
    """Indices of the wires that `bounds.saturated` flags."""
    return tuple(i for i, flag in enumerate(bounds.saturated(tensions)) if flag)
