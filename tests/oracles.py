"""Independent reference implementations used only by the test suite.

Nothing in here may call into the solver code it is checking: the QP
oracles work by exhaustive enumeration / grid search, and the wrench
oracle accumulates per-wire forces one wire at a time.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog
from scipy.special import ndtri
from scipy.stats import qmc


def box_qp_objective(hessian, gradient, x):
    """0.5 x'Hx + g'x, batched over the rows of x when 2-D."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return 0.5 * float(x @ hessian @ x) + float(gradient @ x)
    return 0.5 * np.einsum("ni,ij,nj->n", x, hessian, x) + x @ gradient


def enumerate_box_qp(hessian, gradient, lower, upper):
    """Exact box-QP minimizer by enumerating every active-set pattern.

    Each variable is either free, at its lower bound, or at its upper
    bound; for n variables that is 3^n candidate equality-constrained
    problems.  Feasible candidates are compared on objective value.
    Exponential, so only usable for the small n exercised in tests.
    """
    n = len(gradient)
    best_x = None
    best_obj = np.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        x = np.empty(n)
        free = []
        for i, code in enumerate(pattern):
            if code == 0:
                free.append(i)
            elif code == 1:
                x[i] = lower[i]
            else:
                x[i] = upper[i]
        free = np.array(free, dtype=int)
        if free.size:
            fixed = np.setdiff1d(np.arange(n), free)
            rhs = -(gradient[free] + hessian[np.ix_(free, fixed)] @ x[fixed])
            try:
                x[free] = np.linalg.solve(hessian[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
        if np.any(x < lower - 1e-12) or np.any(x > upper + 1e-12):
            continue
        obj = box_qp_objective(hessian, gradient, np.clip(x, lower, upper))
        if obj < best_obj:
            best_obj = obj
            best_x = np.clip(x, lower, upper)
    return best_x, best_obj


def _axis_grids(center, half_span, lower, upper, points):
    axes = []
    for c, lo, hi in zip(center, lower, upper):
        a = max(lo, c - half_span)
        b = min(hi, c + half_span)
        if b <= a:
            a, b = max(lo, min(a, hi)), min(hi, max(b, lo))
        axes.append(np.linspace(a, b, points))
    return axes


def grid_search_box_qp(hessian, gradient, lower, upper, step=0.01, points=None):
    """Grid minimizer refined level by level down to `step` spacing.

    A full flat lattice at 0.01 spacing over [0, 180]^m is astronomically
    large, so the exhaustive search is run coarse-to-fine: evaluate a full
    grid, keep a +/-2-cell window around the best point, and repeat until
    the spacing reaches `step`.  For these strictly convex objectives the
    window always brackets the minimizer, so the result matches what the
    flat exhaustive lattice would return to within one final-level cell.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = len(gradient)
    if points is None:
        points = {1: 101, 2: 41, 3: 21, 4: 13}.get(n, 9)
    axes = [np.linspace(lo, hi, points) for lo, hi in zip(lower, upper)]
    best_x = None
    while True:
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)
        objs = box_qp_objective(hessian, gradient, grid)
        best_x = grid[int(np.argmin(objs))]
        spacing = max(float(a[1] - a[0]) if len(a) > 1 else 0.0 for a in axes)
        if spacing <= step:
            break
        axes = _axis_grids(best_x, 2.0 * spacing, lower, upper, points)
    return best_x, float(box_qp_objective(hessian, gradient, best_x))


def sample_wrench_directions(count: int, torque_scale: float = 1.0) -> np.ndarray:
    """Deterministic low-discrepancy unit wrench directions.

    A Halton sequence is pushed through the inverse normal CDF and
    normalized, giving well-spread points on the 5-sphere; torque
    components are then scaled by the lever length so the directions have
    unit weighted norm.
    """
    sampler = qmc.Halton(d=6, scramble=False)
    sampler.fast_forward(1)  # the first Halton point is the origin corner
    z = ndtri(np.clip(sampler.random(count), 1e-12, 1 - 1e-12))
    directions = z / np.linalg.norm(z, axis=1, keepdims=True)
    directions[:, 3:] *= torque_scale
    return directions


def reach(wire_matrix, lower, upper, direction) -> float:
    """Largest alpha with W f = alpha * direction and lower <= f <= upper.

    One LP; 0 where no alpha >= 0 is reachable.
    """
    m = wire_matrix.shape[1]
    cost = np.zeros(m + 1)
    cost[m] = -1.0
    eq = np.hstack([wire_matrix, -np.asarray(direction)[:, None]])
    box = list(zip(lower, upper)) + [(0.0, None)]
    result = linprog(cost, A_eq=eq, b_eq=np.zeros(6), bounds=box, method="highs")
    return float(result.x[m]) if result.success else 0.0


def sampled_margin(wire_matrix, lower, upper, count: int, torque_scale: float = 1.0) -> float:
    """Smallest reach over sampled unit wrench directions: an upper bound on the margin."""
    return min(
        reach(wire_matrix, lower, upper, direction)
        for direction in sample_wrench_directions(count, torque_scale)
    )


def random_spd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T + n * np.eye(n))


def random_wire_matrix(rng, m, lever=0.3):
    """Random wire matrix with unit direction columns and bounded levers."""
    dirs = rng.normal(size=(3, m))
    dirs /= np.linalg.norm(dirs, axis=0, keepdims=True)
    levers = rng.uniform(-lever, lever, size=(3, m))
    torque = np.cross(levers.T, dirs.T).T
    return np.vstack([dirs, torque])


def allocation_qp_terms(wire_matrix, wrench, weights):
    """Hessian/gradient of |f|^2 + (w - Wf)' L (w - Wf) in standard form."""
    w = np.asarray(wire_matrix, dtype=float)
    lam = np.asarray(weights, dtype=float)
    hessian = 2.0 * (np.eye(w.shape[1]) + w.T @ lam @ w)
    gradient = -2.0 * (w.T @ lam @ np.asarray(wrench, dtype=float))
    return hessian, gradient


def _sign(x: float) -> float:
    return float((x > 0) - (x < 0))


def compensate_per_wire(tensions, accel_ref, rates, wire_matrix, winch):
    """Winch compensation one wire at a time, in plain Python floats.

    Wire i's length accelerates at -(column_i . accel_ref); the drum turns
    at -rate/r, and the compensation tension is
    (J alpha + sign(w) tau_c + b w) / r, clamped at zero.
    """
    out = []
    for i, tension in enumerate(tensions):
        length_accel = -sum(float(wire_matrix[k][i]) * float(accel_ref[k]) for k in range(6))
        r = winch.pulley_radius
        drum_speed = -float(rates[i]) / r
        drum_accel = -length_accel / r
        friction = _sign(drum_speed) * winch.coulomb_friction + winch.viscous_friction * drum_speed
        torque = winch.rotor_inertia * drum_accel + friction
        out.append(max(float(tension) + torque / r, 0.0))
    return out


def _hamilton(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def wire_length(anchor, position, orientation, exit_body):
    """norm(anchor - (p + R e)), rotating e by the quaternion sandwich q e q*."""
    w, x, y, z = (float(v) for v in orientation)
    rotated = _hamilton(_hamilton((w, x, y, z), (0.0, *map(float, exit_body))), (w, -x, -y, -z))
    span = [float(anchor[k]) - (float(position[k]) + rotated[k + 1]) for k in range(3)]
    return sum(s * s for s in span) ** 0.5


def _telemetry_field(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def telemetry_row(tick_index, state, tick, fault) -> str:
    """One format-1 telemetry line, built one value at a time.

    Each value is formatted by its type: flags as 1/0, integers with
    `str`, everything else as `repr(float(value))`.
    """
    values = [1, tick_index, tick.timestamp]
    for pose, twist in (
        (state.pose, state.twist),
        (tick.pose, tick.twist),
        (tick.pose_ref, tick.twist_ref),
    ):
        values += list(pose.position) + list(pose.orientation)
        values += list(twist.linear) + list(twist.angular)
    values += list(tick.accel_ref)
    values += list(tick.feedback_wrench.as_array())
    values += list(tick.gravity_wrench.as_array())
    values += list(tick.desired_wrench.as_array())
    values += list(tick.tensions)
    values += list(tick.tensions_final)
    values += list(tick.currents)
    values += list(state.tensions)
    values += [bool(v) for v in tick.saturated]
    values += [tick.residual_norm, fault]
    return ",".join(_telemetry_field(v) for v in values) + "\n"
