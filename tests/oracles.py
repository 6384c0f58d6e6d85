"""Independent reference implementations used only by the test suite.

Nothing in here may call into the solver code it is checking: the QP
oracles work by exhaustive enumeration / grid search, and the wrench
oracle accumulates per-wire forces one wire at a time.

The `reference_*` kernels are the plain formulations of the library's
hot-path kernels: elementwise numpy for the rotation cores and the
command tail, and Python floats for every sum the tick writes, each
summed in the same fixed order as the library (`ordered_sum` from the
first term, `reference_product` from 0.0): the lever rotation in
`reference_levers`, the wire matrix, `reference_wire_wrench`, the
allocation's H and g (`reference_allocation_terms`), the compensation
projection, the residual norm, and `reference_solve_box_qp` with
`reference_kkt_residual`, which factor afresh at every solve.  The
library computes the same values with less per-call overhead; the tests
hold it to these bit for bit, one kernel at a time and end to end
through a whole run.  The BLAS formulations the library replaced
(`numpy_levers` and `numpy_wire_jacobian`, `allocation_qp_terms`,
`numpy_projection`, `numpy_solve_box_qp`, and `np.linalg.norm` for the
residual norm) round as the BLAS kernel does, so the tests hold the
library to them within a tolerance.  `numpy_table_tensions` is schedule
mode's table on arrays, held bit for bit.
`ReferenceOdometrySensor` is the sensor with its noise drawn as four
calls a tick, where the library makes one.  Six exceptions
agree to rounding only: `reference_facet_normals`, an SVD where the
library factors by QR (held to 1e-12); `reference_step`, the plant
step on numpy arrays with `np.linalg.solve` on the inertia, where the
library runs Python floats and a precomputed inverse (held to 1e-12
relative); `reference_quat_normalize`, the `np.linalg.norm`
normalization `quat_unit` replaced (2 ulps); `reference_rotvec_log`,
whose `np.arctan2` can round apart from `math.atan2` (2 ulps);
`reference_so3_left_jacobian_and_dot`, the 3 x 3 matrices `chart_rates`
replaced (32 ulps of the terms' scale); and `so3_left_jacobian_inv`, the
matrix `chart_rate` replaced (1e-14 relative).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.special import ndtri
from scipy.stats import qmc

from wiredrive.allocation import TensionCommand
from wiredrive.errors import DegenerateWire, NumericalBlowup, SolverFailure
from wiredrive.simulator import DEFAULT_SPEED_LIMIT, STANDARD_GRAVITY, OdometrySensor, SimState
from wiredrive.spatial import (
    Pose, Twist, Wrench, attitude_error, hamilton, quat_unit, rotvec_exp
)
from wiredrive.wires import DEGENERACY_THRESHOLD, wire_jacobian, wire_lengths_and_rates


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


def balanced_tensions(wire_matrix, floor: float):
    """Tensions of at least `floor` with W f = 0 and the least sum; None if there are none."""
    m = wire_matrix.shape[1]
    result = linprog(np.ones(m), A_eq=wire_matrix, b_eq=np.zeros(6), bounds=[(floor, None)] * m,
                     method="highs")
    return result.x if result.success else None


def sampled_margin(wire_matrix, lower, upper, count: int, torque_scale: float = 1.0) -> float:
    """Smallest reach over sampled unit wrench directions: an upper bound on the margin."""
    return min(
        reach(wire_matrix, lower, upper, direction)
        for direction in sample_wrench_directions(count, torque_scale)
    )


def reference_facet_normals(scaled):
    """(subsets, normals) of the facet scan by one SVD per 5-column block.

    A block counts as rank 5 when sigma_5 > 1e-9 sigma_1, and its last
    left singular vector is its unit normal.  The library's batched QR
    agrees with this to rounding, not bit for bit, and may flip a sign.
    """
    subsets = np.array(list(itertools.combinations(range(scaled.shape[1]), 5)))
    u, svals, _ = np.linalg.svd(scaled[:, subsets].transpose(1, 0, 2))
    spanning = svals[:, 4] > 1e-9 * svals[:, 0]
    return subsets[spanning], u[spanning, :, 5]


def reference_supports(scaled, lower, upper):
    """(subsets, supports): the box's support value along both signs of each reference normal."""
    subsets, normals = reference_facet_normals(scaled)
    projections = np.concatenate([normals, -normals]) @ scaled
    supports = np.maximum(lower * projections, upper * projections).sum(axis=1)
    return np.concatenate([subsets, subsets]), supports


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


def ordered_sum(terms):
    """The sum of `terms` from the first, each addition rounded in order."""
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total = total + term
    return total


def allocation_qp_terms(wire_matrix, wrench, weights):
    """Hessian/gradient of |f|^2 + (w - Wf)' L (w - Wf) in standard form,
    as BLAS products, whose rounding follows the kernel."""
    w = np.asarray(wire_matrix, dtype=float)
    lam = np.asarray(weights, dtype=float)
    hessian = 2.0 * (np.eye(w.shape[1]) + w.T @ lam @ w)
    gradient = -2.0 * (w.T @ lam @ np.asarray(wrench, dtype=float))
    return hessian, gradient


def reference_allocation_terms(wire_matrix, wrench, weights):
    """(H, g) of the same QP as lists of Python floats, with V = sqrt(L) W for
    a diagonal L: H = 2 (I + V'V) and g = -2 V' sqrt(L) w, each entry a sum
    over the six rows in order from the first product."""
    w = np.asarray(wire_matrix, dtype=float).tolist()
    roots = [math.sqrt(v) for v in np.diagonal(np.asarray(weights, dtype=float)).tolist()]
    v = [[roots[k] * entry for entry in w[k]] for k in range(6)]
    scaled = [roots[k] * float(wrench[k]) for k in range(6)]
    m = len(w[0])
    hessian = []
    for i in range(m):
        row = []
        for j in range(m):
            s = ordered_sum(v[k][i] * v[k][j] for k in range(6))
            row.append(2.0 * (1.0 + s) if i == j else 2.0 * s)
        hessian.append(row)
    gradient = [-2.0 * ordered_sum(v[k][i] * scaled[k] for k in range(6)) for i in range(m)]
    return hessian, gradient


def reference_wire_wrench(matrix, tensions):
    """`wires.wire_wrench`: `reference_product` of the matrix rows and the
    tensions, each row summed from 0.0 wire by wire, as a tuple."""
    return tuple(reference_product(matrix, tensions))


def reference_allocate(matrix, wrench, bounds, weights, start=None):
    """`allocation.allocate` plainly: `reference_allocation_terms`,
    `reference_solve_box_qp`, and the residual w - `reference_wire_wrench`."""
    hessian, gradient = reference_allocation_terms(matrix, wrench.as_array(), weights.matrix)
    tensions, _, _ = reference_solve_box_qp(hessian, gradient, bounds.lower, bounds.upper,
                                            start=start)
    achieved = reference_wire_wrench(matrix, tensions)
    return tensions, tuple(w - a for w, a in zip(wrench.as_array().tolist(), achieved))


def numpy_table_tensions(table, t, lower, upper):
    """Schedule mode's table tensions at run time t as they were computed on
    arrays: `np.searchsorted` finds the row, the two rows are interpolated
    as arrays, and `np.clip` clips the result to the box."""
    times = np.array([row[0] for row in table])
    rows = [np.asarray(row[1]) for row in table]
    if t <= times[0]:
        values = rows[0]
    elif t >= times[-1]:
        values = rows[-1]
    else:
        hi = int(np.searchsorted(times, t))
        w = (t - times[hi - 1]) / (times[hi] - times[hi - 1])
        values = (1.0 - w) * rows[hi - 1] + w * rows[hi]
    return np.clip(values, lower, upper)


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


def reference_projection(matrix, accel):
    """matrix' accel as an array: per wire, its column times the acceleration
    summed over the six rows in order from the first product."""
    rows, accel = np.asarray(matrix, dtype=float).tolist(), np.asarray(accel, dtype=float).tolist()
    return np.array([ordered_sum(rows[k][i] * accel[k] for k in range(6))
                     for i in range(len(rows[0]))])


def numpy_projection(matrix, accel):
    """matrix' accel as the BLAS product `compensate` used to take."""
    return np.asarray(matrix, dtype=float).T @ np.asarray(accel, dtype=float).reshape(6)


def reference_compensate(tensions, accel_ref, rates, matrix, winch, project=reference_projection):
    """`allocation.compensate` on numpy arrays after `project`: `np.sign` and
    `np.maximum`, as a tuple of floats."""
    tensions = np.asarray(tensions, dtype=float)
    length_accel = -project(matrix, accel_ref)
    r = winch.pulley_radius
    drum_speed = -np.asarray(rates, dtype=float) / r
    drum_accel = -length_accel / r
    inertia_torque = winch.rotor_inertia * drum_accel
    friction_torque = (
        np.sign(drum_speed) * winch.coulomb_friction
        + winch.viscous_friction * drum_speed
    )
    return tuple(np.maximum(tensions + (inertia_torque + friction_torque) / r, 0.0).tolist())


def reference_to_currents(tensions, winch):
    """`allocation.to_currents` on numpy arrays."""
    tensions = np.asarray(tensions, dtype=float)
    if np.any(tensions < 0):
        raise ValueError("tensions must be non-negative")
    return winch.current_per_newton * tensions


def reference_tension_command(tensions, final, residual, bounds, winch):
    """`allocation.tension_command` with the array current map, and the
    residual norm the root of the sum of squares in order from the first."""
    return TensionCommand(
        tensions=tensions,
        tensions_final=final,
        currents=reference_to_currents(final, winch),
        residual_norm=math.sqrt(ordered_sum(float(r) * float(r) for r in residual)),
        saturated=bounds.saturated(tensions),
    )


class ReferenceOdometrySensor(OdometrySensor):
    """`OdometrySensor` drawing its noise as four `normal(size=3)` calls a
    tick: position, rotation, velocity, angular velocity.  The noisy
    attitude is the library's: normalized once, by `quat_unit`."""

    def measure(self, state):
        self._buffer.append(state)
        delayed = self._buffer[0]
        m = self.model
        position = np.asarray(delayed.pose.position) + self._draw(m.position_noise)
        orientation = quat_unit(hamilton(
            rotvec_exp(self._draw(m.rotation_noise).tolist()), delayed.pose.orientation
        ))
        linear = np.asarray(delayed.twist.linear) + self._draw(m.velocity_noise)
        angular = np.asarray(delayed.twist.angular) + self._draw(m.angular_velocity_noise)
        return Pose(position, orientation), Twist(linear, angular)

    def _draw(self, std):
        return std * self._rng.normal(size=3)


def _hamilton(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _conjugate(q):
    w, x, y, z = (float(v) for v in q)
    return (w, -x, -y, -z)


def _sandwich(q, v):
    """A 3-vector rotated by the quaternion sandwich q v q*."""
    q = tuple(float(c) for c in q)
    return _hamilton(_hamilton(q, (0.0, *map(float, v))), _conjugate(q))[1:]


def transform_point(pose, p_body):
    """A body-frame point in the world frame: p + q p_body q*."""
    return np.asarray(pose.position) + _sandwich(pose.orientation, p_body)


def poses_almost_equal(a, b, tol: float = 1e-9) -> bool:
    """Positions within tol of each other, and orientations within tol rad."""
    if np.linalg.norm(np.subtract(a.position, b.position)) > tol:
        return False
    w, x, y, z = _hamilton(a.orientation, _conjugate(b.orientation))
    return 2.0 * math.atan2(math.sqrt(x * x + y * y + z * z), abs(w)) <= tol


def wire_length(anchor, position, orientation, exit_body):
    """norm(anchor - (p + R e)), rotating e by the quaternion sandwich q e q*."""
    rotated = _sandwich(orientation, exit_body)
    span = [float(anchor[k]) - (float(position[k]) + rotated[k]) for k in range(3)]
    return sum(s * s for s in span) ** 0.5


def _telemetry_field(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def telemetry_row(tick_index, t, state, meas_pose, meas_twist, tick, fault) -> str:
    """One format-1 telemetry line, built one value at a time.

    Each value is formatted by its type: flags as 1/0, integers with
    `str`, everything else as `repr(float(value))`.
    """
    values = [1, tick_index, t]
    for pose, twist in (
        (state.pose, state.twist),
        (meas_pose, meas_twist),
        (tick.pose_ref, tick.twist_ref),
    ):
        values += list(pose.position) + list(pose.orientation)
        values += list(twist.linear) + list(twist.angular)
    values += list(tick.accel_ref)
    values += list(tick.feedback_wrench.as_array())
    values += list(tick.gravity_wrench.as_array())
    values += list(tick.desired_wrench.as_array())
    values += list(tick.command.tensions)
    values += list(tick.command.tensions_final)
    values += list(tick.command.currents)
    values += list(state.tensions)
    values += [bool(v) for v in tick.command.saturated]
    values += [tick.command.residual_norm, fault]
    return ",".join(_telemetry_field(v) for v in values) + "\n"


def reference_quat_multiply(a, b):
    """Hamilton product evaluated on numpy float64 scalars."""
    aw, ax, ay, az = np.asarray(a, dtype=float)
    bw, bx, by, bz = np.asarray(b, dtype=float)
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def reference_quat_to_matrix(q):
    """Rotation matrix of a unit quaternion, evaluated on numpy float64 scalars."""
    w, x, y, z = np.asarray(q, dtype=float)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def reference_rotation_rows(q):
    """`rotation_rows`: `reference_quat_to_matrix`'s rows as tuples."""
    return tuple(tuple(row) for row in reference_quat_to_matrix(q).tolist())


def skew(v):
    """The cross-product matrix [v]x, with [v]x u = v x u."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


# Taylor coefficients in t^2 of the chart coefficients (a, b, a'/t, b'/t,
# c), six each, derived from the series of cos, sin and, for
# c = (1 - (t/2) cot(t/2)) / t^2 = sum |B_2n| t^(2n-2) / (2n)!, the
# Bernoulli numbers |B_2| .. |B_12|
_BERNOULLI = [Fraction(1, 6), Fraction(1, 30), Fraction(1, 42), Fraction(1, 30),
              Fraction(5, 66), Fraction(691, 2730)]
_CHART_TAYLOR = [
    [Fraction((-1) ** k, math.factorial(2 * k + 2)) for k in range(6)],
    [Fraction((-1) ** k, math.factorial(2 * k + 3)) for k in range(6)],
    [Fraction((-1) ** k * 2 * k, math.factorial(2 * k + 2)) for k in range(1, 7)],
    [Fraction((-1) ** k * 2 * k, math.factorial(2 * k + 3)) for k in range(1, 7)],
    [b / math.factorial(2 * n) for n, b in enumerate(_BERNOULLI, 1)],
]


def reference_chart_coefficients(t):
    """`spatial._chart_coefficients` on numpy float64 scalars, `np.sin`,
    and series terms derived above rather than typed out."""
    t = np.float64(t)
    if t < 0.5:
        out = []
        for series in _CHART_TAYLOR:
            value = np.float64(0.0)
            for coefficient in reversed(series):
                value = value * (t * t) + float(coefficient)
            out.append(value)
        return tuple(out)
    sin, sin_half = np.sin(t), np.sin(0.5 * t)
    one_minus_cos = 2.0 * sin_half * sin_half
    a, b = one_minus_cos / (t * t), (t - sin) / (t * t * t)
    return (a, b, (sin / t - 2.0 * a) / (t * t), (a - 3.0 * b) / (t * t),
            (1.0 - 0.5 * t * sin / one_minus_cos) / (t * t))


def so3_left_jacobian_inv(rv):
    """The inverse left Jacobian of SO(3) as a 3 x 3 matrix,
    I - [rv]x / 2 + c [rv]x^2: the numpy formulation `chart_rate` replaced."""
    rv = np.asarray(rv, dtype=float)
    k = skew(rv)
    c = reference_chart_coefficients(np.linalg.norm(rv))[4]
    return np.eye(3) - 0.5 * k + c * (k @ k)


def reference_quat_unit(q):
    """`quat_unit` on numpy float64 scalars: `np.sqrt` of the in-order sum
    of squares, one array division, and the sign flip."""
    w, x, y, z = np.asarray(q, dtype=float).reshape(4)
    norm = np.sqrt(w * w + x * x + y * y + z * z)
    if not 1e-12 <= norm < np.inf:
        raise ValueError(f"quaternion norm {norm} is not usable")
    q = np.array([w, x, y, z]) / norm
    return tuple((-q if q[0] < 0.0 else q).tolist())


def reference_rotvec_log(q):
    """`rotvec_log` on numpy float64 scalars, with `np.arctan2`.  That may
    differ from `math.atan2` in the last bit away from the identity."""
    w, x, y, z = np.asarray(q, dtype=float)
    v = np.array([x, y, z])
    sin_half = np.sqrt(x * x + y * y + z * z)
    if sin_half < 1e-10:
        return tuple((2.0 * v).tolist())
    return tuple(((2.0 * np.arctan2(sin_half, min(1.0, w)) / sin_half) * v).tolist())


def reference_chart_rates(rv, rate, accel):
    """`chart_rates` on numpy float64 scalars, `np.cross` and
    `reference_chart_coefficients`."""
    rv, rate, accel = (np.asarray(v, dtype=float) for v in (rv, rate, accel))
    angle = np.sqrt(rv[0] * rv[0] + rv[1] * rv[1] + rv[2] * rv[2])
    a, b, a_prime_over, b_prime_over, _ = reference_chart_coefficients(angle)
    c1 = np.cross(rv, rate)
    c2, d1 = np.cross(rv, c1), np.cross(rv, accel)
    dot = rv[0] * rate[0] + rv[1] * rate[1] + rv[2] * rate[2]
    omega = rate + a * c1 + b * c2
    omega_dot = ((accel + a * d1 + b * np.cross(rv, d1))
                 + dot * (a_prime_over * c1 + b_prime_over * c2) + b * np.cross(rate, c1))
    return tuple(omega.tolist()), tuple(omega_dot.tolist())


def reference_so3_left_jacobian_and_dot(rv, rv_rate):
    """The left Jacobian of SO(3) and its time derivative along rv(t) with
    rate rv_rate, as 3 x 3 matrices from skew(rv) and its square: the
    numpy formulation `chart_rates` replaced.

    w = J_l rv_rate and w_dot = J_l rv_ddot + J_l_dot rv_rate.
    """
    rv = np.asarray(rv, dtype=float)
    rv_rate = np.asarray(rv_rate, dtype=float)
    k = skew(rv)
    k2 = k @ k
    kd = skew(rv_rate)
    a, b, a_prime_over, b_prime_over, _ = reference_chart_coefficients(np.linalg.norm(rv))
    jac = np.eye(3) + a * k + b * k2
    dot = float(rv @ rv_rate)
    jac_dot = dot * (a_prime_over * k + b_prime_over * k2) + a * kd + b * (kd @ k + k @ kd)
    return jac, jac_dot


def reference_wrench_error_pid(pose, twist, pose_ref, twist_ref, gains, state, dt):
    """`wrench_error_pid` on arrays, with `np.clip` for the integral clamp."""
    err = np.concatenate([np.subtract(pose_ref.position, pose.position),
                          attitude_error(pose_ref.orientation, pose.orientation)])
    derr = twist_ref.as_array() - twist.as_array()
    limit = np.array(gains.integral_limit)
    integral = np.clip(np.asarray(state.integral) + err * dt, -limit, limit)
    state.integral = tuple(integral.tolist())
    out = np.array(gains.kp) * err + np.array(gains.ki) * integral + np.array(gains.kd) * derr
    return Wrench.from_array(out)


def reference_quat_normalize(q):
    """The array normalization `quat_unit` replaced: `np.linalg.norm`, whose
    dot product may round differently from the in-order sum of squares."""
    arr = np.asarray(q, dtype=float).reshape(4)
    norm = float(np.linalg.norm(arr))
    if not np.isfinite(norm) or norm < 1e-12:
        raise ValueError(f"quaternion norm {norm} is not usable")
    arr = arr / norm
    if arr[0] < 0.0:
        arr = -arr
    return arr


def reference_quat_from_rotvec(rv):
    """Exponential map on numpy arrays: `np.linalg.norm` angle, numpy sin and
    cos, normalized by `reference_quat_normalize`."""
    rv = np.asarray(rv, dtype=float)
    angle = float(np.linalg.norm(rv))
    if angle < 1e-10:
        q = np.concatenate(([1.0 - angle * angle / 8.0], 0.5 * rv))
    else:
        q = np.concatenate(([np.cos(0.5 * angle)], np.sin(0.5 * angle) / angle * rv))
    return reference_quat_normalize(q)


def tensions_from_currents(currents, winch):
    """Inverse of the current map, on arrays."""
    return np.asarray(currents, dtype=float) / winch.current_per_newton


def reference_step(state, currents, dt, body, attachments, winch,
                   gravity=STANDARD_GRAVITY, speed_limit=DEFAULT_SPEED_LIMIT):
    """`simulator.step` on numpy arrays, solving with the inertia each call.

    The current map and slack rule run on arrays (`np.maximum`,
    `np.minimum`, `np.where`), where the library runs one float loop, and
    must give the same tension bits; the wire kinematics calls are the
    library's, and the wrench is `reference_wire_wrench` (a BLAS product
    rounds apart from it, and where the torques cancel, the rotation rates
    that follow differ by more than 1e-12 relative).  After the wrench,
    numpy 3-vectors, `np.linalg.norm` speed checks, and the new attitude
    normalized by `reference_quat_normalize` twice: the step's rotation in
    `reference_quat_from_rotvec`, and the product, which `Pose` then keeps
    as unit.
    """
    if not 0.0 < dt <= 0.01:
        raise ValueError("dt must lie in (0, 0.01] seconds")
    currents = np.asarray(currents, dtype=float)
    tensions = tensions_from_currents(np.maximum(currents, 0.0), winch)
    tensions = np.minimum(tensions, winch.max_tension)
    _, rates = wire_lengths_and_rates(state.pose, state.twist, attachments)
    tensions = np.where(np.abs(rates) > winch.max_line_speed, 0.0, tensions)

    wrench = np.array(reference_wire_wrench(wire_jacobian(state.pose, attachments), tensions))
    force = wrench[:3] + np.array([0.0, 0.0, -body.mass * gravity])
    linear, angular = np.asarray(state.twist.linear), np.asarray(state.twist.angular)
    velocity_new = linear + dt * (force / body.mass)
    rot = reference_quat_to_matrix(state.pose.orientation)
    omega_body = rot.T @ angular
    inertia = np.array(body.inertia)
    omega_dot = np.linalg.solve(
        inertia, rot.T @ wrench[3:] - np.cross(omega_body, inertia @ omega_body)
    )
    omega_new = rot @ (omega_body + dt * omega_dot)
    if not (np.linalg.norm(velocity_new) <= speed_limit
            and np.linalg.norm(omega_new) <= speed_limit):
        raise NumericalBlowup(f"body speed exceeded {speed_limit} or is not finite")
    position_new = np.asarray(state.pose.position) + 0.5 * dt * (linear + velocity_new)
    rotvec_step = 0.5 * dt * (angular + omega_new)
    orientation_new = reference_quat_normalize(reference_quat_multiply(
        reference_quat_from_rotvec(rotvec_step), state.pose.orientation))
    return SimState(Pose(position_new, orientation_new), Twist(velocity_new, omega_new),
                    tensions, state.time + dt)


def reference_levers(pose, attachments):
    """The body exit offsets rotated into the world frame, (m, 3): each entry a
    row of `reference_quat_to_matrix` times the offset, summed in order from
    the first product."""
    rot = reference_quat_to_matrix(pose.orientation).tolist()
    offsets = [np.asarray(w.exit_body, dtype=float).tolist() for w in attachments]
    return np.array([[ordered_sum(r * e for r, e in zip(row, offset)) for row in rot]
                     for offset in offsets]).reshape(-1, 3)


def numpy_levers(pose, attachments):
    """The levers as the BLAS product `exits @ R'` they once were; its rounding
    follows the kernel."""
    exits = np.array([w.exit_body for w in attachments], dtype=float).reshape(-1, 3)
    return exits @ reference_quat_to_matrix(pose.orientation).T


def reference_geometry(pose, attachments, rotate=reference_levers):
    """The wire geometry on (m, 3) arrays: (directions, lengths, levers,
    exits_world), with `rotate`'s levers, `np.linalg.norm` lengths and a
    scan of every wire."""
    levers = rotate(pose, attachments)
    exits_world = np.asarray(pose.position) + levers
    spans = np.array([w.anchor_world for w in attachments]).reshape(-1, 3) - exits_world
    lengths = np.linalg.norm(spans, axis=1)
    for i, n in enumerate(lengths):
        if n <= DEGENERACY_THRESHOLD:
            raise DegenerateWire(i, float(n))
    return spans / lengths[:, None], lengths, levers, exits_world


def numpy_wire_jacobian(pose, attachments, rotate=numpy_levers):
    """The 6 x m wire matrix as an array stacked from `reference_geometry`."""
    directions, _, levers, _ = reference_geometry(pose, attachments, rotate)
    return np.hstack([directions, np.cross(levers, directions)]).T.copy()


def reference_wire_jacobian(pose, attachments):
    """`wires.wire_jacobian`: `numpy_wire_jacobian` on the fixed-order levers,
    as six row tuples of floats."""
    matrix = numpy_wire_jacobian(pose, attachments, rotate=reference_levers)
    return tuple(map(tuple, matrix.tolist()))


def reference_wire_lengths_and_rates(pose, twist, attachments):
    """`wires.wire_lengths_and_rates` on arrays, returned as the library's
    float tuples.  The rate lever is the world exit point minus the body
    center, not the rotated lever (they can differ in the last bit), and
    each rate is summed in a fixed order, unlike `np.einsum`, whose order
    follows the memory layout."""
    directions, lengths, _, exits_world = reference_geometry(pose, attachments)
    v = np.asarray(twist.linear) + np.cross(twist.angular, exits_world - pose.position)
    d = directions
    rates = -(d[:, 0] * v[:, 0] + d[:, 1] * v[:, 1] + d[:, 2] * v[:, 2])
    return tuple(lengths.tolist()), tuple(rates.tolist())


def _nan_or_max(values):
    values = list(values)
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def reference_product(hessian, x):
    """H x as a list, each row summed in index order from 0.0: the fixed
    order no BLAS keeps, written out one multiply and one add at a time."""
    hessian, x = np.asarray(hessian, dtype=float).tolist(), np.asarray(x, dtype=float).tolist()
    out = []
    for i in range(len(hessian)):
        total = 0.0
        for k in range(len(x)):
            total = total + hessian[i][k] * x[k]
        out.append(total)
    return out


def reference_kkt_residual(hessian, gradient, x, lower, upper, tol=1e-9):
    """Relative KKT residual, one entry at a time in Python floats.

    Entry i contributes its stationarity violation over 1 + |g|_inf: |g_i|
    if free, -g_i if at the lower bound only, g_i if at the upper bound
    only, and 0 * g_i if within `tol` of both (fixed: its multiplier may
    take either sign); and its distance outside the box.  The gradient is
    `reference_product(H, x) + g`.
    The residual is the largest contribution, at least 0, and NaN if any
    contribution is.
    """
    gradient = np.asarray(gradient, dtype=float).tolist()
    grad = [p + g for p, g in zip(reference_product(hessian, x), gradient)]
    scale = 1.0 + _nan_or_max([0.0] + [abs(g) for g in gradient])
    terms = [0.0]
    for g, xi, lo, hi in zip(grad, np.asarray(x, dtype=float).tolist(),
                             np.asarray(lower, dtype=float).tolist(),
                             np.asarray(upper, dtype=float).tolist()):
        at_lower = xi <= lo + tol * max(1.0, abs(lo))
        at_upper = xi >= hi - tol * max(1.0, abs(hi))
        if at_lower and at_upper:
            stationarity = 0.0 * g
        elif not (at_lower or at_upper):
            stationarity = abs(g)
        else:
            stationarity = -g if at_lower else g
        terms += [stationarity / scale, lo - xi, xi - hi]
    return _nan_or_max(terms)


def reference_cholesky_solve(a, b, name):
    """Solve a y = b for a symmetric positive-definite list of lists `a`:
    factor a = L L' afresh (Cholesky-Banachiewicz, Golub & Van Loan section
    4.2), then substitute forward and back, every sum in index order.  A
    pivot that is not positive raises SolverFailure naming `name`."""
    n = len(b)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = a[i][j]
            for k in range(j):
                s = s - low[i][k] * low[j][k]
            if j < i:
                low[i][j] = s / low[j][j]
            elif s > 0.0:
                low[i][i] = math.sqrt(s)
            else:
                raise SolverFailure(f"{name} is not positive definite")
    y = [0.0] * n
    for i in range(n):
        s = b[i]
        for k in range(i):
            s = s - low[i][k] * y[k]
        y[i] = s / low[i][i]
    out = [0.0] * n
    for i in reversed(range(n)):
        s = y[i]
        for k in range(i + 1, n):
            s = s - low[k][i] * out[k]
        out[i] = s / low[i][i]
    return out


def _reference_clip(v, lo, hi):
    return hi if v > hi else lo if v < lo else v


def reference_solve_box_qp(hessian, gradient, lower, upper, start=None, max_iter=None, tol=1e-8):
    """`qp.solve_box_qp` on Python floats, plainly: each solve factors its
    block afresh with `reference_cholesky_solve`, and every gradient is the
    whole `reference_product`.  The library reuses one factor per free set
    and sums only the rows it reads; the tests hold it to this bit for bit."""
    n = np.asarray(gradient).shape[0]
    h = np.asarray(hessian, dtype=float).tolist()
    g = np.asarray(gradient, dtype=float).tolist()
    lower = np.broadcast_to(np.asarray(lower, dtype=float), (n,)).tolist()
    upper = np.broadcast_to(np.asarray(upper, dtype=float), (n,)).tolist()
    if any(lower[i] > upper[i] for i in range(n)):
        raise ValueError("lower bound exceeds upper bound")
    if max_iter is None:
        max_iter = max(10 * n, 30)
    if start is None:
        start = reference_cholesky_solve(h, [-v for v in g], "Hessian")
    start = np.broadcast_to(np.asarray(start, dtype=float), (n,)).tolist()
    x = [_reference_clip(start[i], lower[i], upper[i]) for i in range(n)]
    at = [-1 if x[i] <= lower[i] else 1 if x[i] >= upper[i] else 0 for i in range(n)]

    def gradient_at(x):
        return [p + gi for p, gi in zip(reference_product(h, x), g)]

    for iterations in range(1, max_iter + 1):
        free = [i for i in range(n) if at[i] == 0]
        fixed = [i for i in range(n) if at[i] != 0]
        if free:
            rhs = []
            for i in free:
                pull = 0.0
                for j in fixed:
                    pull = pull + h[i][j] * x[j]
                rhs.append(-(g[i] + pull))
            block = [[h[i][j] for j in free] for i in free]
            target = reference_cholesky_solve(block, rhs, "free-block Hessian")
            delta = [target[k] - x[i] for k, i in enumerate(free)]
            if _nan_or_max(abs(d) for d in delta) > 1e-14:
                alpha, blocker, side = 1.0, -1, 0
                for k, i in enumerate(free):
                    if delta[k] > 0 and upper[i] < math.inf:
                        a = (upper[i] - x[i]) / delta[k]
                        if a < alpha - 1e-15:
                            alpha, blocker, side = a, i, 1
                    elif delta[k] < 0 and lower[i] > -math.inf:
                        a = (lower[i] - x[i]) / delta[k]
                        if a < alpha - 1e-15:
                            alpha, blocker, side = a, i, -1
                alpha = max(alpha, 0.0)
                for k, i in enumerate(free):
                    x[i] = x[i] + alpha * delta[k]
                if blocker >= 0:
                    at[blocker] = side
                    x[blocker] = upper[blocker] if side > 0 else lower[blocker]
                    continue
        grad = gradient_at(x)
        lam = [-at[i] * grad[i] if at[i] else math.inf for i in range(n)]
        worst = int(np.argmin(lam))
        if lam[worst] < -1e-11 * (1.0 + _nan_or_max(abs(v) for v in g)):
            at[worst] = 0
            continue
        break
    else:
        raise SolverFailure(f"active set did not converge in {max_iter} iterations")
    free = [i for i in range(n) if at[i] == 0]
    if free:
        block = [[h[i][j] for j in free] for i in free]
        for _ in range(2):
            grad = gradient_at(x)
            correction = reference_cholesky_solve(block, [grad[i] for i in free],
                                                  "free-block Hessian")
            for k, i in enumerate(free):
                x[i] = x[i] - correction[k]
    x = tuple(_reference_clip(x[i], lower[i], upper[i]) for i in range(n))
    residual = reference_kkt_residual(hessian, gradient, x, lower, upper)
    if not residual <= tol:
        raise SolverFailure(f"KKT residual {residual:.3e} above tolerance {tol:.1e}")
    return x, iterations, residual


def numpy_solve_box_qp(hessian, gradient, lower, upper, start=None, max_iter=None, tol=1e-8):
    """The solver as it stood on numpy: `np.linalg.solve` on `np.ix_`
    blocks and BLAS products, whose rounding follows the BLAS kernel, so
    the tests hold the library to it within a tolerance, not bit for bit.
    Its final check is `reference_kkt_residual`."""
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
        start = np.linalg.solve(hessian, -gradient)
    x = np.clip(np.asarray(start, dtype=float).copy(), lower, upper)
    at_lower = x <= lower
    at_upper = (x >= upper) & ~at_lower
    for iterations in range(1, max_iter + 1):
        free = ~(at_lower | at_upper)
        stepped = False
        if free.any():
            rhs = -(gradient[free] + hessian[np.ix_(free, ~free)] @ x[~free])
            delta = np.linalg.solve(hessian[np.ix_(free, free)], rhs) - x[free]
            if np.max(np.abs(delta)) > 1e-14:
                idx = np.flatnonzero(free)
                alpha, blocker, blocker_upper = 1.0, -1, False
                for k, j in enumerate(idx):
                    if delta[k] > 0 and upper[j] < np.inf:
                        a = (upper[j] - x[j]) / delta[k]
                        if a < alpha - 1e-15:
                            alpha, blocker, blocker_upper = a, j, True
                    elif delta[k] < 0 and lower[j] > -np.inf:
                        a = (lower[j] - x[j]) / delta[k]
                        if a < alpha - 1e-15:
                            alpha, blocker, blocker_upper = a, j, False
                alpha = max(alpha, 0.0)
                x[idx] += alpha * delta
                if blocker >= 0:
                    if blocker_upper:
                        x[blocker] = upper[blocker]
                        at_upper[blocker] = True
                    else:
                        x[blocker] = lower[blocker]
                        at_lower[blocker] = True
                    stepped = True
        if stepped:
            continue
        grad = hessian @ x + gradient
        lam = np.where(at_lower, grad, np.where(at_upper, -grad, np.inf))
        worst = int(np.argmin(lam))
        if lam[worst] < -1e-11 * (1.0 + np.max(np.abs(gradient))):
            at_lower[worst] = False
            at_upper[worst] = False
            continue
        break
    else:
        raise SolverFailure(f"active set did not converge in {max_iter} iterations")
    free = ~(at_lower | at_upper)
    if free.any():
        h_ff = hessian[np.ix_(free, free)]
        for _ in range(2):
            grad = hessian @ x + gradient
            x[free] -= np.linalg.solve(h_ff, grad[free])
        x = np.clip(x, lower, upper)
    residual = reference_kkt_residual(hessian, gradient, x, lower, upper)
    if not residual <= tol:
        raise SolverFailure(f"KKT residual {residual:.3e} above tolerance {tol:.1e}")
    return x, iterations, residual


# library kernel -> its reference formulation, by "module.name"
REFERENCE_KERNELS = {
    "spatial.hamilton": reference_quat_multiply,
    "spatial.rotation_rows": reference_rotation_rows,
    "spatial.quat_unit": reference_quat_unit,
    "spatial.rotvec_log": reference_rotvec_log,
    "spatial.chart_rates": reference_chart_rates,
    "wires.wire_jacobian": reference_wire_jacobian,
    "wires.wire_lengths_and_rates": reference_wire_lengths_and_rates,
    "wires.wire_wrench": reference_wire_wrench,
    # with reference_solve_box_qp and its own reference_kkt_residual
    "allocation.allocate": reference_allocate,
    "allocation.tension_command": reference_tension_command,
}
