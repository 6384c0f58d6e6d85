"""Tension allocation: desired wrench -> bounded per-wire tensions -> currents.

The allocator minimizes |f|^2 + (w - Wf)' L (w - Wf) over the tension box,
a strictly convex QP solved by the dense active-set method in `qp`.  The
|f|^2 term keeps the null-space component small; L sets how hard wrench
tracking is weighted against that regularizer, so its scale is a tuning
surface exposed to scenarios.  Winch-side compensation then adds tension
for reflected rotor inertia and shaft friction, and the current map is a
single constant.  One drivetrain model (`WinchParams`) serves every wire.

All of it runs on Python floats, each number a sum in a fixed order (see
`spatial`).  W is the six rows `wire_jacobian` returns and L is diagonal,
so with V = sqrt(L) W the Hessian is H = 2 (I + V'V), H[i][j] and H[j][i]
one number, and the gradient -2 V' sqrt(L) w.  The residual w - W f is
`wire_wrench`'s sum, as the plant's wrench is.  Tensions, residual and rates are
float tuples, which the functions here read and a `TensionCommand` holds as they
are; any other is read as a file is (`spatial._as_floats`): no bool, exact shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qp import solve_box_qp
from .spatial import Wrench, _as_floats, _checked, _Record, _set_field
from .wires import wire_wrench

DEFAULT_MAX_TENSION = 180.0  # N, continuous rating of one winch
DEFAULT_PRETENSION = 2.0  # N, keeps wires taut; they cannot push
DEFAULT_WEIGHT_SCALE = 1e4
DEFAULT_MAX_LINE_SPEED = 0.242  # m/s
DEFAULT_WINDING_CAPACITY = 5.3  # m


@dataclass(frozen=True, eq=False)
class TensionBounds:
    """Per-wire tension box, 0 <= lower < upper componentwise; an infinite
    upper bound leaves a wire uncapped."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        _set_field(self, "lower", -1, sign="non-negative")
        _set_field(self, "upper", len(self.lower), limitless=True)
        if not all(a < b for a, b in zip(self.lower, self.upper)):
            raise ValueError("lower (minimum tension) must be strictly below upper")

    @classmethod
    def uniform(
        cls, wire_count: int, lower: float = DEFAULT_PRETENSION, upper: float = DEFAULT_MAX_TENSION
    ) -> "TensionBounds":
        return cls((lower,) * wire_count, (upper,) * wire_count)

    def saturated(self, tensions) -> tuple:
        """Per wire, as a tuple: tension within 1e-6 of its upper bound."""
        return tuple(t >= u - 1e-6 for t, u in zip(tensions, self.upper, strict=True))


@dataclass(frozen=True, eq=False)
class AllocationWeights:
    """Diagonal positive-definite 6x6 wrench-residual weight L, the one
    record field held as a (read-only) array; `roots`, not a field, holds
    the square roots of its diagonal as a float 6-tuple."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.array(_checked("matrix", self.matrix, (6, 6)))
        matrix.setflags(write=False)
        diagonal = np.diagonal(matrix)
        if not (np.array_equal(matrix, np.diag(diagonal)) and np.all(diagonal > 0.0)):
            raise ValueError(f"matrix must be diagonal with positive entries, got {matrix}")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "roots", tuple(math.sqrt(v) for v in diagonal.tolist()))

    @classmethod
    def diagonal(
        cls, scale: float = DEFAULT_WEIGHT_SCALE, torque_lever: float = 1.0
    ) -> "AllocationWeights":
        """Diagonal weight with torque rows scaled by 1/lever^2 so a torque
        residual of lever * dF costs the same as a force residual dF."""
        diag = np.array([1.0, 1.0, 1.0] + [1.0 / torque_lever**2] * 3)
        return cls(np.diag(scale * diag))


@dataclass(frozen=True)
class WinchParams:
    """Winch drivetrain constants for the tension/current maps.

    One model serves every wire: all winches share these constants.  The
    current map is i = pulley_radius / (eff_pulley * eff_gear *
    gear_ratio * torque_constant) * tension.  Compensation terms use the
    reflected rotor inertia and a Coulomb + viscous shaft friction model;
    those are placeholders to be overridden per scenario.  Every field is
    stored as a finite float; the last three may be infinite (no limit).
    """

    pulley_radius: float = 0.008  # m (16 mm diameter drum)
    gear_ratio: float = 53.0
    torque_constant: float = 0.014  # Nm/A
    eff_pulley: float = 1.0
    eff_gear: float = 1.0
    rotor_inertia: float = 1e-6  # kg m^2, reflected at the drum shaft
    coulomb_friction: float = 0.002  # Nm
    viscous_friction: float = 1e-4  # Nm s/rad
    max_tension: float = DEFAULT_MAX_TENSION  # N
    max_line_speed: float = DEFAULT_MAX_LINE_SPEED  # m/s
    winding_capacity: float = DEFAULT_WINDING_CAPACITY  # m

    def __post_init__(self):
        for name in ("pulley_radius", "gear_ratio", "torque_constant", "eff_pulley", "eff_gear"):
            _set_field(self, name, sign="positive")
        for name in ("max_tension", "max_line_speed", "winding_capacity"):
            _set_field(self, name, sign="positive", limitless=True)
        for name in ("rotor_inertia", "coulomb_friction", "viscous_friction"):
            _set_field(self, name, sign="non-negative")
        for name in ("eff_pulley", "eff_gear"):
            if not getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in (0, 1]")

    @property
    def current_per_newton(self) -> float:
        return self.pulley_radius / (
            self.eff_pulley * self.eff_gear * self.gear_ratio * self.torque_constant
        )


@dataclass(frozen=True, eq=False)
class TensionCommand(_Record):
    """Full output of one allocation pass."""

    tensions: tuple  # QP solution inside the bounds
    tensions_final: tuple  # after winch compensation, >= 0
    currents: tuple
    residual_norm: float
    saturated: tuple  # of bools: TensionBounds.saturated of the QP tensions
    _tuples = {"tensions": -1, "tensions_final": -1, "currents": -1}

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "saturated", tuple(bool(s) for s in self.saturated))


def allocate(matrix, wrench: Wrench, bounds: TensionBounds, weights: AllocationWeights,
             start=None) -> tuple[tuple, tuple]:
    """Solve the tension-distribution QP for the 6 x m wire matrix.

    Returns the optimal tensions and the wrench residual (desired minus
    achieved), force then torque, as float tuples.  The residual is nonzero
    whenever the desired wrench lies outside what the bounded wires can
    express; callers treat that as the saturation diagnostic, not as an
    error.  A non-finite matrix or wrench fails the QP (SolverFailure).
    """
    rows = _as_floats("matrix", matrix, (6, len(bounds.lower)))
    target = wrench.force + wrench.torque
    l0, l1, l2, l3, l4, l5 = weights.roots
    u0, u1, u2, u3, u4, u5 = (r * w for r, w in zip(weights.roots, target))
    # the columns of V = sqrt(L) W
    columns = [(l0 * a, l1 * b, l2 * c, l3 * d, l4 * e, l5 * f) for a, b, c, d, e, f in zip(*rows)]
    hessian = [[0.0] * len(columns) for _ in columns]
    for i, (a, b, c, d, e, f) in enumerate(columns):
        for j, (p, q, r, s, t, u) in enumerate(columns[:i]):
            hessian[i][j] = hessian[j][i] = 2.0 * (a * p + b * q + c * r + d * s + e * t + f * u)
        hessian[i][i] = 2.0 * (1.0 + (a * a + b * b + c * c + d * d + e * e + f * f))
    gradient = tuple(-2.0 * (a * u0 + b * u1 + c * u2 + d * u3 + e * u4 + f * u5)
                     for a, b, c, d, e, f in columns)
    tensions, _, _ = solve_box_qp(tuple(map(tuple, hessian)), gradient, bounds.lower,
                                  bounds.upper, start=start)
    return tensions, tuple(w - a for w, a in zip(target, wire_wrench(rows, tensions)))


def compensate(tensions, accel_ref, rates, matrix, winch: WinchParams) -> tuple:
    """Add winch inertia and friction compensation to commanded tensions.

    The drum spins at -rate/r; its angular acceleration is taken from the
    commanded body acceleration projected along each wire (its matrix
    column, a six-row sum).  Compensation tension is (J * alpha + sign(w) *
    tau_c + b * w) / r per wire, clamped so the final command never asks a
    wire to push.  Where two NaNs meet, each sum keeps its first, as
    numpy's add does (x86-64); CPython's float `+` keeps either.  The clamp
    keeps NaN and turns -0.0 into 0.0, as `np.maximum` does.
    """
    tensions = _as_floats("tensions", tensions, (-1,))
    x0, x1, x2, x3, x4, x5 = _as_floats("accel_ref", accel_ref, (6,))
    columns = zip(*_as_floats("matrix", matrix, (6, len(tensions))))
    rates = _as_floats("rates", rates, (len(tensions),))
    r = winch.pulley_radius
    final = []
    for tension, (a, b, c, d, e, f), rate in zip(tensions, columns, rates, strict=True):
        accel = a * x0 + b * x1 + c * x2 + d * x3 + e * x4 + f * x5  # -d^2(length)/dt^2
        drum_speed = -rate / r
        # np.sign, except that a zero keeps its sign, which the clamp erases
        sign = 1.0 if drum_speed > 0.0 else -1.0 if drum_speed < 0.0 else drum_speed
        friction = sign * winch.coulomb_friction + winch.viscous_friction * drum_speed
        torque = winch.rotor_inertia * (accel / r)
        torque = torque if torque != torque else torque + friction  # a NaN first wins
        value = tension if tension != tension else tension + torque / r
        final.append(value if value > 0.0 or value != value else 0.0)
    return tuple(final)


def to_currents(tensions, winch: WinchParams) -> tuple:
    """Exactly linear map of float tensions to currents, one constant for every wire."""
    tensions = _as_floats("tensions", tensions, (-1,))
    if any(t < 0 for t in tensions):
        raise ValueError("tensions must be non-negative")
    scale = winch.current_per_newton
    return tuple(scale * t for t in tensions)


def tension_command(tensions, final, residual, bounds: TensionBounds,
                    winch: WinchParams) -> TensionCommand:
    """The command for allocated `tensions` that the winches are to exert as `final`, with
    the allocation's wrench `residual`, whose norm is the root of the in-order sum of squares."""
    tensions = _as_floats("tensions", tensions, (-1,))
    final = _as_floats("final", final, (len(tensions),))
    r0, r1, r2, r3, r4, r5 = _as_floats("residual", residual, (6,))
    return TensionCommand._of(tensions, final, to_currents(final, winch),
                              math.sqrt(r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3 + r4 * r4 + r5 * r5),
                              bounds.saturated(tensions))


def solve_tension_command(matrix, wrench: Wrench, bounds: TensionBounds,
                          weights: AllocationWeights, accel_ref, rates, winch: WinchParams,
                          start=None) -> TensionCommand:
    """Allocation, compensation and current conversion in one pass."""
    tensions, residual = allocate(matrix, wrench, bounds, weights, start=start)
    final = compensate(tensions, accel_ref, rates, matrix, winch)
    return tension_command(tensions, final, residual, bounds, winch)
