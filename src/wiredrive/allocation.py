"""Tension allocation: desired wrench -> bounded per-wire tensions -> currents.

The allocator minimizes |f|^2 + (w - Wf)' L (w - Wf) over the tension box,
a strictly convex QP solved by the dense active-set method in `qp`.  The
|f|^2 term keeps the null-space component small; L sets how hard wrench
tracking is weighted against that regularizer, so its scale is a tuning
surface exposed to scenarios.  Winch-side compensation then adds tension
for reflected rotor inertia and shaft friction, and the current map is a
single constant.  One drivetrain model (`WinchParams`) serves every wire.
The wire matrix W comes in as the array `wire_jacobian` returns.  The QP's
Hessian and gradient stay numpy products, as one BLAS product beats a float
loop at 8 wires; the QP then runs on Python floats (see `qp`).  The tick's
tensions, converted once from the QP's array, and the rates
`wire_lengths_and_rates` returns are float tuples, which `compensate`,
`to_currents` and `tension_command` read and a `TensionCommand` holds as
they are; any other sequence is converted once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qp import solve_box_qp
from .spatial import Wrench, _floats, _Record, _set_field

DEFAULT_MAX_TENSION = 180.0  # N, continuous rating of one winch
DEFAULT_PRETENSION = 2.0  # N, keeps wires taut; they cannot push
DEFAULT_WEIGHT_SCALE = 1e4
DEFAULT_MAX_LINE_SPEED = 0.242  # m/s
DEFAULT_WINDING_CAPACITY = 5.3  # m


@dataclass(frozen=True, eq=False)
class TensionBounds:
    """Per-wire tension box, 0 <= lower < upper componentwise; an infinite
    upper bound leaves a wire uncapped."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        _set_field(self, "lower", -1, sign="non-negative")
        _set_field(self, "upper", -1, limitless=True)
        if self.lower.shape != self.upper.shape:
            raise ValueError("tension bound vectors must have matching shapes")
        if not np.all(self.lower < self.upper):
            raise ValueError("lower (minimum tension) must be strictly below upper")

    @classmethod
    def uniform(
        cls, wire_count: int, lower: float = DEFAULT_PRETENSION, upper: float = DEFAULT_MAX_TENSION
    ) -> "TensionBounds":
        return cls(np.full(wire_count, lower), np.full(wire_count, upper))

    def saturated(self, tensions: np.ndarray) -> np.ndarray:
        """Per wire: tension within 1e-6 of its upper bound."""
        return np.asarray(tensions) >= self.upper - 1e-6


@dataclass(frozen=True, eq=False)
class AllocationWeights:
    """Symmetric positive-definite 6x6 wrench-residual weight."""

    matrix: np.ndarray

    def __post_init__(self):
        _set_field(self, "matrix", (6, 6), sign="symmetric positive definite")

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


def allocate(
    matrix: np.ndarray,
    wrench: Wrench,
    bounds: TensionBounds,
    weights: AllocationWeights,
    start=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the tension-distribution QP for the 6 x m wire matrix.

    Returns the optimal tensions and the wrench residual (desired minus
    achieved) as a 6-array, force then torque.  The residual is nonzero
    whenever the desired wrench lies outside what the bounded wires can
    express; callers treat that as the saturation diagnostic, not as an
    error.
    """
    if not np.all(np.isfinite(matrix)):
        raise ValueError("wire matrix contains non-finite entries")
    target = wrench.as_array()
    weighted = weights.matrix @ matrix
    hessian = 2.0 * (np.eye(matrix.shape[1]) + matrix.T @ weighted)
    gradient = -2.0 * (weighted.T @ target)
    tensions, _, _ = solve_box_qp(hessian, gradient, bounds.lower, bounds.upper, start=start)
    return tensions, target - matrix @ tensions


def compensate(tensions, accel_ref, rates, matrix: np.ndarray, winch: WinchParams) -> tuple:
    """Add winch inertia and friction compensation to commanded tensions.

    The drum spins at -rate/r; its angular acceleration is taken from the
    commanded body acceleration projected along each wire (the wire-matrix
    column gives exactly that projection).  Compensation tension is
    (J * alpha + sign(w) * tau_c + b * w) / r per wire, clamped so the
    final command never asks a wire to push.  After `matrix.T @ accel_ref`
    each wire runs on Python floats with the array formulation's roundings,
    so the bits are the same.  Where two NaNs meet, each sum keeps its
    first, as numpy's add does on up to 8 wires (x86-64); CPython's float
    `+` keeps either, as the interpreter has specialized it or not.  The
    clamp keeps NaN and turns -0.0 into 0.0, as `np.maximum` does.
    """
    projected = (matrix.T @ accel_ref).tolist()  # -d^2(length)/dt^2 per wire
    r = winch.pulley_radius
    final = []
    for tension, accel, rate in zip(_float_tuple(tensions), projected, _float_tuple(rates),
                                    strict=True):
        drum_speed = -rate / r
        # np.sign, except that a zero keeps its sign, which the clamp erases
        sign = 1.0 if drum_speed > 0.0 else -1.0 if drum_speed < 0.0 else drum_speed
        friction = sign * winch.coulomb_friction + winch.viscous_friction * drum_speed
        torque = winch.rotor_inertia * (accel / r)
        torque = torque if torque != torque else torque + friction  # a NaN first wins
        value = tension if tension != tension else tension + torque / r
        final.append(value if value > 0.0 or value != value else 0.0)
    return tuple(final)


def _float_tuple(values) -> tuple:
    """A tuple as it is (the tick's float tuples), any other sequence as `_floats` gives it."""
    return values if type(values) is tuple else _floats(values)


def to_currents(tensions, winch: WinchParams) -> tuple:
    """Exactly linear map of float tensions to currents, one constant for every wire."""
    if any(t < 0 for t in tensions):
        raise ValueError("tensions must be non-negative")
    scale = winch.current_per_newton
    return tuple(scale * t for t in _float_tuple(tensions))


def tension_command(tensions, final, residual: np.ndarray,
                    bounds: TensionBounds, winch: WinchParams) -> TensionCommand:
    """The command for allocated `tensions` that the winches are to exert as
    `final` (tuples kept, other sequences converted), with the allocation's wrench
    `residual` (a 6-array); its norm is `np.linalg.norm`'s, the root of one BLAS dot."""
    tensions, final = _float_tuple(tensions), _float_tuple(final)
    return TensionCommand._of(tensions, final, to_currents(final, winch),
                              math.sqrt(np.dot(residual, residual)),
                              tuple(bounds.saturated(tensions).tolist()))


def solve_tension_command(matrix: np.ndarray, wrench: Wrench, bounds: TensionBounds,
                          weights: AllocationWeights, accel_ref, rates, winch: WinchParams,
                          start=None) -> TensionCommand:
    """Allocation, compensation and current conversion in one pass."""
    tensions, residual = allocate(matrix, wrench, bounds, weights, start=start)
    tensions = tuple(tensions.tolist())
    final = compensate(tensions, accel_ref, rates, matrix, winch)
    return tension_command(tensions, final, residual, bounds, winch)
