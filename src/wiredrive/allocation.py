"""Tension allocation: desired wrench -> bounded per-wire tensions -> currents.

The allocator minimizes |f|^2 + (w - Wf)' L (w - Wf) over the tension box,
a strictly convex QP solved by the dense active-set method in `qp`.  The
|f|^2 term keeps the null-space component small; L sets how hard wrench
tracking is weighted against that regularizer, so its scale is a tuning
surface exposed to scenarios.  Winch-side compensation then adds tension
for reflected rotor inertia and shaft friction, and the current map is a
single constant.  One drivetrain model (`WinchParams`) serves every wire.
The wire matrix W and the wire rates come in as the plain arrays that
`wire_jacobian` and `wire_lengths_and_rates` return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qp import solve_box_qp
from .spatial import Wrench

DEFAULT_MAX_TENSION = 180.0  # N, continuous rating of one winch
DEFAULT_PRETENSION = 2.0  # N, keeps wires taut; they cannot push
DEFAULT_WEIGHT_SCALE = 1e4
DEFAULT_MAX_LINE_SPEED = 0.242  # m/s
DEFAULT_WINDING_CAPACITY = 5.3  # m


@dataclass(frozen=True, eq=False)
class TensionBounds:
    """Per-wire tension box, 0 <= lower < upper componentwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float)).copy()
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float)).copy()
        if lower.shape != upper.shape:
            raise ValueError("tension bound vectors must have matching shapes")
        if np.any(lower < 0):
            raise ValueError("minimum tension must be non-negative")
        if np.any(lower >= upper):
            raise ValueError("minimum tension must be strictly below maximum")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

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
        mat = np.asarray(self.matrix, dtype=float).reshape(6, 6).copy()
        if np.max(np.abs(mat - mat.T)) > 1e-12:
            raise ValueError("weight matrix must be symmetric")
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError as exc:
            raise ValueError("weight matrix must be positive definite") from exc
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

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
    those are placeholders to be overridden per scenario.
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
        for name in ("pulley_radius", "gear_ratio", "torque_constant", "eff_pulley",
                     "eff_gear", "max_tension", "max_line_speed", "winding_capacity"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if not 0 < self.eff_pulley <= 1 or not 0 < self.eff_gear <= 1:
            raise ValueError("efficiencies must lie in (0, 1]")
        for name in ("rotor_inertia", "coulomb_friction", "viscous_friction"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def current_per_newton(self) -> float:
        return self.pulley_radius / (
            self.eff_pulley * self.eff_gear * self.gear_ratio * self.torque_constant
        )


@dataclass(frozen=True, eq=False)
class TensionCommand:
    """Full output of one allocation pass."""

    tensions: np.ndarray  # QP solution inside the bounds
    tensions_final: np.ndarray  # after winch compensation, >= 0
    currents: np.ndarray
    residual_norm: float
    saturated: np.ndarray  # TensionBounds.saturated of the QP tensions


def allocate(
    matrix: np.ndarray,
    wrench: Wrench,
    bounds: TensionBounds,
    weights: AllocationWeights,
    start: np.ndarray | None = None,
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


def compensate(
    tensions: np.ndarray,
    accel_ref: np.ndarray,
    rates: np.ndarray,
    matrix: np.ndarray,
    winch: WinchParams,
) -> np.ndarray:
    """Add winch inertia and friction compensation to commanded tensions.

    The drum spins at -rate/r; its angular acceleration is taken from the
    commanded body acceleration projected along each wire (the wire-matrix
    column gives exactly that projection).  `rates` are the wires' length
    rates, as `wire_lengths_and_rates` returns them.  Compensation tension
    is (J * alpha + sign(w) * tau_c + b * w) / r per wire, clamped so the
    final command never asks a wire to push.
    """
    tensions = np.asarray(tensions, dtype=float)
    accel_ref = np.asarray(accel_ref, dtype=float).reshape(6)
    length_accel = -(matrix.T @ accel_ref)  # d^2(length)/dt^2, projected
    r = winch.pulley_radius
    drum_speed = -rates / r
    drum_accel = -length_accel / r
    inertia_torque = winch.rotor_inertia * drum_accel
    friction_torque = (
        np.sign(drum_speed) * winch.coulomb_friction
        + winch.viscous_friction * drum_speed
    )
    return np.maximum(tensions + (inertia_torque + friction_torque) / r, 0.0)


def to_currents(tensions: np.ndarray, winch: WinchParams) -> np.ndarray:
    """Exactly linear tension-to-current map, one constant for every wire."""
    tensions = np.asarray(tensions, dtype=float)
    if np.any(tensions < 0):
        raise ValueError("tensions must be non-negative")
    return winch.current_per_newton * tensions


def tensions_from_currents(currents: np.ndarray, winch: WinchParams) -> np.ndarray:
    """Inverse of the current map, used by the plant model."""
    return np.asarray(currents, dtype=float) / winch.current_per_newton


def tension_command(tensions: np.ndarray, final: np.ndarray, residual: np.ndarray,
                    bounds: TensionBounds, winch: WinchParams) -> TensionCommand:
    """The command for allocated `tensions` that the winches are to exert
    as `final`, with the allocation's wrench `residual` (a 6-array)."""
    return TensionCommand(
        tensions=tensions,
        tensions_final=final,
        currents=to_currents(final, winch),
        residual_norm=float(np.linalg.norm(residual)),
        saturated=bounds.saturated(tensions),
    )


def solve_tension_command(
    matrix: np.ndarray,
    wrench: Wrench,
    bounds: TensionBounds,
    weights: AllocationWeights,
    accel_ref: np.ndarray,
    rates: np.ndarray,
    winch: WinchParams,
    start: np.ndarray | None = None,
) -> TensionCommand:
    """Allocation, compensation and current conversion in one pass."""
    tensions, residual = allocate(matrix, wrench, bounds, weights, start=start)
    final = compensate(tensions, accel_ref, rates, matrix, winch)
    return tension_command(tensions, final, residual, bounds, winch)
