"""Simulation and control toolkit for self-anchoring wire-driven parallel robots."""

from .allocation import (
    AllocationWeights,
    TensionBounds,
    TensionCommand,
    WinchParams,
    allocate,
    compensate,
    solve_tension_command,
    to_currents,
)
from .anchors import (
    Pillar,
    RelativePoseSensor,
    TrackerGains,
    plan_wrap_path,
    track_path,
    winding_number,
)
from .errors import (
    AmbiguousWinding,
    DegenerateWire,
    NoClearance,
    NumericalBlowup,
    RotationTooLarge,
    SolverFailure,
    TrackingTimeout,
    WireDriveError,
)
from .feasibility import FeasibilityReport, controllability, wrench_achievable
from .qp import kkt_residual, solve_box_qp
from .runner import deploy_anchors, run_scenario
from .scenario import (
    ParseError,
    Scenario,
    ValidationError,
    bundled_scenario_path,
    dump_scenario,
    load_scenario,
)
from .simulator import (
    STANDARD_GRAVITY,
    BodyModel,
    OdometrySensor,
    SensorModel,
    SimState,
    step,
)
from .spatial import (
    PidGains,
    PidState,
    Pose,
    Twist,
    Wrench,
    transform_odometry,
    wrench_error_pid,
)
from .trajectory import (
    ControlTick,
    PoseController,
    SplineSegment,
    chain_segments,
    plan_spline,
    sample,
)
from .wires import (
    WireAttachment,
    wire_jacobian,
    wire_lengths_and_rates,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationWeights", "TensionBounds", "TensionCommand", "WinchParams",
    "allocate", "compensate", "solve_tension_command", "to_currents",
    "Pillar", "RelativePoseSensor", "TrackerGains",
    "plan_wrap_path", "track_path", "winding_number",
    "AmbiguousWinding", "DegenerateWire", "NoClearance", "NumericalBlowup",
    "RotationTooLarge", "SolverFailure", "TrackingTimeout", "WireDriveError",
    "FeasibilityReport", "controllability", "wrench_achievable",
    "kkt_residual", "solve_box_qp",
    "deploy_anchors", "run_scenario",
    "ParseError", "Scenario", "ValidationError",
    "bundled_scenario_path", "dump_scenario", "load_scenario",
    "STANDARD_GRAVITY", "BodyModel", "OdometrySensor", "SensorModel",
    "SimState", "step",
    "PidGains", "PidState", "Pose", "Twist", "Wrench",
    "transform_odometry", "wrench_error_pid",
    "ControlTick", "PoseController", "SplineSegment", "chain_segments",
    "plan_spline", "sample",
    "WireAttachment", "wire_jacobian", "wire_lengths_and_rates",
]
