"""Run telemetry: one CSV row per control tick, schema fixed per wire count.

The column set is versioned and frozen for a given format version and
wire count, so downstream plotting can rely on names.  A row is built
from plain Python floats (`tolist` on the arrays, `float` on the scalars)
written with `repr`, the shortest text that reads back to the same
double, which makes reruns byte-identical; flags are written as 1/0.
"""

from __future__ import annotations

from typing import IO

from .simulator import SimState
from .trajectory import ControlTick

FORMAT_VERSION = 1

_POSE_FIELDS = ["x", "y", "z", "qw", "qx", "qy", "qz"]
_TWIST_FIELDS = ["vx", "vy", "vz", "wx", "wy", "wz"]
_WRENCH_FIELDS = ["fx", "fy", "fz", "tx", "ty", "tz"]


def column_names(wire_count: int) -> list[str]:
    cols = ["format_version", "tick", "t"]
    for prefix in ("sim", "meas", "ref"):
        cols += [f"{prefix}_{f}" for f in _POSE_FIELDS]
        cols += [f"{prefix}_{f}" for f in _TWIST_FIELDS]
    cols += [f"ref_a{f}" for f in ("x", "y", "z", "wx", "wy", "wz")]
    for prefix in ("wfb", "wg", "wdes"):
        cols += [f"{prefix}_{f}" for f in _WRENCH_FIELDS]
    for prefix in ("tension_ref", "tension_cmd", "current", "tension_act", "sat"):
        cols += [f"{prefix}_{i}" for i in range(wire_count)]
    cols += ["residual_norm", "fault"]
    return cols


class TelemetryWriter:
    """Streams rows to an open text file."""

    def __init__(self, stream: IO[str], wire_count: int):
        self.stream = stream
        self.wire_count = wire_count
        self.columns = column_names(wire_count)
        stream.write(",".join(self.columns) + "\n")

    def write_tick(
        self, tick_index: int, state: SimState, tick: ControlTick, fault: bool
    ) -> None:
        floats = [float(tick.timestamp)]
        for pose, twist in (
            (state.pose, state.twist),
            (tick.pose, tick.twist),
            (tick.pose_ref, tick.twist_ref),
        ):
            floats += pose.position.tolist() + pose.orientation.tolist()
            floats += twist.linear.tolist() + twist.angular.tolist()
        floats += tick.accel_ref.tolist()
        for wrench in (tick.feedback_wrench, tick.gravity_wrench, tick.desired_wrench):
            floats += wrench.force.tolist() + wrench.torque.tolist()
        command = tick.command
        for arr in (command.tensions, command.tensions_final, command.currents, state.tensions):
            floats += arr.tolist()
        values = [str(FORMAT_VERSION), str(tick_index)]
        values += map(repr, floats)
        values += ["1" if s else "0" for s in command.saturated.tolist()]
        values += [repr(float(command.residual_norm)), "1" if fault else "0"]
        if len(values) != len(self.columns):
            raise RuntimeError(
                f"telemetry row has {len(values)} values for {len(self.columns)} columns"
            )
        self.stream.write(",".join(values) + "\n")
