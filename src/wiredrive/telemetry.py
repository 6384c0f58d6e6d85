"""Run telemetry: one CSV row per control tick, schema fixed per wire count.

The column set is versioned and frozen for a given format version and
wire count, so downstream plotting can rely on names.  Floats are written
with repr-shortest formatting, which makes reruns byte-identical.
"""

from __future__ import annotations

from typing import IO

import numpy as np

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


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


class TelemetryWriter:
    """Streams rows to an open text file, flushing on demand."""

    def __init__(self, stream: IO[str], wire_count: int):
        self.stream = stream
        self.wire_count = wire_count
        self.columns = column_names(wire_count)
        stream.write(",".join(self.columns) + "\n")

    def write_tick(
        self, tick_index: int, state: SimState, tick: ControlTick, fault: bool
    ) -> None:
        values: list = [FORMAT_VERSION, tick_index, tick.timestamp]
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
        if len(values) != len(self.columns):
            raise RuntimeError(
                f"telemetry row has {len(values)} values for {len(self.columns)} columns"
            )
        self.stream.write(",".join(_fmt(v) for v in values) + "\n")

    def flush(self) -> None:
        self.stream.flush()
