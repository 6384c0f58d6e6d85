"""Wire routing geometry: the 6 x m wire matrix, lengths and rates.

Each wire runs as a taut, massless, inextensible segment from a body-frame
exit point to a fixed world anchor.  Column i of the wire matrix is
[s_i; r_i x s_i] with s_i the unit vector from the world exit point toward
the anchor and r_i the body exit offset rotated (not translated) into the
world frame, so tensions map to a wrench about the body center:
wrench = matrix @ tensions.

`wire_jacobian` returns that matrix as a float array, which the numpy
products of its callers read, and `wire_lengths_and_rates` the (lengths,
rates) pair as two float tuples, which the tick reads wire by wire (they
were arrays before).  Both take any sequence of attachments and read one
pass over the wires, `_geometry`.  A run passes a `WireSet`: it stacks
its exit points and anchors once and keeps its last pass, keyed by the
pose object, whose float tuples cannot change.  A call with the same pose
gets that pass, bit for bit a fresh one; any other call, even one at
equal values (-0.0 equals 0.0), replaces it, unless it raises
DegenerateWire.  Each read and each replacement is one attribute access,
so a shared WireSet stays consistent under the GIL.  A plain list is
stacked and passed over on each call.  The plant and the controller
each ask for the rates and the matrix at one pose: a cube8 tick makes 7
passes for its 13 calls, an anchors2 tick 7 for its 12.

A pass's one numpy operation is the BLAS product that rotates the body
exit offsets into the world frame: a Python `a*x + b*y + c*z` differs
from that product in the last bit on most rows, and recorded telemetry
would show it.  Everything after it (exit points, spans, lengths,
directions, the matrix columns and the rates) runs wire by wire on
Python floats, which round exactly as float64 arrays do, in the
operation order of the array formulation (`tests/oracles.py` holds those
formulations and the tests hold these functions to them bit for bit).
That skips numpy's per-call setup, which dominates on a few wires, but
costs about 1 us per wire where numpy's cost barely grows.  The float
pass is meant for the 2 to 8 wires of the bundled scenarios and of the
robot the model follows; the array formulation breaks even between 12
and 16 wires and wins above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import DegenerateWire
from .spatial import Pose, Twist, _set_field

DEGENERACY_THRESHOLD = 1e-6  # m; far below any physical scenario scale


@dataclass(frozen=True, eq=False)
class WireAttachment:
    """One wire: body-frame exit point paired with a world-frame anchor.

    A wire carries no id: errors name it by its position in the list."""

    exit_body: np.ndarray
    anchor_world: np.ndarray

    def __post_init__(self):
        _set_field(self, "exit_body", 3)
        _set_field(self, "anchor_world", 3)


class WireSet(tuple):
    """A run's wire attachments, with exit points and anchors stacked once.

    `exits_body` is a read-only (m, 3) array, which the lever product
    reads, and `anchors` a tuple of m float 3-tuples.  Wrapping a WireSet
    returns it unchanged, so the geometry passes of a run reuse one set,
    and its memo of the last pass."""

    exits_body: np.ndarray
    anchors: tuple
    _memo: tuple  # (pose, pass), or (None, None) before the first

    def __new__(cls, attachments: Sequence[WireAttachment]):
        if isinstance(attachments, WireSet):
            return attachments
        self = super().__new__(cls, attachments)
        self.exits_body = np.array([a.exit_body for a in self])
        self.exits_body.setflags(write=False)
        self.anchors = tuple(tuple(a.anchor_world.tolist()) for a in self)
        self._memo = (None, None)
        return self


def _geometry(pose: Pose, attachments: Sequence[WireAttachment]):
    """One pass over the wires at a pose, on Python floats.

    Returns (lengths, columns, arms), one entry per wire: the span length,
    the wire matrix column (s, r x s) as a 6-tuple, and the world exit
    point minus the body center.  Raises DegenerateWire, naming the wire's
    position in `attachments`, for the first wire whose anchor sits within
    the degeneracy threshold of its exit point.
    """
    wires = WireSet(attachments)
    last_pose, last = wires._memo
    if pose is last_pose:
        return last
    # the BLAS product stays: recorded telemetry holds its bits
    levers = (wires.exits_body @ pose.rotation_matrix().T).tolist()
    px, py, pz = pose.position
    lengths, columns, arms = [], [], []
    for i, ((rx, ry, rz), (ax, ay, az)) in enumerate(zip(levers, wires.anchors)):
        ex, ey, ez = px + rx, py + ry, pz + rz
        sx, sy, sz = ax - ex, ay - ey, az - ez
        length = math.sqrt(sx * sx + sy * sy + sz * sz)
        if length <= DEGENERACY_THRESHOLD:
            raise DegenerateWire(i, length)
        dx, dy, dz = sx / length, sy / length, sz / length
        lengths.append(length)
        columns.append((dx, dy, dz, ry * dz - rz * dy, rz * dx - rx * dz, rx * dy - ry * dx))
        # the rate lever is recovered from the world exit point; the
        # rotated lever can differ from it in the last bit
        arms.append((ex - px, ey - py, ez - pz))
    wires._memo = (pose, (lengths, columns, arms))
    return lengths, columns, arms


def wire_jacobian(pose: Pose, attachments: Sequence[WireAttachment]) -> np.ndarray:
    """The 6 x m wire matrix at the given pose, as a C-ordered array.

    Later matmul results depend on that layout.
    """
    _, columns, _ = _geometry(pose, attachments)
    return np.fromiter(chain.from_iterable(zip(*columns)), float, 6 * len(columns)).reshape(6, -1)


def wire_lengths_and_rates(pose: Pose, twist: Twist,
                           attachments: Sequence[WireAttachment]) -> tuple[tuple, tuple]:
    """(lengths, rates) of every wire at the given body state, as float tuples.

    The rate is the time derivative of the straight-line length: negative
    when the body closes on the anchor (the winch is taking wire in).
    """
    lengths, columns, arms = _geometry(pose, attachments)
    vx, vy, vz = twist.linear
    wx, wy, wz = twist.angular
    # -(d . v) with the exit velocity v = linear + angular x arm
    return tuple(lengths), tuple([
        -(dx * (vx + (wy * az - wz * ay)) + dy * (vy + (wz * ax - wx * az))
          + dz * (vz + (wx * ay - wy * ax)))
        for (dx, dy, dz, _, _, _), (ax, ay, az) in zip(columns, arms)
    ])
