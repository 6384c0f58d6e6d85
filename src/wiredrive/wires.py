"""Wire routing geometry: the 6 x m wire matrix, lengths and rates.

Each wire runs as a taut, massless, inextensible segment from a body-frame
exit point to a fixed world anchor.  Column i of the wire matrix is
[s_i; r_i x s_i] with s_i the unit vector from the world exit point toward
the anchor and r_i the body exit offset rotated (not translated) into the
world frame, so tensions map to a wrench about the body center:
wrench = matrix @ tensions, which `wire_wrench` sums wire by wire.

`wire_jacobian` returns the matrix as its six rows, float m-tuples
(`np.asarray` of it is the array), and `wire_lengths_and_rates` the
(lengths, rates) pair as two float tuples.  Both read one pass over the
wires, `_geometry`, on Python floats in a fixed order (see `spatial`):
the exit offsets rotated by `mat_vec` on `rotation_rows`, then exit
points, spans, lengths, directions, columns and rates.  A run passes a
`WireSet`: it holds its exit points and anchors as float tuples and keeps
its last pass, keyed by the pose object, whose float tuples cannot
change.  A call with the same pose gets that pass, bit for bit a fresh
one; any other call, even one at equal values (-0.0 equals 0.0),
replaces it, unless it raises DegenerateWire.  Each read and each
replacement is one attribute access, so a shared WireSet stays
consistent under the GIL.  A plain list is stacked and passed over on
each call.  The plant and the controller each ask for the rates and the
matrix at one pose: a cube8 tick makes 7 passes for its 13 calls, an
anchors2 tick 7 for its 12.  The float pass is meant for 2 to 8 wires;
an array formulation breaks even between 12 and 16 wires and wins above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateWire
from .spatial import Pose, Twist, _set_field, mat_vec, rotation_rows

DEGENERACY_THRESHOLD = 1e-6  # m; far below any physical scenario scale


@dataclass(frozen=True, eq=False)
class WireAttachment:
    """One wire: body-frame exit point paired with a world-frame anchor.

    A wire carries no id: errors name it by its position in the list."""

    exit_body: tuple
    anchor_world: tuple

    def __post_init__(self):
        _set_field(self, "exit_body", 3)
        _set_field(self, "anchor_world", 3)


class WireSet(tuple):
    """A run's wire attachments, with exit points and anchors stacked once.

    `exits_body` and `anchors` are tuples of m float 3-tuples.  Wrapping a
    WireSet returns it unchanged, so the geometry passes of a run reuse one
    set, and its memo of the last pass."""

    exits_body: tuple
    anchors: tuple
    _memo: tuple  # (pose, pass), or (None, None) before the first

    def __new__(cls, attachments: Sequence[WireAttachment]):
        if isinstance(attachments, WireSet):
            return attachments
        self = super().__new__(cls, attachments)
        self.exits_body = tuple(a.exit_body for a in self)
        self.anchors = tuple(a.anchor_world for a in self)
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
    rotation = rotation_rows(pose.orientation)
    px, py, pz = pose.position
    lengths, columns, arms = [], [], []
    for i, (exit_body, (ax, ay, az)) in enumerate(zip(wires.exits_body, wires.anchors)):
        rx, ry, rz = mat_vec(rotation, exit_body)
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


def wire_jacobian(pose: Pose, attachments: Sequence[WireAttachment]) -> tuple:
    """The 6 x m wire matrix at the given pose, as its six rows of m floats."""
    _, columns, _ = _geometry(pose, attachments)
    return tuple(zip(*columns))


def wire_wrench(matrix, tensions) -> tuple:
    """The wrench matrix @ tensions of six rows of m floats and m tensions,
    as a float 6-tuple: six sums from 0.0, adding wire by wire."""
    fx = fy = fz = tx = ty = tz = 0.0
    for a, b, c, d, e, f, t in zip(*matrix, tensions, strict=True):
        fx, fy, fz = fx + a * t, fy + b * t, fz + c * t
        tx, ty, tz = tx + d * t, ty + e * t, tz + f * t
    return (fx, fy, fz, tx, ty, tz)


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
