"""Wire routing geometry: the 6 x m wire matrix, lengths and rates.

Each wire runs as a taut, massless, inextensible segment from a body-frame
exit point to a fixed world anchor.  Column i of the wire matrix is
[s_i; r_i x s_i] with s_i the unit vector from the world exit point toward
the anchor and r_i the body exit offset rotated (not translated) into the
world frame, so tensions map to a wrench about the body center:
wrench = matrix @ tensions.

`wire_jacobian` returns that matrix and `wire_lengths_and_rates` the
(lengths, rates) pair, as plain float arrays.  Both take any sequence of
attachments.  A run passes a `WireSet`, whose stacked arrays every
geometry pass reuses; a plain list is stacked on each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateWire
from .spatial import Pose, Twist, cross

DEGENERACY_THRESHOLD = 1e-6  # m; far below any physical scenario scale


@dataclass(frozen=True, eq=False)
class WireAttachment:
    """One wire: body-frame exit point paired with a world-frame anchor."""

    exit_body: np.ndarray
    anchor_world: np.ndarray
    wire_id: int = 0

    def __post_init__(self):
        for name in ("exit_body", "anchor_world"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(3).copy()
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


class WireSet(tuple):
    """A run's wire attachments, with exit points and anchors stacked once.

    `exits_body` and `anchors` are read-only (m, 3) arrays.  Wrapping a
    WireSet returns it unchanged, so the geometry passes of a run reuse
    one set; given a plain list, they stack it on each call."""

    exits_body: np.ndarray
    anchors: np.ndarray

    def __new__(cls, attachments: Sequence[WireAttachment]):
        if isinstance(attachments, WireSet):
            return attachments
        self = super().__new__(cls, attachments)
        self.exits_body = np.array([a.exit_body for a in self])
        self.anchors = np.array([a.anchor_world for a in self])
        self.exits_body.setflags(write=False)
        self.anchors.setflags(write=False)
        return self


def _geometry(pose: Pose, attachments: Sequence[WireAttachment]):
    """One pass over the wires at a pose.

    Returns (directions, lengths, levers, exits_world): unit vectors from
    the world exit points toward the anchors, the span lengths, the body
    exit offsets rotated into the world frame, and the world exit points.
    Raises DegenerateWire if any anchor sits within the degeneracy
    threshold of its exit point.
    """
    wires = WireSet(attachments)
    levers = wires.exits_body @ pose.rotation_matrix().T
    exits_world = pose.position + levers
    spans = wires.anchors - exits_world
    # the same reduction as `np.linalg.norm(spans, axis=1)`, without its
    # argument checks
    lengths = np.sqrt(np.add.reduce(spans * spans, axis=1))
    if lengths.min() <= DEGENERACY_THRESHOLD:
        for i, n in enumerate(lengths):
            if n <= DEGENERACY_THRESHOLD:
                raise DegenerateWire(wires[i].wire_id, float(n))
    return spans / lengths[:, None], lengths, levers, exits_world


def wire_jacobian(pose: Pose, attachments: Sequence[WireAttachment]) -> np.ndarray:
    """The 6 x m wire matrix at the given pose, as a C-ordered array.

    Later matmul results depend on that layout, so the transposed stack
    is copied into C order rather than returned as a view.
    """
    directions, _, levers, _ = _geometry(pose, attachments)
    return np.hstack([directions, cross(levers, directions)]).T.copy()


def wire_lengths_and_rates(
    pose: Pose, twist: Twist, attachments: Sequence[WireAttachment]
) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, rates) of every wire at the given body state.

    The rate is the time derivative of the straight-line length: negative
    when the body closes on the anchor (the winch is taking wire in).
    """
    directions, lengths, _, exits_world = _geometry(pose, attachments)
    # the rate lever is recovered from the world exit point; the rotated
    # `levers` can differ from it in the last bit, which recorded
    # telemetry would show
    lever_world = exits_world - pose.position
    v = twist.linear + cross(twist.angular, lever_world)
    d = directions
    # summed in a fixed order per row, so the bits do not depend on the
    # operands' memory layout (as einsum's summation order does)
    rates = -(d[:, 0] * v[:, 0] + d[:, 1] * v[:, 1] + d[:, 2] * v[:, 2])
    return lengths, rates

