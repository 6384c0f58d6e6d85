"""Wire routing geometry: directions, the 6 x m wire matrix, lengths and rates.

Each wire runs as a taut, massless, inextensible segment from a body-frame
exit point to a fixed world anchor.  Column i of the wire matrix is
[s_i; r_i x s_i] with s_i the unit vector from the world exit point toward
the anchor and r_i the body exit offset rotated (not translated) into the
world frame, so tensions map to a wrench about the body center:
wrench = matrix @ tensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateWire
from .spatial import Pose, Twist, Wrench

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


@dataclass(frozen=True, eq=False)
class WireJacobian:
    """6 x m tension-to-wrench map, columns ordered by wire id."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != 6:
            raise ValueError("wire matrix must be 6 x m")
        # the copy also makes the transposed stack from `wire_jacobian`
        # C-contiguous; later matmul results depend on that layout
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def wire_count(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class WireState:
    """Current wire lengths and their rates (positive = paying out).

    `wire_lengths_and_rates` is the producer; its geometry pass already
    rejects lengths below the degeneracy threshold."""

    lengths: np.ndarray
    rates: np.ndarray


def _geometry(pose: Pose, attachments: Sequence[WireAttachment]):
    """One pass over the wires at a pose.

    Returns (directions, lengths, levers, exits_world): unit vectors from
    the world exit points toward the anchors, the span lengths, the body
    exit offsets rotated into the world frame, and the world exit points.
    Raises DegenerateWire if any anchor sits within the degeneracy
    threshold of its exit point.
    """
    exits_body = np.stack([a.exit_body for a in attachments])
    anchors = np.stack([a.anchor_world for a in attachments])
    levers = exits_body @ pose.rotation_matrix().T
    exits_world = pose.position + levers
    spans = anchors - exits_world
    lengths = np.linalg.norm(spans, axis=1)
    for i, n in enumerate(lengths):
        if n <= DEGENERACY_THRESHOLD:
            raise DegenerateWire(attachments[i].wire_id, float(n))
    return spans / lengths[:, None], lengths, levers, exits_world


def wire_directions(pose: Pose, attachments: Sequence[WireAttachment]):
    """Unit directions from world exit points toward anchors.

    Returns (directions, exit_points) as (m, 3) arrays.  Raises
    DegenerateWire if any anchor sits within the degeneracy threshold of
    its exit point.
    """
    directions, _, _, exits_world = _geometry(pose, attachments)
    return directions, exits_world


def wire_jacobian(pose: Pose, attachments: Sequence[WireAttachment]) -> WireJacobian:
    """Assemble the 6 x m wire matrix at the given pose."""
    directions, _, levers, _ = _geometry(pose, attachments)
    torque_rows = np.cross(levers, directions)
    return WireJacobian(np.hstack([directions, torque_rows]).T)


def wire_lengths_and_rates(
    pose: Pose, twist: Twist, attachments: Sequence[WireAttachment]
) -> WireState:
    """Lengths and pay-out rates for every wire at the given body state.

    The rate is the time derivative of the straight-line length: negative
    when the body closes on the anchor (the winch is taking wire in).
    """
    directions, lengths, _, exits_world = _geometry(pose, attachments)
    # the rate lever is recovered from the world exit point; the rotated
    # `levers` can differ from it in the last bit, which recorded
    # telemetry would show
    lever_world = exits_world - pose.position
    exit_velocities = twist.linear + np.cross(twist.angular, lever_world)
    rates = -np.einsum("ij,ij->i", directions, exit_velocities)
    return WireState(lengths, rates)


def wrench_from_tensions(
    pose: Pose, attachments: Sequence[WireAttachment], tensions
) -> Wrench:
    """Net wrench on the body center for the given per-wire tensions."""
    jac = wire_jacobian(pose, attachments).matrix
    return Wrench.from_array(jac @ np.asarray(tensions, dtype=float))
