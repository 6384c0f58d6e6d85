"""Exception types shared across the library."""

from __future__ import annotations


class WireDriveError(Exception):
    """Base class for all library-specific failures."""


class DegenerateWire(WireDriveError):
    """A wire's anchor and exit point (nearly) coincide, so its direction
    is undefined."""

    def __init__(self, wire_id: int, separation: float):
        self.wire_id = wire_id
        self.separation = separation
        super().__init__(
            f"wire {wire_id}: anchor/exit separation {separation:.3e} m is "
            "below the degeneracy threshold"
        )


class SolverFailure(WireDriveError):
    """The tension QP did not reach its optimality tolerance within the
    iteration cap; usually a sign of pathological geometry or weights."""


class RotationTooLarge(WireDriveError):
    """A spline segment's relative rotation is too close to the rotation-
    vector chart singularity at pi."""


class NumericalBlowup(WireDriveError):
    """Simulated body speed exceeded the configured sanity bound or is not
    finite; the integration has gone unstable (gains or dt too aggressive)
    or was fed a non-finite command."""


class NoClearance(WireDriveError):
    """No collision-free wrap circuit exists for the requested clearance."""


class TrackingTimeout(WireDriveError):
    """The drone failed to capture every waypoint within the time budget."""


class AmbiguousWinding(WireDriveError):
    """A trajectory's summed subtended angle is too far from a whole number
    of turns to call the winding count."""
