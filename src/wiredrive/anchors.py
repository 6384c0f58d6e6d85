"""Flying-anchor wire deployment: wrap planning, tracking, wrap verification.

A drone carrying the loose end of a wire flies a rectangular circuit
around a pillar so the wire loops it once, then heads back out past its
entry point so the loop closes on itself.  The planner returns the
circuit as an (n, 3) waypoint array, and the tracker flies that array.
The drone is a kinematic velocity integrator steered by a proportional
law on a noisy relative position estimate.  A wrap succeeds when the
signed winding number of the flown trajectory about the pillar axis is
at least one turn.  The anchor it gives its wire (`wrap_anchor`: the
pillar's center at the wrap altitude) depends on the scenario alone, so
the scenario loader sets it; flying only checks that the wrap holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousWinding, NoClearance, TrackingTimeout
from .spatial import _checked, _set_field

DEFAULT_CAPTURE_RADIUS = 0.05  # m
DEFAULT_DRONE_DT = 0.02  # s
DEFAULT_WAYPOINT_SPACING = 0.15  # m
WINDING_TOLERANCE = 0.1  # fraction of a full turn


@dataclass(frozen=True, eq=False)
class Pillar:
    """Axis-aligned rectangular pillar footprint in the horizontal plane."""

    center: tuple  # (2,)
    half_extents: tuple = (0.175, 0.35)  # (2,), a 0.35 x 0.70 m pillar
    z_range: tuple = (0.0, 2.5)  # (2,), bottom and top

    def __post_init__(self):
        _set_field(self, "center", 2)
        _set_field(self, "half_extents", 2, sign="positive")
        _set_field(self, "z_range", 2)
        if not self.z_range[1] > self.z_range[0]:
            raise ValueError("z_range must be increasing")

    def contains(self, point_xy, inflation: float = 0.0) -> bool:
        """Strict interior test against the footprint grown by `inflation`."""
        return all(abs(p - c) < h + inflation - 1e-12
                   for p, c, h in zip(point_xy, self.center, self.half_extents))

    @property
    def mid_height(self) -> float:
        """The middle of `z_range`: where a wrap goes round unless told otherwise."""
        return 0.5 * (self.z_range[0] + self.z_range[1])


def wrap_anchor(pillar: Pillar, altitude: float) -> tuple:
    """The anchor a wrap gives its wire: the pillar's center at the wrap altitude."""
    return (*pillar.center, altitude)


@dataclass(frozen=True)
class RelativePoseSensor:
    """Synthetic stand-in for tag-based relative pose estimation: the
    drone's true position with Gaussian noise of `noise_std` per axis."""

    noise_std: float = 0.0

    def __post_init__(self):
        _set_field(self, "noise_std", sign="non-negative")

    def measure(self, true_position, rng) -> np.ndarray:
        return np.asarray(true_position, dtype=float) + self.noise_std * rng.normal(size=3)


@dataclass(frozen=True)
class TrackerGains:
    """Proportional velocity law with a speed cap; an infinite cap is none."""

    kp: float = 1.5  # 1/s
    speed_cap: float = 0.5  # m/s

    def __post_init__(self):
        _set_field(self, "kp", sign="positive")
        _set_field(self, "speed_cap", sign="positive", limitless=True)


def _densify(points: np.ndarray, spacing: float) -> np.ndarray:
    out = [points[0]]
    for a, b in zip(points, points[1:]):
        length = float(np.linalg.norm(b - a))
        n = max(1, int(np.ceil(length / spacing)))
        for k in range(1, n + 1):
            out.append(a + (b - a) * (k / n))
    return np.array(out)


def plan_wrap_path(
    pillar: Pillar,
    approach,
    clearance: float,
    spacing: float = DEFAULT_WAYPOINT_SPACING,
    altitude: float | None = None,
) -> np.ndarray:
    """Plan a counterclockwise circuit around the pillar at `clearance`.

    Returns the path as (n, 3) waypoints at most `spacing` apart.  It runs
    from the approach point to the nearest circuit corner, once around
    the footprint, back through that corner and out to the approach point
    again, so the flown loop winds the pillar exactly once and the wire
    crosses itself on the way out.
    """
    clearance = _checked("clearance", clearance, sign="positive")
    spacing = _checked("spacing", spacing, sign="positive")
    approach = np.array(_checked("approach", approach, 3))
    if pillar.contains(approach, inflation=clearance):
        raise NoClearance(
            "approach point lies inside the pillar footprint inflated by the clearance"
        )
    if altitude is None:
        altitude = pillar.mid_height

    ex, ey = (h + clearance for h in pillar.half_extents)
    cx, cy = pillar.center
    corners = np.array(
        [
            [cx + ex, cy + ey, altitude],
            [cx - ex, cy + ey, altitude],
            [cx - ex, cy - ey, altitude],
            [cx + ex, cy - ey, altitude],
        ]
    )  # counterclockwise order
    start = int(np.argmin(np.linalg.norm(corners[:, :2] - approach[:2], axis=1)))
    ring = [corners[(start + k) % 4] for k in range(4)]
    coarse = np.vstack([approach, *ring, corners[start], approach])
    waypoints = _densify(coarse, spacing)
    for point in waypoints:
        if pillar.contains(point, inflation=clearance * (1.0 - 1e-9)):
            raise NoClearance("planned circuit clips the inflated pillar footprint")
    return waypoints


def track_path(
    waypoints,
    sensor: RelativePoseSensor,
    gains: TrackerGains = TrackerGains(),
    dt: float = DEFAULT_DRONE_DT,
    capture_radius: float = DEFAULT_CAPTURE_RADIUS,
    timeout: float | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Fly (n, 3) waypoints with a kinematic point drone; returns the trajectory.

    The drone starts on the first waypoint and integrates a capped
    proportional velocity toward the active one, advancing when its
    (noisy) position estimate comes within the capture radius.  Raises
    TrackingTimeout if the budget runs out, and ValueError for a waypoint
    that is not finite or a step or timeout that is not positive, NaN too.
    """
    waypoints = np.array(_checked("waypoints", waypoints, (-1, 3)))
    dt = _checked("dt", dt, sign="positive")
    if timeout is None:
        legs = np.linalg.norm(np.diff(waypoints, axis=0), axis=1)
        timeout = 5.0 * (float(np.sum(legs)) / gains.speed_cap + 1.0)
    else:
        timeout = _checked("timeout", timeout, sign="positive")
    rng = np.random.default_rng(seed)
    position = waypoints[0].copy()
    trajectory = [position.copy()]
    t = 0.0
    for waypoint in waypoints[1:]:
        while True:
            estimate = sensor.measure(position, rng)
            error = waypoint - estimate
            if np.linalg.norm(error) <= capture_radius:
                break
            command = gains.kp * error
            speed = float(np.linalg.norm(command))
            if speed > gains.speed_cap:
                command *= gains.speed_cap / speed
            position = position + command * dt
            trajectory.append(position.copy())
            t += dt
            if t > timeout:
                raise TrackingTimeout(
                    f"waypoint capture exceeded the {timeout:.1f} s budget"
                )
    return np.array(trajectory)


def winding_number(trajectory, center) -> int:
    """Signed number of turns a planar trajectory makes about a point.

    Sums the angles subtended at the center by consecutive samples and
    rounds to whole turns; if the sum is further than a tenth of a turn
    from an integer the loop is not cleanly closed and the count is
    refused as ambiguous.
    """
    points = np.asarray(trajectory, dtype=float)
    if points.ndim != 2 or points.shape[0] < 3:
        raise AmbiguousWinding("need at least three trajectory points")
    rel = points[:, :2] - np.asarray(center, dtype=float)[:2]
    radii = np.linalg.norm(rel, axis=1)
    if np.any(radii < 1e-12):
        raise AmbiguousWinding("trajectory passes through the center")
    cross = rel[:-1, 0] * rel[1:, 1] - rel[:-1, 1] * rel[1:, 0]
    dot = np.einsum("ij,ij->i", rel[:-1], rel[1:])
    total = float(np.sum(np.arctan2(cross, dot)))
    turns = total / (2.0 * np.pi)
    nearest = round(turns)
    if abs(turns - nearest) >= WINDING_TOLERANCE:
        raise AmbiguousWinding(
            f"summed angle is {turns:.3f} turns, not close to an integer"
        )
    return int(nearest)
