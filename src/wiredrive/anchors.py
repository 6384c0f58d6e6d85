"""Flying-anchor wire deployment: wrap planning, tracking, wrap verification.

A drone carrying the loose end of a wire flies a rectangular circuit
around a pillar so the wire loops it once, then heads back out past its
entry point so the loop closes on itself.  The drone is a kinematic
velocity integrator steered by a proportional law on a noisy relative
position estimate; whether the wrap succeeded is decided afterwards from
the signed winding number of the flown trajectory about the pillar axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousWinding, NoClearance, TrackingTimeout

DEFAULT_CAPTURE_RADIUS = 0.05  # m
DEFAULT_DRONE_DT = 0.02  # s
DEFAULT_WAYPOINT_SPACING = 0.15  # m
WINDING_TOLERANCE = 0.1  # fraction of a full turn


@dataclass(frozen=True, eq=False)
class Pillar:
    """Axis-aligned rectangular pillar footprint in the horizontal plane."""

    center: np.ndarray  # (2,)
    half_extents: np.ndarray = (0.175, 0.35)  # (2,), a 0.35 x 0.70 m pillar
    z_range: tuple[float, float] = (0.0, 2.5)

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).reshape(2).copy()
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        he = np.asarray(self.half_extents, dtype=float).reshape(2).copy()
        if np.any(he <= 0):
            raise ValueError("pillar half extents must be positive")
        he.setflags(write=False)
        object.__setattr__(self, "half_extents", he)
        if self.z_range[1] <= self.z_range[0]:
            raise ValueError("pillar z range must be increasing")

    def contains(self, point_xy, inflation: float = 0.0) -> bool:
        """Strict interior test against the footprint grown by `inflation`."""
        d = np.abs(np.asarray(point_xy, dtype=float)[:2] - self.center)
        return bool(np.all(d < self.half_extents + inflation - 1e-12))


@dataclass(frozen=True, eq=False)
class AnchorPath:
    """Planned wrap path: dense waypoints plus the wire's fixed end."""

    waypoints: np.ndarray  # (n, 3)
    wire_origin: np.ndarray  # (3,) where the wire leaves the robot body

    def __post_init__(self):
        wp = np.asarray(self.waypoints, dtype=float).reshape(-1, 3).copy()
        wp.setflags(write=False)
        object.__setattr__(self, "waypoints", wp)
        origin = np.asarray(self.wire_origin, dtype=float).reshape(3).copy()
        origin.setflags(write=False)
        object.__setattr__(self, "wire_origin", origin)


@dataclass(frozen=True)
class RelativePoseSensor:
    """Synthetic stand-in for tag-based relative pose estimation.

    Inside detection range the drone gets a tag fix with `noise_std`
    position noise; outside it falls back to odometry with its own (by
    default identical) noise level.
    """

    noise_std: float = 0.0
    detection_range: float = np.inf
    fov_half_angle: float = np.pi
    odometry_noise_std: float | None = None

    def __post_init__(self):
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if self.odometry_noise_std is not None and self.odometry_noise_std < 0:
            raise ValueError("odometry_noise_std must be non-negative")

    def measure(self, true_position, pillar: Pillar, rng) -> np.ndarray:
        pos = np.asarray(true_position, dtype=float)
        in_range = np.linalg.norm(pos[:2] - pillar.center) <= self.detection_range
        std = self.noise_std if in_range else (
            self.odometry_noise_std if self.odometry_noise_std is not None else self.noise_std
        )
        return pos + std * rng.normal(size=3)


@dataclass(frozen=True)
class TrackerGains:
    """Proportional velocity law with a speed cap."""

    kp: float = 1.5  # 1/s
    speed_cap: float = 0.5  # m/s

    def __post_init__(self):
        if self.kp <= 0 or self.speed_cap <= 0:
            raise ValueError("tracker gains must be positive")


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
    wire_origin=None,
) -> AnchorPath:
    """Plan a counterclockwise circuit around the pillar at `clearance`.

    The path runs from the approach point to the nearest circuit corner,
    once around the footprint, back through that corner and out to the
    approach point again, so the flown loop winds the pillar exactly once
    and the wire crosses itself on the way out.
    """
    if clearance <= 0:
        raise ValueError("clearance must be positive")
    approach = np.asarray(approach, dtype=float).reshape(3)
    if pillar.contains(approach, inflation=clearance):
        raise NoClearance(
            "approach point lies inside the pillar footprint inflated by the clearance"
        )
    if altitude is None:
        altitude = 0.5 * (pillar.z_range[0] + pillar.z_range[1])

    ex, ey = pillar.half_extents + clearance
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
    origin = np.zeros(3) if wire_origin is None else wire_origin
    return AnchorPath(waypoints, origin)


def track_path(
    path: AnchorPath,
    sensor: RelativePoseSensor,
    pillar: Pillar,
    gains: TrackerGains = TrackerGains(),
    dt: float = DEFAULT_DRONE_DT,
    capture_radius: float = DEFAULT_CAPTURE_RADIUS,
    timeout: float | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Fly the path with a kinematic point drone; returns the trajectory.

    The drone integrates a capped proportional velocity toward the active
    waypoint, advancing when its (noisy) position estimate comes within
    the capture radius.  Raises TrackingTimeout if the budget runs out.
    """
    if timeout is None:
        legs = np.linalg.norm(np.diff(path.waypoints, axis=0), axis=1)
        timeout = 5.0 * (float(np.sum(legs)) / gains.speed_cap + 1.0)
    rng = np.random.default_rng(seed)
    position = path.waypoints[0].copy()
    trajectory = [position.copy()]
    t = 0.0
    for waypoint in path.waypoints[1:]:
        while True:
            estimate = sensor.measure(position, pillar, rng)
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


def wrap_succeeded(trajectory, pillar: Pillar) -> bool:
    """True when the flown loop encircles the pillar at least once."""
    return abs(winding_number(trajectory, pillar.center)) >= 1
