import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wiredrive.anchors import (
    Pillar,
    RelativePoseSensor,
    TrackerGains,
    plan_wrap_path,
    track_path,
    winding_number,
)
from wiredrive.errors import AmbiguousWinding, NoClearance, TrackingTimeout


def unit_square_loop(reps=1, ccw=True, offset=(0.0, 0.0)):
    square = np.array(
        [[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=float
    )
    if not ccw:
        square = square[::-1]
    pts = np.vstack([square] * reps + [square[:1]])
    pts = pts + np.asarray(offset)
    return np.hstack([pts, np.zeros((len(pts), 1))])


def test_winding_number_canonical_loops():
    assert winding_number(unit_square_loop(), [0, 0]) == 1
    assert winding_number(unit_square_loop(ccw=False), [0, 0]) == -1
    assert winding_number(unit_square_loop(reps=2), [0, 0]) == 2


def test_winding_number_exterior_path_is_zero():
    path = np.array([[5, 0, 0], [5, 1, 0], [6, 1, 0], [6, 0, 0], [5, 0, 0]], dtype=float)
    assert winding_number(path, [0, 0]) == 0


def test_winding_number_invariant_to_resampling_and_rotation():
    loop = unit_square_loop()
    dense = []
    for a, b in zip(loop, loop[1:]):
        for k in range(10):
            dense.append(a + (b - a) * k / 10)
    dense.append(loop[-1])
    dense = np.array(dense)
    assert winding_number(dense, [0, 0]) == 1
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rotated = dense.copy()
    rotated[:, :2] = dense[:, :2] @ rot.T
    assert winding_number(rotated, rot @ np.zeros(2)) == 1


def test_winding_number_ambiguous_cases():
    with pytest.raises(AmbiguousWinding):
        winding_number(np.array([[1.0, 0, 0], [0.0, 1.0, 0]]), [0, 0])
    half = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0]], dtype=float)
    with pytest.raises(AmbiguousWinding):
        winding_number(half, [0, 0])
    through = np.array([[1, 0, 0], [0, 0, 0], [-1, 0, 0], [1, 0, 0]], dtype=float)
    with pytest.raises(AmbiguousWinding):
        winding_number(through, [0, 0])


def test_plan_wrap_path_corners_outside_inflated_box():
    pillar = Pillar(center=[0.0, 0.0])
    waypoints = plan_wrap_path(pillar, [1.5, 0.0, 1.2], clearance=0.3)
    # footprint 0.175 x 0.35 inflated by 0.3 -> 0.475 x 0.65 half extents
    d = np.abs(waypoints[:, :2])
    outside = (d[:, 0] >= 0.475 - 1e-9) | (d[:, 1] >= 0.65 - 1e-9)
    assert outside.all()


def test_plan_wrap_path_winds_once():
    pillar = Pillar(center=[0.4, -0.2])
    waypoints = plan_wrap_path(pillar, [2.0, 1.0, 1.0], clearance=0.25)
    assert winding_number(waypoints, pillar.center) == 1


def test_plan_wrap_path_spacing_respected():
    pillar = Pillar(center=[0.0, 0.0])
    waypoints = plan_wrap_path(pillar, [1.5, 0.3, 1.0], clearance=0.3, spacing=0.1)
    gaps = np.linalg.norm(np.diff(waypoints, axis=0), axis=1)
    assert np.max(gaps) <= 0.1 + 1e-9


def test_plan_wrap_path_rejects_approach_inside_footprint():
    pillar = Pillar(center=[0.0, 0.0])
    with pytest.raises(NoClearance):
        plan_wrap_path(pillar, [0.2, 0.0, 1.0], clearance=0.3)


def test_track_path_noiseless_captures_all_waypoints():
    pillar = Pillar(center=[0.0, 0.0])
    waypoints = plan_wrap_path(pillar, [1.2, 0.0, 1.2], clearance=0.3)
    traj = track_path(waypoints, RelativePoseSensor(), seed=1)
    assert np.linalg.norm(traj[-1] - waypoints[-1]) < 0.05
    assert abs(winding_number(traj, pillar.center)) >= 1


def test_track_path_noisy_monte_carlo():
    pillar = Pillar(center=[0.0, 0.0])
    waypoints = plan_wrap_path(pillar, [1.2, 0.4, 1.2], clearance=0.3)
    sensor = RelativePoseSensor(noise_std=0.02)
    for seed in range(20):
        traj = track_path(waypoints, sensor, seed=seed)
        assert winding_number(traj, pillar.center) == 1


def test_track_path_timeout_on_unreachable_waypoint():
    waypoints = np.array([[1.0, 0.0, 1.0], [500.0, 0.0, 1.0]])
    with pytest.raises(TrackingTimeout):
        track_path(waypoints, RelativePoseSensor(), timeout=1.0, seed=0)


def test_track_path_deterministic_per_seed():
    pillar = Pillar(center=[0.0, 0.0])
    waypoints = plan_wrap_path(pillar, [1.0, 1.0, 1.0], clearance=0.3)
    sensor = RelativePoseSensor(noise_std=0.01)
    a = track_path(waypoints, sensor, seed=7)
    b = track_path(waypoints, sensor, seed=7)
    assert np.array_equal(a, b)


def test_direct_flight_past_pillar_is_no_wrap():
    pillar = Pillar(center=[0.0, 0.0])
    # out-and-back pass: closed run that never encircles the pillar
    out = np.linspace([-2.0, 1.0, 1.0], [2.0, 1.0, 1.0], 20)
    flyby = np.vstack([out, out[::-1]])
    assert winding_number(flyby, pillar.center) == 0
    # an open flyby that cuts close subtends a large fraction of a turn
    # and is refused rather than guessed at
    with pytest.raises(AmbiguousWinding):
        winding_number(out, pillar.center)


def test_sensor_draws_three_normals_per_measurement_at_any_noise():
    # so the drone's random stream does not depend on the noise level
    exact, noisy = RelativePoseSensor(noise_std=0.0), RelativePoseSensor(noise_std=0.5)
    rng_exact, rng_noisy, normals = (np.random.default_rng(3) for _ in range(3))
    for position in ([0.5, 0.0, 1.0], [5.0, -2.0, 1.0], [40.0, 3.0, 0.2]):
        assert np.array_equal(exact.measure(position, rng_exact), position)
        expected = np.asarray(position) + 0.5 * normals.normal(size=3)
        assert np.array_equal(noisy.measure(position, rng_noisy), expected)
    assert rng_exact.random() == rng_noisy.random() == normals.random()


def test_tracker_speed_cap_enforced():
    waypoints = np.array([[2.0, 0.0, 1.0], [4.0, 0.0, 1.0]])
    dt = 0.02
    traj = track_path(waypoints, RelativePoseSensor(),
                      gains=TrackerGains(kp=50.0, speed_cap=0.5), dt=dt, seed=0)
    speeds = np.linalg.norm(np.diff(traj, axis=0), axis=1) / dt
    assert np.max(speeds) <= 0.5 + 1e-9


@pytest.mark.parametrize("clearance, spacing, name", [
    (float("nan"), 0.15, "clearance"), (0.0, 0.15, "clearance"),
    (0.3, 0.0, "spacing"), (0.3, float("nan"), "spacing"), (0.3, -0.1, "spacing"),
])
def test_plan_wrap_path_refuses_a_length_that_is_not_positive(clearance, spacing, name):
    with pytest.raises(ValueError, match=f"^{name} must be positive"):
        plan_wrap_path(Pillar(center=[0.0, 0.0]), [1.5, 0.0, 1.0], clearance, spacing=spacing)


# one call of track_path on a 1 m path with the named argument set to the
# value; it prints the ValueError it raises
_TRACK_ONE_METRE = """
import sys
import numpy as np
from wiredrive.anchors import RelativePoseSensor, track_path
name, value = sys.argv[1], float(sys.argv[2])
waypoints, kwargs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]]), {name: value}
if name == "waypoints":
    waypoints[1, 0], kwargs = value, {}
try:
    track_path(waypoints, RelativePoseSensor(), **kwargs)
except ValueError as exc:
    print(exc)
"""


@pytest.mark.parametrize("name, value, message", [
    ("dt", "0.0", "dt must be positive"), ("dt", "nan", "dt must be positive"),
    ("dt", "-0.02", "dt must be positive"), ("timeout", "nan", "timeout must be positive"),
    ("waypoints", "nan", "waypoints must be finite"),
])
def test_track_path_refuses_a_value_its_clock_would_never_pass(name, value, message):
    # with such a value the loop never reaches the timeout and runs for
    # ever, so the call runs in a process of its own, with a time limit
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", _TRACK_ONE_METRE, name, value],
                          env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(message), done.stdout
