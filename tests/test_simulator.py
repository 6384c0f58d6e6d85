import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wiredrive.allocation import (
    AllocationWeights,
    TensionBounds,
    WinchParams,
    allocate,
    to_currents,
)
from wiredrive.anchors import Pillar, RelativePoseSensor, TrackerGains
from wiredrive.errors import DegenerateWire, NumericalBlowup
from wiredrive.simulator import (
    STANDARD_GRAVITY,
    BodyModel,
    OdometrySensor,
    SensorModel,
    SimState,
    step,
)
from wiredrive.scenario import DeploymentConfig
from wiredrive.spatial import PidGains, Pose, Twist, Wrench
from wiredrive.wires import WireAttachment, WireSet, wire_jacobian, wire_lengths_and_rates

from oracles import ReferenceOdometrySensor, reference_step
from test_wires import eight_wire_cube_layout


def slack_layout():
    return [WireAttachment([0, 0, 0], [5.0, 0.0, 0.0])]


def test_free_body_conserves_momentum():
    body = BodyModel.solid_cube(10.0, 0.4)
    wires = slack_layout()
    state = SimState(
        Pose.identity(), Twist([0.3, -0.2, 0.1], [0.4, 0.1, -0.2]), np.zeros(1)
    )
    p0 = body.mass * np.asarray(state.twist.linear)
    l0 = state.pose.rotation_matrix() @ (
        body.inertia @ (state.pose.rotation_matrix().T @ state.twist.angular)
    )
    for _ in range(10_000):
        state = step(state, np.zeros(1), 1e-3, body, wires, WinchParams(), gravity=0.0)
    p1 = body.mass * np.asarray(state.twist.linear)
    rot = state.pose.rotation_matrix()
    l1 = rot @ (body.inertia @ (rot.T @ state.twist.angular))
    assert np.linalg.norm(p1 - p0) / np.linalg.norm(p0) < 1e-9
    assert np.linalg.norm(l1 - l0) / np.linalg.norm(l0) < 1e-9


def test_free_fall_matches_analytic_drop():
    body = BodyModel.solid_cube(10.0, 0.4)
    wires = slack_layout()
    state = SimState(Pose.from_translation([0, 0, 2.0]), Twist.zero(), np.zeros(1))
    t_final = 0.5
    steps = int(round(t_final / 1e-3))
    for _ in range(steps):
        state = step(state, np.zeros(1), 1e-3, body, wires, WinchParams())
    drop = 2.0 - state.pose.position[2]
    expected = 0.5 * STANDARD_GRAVITY * t_final**2
    assert abs(drop - expected) / expected < 1e-3
    assert expected == pytest.approx(1.226, abs=5e-3)


def test_energy_conserved_under_gravity():
    body = BodyModel.solid_cube(10.0, 0.4)
    wires = slack_layout()
    state = SimState(
        Pose.from_translation([0, 0, 5.0]), Twist([0.5, 0, 1.0], [0.3, -0.5, 0.2]),
        np.zeros(1),
    )

    def energy(s):
        rot = s.pose.rotation_matrix()
        omega_b = rot.T @ s.twist.angular
        kinetic = 0.5 * body.mass * np.asarray(s.twist.linear) @ s.twist.linear
        kinetic += 0.5 * omega_b @ body.inertia @ omega_b
        return kinetic + body.mass * STANDARD_GRAVITY * s.pose.position[2]

    e0 = energy(state)
    for _ in range(1000):
        state = step(state, np.zeros(1), 1e-3, body, wires, WinchParams())
    assert abs(energy(state) - e0) / abs(e0) < 0.005


def test_static_equilibrium_holds_position():
    body = BodyModel.solid_cube(11.0, 0.4)
    wires = eight_wire_cube_layout()
    winch = WinchParams()
    pose = Pose.identity()
    jac = wire_jacobian(pose, wires)
    support = Wrench.from_array([0, 0, body.mass * STANDARD_GRAVITY, 0, 0, 0])
    tensions, residual = allocate(
        jac, support, TensionBounds.uniform(8),
        AllocationWeights.diagonal(scale=1e8, torque_lever=0.2),
    )
    assert np.linalg.norm(residual) < 1e-6
    currents = to_currents(tensions, winch)
    state = SimState.at_rest(pose, 8)
    for _ in range(10_000):
        state = step(state, currents, 1e-3, body, wires, winch)
    assert np.linalg.norm(np.subtract(state.pose.position, pose.position)) < 1e-3


def _vectors(shape, bound):
    return arrays(float, shape, elements=st.floats(-bound, bound, allow_nan=False))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    _vectors(3, 0.2),
    _vectors(3, 1.0),
    _vectors(3, 2.0),
    _vectors(3, 2.0),
    # about 2 A already asks for the winch's max tension
    _vectors(8, 1e6),
)
@example(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), np.array([-3.0] * 4 + [1000.0] * 4))
def test_tensions_never_negative_and_clamped(position, rotvec, linear, angular, currents):
    # the exerted tensions are the plant's promise that wires only pull
    # and never beyond the winch rating: negative currents, huge currents
    # and line speeds the drum cannot match included
    winch = WinchParams()
    state = SimState(Pose.from_rotvec(position, rotvec), Twist(linear, angular), np.zeros(8))
    body = BodyModel.solid_cube(10.0, 0.4)
    tensions = np.asarray(step(state, currents, 1e-3, body, eight_wire_cube_layout(), winch).tensions)
    assert np.all(tensions >= 0.0)
    assert np.all(tensions <= winch.max_tension)
    assert np.all(tensions[currents <= 0.0] == 0.0)
    if not (np.any(linear) or np.any(angular)):
        # at rest no wire outruns its drum, so every command is exerted
        commanded = np.clip(currents / winch.current_per_newton, 0.0, winch.max_tension)
        assert np.array_equal(tensions, commanded)


def test_wire_goes_slack_beyond_line_speed():
    body = BodyModel.solid_cube(5.0, 0.3)
    wires = slack_layout()
    winch = WinchParams()
    currents = to_currents(np.array([50.0]), winch)
    # receding from the anchor faster than the drum can pay out
    fast_away = SimState(
        Pose.identity(), Twist([-1.0, 0, 0], [0, 0, 0]), np.zeros(1)
    )
    assert step(fast_away, currents, 1e-3, body, wires, winch).tensions[0] == 0.0
    # closing on the anchor faster than the drum can wind in
    fast_toward = SimState(
        Pose.identity(), Twist([1.0, 0, 0], [0, 0, 0]), np.zeros(1)
    )
    assert step(fast_toward, currents, 1e-3, body, wires, winch).tensions[0] == 0.0
    # inside the speed limit the commanded tension is exerted
    slow = SimState(Pose.identity(), Twist([0.1, 0, 0], [0, 0, 0]), np.zeros(1))
    assert step(slow, currents, 1e-3, body, wires, winch).tensions[0] == pytest.approx(50.0)


def test_blowup_detection():
    body = BodyModel.solid_cube(1.0, 0.2)
    wires = slack_layout()
    cases = [
        ([1001.0, 0, 0], [0, 0, 0], 0.0),  # over the speed limit
        ([0, 0, 0], [0, 0, 0], np.nan),  # a NaN current command
        ([0, 0, 0], [np.nan, 0, 0], 0.0),  # a NaN angular velocity
    ]
    for linear, angular, current in cases:
        state = SimState(Pose.identity(), Twist(linear, angular), np.zeros(1))
        with pytest.raises(NumericalBlowup):
            step(state, np.array([current]), 1e-2, body, wires, WinchParams(), speed_limit=1000.0)


def test_nan_current_is_a_blowup_naming_the_wire_slack_or_taut():
    # the slack rule would overwrite a slack wire's NaN tension with 0
    body = BodyModel.solid_cube(5.0, 0.3)
    wires = [
        WireAttachment([0, 0, 0], [5.0, 0.0, 0.0]),
        WireAttachment([0, 0, 0], [0.0, 0.0, 5.0]),
    ]
    winch = WinchParams()
    state = SimState(Pose.identity(), Twist([-1.0, 0, 0], [0, 0, 0]), np.zeros(2))
    _, rates = wire_lengths_and_rates(state.pose, state.twist, wires)
    assert abs(rates[0]) > winch.max_line_speed >= abs(rates[1])  # wire 0 slack, 1 taut
    for index in (0, 1):
        currents = list(to_currents(np.array([50.0, 50.0]), winch))
        currents[index] = math.nan
        with pytest.raises(NumericalBlowup, match=f"wire {index}: current is NaN"):
            step(state, currents, 1e-3, body, wires, winch)


def test_step_names_a_faulty_wire_by_its_position_in_the_list():
    # a list built without ids, as a library user writes one
    body = BodyModel.solid_cube(5.0, 0.3)
    winch = WinchParams()
    state = SimState.at_rest(Pose.identity(), 2)
    currents = list(to_currents(np.array([50.0, 50.0]), winch))
    degenerate = [WireAttachment([0, 0, 0], [5.0, 0.0, 0.0]), WireAttachment([0, 0, 0], [0, 0, 0])]
    with pytest.raises(DegenerateWire) as info:
        step(state, currents, 1e-3, body, degenerate, winch)
    assert info.value.wire_id == 1
    assert str(info.value).startswith("wire 1:")
    taut = [WireAttachment([0, 0, 0], [5.0, 0.0, 0.0]), WireAttachment([0, 0, 0], [0.0, 0.0, 5.0])]
    currents[1] = math.nan
    with pytest.raises(NumericalBlowup, match="wire 1: current is NaN"):
        step(state, currents, 1e-3, body, taut, winch)


def test_dt_validation():
    body = BodyModel.solid_cube(1.0, 0.2)
    state = SimState.at_rest(Pose.identity(), 1)
    with pytest.raises(ValueError):
        step(state, np.zeros(1), 0.02, body, slack_layout(), WinchParams())
    with pytest.raises(ValueError):
        step(state, np.zeros(1), 0.0, body, slack_layout(), WinchParams())


def test_determinism_bitwise():
    body = BodyModel.solid_cube(10.0, 0.4)
    wires = eight_wire_cube_layout()
    winch = WinchParams()
    currents = np.linspace(0.05, 0.4, 8)

    def run():
        state = SimState.at_rest(Pose.identity(), 8)
        for _ in range(500):
            state = step(state, currents, 1e-3, body, wires, winch)
        return state

    a, b = run(), run()
    assert np.array_equal(a.pose.position, b.pose.position)
    assert np.array_equal(a.pose.orientation, b.pose.orientation)
    assert np.array_equal(a.twist.as_array(), b.twist.as_array())


def test_sensor_identity_when_noiseless():
    sensor = OdometrySensor(SensorModel(), seed=0)
    state = SimState(
        Pose.from_translation([1, 2, 3]), Twist([0.1, 0, 0], [0, 0.2, 0]), np.zeros(1)
    )
    pose, twist = sensor.measure(state)
    assert np.allclose(pose.position, [1, 2, 3])
    assert np.allclose(twist.as_array(), state.twist.as_array())


def test_sensor_latency_returns_old_state():
    sensor = OdometrySensor(SensorModel(latency=3), seed=0)
    states = [
        SimState(Pose.from_translation([float(i), 0, 0]), Twist.zero(), np.zeros(1), time=i * 1e-3)
        for i in range(10)
    ]
    outputs = [sensor.measure(s)[0].position[0] for s in states]
    # first measurements hold the oldest buffered state, then lag by 3
    assert outputs[:4] == [0.0, 0.0, 0.0, 0.0]
    assert outputs[4:] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_sensor_seeded_noise_reproducible():
    model = SensorModel(position_noise=0.01, rotation_noise=0.002,
                        velocity_noise=0.005, angular_velocity_noise=0.001)
    state = SimState.at_rest(Pose.identity(), 1)
    a = OdometrySensor(model, seed=123)
    b = OdometrySensor(model, seed=123)
    c = OdometrySensor(model, seed=124)
    pa = [a.measure(state)[0].position for _ in range(5)]
    pb = [b.measure(state)[0].position for _ in range(5)]
    pc = [c.measure(state)[0].position for _ in range(5)]
    assert all(np.array_equal(x, y) for x, y in zip(pa, pb))
    assert not all(np.allclose(x, y) for x, y in zip(pa, pc))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    noise=st.tuples(*[st.sampled_from([0.0, 1e-3, 0.05, 1.0])] * 4),
    latency=st.integers(0, 3),
    ticks=st.integers(1, 8),
)
def test_one_draw_of_twelve_gives_the_four_draw_stream(seed, noise, latency, ticks):
    model = SensorModel(*noise, latency=latency)
    sensor, reference = OdometrySensor(model, seed), ReferenceOdometrySensor(model, seed)
    rng = np.random.default_rng(seed)
    for _ in range(ticks):
        state = SimState(Pose(rng.normal(size=3), rng.normal(size=4)),
                         Twist(rng.normal(size=3), rng.normal(size=3)), np.zeros(1))
        (pose, twist), (pose_ref, twist_ref) = sensor.measure(state), reference.measure(state)
        for got, want in ((pose.position, pose_ref.position),
                          (pose.orientation, pose_ref.orientation),
                          (twist.linear, twist_ref.linear), (twist.angular, twist_ref.angular)):
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_body_model_validation():
    with pytest.raises(ValueError):
        BodyModel(0.0, np.eye(3))
    with pytest.raises(ValueError):
        BodyModel(1.0, -np.eye(3))
    cube = BodyModel.solid_cube(12.0, 0.4)
    assert cube.inertia[0, 0] == pytest.approx(12.0 * 0.16 / 6.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("mass", math.nan),
        ("mass", math.inf),
        ("mass", -1.0),
        ("radius", math.nan),
        ("radius", math.inf),
        ("inertia", np.diag([1.0, math.nan, 1.0])),
        ("inertia", np.array([[1.0, math.nan, 0.0], [math.nan, 1.0, 0.0], [0.0, 0.0, 1.0]])),
        ("inertia", np.diag([1.0, 1.0, math.inf])),
    ],
)
def test_body_model_names_the_field_it_rejects(field, value):
    values = {"mass": 2.0, "inertia": np.eye(3), "radius": 0.2, field: value}
    with pytest.raises(ValueError, match=field):
        BodyModel(**values)


# valid values of the record fields that have no default
_REQUIRED_FIELDS = {
    WireAttachment: {"exit_body": [0.0, 0.0, 0.1], "anchor_world": [1.0, 0.0, 1.0]},
    PidGains: dict.fromkeys(("kp", "ki", "kd", "integral_limit"), np.ones(6)),
    BodyModel: {"mass": 2.0, "inertia": np.eye(3)},
    AllocationWeights: {"matrix": np.eye(6)},
    TensionBounds: {"lower": [2.0, 2.0], "upper": [180.0, 180.0]},
    Pillar: {"center": [0.0, 0.0]},
    DeploymentConfig: {"tracker": TrackerGains(), "sensor": RelativePoseSensor(),
                       "capture_radius": 0.05, "waypoint_spacing": 0.15, "drone_dt": 0.02},
}
# where +inf means "no limit", and is valid
_NO_LIMIT = {(WinchParams, "max_tension"), (WinchParams, "max_line_speed"),
             (WinchParams, "winding_capacity"), (TrackerGains, "speed_cap"),
             (TensionBounds, "upper")}


@pytest.mark.parametrize("record, field", [
    (record, f.name)
    for record in (WireAttachment, PidGains, BodyModel, AllocationWeights, TensionBounds,
                   WinchParams, SensorModel, TrackerGains, RelativePoseSensor, Pillar)
    for f in dataclasses.fields(record)
] + [(DeploymentConfig, name) for name in ("capture_radius", "waypoint_spacing", "drone_dt")])
def test_record_constructors_refuse_nan_naming_the_field(record, field):
    # NaN and +-inf raise naming the field, but +inf where it means no
    # limit; an array field is a read-only copy
    valid = {f.name: f.default for f in dataclasses.fields(record)
             if f.default is not dataclasses.MISSING}
    valid.update(_REQUIRED_FIELDS.get(record, {}))

    def with_last(value):
        arr = np.array(valid[field], dtype=float)
        if arr.ndim == 0:
            return value
        arr.flat[-1] = value
        return arr

    for value in (math.nan, -math.inf, math.inf):
        if value == math.inf and (record, field) in _NO_LIMIT:
            record(**{**valid, field: with_last(value)})
            continue
        with pytest.raises(ValueError, match=field):
            record(**{**valid, field: with_last(value)})
    stored = getattr(record(**valid), field)
    if isinstance(stored, np.ndarray):
        assert stored.dtype == float and stored.flags.c_contiguous
        assert not stored.flags.writeable


def test_inverse_inertia_is_read_only_and_follows_replace():
    inertia = np.array([[0.4, 0.05, -0.02], [0.05, 0.3, 0.01], [-0.02, 0.01, 0.5]])
    body = BodyModel(3.0, inertia)
    assert np.allclose(body.inertia_inverse @ body.inertia, np.eye(3), rtol=0.0, atol=1e-14)
    assert not body.inertia_inverse.flags.writeable
    heavier = dataclasses.replace(body, inertia=2.0 * inertia)
    assert np.allclose(heavier.inertia_inverse, 0.5 * body.inertia_inverse, rtol=1e-14, atol=0.0)


@st.composite
def spd_inertias(draw):
    # A A' + 0.05 I over a dense A: the off-diagonal terms of the inverse
    # are exercised, which no bundled (diagonal) body does
    a = draw(arrays(float, (3, 3), elements=st.floats(-1.0, 1.0)))
    inertia = a @ a.T + 0.05 * np.eye(3)
    return 0.5 * (inertia + inertia.T)


_INERTIA = np.array([[0.3, 0.1, 0.0], [0.1, 0.2, -0.05], [0.0, -0.05, 0.4]])
_PER_NEWTON = WinchParams().current_per_newton
# a current whose tension is the default cap, 180 N, to the bit
_AT_CAP = next(c for c in (180.0 * _PER_NEWTON, *np.nextafter(180.0 * _PER_NEWTON, [0.0, 9.0]))
               if c / _PER_NEWTON == 180.0)


def _close(got, want, rel=1e-12):
    return np.linalg.norm(np.subtract(got, want)) <= rel * np.linalg.norm(want)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    _vectors(3, 0.2),
    _vectors(3, 1.0),
    _vectors(3, 2.0),
    _vectors(3, 3.0),
    arrays(float, 8, elements=st.floats(-1.0, 3.0)),
    spd_inertias(),
    st.floats(1.0, 20.0),
    st.floats(1e-4, 1e-2),
    st.integers(0, 7),
)
@example(
    np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), np.full(8, 0.5), _INERTIA, 10.0, 1e-3, 0,
)
@example(  # -0.0 currents: np.maximum(-0.0, 0.0) is +0.0
    np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3),
    np.array([-0.0, 0.5, -0.0, 1.0, 0.0, -0.0, 2.0, -0.0]), _INERTIA, 10.0, 1e-3, 1,
)
@example(  # currents that map exactly onto the tension cap
    np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), np.full(8, _AT_CAP), _INERTIA, 10.0,
    1e-3, 2,
)
@example(  # a line speed over the limit: slack wires among taut ones
    np.zeros(3), np.zeros(3), np.array([0.3, 0.1, 0.0]), np.zeros(3), np.full(8, 1.5),
    _INERTIA, 10.0, 1e-3, 3,
)
def test_step_agrees_with_the_numpy_reference(
    position, rotvec, linear, angular, currents, inertia, mass, dt, index
):
    body = BodyModel(mass, inertia)
    layout = eight_wire_cube_layout()
    winch = WinchParams()
    state = SimState(Pose.from_rotvec(position, rotvec), Twist(linear, angular), np.zeros(8))
    # the reference takes fresh geometry passes; a WireSet serves the
    # step's second call at its pose from its memo
    want = reference_step(state, currents, dt, body, layout, winch)
    for wires in (layout, WireSet(layout)):
        got = step(state, currents, dt, body, wires, winch)
        # the same tensions and slack rule, signed zeros included
        assert np.array(got.tensions).tobytes() == np.array(want.tensions).tobytes()
        assert _close(got.pose.position, want.pose.position)
        assert _close(got.pose.orientation, want.pose.orientation)
        assert _close(got.twist.linear, want.twist.linear)
        assert _close(got.twist.angular, want.twist.angular)
        assert got.time == want.time

    # a NaN current on a taut wire (a slack wire exerts nothing, whatever
    # its command), a NaN angular velocity, and a speed over the limit are
    # a NumericalBlowup in both
    spinning = angular.copy()
    spinning[index % 3] = math.nan
    speed = max(np.linalg.norm(want.twist.linear), np.linalg.norm(want.twist.angular))
    cases = [
        (SimState(state.pose, Twist(linear, spinning), state.tensions), currents, {}),
        (state, currents, {"speed_limit": 0.5 * speed}),
    ]
    _, rates = wire_lengths_and_rates(state.pose, state.twist, wires)
    taut = np.flatnonzero(np.abs(rates) <= winch.max_line_speed)
    if taut.size:
        nan_currents = currents.copy()
        nan_currents[taut[index % taut.size]] = math.nan
        cases.append((state, nan_currents, {}))
    for case_state, case_currents, kwargs in cases:
        for plant in (step, reference_step):
            with pytest.raises(NumericalBlowup):
                plant(case_state, case_currents, dt, body, wires, winch, **kwargs)
