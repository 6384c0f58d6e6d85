import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    allocation_qp_terms,
    box_qp_objective,
    compensate_per_wire,
    grid_search_box_qp,
    random_wire_matrix,
    numpy_projection,
    numpy_solve_box_qp,
    reference_allocate,
    reference_compensate,
    reference_tension_command,
    reference_to_currents,
    tensions_from_currents,
)
from wiredrive.allocation import (
    AllocationWeights,
    TensionBounds,
    WinchParams,
    allocate,
    compensate,
    solve_tension_command,
    tension_command,
    to_currents,
)
from wiredrive import allocation
from wiredrive.errors import SolverFailure
from wiredrive.qp import solve_box_qp
from wiredrive.scenario import bundled_scenario_path, load_scenario
from wiredrive.spatial import Pose, Wrench
from wiredrive.wires import wire_jacobian


def tension_objective(matrix, wrench, weights, f):
    f = np.asarray(f)
    res = wrench - matrix @ f
    return float(f @ f) + float(res @ weights @ res)


def test_zero_wrench_zero_pretension_gives_zero():
    rng = np.random.default_rng(0)
    mat = random_wire_matrix(rng, 4)
    bounds = TensionBounds.uniform(4, lower=0.0)
    weights = AllocationWeights.diagonal(scale=100.0)
    f, residual = allocate(mat, Wrench.zero(), bounds, weights)
    assert np.allclose(f, np.zeros(4), atol=1e-9)
    assert np.allclose(residual, np.zeros(6), atol=1e-9)


def test_two_opposing_collinear_wires():
    # wires along +x and -x, 10 N requested along +x with heavy tracking
    # weight: the +x wire carries ~10 N and the -x wire stays slack at 0
    mat = np.zeros((6, 2))
    mat[0, 0] = 1.0
    mat[0, 1] = -1.0
    bounds = TensionBounds(np.zeros(2), np.full(2, 180.0))
    weights = AllocationWeights(np.diag([1e6] * 6))
    wrench = Wrench.from_array([10.0, 0, 0, 0, 0, 0])
    f, residual = allocate(mat, wrench, bounds, weights)
    assert f[0] == pytest.approx(10.0, abs=1e-3)
    assert f[1] == pytest.approx(0.0, abs=1e-6)
    assert np.linalg.norm(residual) < 1e-3


def test_bounds_always_satisfied():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = int(rng.integers(2, 9))
        mat = random_wire_matrix(rng, m)
        lower = rng.uniform(0.0, 3.0)
        bounds = TensionBounds(np.full(m, lower), np.full(m, rng.uniform(20.0, 180.0)))
        weights = AllocationWeights.diagonal(scale=rng.uniform(1.0, 1e5))
        wrench = Wrench.from_array(rng.normal(scale=80.0, size=6))
        f, _ = allocate(mat, wrench, bounds, weights)
        assert np.all(np.asarray(f) >= np.asarray(bounds.lower) - 1e-10)
        assert np.all(np.asarray(f) <= np.asarray(bounds.upper) + 1e-10)


def test_matches_grid_oracle_small_instances():
    rng = np.random.default_rng(2)
    for _ in range(25):
        m = int(rng.integers(2, 5))
        mat = random_wire_matrix(rng, m)
        weights_diag = np.concatenate(
            [rng.uniform(0.2, 1.0, size=3), rng.uniform(0.2, 1.0, size=3)]
        )
        weights = AllocationWeights(np.diag(weights_diag))
        wrench_vec = rng.normal(scale=8.0, size=6)
        bounds = TensionBounds(np.zeros(m), np.full(m, 180.0))
        f, _ = allocate(mat, Wrench.from_array(wrench_vec), bounds, weights)
        hessian, gradient = allocation_qp_terms(mat, wrench_vec, weights.matrix)
        _, grid_obj = grid_search_box_qp(hessian, gradient, bounds.lower, bounds.upper, step=0.01)
        solver_obj = box_qp_objective(hessian, gradient, f)
        assert abs(solver_obj - grid_obj) <= 1e-3
        assert solver_obj <= grid_obj + 1e-9


def test_saturating_instance_reports_residual_and_clamped_wires():
    # two wires pulling nearly parallel cannot produce 500 N sideways
    mat = np.zeros((6, 2))
    mat[:3, 0] = [1.0, 0.0, 0.0]
    mat[:3, 1] = [np.cos(0.2), np.sin(0.2), 0.0]
    bounds = TensionBounds(np.zeros(2), np.full(2, 180.0))
    weights = AllocationWeights(np.diag([1e6] * 6))
    wrench = Wrench.from_array([500.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    f, residual = allocate(mat, wrench, bounds, weights)
    assert np.sum(np.asarray(f) >= 180.0 - 1e-6) >= 1
    direct = wrench.as_array() - mat @ f
    assert type(residual) is tuple and len(residual) == 6
    assert np.allclose(residual, direct, atol=1e-9)
    assert np.linalg.norm(residual) > 1.0


def test_nan_wrench_raises_instead_of_returning_nan_tensions():
    mat = random_wire_matrix(np.random.default_rng(2), 8)
    bounds = TensionBounds(np.zeros(8), np.full(8, 180.0))
    wrench = Wrench.from_array([np.nan, 0.0, 30.0, 0.0, 0.0, 0.0])
    with pytest.raises(SolverFailure):
        allocate(mat, wrench, bounds, AllocationWeights.diagonal(scale=1e8))


def test_raising_upper_bound_never_worsens_objective():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = int(rng.integers(2, 6))
        mat = random_wire_matrix(rng, m)
        weights = AllocationWeights.diagonal(scale=10.0)
        wrench_vec = rng.normal(scale=60.0, size=6)
        tight = TensionBounds(np.zeros(m), np.full(m, 40.0))
        loose = TensionBounds(np.zeros(m), np.full(m, 80.0))
        f_tight, _ = allocate(mat, Wrench.from_array(wrench_vec), tight, weights)
        f_loose, _ = allocate(mat, Wrench.from_array(wrench_vec), loose, weights)
        obj_tight = tension_objective(mat, wrench_vec, weights.matrix, f_tight)
        obj_loose = tension_objective(mat, wrench_vec, weights.matrix, f_loose)
        assert obj_loose <= obj_tight + 1e-8


def test_compensate_identity_when_static_and_frictionless():
    winch = WinchParams(rotor_inertia=0.0, coulomb_friction=0.0, viscous_friction=0.0)
    f = np.array([5.0, 10.0, 0.0])
    out = compensate(f, np.zeros(6), np.zeros(3), np.zeros((6, 3)), winch)
    assert np.allclose(out, f)


def test_compensate_viscous_term():
    # drum speed 10 rad/s with b = 0.001 and r = 0.008 adds 1.25 N
    winch = WinchParams(rotor_inertia=0.0, coulomb_friction=0.0, viscous_friction=0.001)
    rate = -10.0 * winch.pulley_radius  # winding in at 10 rad/s
    out = compensate(np.array([1.0]), np.zeros(6), np.array([rate]), np.zeros((6, 1)), winch)
    assert out[0] == pytest.approx(1.0 + 1.25)


def test_compensate_inertia_term():
    # J = 1e-5, drum accel 100 rad/s^2, r = 0.008 adds 0.125 N
    winch = WinchParams(rotor_inertia=1e-5, coulomb_friction=0.0, viscous_friction=0.0)
    mat = np.zeros((6, 1))
    mat[0, 0] = 1.0  # wire along +x
    # body accel +x of r*100 makes the projected length accel -r*100,
    # i.e. the drum must spin up at +100 rad/s^2
    accel = np.zeros(6)
    accel[0] = winch.pulley_radius * 100.0
    out = compensate(np.array([1.0]), accel, np.zeros(1), mat, winch)
    assert out[0] == pytest.approx(1.0 + 0.125)


def test_compensate_never_negative():
    winch = WinchParams(rotor_inertia=1e-3, coulomb_friction=0.0, viscous_friction=0.0)
    mat = np.zeros((6, 1))
    mat[0, 0] = 1.0
    accel = np.zeros(6)
    accel[0] = -1000.0
    out = compensate(np.array([0.5]), accel, np.zeros(1), mat, winch)
    assert out[0] == 0.0


def test_current_map_reference_point():
    # 92.75 N through r = 0.008 m, G = 53, Kt = 0.014 commands 1.000 A
    winch = WinchParams()
    currents = to_currents(np.array([92.75]), winch)
    assert currents[0] == pytest.approx(1.0, abs=1e-3)


def test_current_map_zero_and_linearity():
    winch = WinchParams(eff_pulley=0.9, eff_gear=0.85)
    assert to_currents(np.zeros(4), winch)[0] == 0.0
    f = np.array([10.0, 20.0, 45.0, 180.0])
    assert np.allclose(to_currents(2 * f, winch), 2 * np.asarray(to_currents(f, winch)))
    assert np.allclose(tensions_from_currents(to_currents(f, winch), winch), f)


def test_current_map_rejects_negative_tension():
    with pytest.raises(ValueError):
        to_currents(np.array([-1.0]), WinchParams())


def test_solve_tension_command_populates_all_fields():
    rng = np.random.default_rng(4)
    mat = random_wire_matrix(rng, 4)
    bounds = TensionBounds.uniform(4)
    weights = AllocationWeights.diagonal(scale=1e4)
    cmd = solve_tension_command(
        mat, Wrench.from_array([0, 0, 50.0, 0, 0, 0]), bounds, weights,
        np.zeros(6), np.zeros(4), WinchParams(),
    )
    for values in (cmd.tensions, cmd.tensions_final):  # Python floats from array rates too
        assert type(values) is tuple and all(type(v) is float for v in values)
    assert np.all(np.asarray(cmd.tensions) >= np.asarray(bounds.lower) - 1e-10)
    assert np.all(np.asarray(cmd.tensions_final) >= 0.0)
    assert len(cmd.currents) == 4 and all(type(c) is float for c in cmd.currents)
    assert cmd.residual_norm >= 0.0
    assert all(type(s) is bool for s in cmd.saturated)


def test_the_command_tail_gives_python_floats_for_array_inputs():
    # an array's elements are np.float64, which telemetry would write as np.float64(...)
    winch, bounds = WinchParams(), TensionBounds.uniform(3)
    tensions = np.array([10.0, 20.0, 30.0])
    final = compensate(tensions, np.ones(6), np.full(3, -0.01), np.ones((6, 3)), winch)
    command = tension_command(tensions, np.asarray(final), np.ones(6), bounds, winch)
    for values in (final, to_currents(tensions, winch), command.tensions, command.tensions_final,
                   command.currents):
        assert type(values) is tuple and all(type(v) is float for v in values)
    assert command.tensions == tuple(tensions.tolist()) and command.tensions_final == final


def test_bounds_validation():
    with pytest.raises(ValueError):
        TensionBounds(np.array([-1.0]), np.array([10.0]))
    with pytest.raises(ValueError):
        TensionBounds(np.array([5.0]), np.array([5.0]))
    with pytest.raises(ValueError, match="^expected shape \\(2,\\) for upper"):
        TensionBounds(np.zeros(2), np.full(3, 10.0))


def test_weights_validation():
    with pytest.raises(ValueError):
        AllocationWeights(np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0]))
    asym = np.eye(6)
    asym[0, 1] = 1e-6
    with pytest.raises(ValueError):
        AllocationWeights(asym)


_PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


winch_params = st.builds(
    WinchParams,
    pulley_radius=_floats(0.004, 0.05),
    gear_ratio=_floats(1.0, 100.0),
    torque_constant=_floats(0.005, 0.1),
    eff_pulley=_floats(0.5, 1.0),
    eff_gear=_floats(0.5, 1.0),
    rotor_inertia=_floats(0.0, 1e-3),
    coulomb_friction=_floats(0.0, 0.05),
    viscous_friction=_floats(0.0, 1e-2),
)


@st.composite
def drivetrain_cases(draw):
    m = draw(st.integers(1, 8))
    return (
        draw(winch_params),
        # tensions below a micronewton would push currents into subnormals
        draw(arrays(float, m, elements=st.one_of(st.just(0.0), _floats(1e-6, 200.0)),
                    fill=st.nothing())),
        draw(arrays(float, 6, elements=_floats(-20.0, 20.0), fill=st.nothing())),
        draw(arrays(float, m, elements=_floats(-1.0, 1.0), fill=st.nothing())),
        draw(arrays(float, (6, m), elements=_floats(-2.0, 2.0), fill=st.nothing())),
    )


@_PROPERTY
@given(drivetrain_cases())
def test_compensate_matches_per_wire_oracle(case):
    winch, tensions, accel, rates, matrix = case
    out = compensate(tensions, accel, rates, matrix, winch)
    expected = compensate_per_wire(tensions, accel, rates, matrix, winch)
    assert np.allclose(out, expected, rtol=1e-12, atol=1e-12)


@_PROPERTY
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_the_compensation_projection_is_summed_in_a_fixed_order(m, seed):
    # each wire's column times the acceleration, six rows from the first product
    rng = np.random.default_rng(seed)
    winch = WinchParams(rotor_inertia=1e-4)
    tensions, rates = rng.uniform(0.0, 180.0, size=m), rng.uniform(-0.2, 0.2, size=m)
    matrix, accel = random_wire_matrix(rng, m), rng.normal(scale=20.0, size=6)
    final = compensate(tuple(tensions.tolist()), tuple(accel.tolist()), tuple(rates.tolist()),
                       tuple(map(tuple, matrix.tolist())), winch)
    assert _bits(final) == _bits(reference_compensate(tensions, accel, rates, matrix, winch))


@_PROPERTY
@given(drivetrain_cases())
def test_current_map_round_trip(case):
    winch, tensions, _, _, _ = case
    back = tensions_from_currents(to_currents(tensions, winch), winch)
    assert np.allclose(back, tensions, rtol=1e-15, atol=0.0)


def _with_specials(elements):
    return st.one_of(elements, st.sampled_from([0.0, -0.0, math.nan]))


@st.composite
def command_tails(draw):
    """Inputs to the command tail with zeros of either sign and NaNs mixed
    in, a frictionless and inertia-free winch at times, and compensation
    large enough to clamp some wires at zero.  The acceleration and the
    matrix come from a seeded generator, so their products carry full
    mantissas and a projection summed in another order rounds otherwise."""
    m = draw(st.integers(1, 8))
    winch = draw(st.one_of(winch_params, st.just(WinchParams(
        rotor_inertia=0.0, coulomb_friction=0.0, viscous_friction=0.0))))
    tensions = draw(arrays(float, m, elements=_with_specials(_floats(0.0, 200.0)),
                           fill=st.nothing()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    accel, matrix = rng.uniform(-500.0, 500.0, size=6), rng.uniform(-2.0, 2.0, size=(6, m))
    rates = draw(arrays(float, m, elements=_with_specials(_floats(-1.0, 1.0)),
                        fill=st.nothing()))
    residual = draw(arrays(float, 6, elements=_with_specials(_floats(-1e3, 1e3)),
                           fill=st.nothing()))
    upper = draw(st.sampled_from([80.0, 180.0]))
    return winch, tensions, accel, rates, matrix, residual, TensionBounds.uniform(m, 0.0, upper)


def _bits(value):
    return np.asarray(value).tobytes()


@_PROPERTY
@given(command_tails())
@example(case=(  # a NaN acceleration meets a NaN rate, two NaNs of opposite sign
    WinchParams(pulley_radius=0.03125, gear_ratio=1.0, torque_constant=0.0625,
                rotor_inertia=0.0, coulomb_friction=0.0, viscous_friction=0.0),
    np.zeros(1), np.full(6, math.nan), np.full(1, math.nan), np.zeros((6, 1)), np.zeros(6),
    TensionBounds.uniform(1, 0.0, 80.0),
))
def test_the_command_tail_is_bit_identical_to_its_array_formulation(case):
    # the library reads the float tuples the tick passes, the reference arrays
    # after a projection summed in a fixed order; the BLAS projection agrees
    # to rounding, which the inertia term scales by J / r^2
    winch, tensions, accel, rates, matrix, residual, bounds = case
    final = compensate(tuple(tensions.tolist()), accel, tuple(rates.tolist()),
                       tuple(map(tuple, matrix.tolist())), winch)
    assert all(type(v) is float for v in final) and _bits(final) == _bits(
        reference_compensate(tensions, accel, rates, matrix, winch))
    assert np.allclose(final, reference_compensate(tensions, accel, rates, matrix, winch,
                                                   project=numpy_projection),
                       rtol=1e-12, atol=1e-9, equal_nan=True)
    # tensions as allocated, clamped into the box, and compensated ones that may be NaN
    allocated = np.clip(tensions, bounds.lower, bounds.upper)
    command = tension_command(tuple(allocated.tolist()), final, residual, bounds, winch)
    expected = reference_tension_command(allocated, final, residual, bounds, winch)
    # each field a tuple of Python floats, or of bools for the flags
    for field, kind in (("tensions", float), ("tensions_final", float), ("currents", float),
                        ("saturated", bool)):
        got, want = getattr(command, field), getattr(expected, field)
        assert all(type(v) is kind for v in got) and _bits(got) == _bits(want), field
    assert _bits(command.residual_norm) == _bits(expected.residual_norm)
    assert np.allclose(command.residual_norm, np.linalg.norm(residual), rtol=1e-15, atol=0.0,
                       equal_nan=True)
    pushing = np.append(final, -0.5)
    with pytest.raises(ValueError, match="non-negative"):
        reference_to_currents(pushing, winch)
    with pytest.raises(ValueError, match="non-negative"):
        to_currents(pushing, winch)


@st.composite
def allocation_cases(draw):
    """Allocation problems like the control loop's: m wires, a diagonal
    weight of scale 1 to 1e8 with its torque rows scaled, a wrench, a box
    tight enough that some wires sit at a bound, and a warm start or none."""
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = tuple(map(tuple, random_wire_matrix(rng, m).tolist()))
    weights = AllocationWeights.diagonal(draw(st.sampled_from([1.0, 1e4, 1e8])),
                                         draw(st.sampled_from([0.1, 0.2, 0.35])))
    wrench = Wrench.from_array(rng.normal(scale=draw(st.sampled_from([1.0, 50.0])), size=6))
    lower = draw(st.sampled_from([0.0, 2.0]))
    bounds = TensionBounds.uniform(m, lower, lower + draw(st.sampled_from([20.0, 80.0, 180.0])))
    start = draw(st.one_of(st.none(), st.just(tuple(rng.uniform(lower, lower + 20.0, m).tolist()))))
    return matrix, wrench, bounds, weights, start


@_PROPERTY
@given(allocation_cases())
def test_allocate_is_bit_identical_to_its_float_formulation(case):
    # the fixed-order H, g and residual of `reference_allocate`, bit for bit;
    # the BLAS formulation on the numpy solver agrees on the optimum to 1e-9
    matrix, wrench, bounds, weights, start = case
    try:
        expected = reference_allocate(matrix, wrench, bounds, weights, start=start)
    except SolverFailure:
        with pytest.raises(SolverFailure):
            allocate(matrix, wrench, bounds, weights, start=start)
        return
    tensions, residual = allocate(matrix, wrench, bounds, weights, start=start)
    for got, want in zip((tensions, residual), expected):
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert _bits(got) == _bits(want)
    hessian, gradient = allocation_qp_terms(matrix, wrench.as_array(), weights.matrix)
    numpy_tensions, _, _ = numpy_solve_box_qp(hessian, gradient, bounds.lower, bounds.upper,
                                              start=start)
    value, value_ref = (box_qp_objective(hessian, gradient, f) for f in (tensions, numpy_tensions))
    assert abs(value - value_ref) <= 1e-9 * (1.0 + abs(value_ref))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(-0.1, 0.1), min_size=3, max_size=3),
       st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=3),
       st.lists(st.floats(-20.0, 20.0), min_size=6, max_size=6))
def test_the_hessian_allocate_hands_the_qp_is_exactly_symmetric(offset, rotvec, wrench):
    # entry (i, j) and entry (j, i) are one number, at any cube8 pose
    scenario = load_scenario(bundled_scenario_path("cube8"))
    position = np.add(scenario.start_pose.position, offset)
    matrix = wire_jacobian(Pose.from_rotvec(position, rotvec), scenario.wires)
    support = Wrench.from_array(np.add(wrench, [0.0, 0.0, 9.80665 * scenario.body.mass, 0, 0, 0]))
    hessians = []

    def spy(hessian, *args, **kwargs):
        hessians.append(hessian)
        return solve_box_qp(hessian, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(allocation, "solve_box_qp", spy)
        allocate(matrix, support, scenario.bounds, scenario.weights)
    (hessian,) = hessians
    m = scenario.wire_count
    assert [[_bits(float(hessian[i][j])) for j in range(m)] for i in range(m)] == [
        [_bits(float(hessian[j][i])) for j in range(m)] for i in range(m)]


def test_weights_are_diagonal_and_keep_the_roots_of_their_diagonal():
    weights = AllocationWeights.diagonal(scale=1e4, torque_lever=0.2)
    assert weights.roots == tuple(math.sqrt(v) for v in np.diagonal(weights.matrix).tolist())
    assert weights.matrix[0, 0] == 1e4
    with pytest.raises(ValueError, match="diagonal"):
        AllocationWeights(np.eye(6) + np.eye(6, k=1))
