import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    numpy_wire_jacobian,
    reference_geometry,
    reference_wire_jacobian,
    reference_wire_lengths_and_rates,
    reference_wire_wrench,
    transform_point,
    wire_length,
)
from wiredrive.errors import DegenerateWire
from wiredrive.spatial import Pose, Twist, hamilton, quat_unit, rotation_rows, rotvec_exp
from wiredrive.wires import (
    DEGENERACY_THRESHOLD,
    WireAttachment,
    WireSet,
    wire_jacobian,
    wire_lengths_and_rates,
    wire_wrench,
)


def random_layout(rng, m, body_radius=0.3, span=2.0):
    wires = []
    for i in range(m):
        exit_body = rng.uniform(-body_radius, body_radius, size=3)
        anchor = rng.uniform(-span, span, size=3)
        anchor += np.sign(anchor) * 0.8  # keep anchors well away from the body
        wires.append(WireAttachment(exit_body, anchor))
    return wires


def random_pose(rng, scale=0.3):
    rv = rng.normal(size=3)
    rv *= rng.uniform(0, 1.5) / max(np.linalg.norm(rv), 1e-12)
    return Pose.from_rotvec(rng.normal(scale=scale, size=3), rv)


def directions_and_exits(pose, wires):
    """Direction rows of the wire matrix, and the world exit points they imply:
    each anchor minus its wire's length along its direction."""
    dirs = np.asarray(wire_jacobian(pose, wires))[:3].T
    lengths, _ = wire_lengths_and_rates(pose, Twist.zero(), wires)
    anchors = np.array([w.anchor_world for w in wires])
    return dirs, anchors - np.array(lengths)[:, None] * dirs


def test_axis_aligned_direction():
    wires = [WireAttachment([0, 0, 0], [2.0, 0.0, 0.0])]
    dirs, exits = directions_and_exits(Pose.identity(), wires)
    assert np.allclose(dirs[0], [1.0, 0.0, 0.0])
    assert np.allclose(exits[0], [0.0, 0.0, 0.0])


def test_direction_normalization():
    wires = [WireAttachment([0, 0, 0], [1.0, 1.0, 0.0])]
    dirs, _ = directions_and_exits(Pose.identity(), wires)
    assert np.allclose(dirs[0], [np.sqrt(2) / 2, np.sqrt(2) / 2, 0.0])


def test_direction_in_rotated_frame():
    pose = Pose.from_rotvec(np.zeros(3), [0.0, 0.0, np.pi / 2])
    wires = [WireAttachment([0.1, 0.0, 0.0], [0.0, 2.0, 0.0])]
    dirs, exits = directions_and_exits(pose, wires)
    assert np.allclose(exits[0], [0.0, 0.1, 0.0], atol=1e-12)
    assert np.allclose(dirs[0], [0.0, 1.0, 0.0], atol=1e-12)


def test_degenerate_wire_raises_with_id():
    wires = [
        WireAttachment([0, 0, 0], [1.0, 0.0, 0.0]),
        WireAttachment([0.1, 0.0, 0.0], [0.1, 0.0, 0.0]),
    ]
    for attachments in (wires, WireSet(wires)):
        with pytest.raises(DegenerateWire) as info:
            wire_jacobian(Pose.identity(), attachments)
        assert info.value.wire_id == 1  # its position in the list


def test_degeneracy_threshold_is_inclusive():
    # sqrt of the rounded square gives the threshold back exactly
    at = [WireAttachment([0, 0, 0], [DEGENERACY_THRESHOLD, 0.0, 0.0])]
    beyond = [WireAttachment([0, 0, 0], [np.nextafter(DEGENERACY_THRESHOLD, 1.0), 0.0, 0.0])]
    pose = Pose.identity()
    for call in (lambda wires: reference_geometry(pose, wires),
                 lambda wires: wire_jacobian(pose, wires),
                 lambda wires: wire_lengths_and_rates(pose, Twist.zero(), wires)):
        with pytest.raises(DegenerateWire) as info:
            call(at)
        assert (info.value.wire_id, info.value.separation) == (0, DEGENERACY_THRESHOLD)
        call(beyond)


def test_jacobian_zero_lever_column():
    wires = [WireAttachment([0, 0, 0], [3.0, 0.0, 0.0])]
    jac = np.asarray(wire_jacobian(Pose.identity(), wires))
    assert np.allclose(jac[:, 0], [1, 0, 0, 0, 0, 0])


def test_jacobian_hand_cross_product():
    # lever (0, 0.1, 0) with direction +x gives torque (0, 0, -0.1)
    wires = [WireAttachment([0.0, 0.1, 0.0], [5.0, 0.1, 0.0])]
    jac = np.asarray(wire_jacobian(Pose.identity(), wires))
    assert np.allclose(jac[:, 0], [1, 0, 0, 0, 0, -0.1], atol=1e-12)


def test_jacobian_lever_uses_rotation_not_translation():
    # translating the body must not change the lever arm term
    wires = [WireAttachment([0.0, 0.1, 0.0], [5.0, 0.1, 0.0])]
    near = np.asarray(wire_jacobian(Pose.identity(), wires))
    far = np.asarray(wire_jacobian(Pose.from_translation([1.0, 0.0, 0.0]), wires))
    assert np.allclose(near[3:, 0], far[3:, 0], atol=1e-12)


def test_wrench_matches_per_wire_accumulation():
    # independent oracle: accumulate each wire's force/torque separately
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        wires = random_layout(rng, m)
        pose = random_pose(rng)
        tensions = rng.uniform(0.0, 150.0, size=m)
        total = wire_wrench(wire_jacobian(pose, wires), tuple(tensions.tolist()))
        rot = np.array(rotation_rows(pose.orientation))
        expected = np.zeros(6)
        for wire, tension in zip(wires, tensions):
            exit_world = pose.position + rot @ wire.exit_body
            span = wire.anchor_world - exit_world
            direction = span / np.linalg.norm(span)
            force = tension * direction
            torque = np.cross(rot @ wire.exit_body, force)
            expected[:3] += force
            expected[3:] += torque
        assert np.allclose(total, expected, atol=1e-12)


def test_jacobian_invariant_to_anchor_distance_along_ray():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pose = random_pose(rng)
        exit_body = rng.uniform(-0.2, 0.2, size=3)
        exit_world = transform_point(pose, exit_body)
        ray = rng.normal(size=3)
        ray /= np.linalg.norm(ray)
        near = [WireAttachment(exit_body, exit_world + 1.0 * ray)]
        far = [WireAttachment(exit_body, exit_world + 7.3 * ray)]
        assert np.allclose(wire_jacobian(pose, near), wire_jacobian(pose, far), atol=1e-12)


def test_static_body_has_zero_rates():
    rng = np.random.default_rng(2)
    wires = random_layout(rng, 6)
    lengths, rates = wire_lengths_and_rates(random_pose(rng), Twist.zero(), wires)
    assert np.allclose(rates, np.zeros(6))
    assert min(lengths) > 0


def test_collinear_motion_rate():
    wires = [WireAttachment([0, 0, 0], [4.0, 0.0, 0.0])]
    twist = Twist([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    lengths, rates = wire_lengths_and_rates(Pose.identity(), twist, wires)
    assert rates[0] == pytest.approx(-1.0)
    assert lengths[0] == pytest.approx(4.0)


def test_rates_match_central_difference():
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(100):
        m = int(rng.integers(1, 9))
        wires = random_layout(rng, m)
        pose = random_pose(rng)
        twist = Twist(rng.normal(size=3), rng.normal(size=3))
        _, rates = wire_lengths_and_rates(pose, twist, wires)

        def lengths_at(offset):
            pos = np.asarray(pose.position) + offset * np.asarray(twist.linear)
            step = quat_unit(rotvec_exp((offset * np.asarray(twist.angular)).tolist()))
            quat = hamilton(step, pose.orientation)
            shifted = Pose(pos, quat)
            return wire_lengths_and_rates(shifted, Twist.zero(), wires)[0]

        fd = (np.array(lengths_at(h)) - lengths_at(-h)) / (2 * h)
        assert np.allclose(rates, fd, atol=1e-6)


def eight_wire_cube_layout(frame_half=0.5, exit_radius=0.15, exit_height=0.1, twist=0.6):
    """Eight wires between the corners of a cube frame and two exit rings.

    Each frame corner connects to the exit ring on its own side (upper
    corners to the upper ring), which makes gravity support passively
    stable, and the azimuthal twist alternates sign around each ring so
    yaw torque is available in both directions.  This is the geometry the
    bundled scenarios use: rank 6 with the full wrench space positively
    spanned.
    """
    anchor_radius = frame_half * np.sqrt(2.0)
    wires = []
    i = 0
    for z_sign in (1, -1):
        for k in range(4):
            theta = np.deg2rad(45 + 90 * k)
            d = twist if k % 2 == 0 else -twist
            exit_body = np.array(
                [
                    exit_radius * np.cos(theta + d),
                    exit_radius * np.sin(theta + d),
                    z_sign * exit_height,
                ]
            )
            anchor = np.array(
                [anchor_radius * np.cos(theta), anchor_radius * np.sin(theta), z_sign * frame_half]
            )
            wires.append(WireAttachment(exit_body, anchor))
            i += 1
    return wires


def test_rank_of_eight_wire_cube_layout():
    jac = wire_jacobian(Pose.identity(), eight_wire_cube_layout())
    svals = np.linalg.svd(jac, compute_uv=False)
    assert np.sum(svals > 1e-9 * svals[0]) == 6


def _vectors(shape, bound):
    elements = st.floats(-bound, bound, allow_nan=False, allow_subnormal=False)
    return arrays(float, shape, elements=elements, fill=st.nothing())


@st.composite
def body_states(draw, max_wires=8):
    """A random wire layout with a pose and twist of the body it holds."""
    m = draw(st.integers(1, max_wires))
    anchors = draw(_vectors((m, 3), 2.0))
    anchors += np.where(anchors < 0, -0.8, 0.8)  # keep anchors well away from the body
    wires = [
        WireAttachment(exit_body, anchor)
        for i, (exit_body, anchor) in enumerate(zip(draw(_vectors((m, 3), 0.3)), anchors))
    ]
    pose = Pose.from_rotvec(draw(_vectors(3, 0.3)), draw(_vectors(3, 1.5)))
    twist = Twist(draw(_vectors(3, 2.0)), draw(_vectors(3, 2.0)))
    return wires, pose, twist


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(body_states())
def test_geometry_agrees_across_entry_points(case):
    wires, pose, twist = case
    jac = np.asarray(wire_jacobian(pose, wires))
    lengths, rates = wire_lengths_and_rates(pose, twist, wires)
    # direction rows times lengths rebuild the spans from world exit to anchor
    spans = [w.anchor_world - transform_point(pose, w.exit_body) for w in wires]
    assert np.allclose(jac[:3].T * np.array(lengths)[:, None], spans, rtol=0.0, atol=1e-12)
    expected = [
        wire_length(w.anchor_world, pose.position, pose.orientation, w.exit_body) for w in wires
    ]
    assert np.allclose(lengths, expected, rtol=0.0, atol=1e-12)
    assert np.allclose(rates, -(jac.T @ twist.as_array()), rtol=0.0, atol=1e-12)


def _float_bits(values):
    """The bytes of a tuple of Python floats; AssertionError for any other value."""
    assert type(values) is tuple and all(type(v) is float for v in values), values
    return struct.pack(f"{len(values)}d", *values)


def _matrix_bits(rows):
    """The bytes of six rows of Python floats, each a tuple; AssertionError otherwise."""
    assert type(rows) is tuple and len(rows) == 6, rows
    return [_float_bits(row) for row in rows]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(body_states())
def test_wire_set_gives_the_plain_list_results_bit_for_bit(case):
    wires, pose, twist = case
    wire_set = WireSet(wires)
    assert list(wire_set) == wires
    jac = _matrix_bits(wire_jacobian(pose, wires))
    assert _matrix_bits(wire_jacobian(pose, wire_set)) == jac
    assert jac == _matrix_bits(reference_wire_jacobian(pose, wires))
    got = wire_lengths_and_rates(pose, twist, wire_set)
    expected = wire_lengths_and_rates(pose, twist, wires)
    reference = reference_wire_lengths_and_rates(pose, twist, wires)
    for got_tuple, expected_tuple, reference_tuple in zip(got, expected, reference):
        assert _float_bits(got_tuple) == _float_bits(expected_tuple)
        assert _float_bits(expected_tuple) == _float_bits(reference_tuple)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(body_states())
def test_rates_do_not_depend_on_the_operands_memory_layout(case):
    # each rate is summed in a fixed order; an einsum over the same values
    # in Fortran order summed differently and changed the last bits.  Here
    # the position, the twist and the wire points come as strided and
    # Fortran-ordered views of the same values (a WireSet holds its exit
    # points and anchors as float rows, which have no layout)
    wires, pose, twist = case

    def strided(v):
        return np.asfortranarray(np.stack([v, np.zeros_like(v)]))[0]

    # both poses normalize the same quaternion again
    expected = reference_wire_lengths_and_rates(
        Pose(pose.position, pose.orientation), twist, wires)
    wire_set = WireSet([WireAttachment(strided(w.exit_body), strided(w.anchor_world))
                        for w in wires])
    got = wire_lengths_and_rates(
        Pose(strided(pose.position), pose.orientation),
        Twist(strided(twist.linear), strided(twist.angular)),
        wire_set,
    )
    assert _float_bits(got[0]) == _float_bits(expected[0])
    assert _float_bits(got[1]) == _float_bits(expected[1])


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(body_states())
def test_wire_jacobian_is_six_rows_of_floats(case):
    # its consumers sum its rows in a fixed order; np.asarray gives the 6 x m array
    wires, pose, _ = case
    jac = wire_jacobian(pose, wires)
    assert all(len(row) == len(wires) for row in jac)
    assert _matrix_bits(jac) == _matrix_bits(reference_wire_jacobian(pose, wires))
    assert np.asarray(jac).shape == (6, len(wires))


def test_wire_set_stacks_once_and_is_read_only():
    wires = random_layout(np.random.default_rng(4), 5)
    wire_set = WireSet(wires)
    assert WireSet(wire_set) is wire_set
    for rows in (wire_set.exits_body, wire_set.anchors):
        assert type(rows) is tuple and len(rows) == 5
    for exit_body, anchor, wire in zip(wire_set.exits_body, wire_set.anchors, wires):
        # the attachments' own float tuples, not copies
        assert exit_body is wire.exit_body and anchor is wire.anchor_world
        assert {type(v) for v in exit_body + anchor} == {float}
    with pytest.raises(TypeError):
        wire_set.exits_body[0][0] = 1.0
    with pytest.raises(TypeError):
        wire_set.anchors[0][0] = 1.0


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(body_states())
def test_geometry_is_bit_identical_to_the_norm_formulation(case):
    wires, pose, twist = case
    assert _matrix_bits(wire_jacobian(pose, wires)) == _matrix_bits(
        reference_wire_jacobian(pose, wires))
    got = wire_lengths_and_rates(pose, twist, wires)
    for got_tuple, expected in zip(got, reference_wire_lengths_and_rates(pose, twist, wires)):
        assert _float_bits(got_tuple) == _float_bits(expected)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(body_states())
def test_the_matrix_agrees_with_the_blas_lever_product(case):
    # the levers were the BLAS product exits @ R', whose rounding follows the
    # kernel; the fixed-order rotation moves the matrix by an ulp or so
    wires, pose, _ = case
    jac = np.asarray(wire_jacobian(pose, wires))
    assert np.allclose(jac, numpy_wire_jacobian(pose, wires), rtol=0.0, atol=1e-15)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_wire_wrench_is_bit_identical_to_the_row_sums(m, seed):
    # each row summed from 0.0 wire by wire; a BLAS product agrees to rounding
    rng = np.random.default_rng(seed)
    wires, pose = random_layout(rng, m), random_pose(rng)
    tensions = tuple(rng.uniform(0.0, 200.0, size=m).tolist())
    jac = wire_jacobian(pose, wires)
    wrench = wire_wrench(jac, tensions)
    assert _float_bits(wrench) == _float_bits(reference_wire_wrench(jac, tensions))
    assert np.allclose(wrench, np.asarray(jac) @ tensions, rtol=0.0, atol=1e-12)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(body_states(), st.booleans())
def test_lengths_and_rates_are_float_tuples_bit_for_bit_the_array_reference(case, as_set):
    # the reference computes on (m, 3) arrays and converts its two results
    # once; the library returns the same tuples of Python floats, one per wire
    wires, pose, twist = case
    lengths, rates = wire_lengths_and_rates(pose, twist, WireSet(wires) if as_set else wires)
    expected_lengths, expected_rates = reference_wire_lengths_and_rates(pose, twist, wires)
    assert len(lengths) == len(rates) == len(wires)
    assert _float_bits(lengths) == _float_bits(expected_lengths)
    assert _float_bits(rates) == _float_bits(expected_rates)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(body_states(), st.data())
def test_degenerate_scan_names_the_first_wire_at_the_threshold(case, data):
    wires, pose, _ = case
    m = len(wires)
    close = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
    for i in close:
        # an anchor sitting on (or just off) its world exit point
        exit_world = transform_point(pose, wires[i].exit_body)
        offset = data.draw(st.sampled_from([0.0, 0.5 * DEGENERACY_THRESHOLD]))
        wires[i] = WireAttachment(wires[i].exit_body, exit_world + [offset, 0.0, 0.0])
    with pytest.raises(DegenerateWire) as expected:
        reference_geometry(pose, wires)
    assert expected.value.wire_id == close[0]
    for call in (lambda: wire_jacobian(pose, wires),
                 lambda: wire_lengths_and_rates(pose, Twist.zero(), wires)):
        with pytest.raises(DegenerateWire) as got:
            call()
        assert got.value.wire_id == expected.value.wire_id
        assert got.value.separation == expected.value.separation


@st.composite
def layouts_with_near_degenerate_wires(draw):
    """Up to 12 wires, with up to two anchors moved onto, or within a few
    thresholds of, their world exit points."""
    wires, pose, twist = draw(body_states(max_wires=12))
    m = len(wires)
    close = draw(st.sets(st.integers(0, m - 1), max_size=2))
    offsets = [0.0, 0.5, 1.0, 2.0]  # in units of the threshold
    for i in range(m):
        anchor = wires[i].anchor_world
        if i in close:
            exit_world = transform_point(pose, wires[i].exit_body)
            offset = draw(st.sampled_from(offsets)) * DEGENERACY_THRESHOLD
            anchor = exit_world + [offset, 0.0, 0.0]
        wires[i] = WireAttachment(wires[i].exit_body, anchor)
    return wires, pose, twist


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(layouts_with_near_degenerate_wires())
def test_kernels_match_the_references_bit_for_bit(case):
    # a plain list and a WireSet, strides included; a degenerate layout
    # raises for the same wire with the same separation as the reference
    wires, pose, twist = case
    try:
        reference_geometry(pose, wires)
    except DegenerateWire as exc:
        expected = (exc.wire_id, exc.separation)
    else:
        expected = None
    for attachments in (wires, WireSet(wires)):
        if expected is None:
            assert _matrix_bits(wire_jacobian(pose, attachments)) == _matrix_bits(
                reference_wire_jacobian(pose, wires))
            got = wire_lengths_and_rates(pose, twist, attachments)
            for got_tuple, reference in zip(
                    got, reference_wire_lengths_and_rates(pose, twist, wires)):
                assert _float_bits(got_tuple) == _float_bits(reference)
            continue
        for call in (lambda: wire_jacobian(pose, attachments),
                     lambda: wire_lengths_and_rates(pose, twist, attachments)):
            with pytest.raises(DegenerateWire) as got:
                call()
            assert (got.value.wire_id, got.value.separation) == expected


def _outcome(call):
    """A kernel call's result: the bits of the matrix rows, or of the lengths
    and rates tuples; or its DegenerateWire."""
    try:
        result = call()
    except DegenerateWire as exc:
        return "DegenerateWire", exc.wire_id, exc.separation
    return [_float_bits(values) for values in result]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(body_states(), body_states(), st.data())
def test_the_memo_gives_a_fresh_pass_bit_for_bit(first, second, data):
    # every call on a long-lived WireSet against the same call on a new one
    (wires, pose, twist), (other_wires, other, _) = first, second
    moving = Pose(pose.position, pose.orientation)  # an edit of it below must fail
    rotation = np.array(rotation_rows(pose.orientation))
    poses = [
        pose,
        other,
        Pose(pose.position, other.orientation),  # same position bytes, other orientation
        Pose([0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
        Pose([-0.0, 0.0, -0.0], [1.0, -0.0, 0.0, -0.0]),  # the same values, other signs
        moving,
        # wire 0's world exit point on its anchor
        Pose(wires[0].anchor_world - rotation @ wires[0].exit_body, pose.orientation),
    ]
    sets = [WireSet(wires), WireSet(other_wires)]
    # (set, pose, kernel, try to edit `moving` first): repeated poses, a
    # changed orientation, a signed-zero flip, an edit refused between two
    # calls, a DegenerateWire between two hits, then the two sets in turn
    script = [(0, 0, 0, False), (0, 0, 1, False), (0, 2, 1, False), (0, 3, 0, False),
              (0, 4, 0, False), (0, 5, 1, False), (0, 5, 1, True), (0, 5, 0, False),
              (0, 0, 0, False), (0, 6, 1, False), (0, 0, 1, False), (1, 0, 0, False),
              (0, 0, 0, False), (1, 1, 1, False), (0, 1, 1, False), (1, 1, 0, False)]
    script += data.draw(st.lists(st.tuples(
        st.integers(0, 1), st.integers(0, len(poses) - 1), st.integers(0, 1), st.booleans(),
    ), max_size=20))
    outcomes = []
    for s, p, kernel, edit in script:
        if edit:  # a pose's float tuples cannot change, so the memo may key on the pose
            with pytest.raises(TypeError):
                moving.position[data.draw(st.integers(0, 2))] += data.draw(
                    st.sampled_from([1e-3, -0.5]))
        kernels = [lambda ws: wire_jacobian(poses[p], ws),
                   lambda ws: wire_lengths_and_rates(poses[p], twist, ws)]
        got = _outcome(lambda: kernels[kernel](sets[s]))
        assert got == _outcome(lambda: kernels[kernel](WireSet(list(sets[s]))))
        outcomes.append(got)
    assert outcomes[9][0] == "DegenerateWire"


def test_a_signed_zero_flip_gets_a_fresh_pass():
    # poses equal in value whose passes differ in the sign of a zero: the
    # memo must not take one for the other
    wires = WireSet([WireAttachment((-0.0, -0.0, -0.0), (-0.0, 1.0, 2.0))])
    poses = [Pose((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
             Pose((-0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))]
    fresh = [_outcome(lambda: wire_jacobian(pose, list(wires))) for pose in poses]
    assert fresh[0] != fresh[1]
    assert [_outcome(lambda: wire_jacobian(pose, wires)) for pose in poses] == fresh


def test_a_shared_wire_set_stays_consistent_across_threads():
    # each read and each replacement of the memo is one attribute access,
    # so no thread pairs one pose's key with another pose's pass
    rng = np.random.default_rng(7)
    wires = random_layout(rng, 6)
    shared = WireSet(wires)
    poses = [random_pose(rng) for _ in range(4)]
    twist = Twist(rng.normal(size=3), rng.normal(size=3))
    expected = [[_float_bits(t) for t in wire_lengths_and_rates(p, twist, wires)] for p in poses]
    mismatches, finished = [], []

    def worker(k):
        for n in range(1000):
            j = (k + n) % len(poses)
            for _ in range(2):  # a miss, then a hit unless another thread came between
                got = wire_lengths_and_rates(poses[j], twist, shared)
                if [_float_bits(t) for t in got] != expected[j]:
                    mismatches.append(j)
        finished.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(finished) == [0, 1, 2, 3]
    assert mismatches == []
