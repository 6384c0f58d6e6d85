import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    reference_geometry,
    reference_wire_jacobian,
    reference_wire_lengths_and_rates,
    transform_point,
    wire_length,
)
from wiredrive.errors import DegenerateWire
from wiredrive.spatial import Pose, Twist, hamilton, quat_unit, rotvec_exp
from wiredrive.wires import (
    DEGENERACY_THRESHOLD,
    WireAttachment,
    WireSet,
    wire_jacobian,
    wire_lengths_and_rates,
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
    dirs = wire_jacobian(pose, wires)[:3].T
    lengths, _ = wire_lengths_and_rates(pose, Twist.zero(), wires)
    anchors = np.array([w.anchor_world for w in wires])
    return dirs, anchors - lengths[:, None] * dirs


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
    jac = wire_jacobian(Pose.identity(), wires)
    assert np.allclose(jac[:, 0], [1, 0, 0, 0, 0, 0])


def test_jacobian_hand_cross_product():
    # lever (0, 0.1, 0) with direction +x gives torque (0, 0, -0.1)
    wires = [WireAttachment([0.0, 0.1, 0.0], [5.0, 0.1, 0.0])]
    jac = wire_jacobian(Pose.identity(), wires)
    assert np.allclose(jac[:, 0], [1, 0, 0, 0, 0, -0.1], atol=1e-12)


def test_jacobian_lever_uses_rotation_not_translation():
    # translating the body must not change the lever arm term
    wires = [WireAttachment([0.0, 0.1, 0.0], [5.0, 0.1, 0.0])]
    near = wire_jacobian(Pose.identity(), wires)
    far = wire_jacobian(Pose.from_translation([1.0, 0.0, 0.0]), wires)
    assert np.allclose(near[3:, 0], far[3:, 0], atol=1e-12)


def test_wrench_matches_per_wire_accumulation():
    # independent oracle: accumulate each wire's force/torque separately
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        wires = random_layout(rng, m)
        pose = random_pose(rng)
        tensions = rng.uniform(0.0, 150.0, size=m)
        total = wire_jacobian(pose, wires) @ tensions
        rot = pose.rotation_matrix()
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
    assert np.all(lengths > 0)


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

        fd = (lengths_at(h) - lengths_at(-h)) / (2 * h)
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
    return arrays(float, shape, elements=elements)


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
    jac = wire_jacobian(pose, wires)
    lengths, rates = wire_lengths_and_rates(pose, twist, wires)
    # direction rows times lengths rebuild the spans from world exit to anchor
    spans = [w.anchor_world - transform_point(pose, w.exit_body) for w in wires]
    assert np.allclose(jac[:3].T * lengths[:, None], spans, rtol=0.0, atol=1e-12)
    expected = [
        wire_length(w.anchor_world, pose.position, pose.orientation, w.exit_body) for w in wires
    ]
    assert np.allclose(lengths, expected, rtol=0.0, atol=1e-12)
    assert np.allclose(rates, -(jac.T @ twist.as_array()), rtol=0.0, atol=1e-12)


def _same_bits(a, b):
    # the layout counts too: a later einsum or matmul can sum in another order over another one
    return (a.shape == b.shape and a.dtype == b.dtype and a.strides == b.strides
            and a.tobytes() == b.tobytes())


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(body_states())
def test_wire_set_gives_the_plain_list_results_bit_for_bit(case):
    wires, pose, twist = case
    wire_set = WireSet(wires)
    assert list(wire_set) == wires
    jac = wire_jacobian(pose, wires)
    assert _same_bits(wire_jacobian(pose, wire_set), jac)
    assert _same_bits(jac, reference_wire_jacobian(pose, wires))
    got = wire_lengths_and_rates(pose, twist, wire_set)
    expected = wire_lengths_and_rates(pose, twist, wires)
    reference = reference_wire_lengths_and_rates(pose, twist, wires)
    for got_array, expected_array, reference_array in zip(got, expected, reference):
        assert _same_bits(got_array, expected_array)
        assert _same_bits(expected_array, reference_array)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(body_states())
def test_rates_do_not_depend_on_the_operands_memory_layout(case):
    # each rate is summed in a fixed order; an einsum over the same values
    # in Fortran order summed differently and changed the last bits.  Here
    # the position, the twist and the stacked anchors come as strided and
    # Fortran-ordered views of the same values.
    wires, pose, twist = case

    def strided(v):
        return np.asfortranarray(np.stack([v, np.zeros_like(v)]))[0]

    # both poses normalize the same quaternion again
    expected = reference_wire_lengths_and_rates(
        Pose(pose.position, pose.orientation), twist, wires)
    wire_set = WireSet(wires)
    wire_set.anchors = np.asfortranarray(wire_set.anchors)
    got = wire_lengths_and_rates(
        Pose(strided(pose.position), pose.orientation),
        Twist(strided(twist.linear), strided(twist.angular)),
        wire_set,
    )
    assert got[0].strides == expected[0].strides == got[1].strides == expected[1].strides
    assert got[0].tobytes() == expected[0].tobytes()
    assert got[1].tobytes() == expected[1].tobytes()


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(body_states())
def test_wire_jacobian_is_a_c_ordered_6_by_m_array(case):
    # C order fixes the summation order of the matmuls that consume it
    wires, pose, _ = case
    jac = wire_jacobian(pose, wires)
    assert type(jac) is np.ndarray and jac.dtype == np.float64
    assert jac.shape == (6, len(wires))
    assert jac.flags.c_contiguous
    assert _same_bits(jac, reference_wire_jacobian(pose, wires))


def test_wire_set_stacks_once_and_is_read_only():
    wires = random_layout(np.random.default_rng(4), 5)
    wire_set = WireSet(wires)
    assert WireSet(wire_set) is wire_set
    assert np.array_equal(wire_set.exits_body, [w.exit_body for w in wires])
    assert np.array_equal(wire_set.anchors, [w.anchor_world for w in wires])
    with pytest.raises(ValueError):
        wire_set.exits_body[0, 0] = 1.0
    with pytest.raises(ValueError):
        wire_set.anchors[0, 0] = 1.0


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(body_states())
def test_geometry_is_bit_identical_to_the_norm_formulation(case):
    wires, pose, twist = case
    assert _same_bits(wire_jacobian(pose, wires), reference_wire_jacobian(pose, wires))
    got = wire_lengths_and_rates(pose, twist, wires)
    for got_array, expected in zip(got, reference_wire_lengths_and_rates(pose, twist, wires)):
        assert _same_bits(got_array, expected)


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
            assert _same_bits(wire_jacobian(pose, attachments),
                              reference_wire_jacobian(pose, wires))
            got = wire_lengths_and_rates(pose, twist, attachments)
            for got_array, reference in zip(
                    got, reference_wire_lengths_and_rates(pose, twist, wires)):
                assert _same_bits(got_array, reference)
            continue
        for call in (lambda: wire_jacobian(pose, attachments),
                     lambda: wire_lengths_and_rates(pose, twist, attachments)):
            with pytest.raises(DegenerateWire) as got:
                call()
            assert (got.value.wire_id, got.value.separation) == expected


def _outcome(call):
    """A kernel call's result arrays, layout included, or its DegenerateWire."""
    try:
        result = call()
    except DegenerateWire as exc:
        return "DegenerateWire", exc.wire_id, exc.separation
    arrays = result if isinstance(result, tuple) else (result,)
    return [(a.shape, a.dtype, a.strides, a.tobytes()) for a in arrays]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(body_states(), body_states(), st.data())
def test_the_memo_gives_a_fresh_pass_bit_for_bit(first, second, data):
    # every call on a long-lived WireSet against the same call on a new one
    (wires, pose, twist), (other_wires, other, _) = first, second
    moving = Pose(pose.position, pose.orientation)  # an edit of it below must fail
    poses = [
        pose,
        other,
        Pose(pose.position, other.orientation),  # same position bytes, other orientation
        Pose([0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
        Pose([-0.0, 0.0, -0.0], [1.0, -0.0, 0.0, -0.0]),  # the same values, other signs
        moving,
        # wire 0's world exit point on its anchor
        Pose(wires[0].anchor_world - pose.rotation_matrix() @ wires[0].exit_body,
             pose.orientation),
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


def test_a_shared_wire_set_stays_consistent_across_threads():
    # each read and each replacement of the memo is one attribute access,
    # so no thread pairs one pose's key with another pose's pass
    rng = np.random.default_rng(7)
    wires = random_layout(rng, 6)
    shared = WireSet(wires)
    poses = [random_pose(rng) for _ in range(4)]
    twist = Twist(rng.normal(size=3), rng.normal(size=3))
    expected = [[a.tobytes() for a in wire_lengths_and_rates(p, twist, wires)] for p in poses]
    mismatches, finished = [], []

    def worker(k):
        for n in range(1000):
            j = (k + n) % len(poses)
            for _ in range(2):  # a miss, then a hit unless another thread came between
                got = wire_lengths_and_rates(poses[j], twist, shared)
                if [a.tobytes() for a in got] != expected[j]:
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
