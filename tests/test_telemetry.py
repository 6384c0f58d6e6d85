import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import telemetry_row
from wiredrive.allocation import TensionCommand
from wiredrive.simulator import SimState
from wiredrive.spatial import Pose, Twist, Wrench
from wiredrive.telemetry import TelemetryWriter, column_names
from wiredrive.trajectory import ControlTick

# signed zeros, the smallest subnormal and values near the top of the range
# next to arbitrary doubles
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def telemetry_ticks(draw):
    """A wire count, a run time, a simulator state, a measurement and a
    control tick with random values."""
    m = draw(st.integers(1, 8))

    def vec(n):
        return draw(arrays(float, n, elements=_VALUES, fill=st.nothing()))

    def pose():
        orientation = draw(arrays(float, 4, elements=st.floats(0.1, 1.0), fill=st.nothing()))
        signs = draw(arrays(float, 4, elements=st.sampled_from([1.0, -1.0]), fill=st.nothing()))
        return Pose(vec(3), orientation * signs)

    # numpy scalars must come out as plain floats, not as `np.float64(...)`
    scalar = draw(st.sampled_from([float, np.float64]))
    state = SimState(pose(), Twist(vec(3), vec(3)), vec(m), draw(_VALUES))
    t = scalar(draw(_VALUES))
    meas_pose, meas_twist = pose(), Twist(vec(3), vec(3))
    tick = ControlTick(
        pose_ref=pose(),
        twist_ref=Twist(vec(3), vec(3)),
        accel_ref=vec(6),
        feedback_wrench=Wrench(vec(3), vec(3)),
        gravity_wrench=Wrench(vec(3), vec(3)),
        desired_wrench=Wrench(vec(3), vec(3)),
        command=TensionCommand(
            tensions=vec(m),
            tensions_final=vec(m),
            currents=vec(m),
            residual_norm=scalar(draw(_VALUES)),
            saturated=draw(arrays(bool, m, fill=st.nothing())),
        ),
    )
    row = (draw(st.integers(0, 10**6)), t, state, meas_pose, meas_twist, tick, draw(st.booleans()))
    return m, row


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(telemetry_ticks())
def test_write_tick_matches_the_per_value_oracle(case):
    m, row = case
    stream = io.StringIO()
    writer = TelemetryWriter(stream, m)
    writer.write_tick(*row)
    header, line = stream.getvalue().splitlines(keepends=True)
    assert header == ",".join(column_names(m)) + "\n"
    assert line == telemetry_row(*row)
