"""Operation timing, normalised to the machine's speed at that moment.

Small shared machines change speed by tens of percent within seconds,
when other tenants load the host, and that swamps any change in the
program.  So after every timed segment the timer runs a fixed calibration
kernel, the *probe*, outside the segment.  A segment's reference time is
its wall time scaled by ``PROBE_REF_S`` over the median probe time around
it: the time the segment would have taken at the speed where the probe
takes ``PROBE_REF_S``.  The probe is benchmark code, so a faster program
shows in full.  Wall times are kept alongside.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_REF_S = 20e-6  # about the probe's median time on a shared 2-vCPU Xeon VM
PROBE_WINDOW = 8  # segments on each side whose probes set a segment's speed

_PROBE_MATRIX = np.arange(36.0).reshape(6, 6) / 7.0 + np.eye(6)
_PROBE_VECTOR = np.array([0.3, -0.2, 0.9, 0.1, 0.5, -0.7])


def _kernel() -> str:
    # float formatting, a generator and a small solve: of the kernels
    # tried, this one's time tracked the program's tick time most closely
    # while the machine's speed changed
    solution = np.linalg.solve(_PROBE_MATRIX, _PROBE_VECTOR)
    return repr(float(solution[0])) + ",".join(repr(float(v)) for v in _PROBE_VECTOR)


def probe() -> float:
    """Time the calibration kernel; returns seconds.

    The kernel runs once untimed first, so the cache state left by the
    code before it (a large LP, say) does not count.
    """
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def local_medians(values: list[float], window: int) -> list[float]:
    """Median of values[i - window : i + window + 1] for each i."""
    return [
        statistics.median(values[max(0, i - window): i + window + 1])
        for i in range(len(values))
    ]


class OpTimer:
    """Splits a run into timed segments, each owned by one operation.

    ``start`` opens the first segment; ``mark`` closes the current one
    and opens the next, and with ``op_done`` also ends the operation.
    With probing on, the probe runs between segments; the time spent
    there is counted in ``overhead_s`` and in no segment.  With a tracer
    attached, ending an operation advances the tracer's operation id.
    """

    def __init__(self, tracer=None, probing: bool = True, clock=time.perf_counter):
        self.clock = clock
        self.tracer = tracer
        self.probing = probing
        self.seconds: list[float] = []
        self.ops: list[int] = []
        self.probes: list[float] = []
        self.overhead_s = 0.0
        self.op = 0
        self._last = None

    def start(self) -> None:
        self._last = self.clock()
        if self.tracer is not None:
            self.tracer.op = self.op

    def mark(self, op_done: bool = True) -> None:
        now = self.clock()
        self.seconds.append(now - self._last)
        self.ops.append(self.op)
        if op_done:
            self.op += 1
            if self.tracer is not None:
                self.tracer.op = self.op
        if self.probing:
            self.probes.append(probe())
            self._last = self.clock()
            self.overhead_s += self._last - now
        else:
            self._last = now

    def _per_op(self, segment_seconds) -> list[float]:
        out = [0.0] * self.op
        for seconds, op in zip(segment_seconds, self.ops):
            if op < self.op:
                out[op] += seconds
        return out

    def op_seconds(self) -> list[float]:
        """Wall seconds of each completed operation."""
        return self._per_op(self.seconds)

    def ref_scale(self) -> list[float]:
        """Per segment: PROBE_REF_S over the local median probe time."""
        return [PROBE_REF_S / p for p in local_medians(self.probes, PROBE_WINDOW)]

    def op_ref_seconds(self) -> list[float]:
        """Reference seconds of each completed operation (probing only)."""
        return self._per_op(s * k for s, k in zip(self.seconds, self.ref_scale()))

    def ref_seconds(self, wall_s: float) -> float:
        """Reference time of a whole job that took ``wall_s`` including the
        probes: segments at their local speed, the rest at the median."""
        inside = sum(self.seconds)
        rest = wall_s - self.overhead_s - inside
        scaled = sum(s * k for s, k in zip(self.seconds, self.ref_scale()))
        return scaled + rest * PROBE_REF_S / statistics.median(self.probes)

    def writer_class(self, base):
        """Subclass of the telemetry writer whose rows end ticks."""
        timer = self

        class TimedWriter(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                timer.start()

            def write_tick(self, *args, **kwargs):
                super().write_tick(*args, **kwargs)
                timer.mark()

        return TimedWriter
