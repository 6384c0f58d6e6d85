"""Outside-in tracing: spans recorded around the library's public functions.

The library imports its collaborators by name (``from .wires import
wire_jacobian``), so a call is traced only if the wrapper replaces the name
in the module that makes the call.  ``instrument`` therefore swaps every
reference to a target function in every loaded ``wiredrive`` module, and
puts the originals back on exit.  Methods are patched on their class.

Spans are kept in memory.  Each has a name, start, end, parent span and the
id of the operation (control tick or analyzed pose) it ran in; a span's
self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

SETUP_OP = -1  # operation id of spans that run before the first tick or pose


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, or -1 for a top-level span
    op: int
    failed: bool = False
    note: object = None


class Tracer:
    """In-memory span recorder; one per traced job."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = SETUP_OP
        self._open: list[int] = []

    def wrap(self, name, fn, note=None):
        """Return fn wrapped in a span; arguments, result and exceptions
        pass through unchanged.  ``note(args, kwargs, result)`` may attach
        a value taken from the call to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self.clock(), 0.0, self._open[-1] if self._open else -1, self.op)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = self.clock()
                self._open.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced


def _package_modules(package: str):
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def _resolve(package: str, target: str):
    """'simulator.OdometrySensor.measure' -> (owner object, attribute)."""
    module_name, *path = target.split(".")
    owner = importlib.import_module(f"{package}.{module_name}")
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    return owner, path[-1]


@contextlib.contextmanager
def patched(package: str, replacements: dict):
    """Swap callables for the duration of the block.

    ``replacements`` maps a target ('wires.wire_jacobian',
    'runner.TelemetryWriter', 'simulator.OdometrySensor.measure') to a
    function ``make(original) -> replacement``.  A module-level target is
    replaced wherever a module of the package holds a reference to it; a
    class attribute is replaced on its class.
    """
    undo = []
    try:
        for target, make in replacements.items():
            owner, attr = _resolve(package, target)
            original = getattr(owner, attr)
            replacement = make(original)
            if isinstance(owner, type):
                holders = [(owner, attr)]
            else:
                holders = [
                    (mod, name)
                    for mod in _package_modules(package)
                    for name, value in list(vars(mod).items())
                    if value is original
                ]
            for holder, name in holders:
                undo.append((holder, name, original))
                setattr(holder, name, replacement)
        yield
    finally:
        for holder, name, original in reversed(undo):
            setattr(holder, name, original)


def instrument(package: str, tracer: Tracer, targets: dict):
    """Wrap each target in a span; ``targets`` maps target -> note or None."""
    return patched(
        package,
        {
            target: functools.partial(_wrap_as, tracer, target, note)
            for target, note in targets.items()
        },
    )


def _wrap_as(tracer: Tracer, name: str, note, original):
    return tracer.wrap(name, original, note)


@dataclass
class LayerTotals:
    """Per span name, summed over spans."""

    calls: int = 0
    op_calls: int = 0  # calls made inside a tick or pose
    seconds: float = 0.0
    self_seconds: float = 0.0
    failures: int = 0
    notes: list = field(default_factory=list)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def totals_by_name(jobs: list[list[Span]]) -> dict[str, LayerTotals]:
    """Sum each span name's calls and times over the spans of all jobs."""
    out: dict[str, LayerTotals] = {}
    for spans in jobs:
        for span, own in zip(spans, self_times(spans)):
            t = out.setdefault(span.name, LayerTotals())
            t.calls += 1
            t.op_calls += span.op >= 0
            t.seconds += span.end - span.start
            t.self_seconds += own
            t.failures += span.failed
            if span.note is not None:
                t.notes.append(span.note)
    return out


def caller_self_times(spans: list[Span], op_durations: list[float]) -> list[float]:
    """Time of each operation not covered by any top-level span in it:
    the caller's own share (the runner's loop code, for ticks)."""
    covered = [0.0] * len(op_durations)
    for span in spans:
        if span.parent < 0 and 0 <= span.op < len(op_durations):
            covered[span.op] += span.end - span.start
    return [d - c for d, c in zip(op_durations, covered)]


def write_spans(path, jobs: list[list[Span]]) -> None:
    with open(path, "w") as fh:
        fh.write("job,index,name,start,end,parent,op,failed\n")
        for job, spans in enumerate(jobs):
            for i, s in enumerate(spans):
                fh.write(f"{job},{i},{s.name},{s.start!r},{s.end!r},{s.parent},{s.op},{int(s.failed)}\n")
