"""End-to-end guard: the fast kernels and their reference formulations
write the same telemetry bytes.

Each bundled scenario runs for 0.2 s twice: once as shipped, and once with
every kernel in `oracles.REFERENCE_KERNELS` swapped for its reference in
each `wiredrive` module that holds it.  The library imports its kernels
by name (`from .wires import wire_jacobian`), so a swap counts only where
the calling module looks the name up.
"""

import contextlib
import dataclasses
import importlib
import sys
from collections import Counter

import pytest

from oracles import REFERENCE_KERNELS
from wiredrive.runner import run_scenario
from wiredrive.scenario import bundled_scenario_path, load_scenario


@contextlib.contextmanager
def reference_kernels(calls: Counter):
    """Swap in the reference kernels, counting the calls each one gets."""
    undo = []
    try:
        for target, reference in REFERENCE_KERNELS.items():
            module, name = target.split(".")
            original = getattr(importlib.import_module(f"wiredrive.{module}"), name)

            def counted(*args, _reference=reference, _target=target, **kwargs):
                calls[_target] += 1
                return _reference(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("wiredrive"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, counted)
        yield
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


@pytest.mark.parametrize("name", ["cube8", "cube8_saturated", "outdoor4", "anchors2"])
def test_reference_kernels_write_the_same_telemetry(name, tmp_path):
    scenario = dataclasses.replace(load_scenario(bundled_scenario_path(name)), duration=0.2)
    run_scenario(scenario, tmp_path / "fast")
    calls = Counter()
    with reference_kernels(calls):
        run_scenario(scenario, tmp_path / "reference")
    assert set(calls) == set(REFERENCE_KERNELS)  # every reference ran
    fast = (tmp_path / "fast" / "telemetry.csv").read_bytes()
    assert fast == (tmp_path / "reference" / "telemetry.csv").read_bytes()
