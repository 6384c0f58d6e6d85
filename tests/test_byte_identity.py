"""End-to-end guards on the telemetry bytes.

The fast kernels and their reference formulations write the same bytes:
each bundled scenario runs for 0.2 s twice, once as shipped, and once
with every kernel in `oracles.REFERENCE_KERNELS` swapped for its
reference in each `wiredrive` module that holds it.  The library imports
its kernels by name (`from .wires import wire_jacobian`), so a swap counts
only where the calling module looks the name up.

And the bytes do not depend on the BLAS: the same runs, in fresh
interpreters under several OpenBLAS kernels, write the same files.
"""

import contextlib
import dataclasses
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

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


# each bundled scenario for 0.2 s; the digest of each telemetry.csv
_TELEMETRY_DIGESTS = """
import dataclasses, hashlib, sys, tempfile
from pathlib import Path
from wiredrive.runner import run_scenario
from wiredrive.scenario import bundled_scenario_path, load_scenario
with tempfile.TemporaryDirectory() as out:
    for name in ("cube8", "cube8_saturated", "outdoor4", "anchors2"):
        scenario = load_scenario(bundled_scenario_path(name))
        run_scenario(dataclasses.replace(scenario, duration=0.2), Path(out) / name)
        data = (Path(out) / name / "telemetry.csv").read_bytes()
        print(name, hashlib.sha256(data).hexdigest())
"""


def test_telemetry_is_the_same_on_every_blas_kernel():
    # OPENBLAS_CORETYPE picks OpenBLAS's kernels for one process (Prescott has
    # no FMA); a build that ignores it runs its one kernel four times
    outputs = {}
    for kernel in (None, "Haswell", "Sandybridge", "Prescott"):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        done = subprocess.run([sys.executable, "-c", _TELEMETRY_DIGESTS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs[kernel] = done.stdout
    assert len(outputs[None].splitlines()) == 4
    assert all(out == outputs[None] for out in outputs.values()), outputs
