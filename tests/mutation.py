"""Mutation run: every mutant in `MUTANTS` must fail the tests it names.

Run from the repository root:

    python tests/mutation.py            # every mutant
    python tests/mutation.py NAME ...   # the mutants so named

A mutant is a file under `src/`, a text that occurs exactly once in it,
the replacement for that text, and the pytest node ids that should fail
on the result.  For each mutant the script copies `src/`, `tests/` and
`pyproject.toml` to a temporary directory, applies the replacement there,
runs those tests and prints "killed" (a test failed) or "survived".  It
exits 1 if a mutant survives, or if a run ends neither way (an original
text not found once, a test id that no longer exists).  pytest does not
collect this file; `test_mutants.py` checks the table against the sources.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    original: str
    replacement: str
    tests: tuple


QP_BITS = ("tests/test_qp.py::test_solver_is_bit_identical_to_the_reference_formulation",
           "tests/test_qp.py::test_solver_is_bit_identical_to_the_reference_on_the_edges")
COMMAND_TAIL = ("tests/test_allocation.py::"
                "test_the_command_tail_is_bit_identical_to_its_array_formulation",)
PROJECTION = "accel = a * x0 + b * x1 + c * x2 + d * x3 + e * x4 + f * x5"
KERNEL_ENTRY = ("tests/test_numbers.py::test_a_kernel_refuses_what_a_record_refuses",)

MUTANTS = (
    Mutant("qp-reversed-product", "src/wiredrive/qp.py",
           "for h, v in zip(row, x):", "for h, v in reversed(list(zip(row, x))):", QP_BITS),
    Mutant("qp-stale-factor", "src/wiredrive/qp.py",
           "if free != factored:", "if factored is None:", QP_BITS),
    Mutant("qp-one-polish-pass", "src/wiredrive/qp.py",
           "for _ in range(2 if free else 0):", "for _ in range(1 if free else 0):", QP_BITS),
    Mutant("wire-wrench-reversed-wires", "src/wiredrive/wires.py",
           "zip(*matrix, tensions, strict=True)",
           "reversed(list(zip(*matrix, tensions, strict=True)))",
           ("tests/test_wires.py::test_wire_wrench_is_bit_identical_to_the_row_sums",)),
    Mutant("hessian-transpose-summed-in-reverse", "src/wiredrive/allocation.py",
           "hessian[i][j] = hessian[j][i] = 2.0 * (a * p + b * q + c * r + d * s + e * t + f * u)",
           "hessian[i][j] = 2.0 * (a * p + b * q + c * r + d * s + e * t + f * u); "
           "hessian[j][i] = 2.0 * (f * u + e * t + d * s + c * r + b * q + a * p)",
           ("tests/test_allocation.py::"
            "test_the_hessian_allocate_hands_the_qp_is_exactly_symmetric",)),
    Mutant("lever-on-reversed-axes", "src/wiredrive/wires.py",
           "rx, ry, rz = mat_vec(rotation, exit_body)",
           "rz, ry, rx = mat_vec([r[::-1] for r in rotation[::-1]], exit_body[::-1])",
           ("tests/test_wires.py::test_kernels_match_the_references_bit_for_bit",)),
    Mutant("residual-norm-reversed", "src/wiredrive/allocation.py",
           "math.sqrt(r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3 + r4 * r4 + r5 * r5)",
           "math.sqrt(r5 * r5 + r4 * r4 + r3 * r3 + r2 * r2 + r1 * r1 + r0 * r0)",
           COMMAND_TAIL),
    Mutant("table-clip-operands-swapped", "src/wiredrive/runner.py",
           "min(hi, max(lo, f))", "min(hi, max(f, lo))",
           ("tests/test_runner_cli.py::"
            "test_table_mode_is_bit_identical_to_the_array_formulation",)),
    # where two NaNs meet, compensate keeps the first; these keep the second
    Mutant("compensate-friction-nan-first", "src/wiredrive/allocation.py",
           "torque = torque if torque != torque else torque + friction",
           "torque = friction if friction != friction else torque + friction", COMMAND_TAIL),
    Mutant("compensate-torque-nan-first", "src/wiredrive/allocation.py",
           "value = tension if tension != tension else tension + torque / r",
           "value = torque / r if torque != torque else tension + torque / r", COMMAND_TAIL),
    Mutant("memo-keyed-on-equal-values", "src/wiredrive/wires.py",
           "if pose is last_pose:",
           "if last_pose is not None and (pose.position, pose.orientation) == "
           "(last_pose.position, last_pose.orientation):",
           ("tests/test_wires.py::test_a_signed_zero_flip_gets_a_fresh_pass",)),
    # the five reorderings of compensate's six-term projection
    Mutant("projection-force-then-torque", "src/wiredrive/allocation.py", PROJECTION,
           "accel = (a * x0 + b * x1 + c * x2) + (d * x3 + e * x4 + f * x5)", COMMAND_TAIL),
    Mutant("projection-torque-first", "src/wiredrive/allocation.py", PROJECTION,
           "accel = d * x3 + e * x4 + f * x5 + a * x0 + b * x1 + c * x2", COMMAND_TAIL),
    Mutant("projection-pairwise", "src/wiredrive/allocation.py", PROJECTION,
           "accel = (a * x0 + b * x1) + (c * x2 + d * x3) + (e * x4 + f * x5)", COMMAND_TAIL),
    Mutant("projection-reversed", "src/wiredrive/allocation.py", PROJECTION,
           "accel = f * x5 + e * x4 + d * x3 + c * x2 + b * x1 + a * x0", COMMAND_TAIL),
    Mutant("projection-right-folded", "src/wiredrive/allocation.py", PROJECTION,
           "accel = a * x0 + (b * x1 + (c * x2 + (d * x3 + (e * x4 + f * x5))))", COMMAND_TAIL),
    # the entry rules of `spatial`
    Mutant("as-floats-trusts-any-tuple", "src/wiredrive/spatial.py",
           "type(value) is tuple and (shape[0] == len(value) or shape[0] == -1)",
           "type(value) is tuple",
           KERNEL_ENTRY),
    Mutant("numbers-accepts-numpy-bool", "src/wiredrive/spatial.py",
           "isinstance(v, (bool, np.bool_, list, tuple))", "isinstance(v, (bool, list, tuple))",
           KERNEL_ENTRY),
    Mutant("integer-accepts-bool", "src/wiredrive/spatial.py",
           "if type(v) is int or", "if isinstance(v, int) or",
           ("tests/test_numbers.py::test_a_file_and_a_record_refuse_an_integer_alike",)),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived', or why the run says neither."""
    source = (ROOT / mutant.path).read_text()
    if source.count(mutant.original) != 1:
        return f"error: the original occurs {source.count(mutant.original)} times"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        Path(tmp, mutant.path).write_text(source.replace(mutant.original, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")), PYTHONDONTWRITEBYTECODE="1")
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(code, f"error: pytest exit code {code}")


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcome = run(mutant)
        failed += outcome != "killed"
        print(f"{mutant.name}: {outcome}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
