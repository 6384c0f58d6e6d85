"""wiredrive benchmark: per-tick latency on scenario runs plus analyze.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cube8_track --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another in this
process.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics from spans recorded around the library's
functions.  The last line of standard output is one JSON object; the lines
before it give every metric with its unit and sample count.  See README.md
in this directory for the workloads and metrics.
"""

import os

# one thread everywhere: pinned before numpy loads its BLAS
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "src_lines": sum(p.read_bytes().count(b"\n") for p in SRC.rglob("*.py")),
    }


def recorded_digest(workload: str, seed: int):
    path = HERE / "telemetry_sha256.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def report(result: dict) -> None:
    """Human-readable lines: every metric with unit and sample count."""
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']} seed {result['seed']} {mode}: {result['jobs']} jobs, "
          f"{result['ops']} {result['op_unit']}s, {result['failed']} failed")
    for name, (value, unit, samples) in {**result["metrics"], **result["wall_clock"]}.items():
        print(f"  {name:50s} {value:>14.6g} {unit:11s} samples={samples}")
    quality = result["quality"]
    if result["op_unit"] == "tick" and quality:
        ticks = quality["ticks"]
        print(f"  {'track_rms_mm':50s} {quality['track_rms_mm']:>14.6g} {'mm':11s} samples={ticks} ticks")
        print(f"  {'fault_tick_frac':50s} {quality['fault_ticks'] / ticks:>14.6g} {'ratio':11s} samples={ticks} ticks")
        print(f"  {'saturation_ticks':50s} {quality['saturation_ticks']:>14d} {'count':11s}")
    print(f"  {'failed_frac':50s} {result['failed'] / result['jobs']:>14.6g} {'ratio':11s} samples={result['jobs']} jobs")
    recorded = recorded_digest(result["workload"], result["seed"])
    for digest in result["digests"]:
        status = "none recorded" if recorded is None else ("matches recorded" if digest == recorded else "differs from recorded")
        print(f"  {result['digest_name']} {digest} ({status})")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print(f"  env {json.dumps(result['env'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wiredrive" / "__init__.py").is_file():
        print(f"perfbench: {SRC} holds no wiredrive package; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        selected = list(workloads.WORKLOADS.values())
    elif args.workload in workloads.WORKLOADS:
        selected = [workloads.WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")

    env = environment()
    results = []
    for workload in selected:
        out_dir = OUT / workload.name / f"seed{args.seed}"
        result = workloads.run(workload, args.seed, args.seconds, bool(args.trace), out_dir)
        result["env"] = env
        report(result)
        (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
        results.append(result)

    prefix = len(results) > 1
    line = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["jobs"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}." if prefix else "") + name: {"value": value, "unit": unit}
            for r in results
            for name, (value, unit, _) in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
