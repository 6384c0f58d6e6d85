"""Command-line front end: run, analyze, plan-anchor, validate.

Exit codes: 0 on success, 2 when a scenario fails to parse or validate,
3 when a run faults at runtime.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .anchors import winding_number
from .errors import WireDriveError
from .feasibility import controllability
from .runner import plan_anchor, run_scenario, write_points_csv
from .scenario import (
    ParseError,
    Scenario,
    ValidationError,
    _make,
    dump_scenario,
    load_scenario,
)
from .spatial import Pose, _checked
from .wires import wire_jacobian

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    """The scenario with --seed and --dt in place of its own; `Scenario`
    refuses a bad one as it refuses a file's, with a ValidationError."""
    overrides = {"seed": args.seed, "dt": args.dt}
    return dataclasses.replace(scenario, **{k: v for k, v in overrides.items() if v is not None})


def cmd_run(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    out_dir = Path(args.out or f"runs/{scenario.name}")
    summary = run_scenario(scenario, out_dir)
    print(json.dumps(summary, indent=2))
    print(f"artifacts written to {out_dir}", file=sys.stderr)
    return EXIT_RUNTIME if summary["fault_ticks"] else EXIT_OK


def cmd_analyze(args) -> int:
    position = args.pose and _make("--pose", _checked, "coordinates", args.pose, 3)
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    pose = scenario.start_pose if position is None else Pose.from_translation(position)
    matrix = wire_jacobian(pose, scenario.wires)
    report = controllability(matrix, scenario.bounds, torque_scale=scenario.torque_lever)
    witness = report.witness_tensions
    doc = {
        "scenario": scenario.name,
        "pose_position": [float(v) for v in pose.position],
        "wire_count": scenario.wire_count,
        "rank": report.rank,
        "fully_constrained": report.fully_constrained,
        "margin": report.margin,
        "saturating_wires": list(report.saturating_wires),
        "binding_wires": list(report.binding_wires),
        "directions_checked": report.directions_checked,
        "worst_direction": [float(v) for v in report.worst_direction],
        "witness_tensions": None if witness is None else witness.tolist(),
    }
    print(json.dumps(doc, indent=2))
    out_dir = Path(args.out or f"runs/{scenario.name}")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "feasibility.json").write_text(json.dumps(doc, indent=2) + "\n")
    # same headered-DSV convention as run telemetry, one row per report
    csv_cols = ["format_version", "scenario", "wire_count", "rank",
                "fully_constrained", "margin", "directions_checked"]
    csv_row = [1, scenario.name, scenario.wire_count, report.rank,
               int(report.fully_constrained), repr(report.margin),
               report.directions_checked]
    (out_dir / "feasibility.csv").write_text(
        ",".join(csv_cols) + "\n" + ",".join(str(v) for v in csv_row) + "\n"
    )
    print(f"report written to {out_dir / 'feasibility.json'}", file=sys.stderr)
    return EXIT_OK


def cmd_plan_anchor(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    if not scenario.anchors:
        print("scenario declares no anchor tasks", file=sys.stderr)
        return EXIT_VALIDATION
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for k, task in enumerate(scenario.anchors):
        waypoints = plan_anchor(scenario, task)
        turns = winding_number(waypoints, scenario.pillars[task.pillar].center)
        results.append(
            {
                "anchor": k,
                "wire_id": task.wire_id,
                "pillar": task.pillar,
                "waypoints": int(len(waypoints)),
                "planned_winding_number": turns,
            }
        )
        if out_dir:
            write_points_csv(out_dir / f"anchor_plan_{k}.csv", waypoints)
    print(json.dumps(results, indent=2))
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    sys.stdout.write(dump_scenario(scenario))
    print(f"scenario {scenario.name!r} is valid", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="path to a scenario YAML file")
    common.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--dt", type=float, default=None, help="override sim.dt (seconds)")

    parser = argparse.ArgumentParser(
        prog="wiredrive",
        description="Simulate and analyze self-anchoring wire-driven parallel robots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[common], help="execute a scenario end to end")
    run_p.set_defaults(func=cmd_run)

    an_p = sub.add_parser("analyze", parents=[common], help="wrench feasibility at a pose")
    an_p.add_argument("--pose", type=float, nargs=3, metavar=("X", "Y", "Z"),
                      help="body position to analyze (defaults to the start pose)")
    an_p.set_defaults(func=cmd_analyze)

    pa_p = sub.add_parser("plan-anchor", parents=[common],
                          help="plan wrap paths without flying them")
    pa_p.set_defaults(func=cmd_plan_anchor)

    va_p = sub.add_parser("validate", parents=[common],
                          help="check a scenario file and echo the resolved config")
    va_p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except WireDriveError as exc:
        print(f"runtime fault: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
