"""Which modules the package loads, and that each module reads what it imports.

Each load check runs in a fresh interpreter, because the test oracles
import scipy into this process.
"""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import wiredrive
from wiredrive.feasibility import controllability
from wiredrive.scenario import bundled_scenario_path, load_scenario
from wiredrive.wires import wire_jacobian

SRC = Path(__file__).resolve().parents[1] / "src"

NO_LP = """
import dataclasses, io, json, sys
from contextlib import redirect_stdout
import wiredrive, wiredrive.cli
from wiredrive.runner import run_scenario
from wiredrive.scenario import bundled_scenario_path, load_scenario

out = sys.argv[1]
scenario = load_scenario(bundled_scenario_path("cube8"))
summary = run_scenario(dataclasses.replace(scenario, duration=0.05), out + "/run")
with redirect_stdout(io.StringIO()):
    codes = [
        wiredrive.cli.main(["validate", str(bundled_scenario_path("cube8"))]),
        wiredrive.cli.main(["plan-anchor", str(bundled_scenario_path("anchors2"))]),
    ]
print(json.dumps({
    "status": summary["status"],
    "codes": codes,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""

NO_LP_IN_ANALYZE = """
import io, json, sys
from contextlib import redirect_stdout
import wiredrive, wiredrive.cli
from wiredrive.scenario import bundled_scenario_path, load_scenario

out = sys.argv[1]
path = bundled_scenario_path("cube8")
scenario = load_scenario(path)
jacobian = wiredrive.wire_jacobian(scenario.start_pose, scenario.wires)
report = wiredrive.controllability(jacobian, scenario.bounds, torque_scale=scenario.torque_lever)
with redirect_stdout(io.StringIO()):
    code = wiredrive.cli.main(["analyze", str(path), "--out", out])
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
wiredrive.wrench_achievable(jacobian, wiredrive.Wrench.zero(), scenario.bounds)
print(json.dumps({
    "code": code,
    "scipy": scipy,
    "after_lp": "scipy.optimize" in sys.modules,
    "margin": report.margin.hex(),
}))
"""


def fresh_python(script, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_run_validate_and_plan_anchor_never_import_scipy(tmp_path):
    result = fresh_python(NO_LP, str(tmp_path))
    assert result["status"] == "ok"
    assert result["codes"] == [0, 0]
    assert (tmp_path / "run" / "telemetry.csv").is_file()
    assert result["scipy"] == []


def test_controllability_and_analyze_load_no_scipy(tmp_path):
    result = fresh_python(NO_LP_IN_ANALYZE, str(tmp_path))
    assert result["code"] == 0
    assert (tmp_path / "feasibility.json").is_file()
    assert result["scipy"] == []
    # the first LP, in wrench_achievable, still loads scipy.optimize
    assert result["after_lp"]
    scenario = load_scenario(bundled_scenario_path("cube8"))
    jacobian = wire_jacobian(scenario.start_pose, scenario.wires)
    report = controllability(jacobian, scenario.bounds, torque_scale=scenario.torque_lever)
    assert float.fromhex(result["margin"]) == report.margin


def imported_but_unread(source: str) -> list[str]:
    """Names a module imports and never reads, quoted annotations included."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not future:
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names if alias.name != "*"}
    annotations = [
        node.annotation if isinstance(node, (ast.arg, ast.AnnAssign)) else node.returns
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    trees = [tree] + [
        ast.parse(a.value, mode="eval") for a in annotations
        if isinstance(a, ast.Constant) and isinstance(a.value, str)
    ]
    read = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_every_import_is_read():
    modules = sorted((SRC / "wiredrive").rglob("*.py"))
    unread = {
        str(path.relative_to(SRC)): imported_but_unread(path.read_text())
        for path in modules if path.name != "__init__.py"
    }
    assert len(unread) > 10
    assert {path: names for path, names in unread.items() if names} == {}


def test_the_tick_modules_take_no_blas_product():
    # the wire kinematics, the plant and the allocation sum in a fixed order
    # on floats; a matmul or a dot there would sum in the BLAS kernel's order
    for name in ("wires", "simulator", "allocation"):
        tree = ast.parse((SRC / "wiredrive" / f"{name}.py").read_text())
        products = [node.lineno for node in ast.walk(tree)
                    if isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult)]
        products += [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                     and node.attr in ("dot", "matmul", "einsum", "fromiter", "inner")]
        assert products == [], name


def test_the_float_modules_import_no_numpy():
    # the wire kinematics, the QP, the telemetry writer, the scenario
    # reader, the trajectory and the CLI read the floats and float tuples
    # the records hold; an array there would bring back a second
    # representation and its conversions
    importers = []
    for module in ("wires", "qp", "telemetry", "scenario", "trajectory", "cli"):
        tree = ast.parse((SRC / "wiredrive" / f"{module}.py").read_text())
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
        names += [node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module]
        assert names, module
        importers += [module for name in names if name.split(".")[0] == "numpy"]
    assert importers == []


def test_unread_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\nimport os.path\nfrom typing import Any, Sequence\n"
        "def f(x: 'Sequence[int]') -> None:\n    return np.zeros(3)\n"
    )
    assert imported_but_unread(source) == ["Any", "os"]


def unread_functions(sources: dict, exported) -> list[str]:
    """`module.name` of each module-level function that no module reads
    (as a name or an attribute) outside its own `def`, unless exported."""
    defs, reads = [], set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            owner = None
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = statement.name
                defs.append((module, owner))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    reads.add((module, owner, node.id))
                elif isinstance(node, ast.Attribute):
                    reads.add((module, owner, node.attr))
    return sorted(
        f"{module}.{name}" for module, name in defs
        if name not in exported
        and not any(n == name and (m, o) != (module, name) for m, o, n in reads)
    )


def test_every_function_has_a_reader():
    sources = {path.stem: path.read_text() for path in (SRC / "wiredrive").glob("*.py")}
    assert len(sources) > 10
    assert unread_functions(sources, set(wiredrive.__all__)) == []


def test_unread_function_is_caught():
    sources = {
        "a": "def by_name():\n    pass\ndef by_attribute():\n    pass\n"
             "def recursive(n):\n    return recursive(n - 1)\n"
             "def exported():\n    pass\ndef imported_only():\n    pass\n",
        "b": "import a\nfrom a import by_name, imported_only\n"
             "def caller():\n    return by_name(), a.by_attribute()\n",
    }
    assert unread_functions(sources, {"exported", "caller"}) == ["a.imported_only", "a.recursive"]


def test_all_lists_exactly_what_the_package_imports():
    exported = wiredrive.__all__
    assert [name for name in exported if not hasattr(wiredrive, name)] == []
    imported = {name for name, value in vars(wiredrive).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(exported) == sorted(imported)
    namespace = {}
    exec("from wiredrive import *", namespace)
    assert set(exported) <= set(namespace)
