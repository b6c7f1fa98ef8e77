"""The benchmark in `perfbench/` reaches into `mwg` by name: its span
recorder replaces the functions listed in `perfbench/spans.py`, and its
output checks build graphs and verify circuits. A rename or deletion in
the package that breaks those names fails here, not only in a traced
benchmark run."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mwg import graphs, solvers
from mwg.graphs import GraphEdge, MultiGraph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _boundaries() -> list[tuple[str, str, str]]:
    """The BOUNDARIES list of spans.py, read from its source without
    importing the benchmark."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BOUNDARIES"]:
            return ast.literal_eval(node.value)
    raise LookupError("spans.py defines no BOUNDARIES list")


def test_every_traced_name_resolves():
    boundaries = _boundaries()
    assert boundaries
    for module, attr, _label in boundaries:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_package_names_the_benchmark_uses_resolve():
    # Every `module.attr` in the benchmark's sources, for each module it
    # imports from mwg: graphs.GraphEdge, solvers.solve_unknown_credit, ...
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "mwg"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                module = importlib.import_module(f"mwg.{node.value.id}")
                assert hasattr(module, node.attr), f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
    # The output checks expand each YES verdict's cover through this property.
    assert isinstance(solvers.Verdict.witnesses, property)


def test_lp_size_sizes_every_system_the_circuit_search_solves(monkeypatch):
    # A traced run keeps every system passed to the LP and sizes it with
    # `spans.lp_size` after the run (`lp.vars.mean`, `lp.rows.mean`,
    # `lp.coeff_bits.max`). spans.py imports only the standard library, so
    # it loads here by path. This graph takes the circuit search into both
    # later LP steps: a max-support point short of its component, whose
    # support is searched again, and one spanning it, which is then solved
    # with every x_e >= 1.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    calls = []
    for name in ("lp_feasible", "max_support_solution"):
        def traced(sys_, *rest, name=name, real=getattr(graphs, name)):
            size = spans.lp_size(sys_)
            result = real(sys_, *rest)
            calls.append((name, sys_, size, result))
            return result
        monkeypatch.setattr(graphs, name, traced)
    weights = [("v0", "v0", (2, -2, -1)), ("v0", "v1", (-1, 1, 0)), ("v1", "v1", (-1, 1, 1)),
               ("v0", "v0", (-1, 1, -1)), ("v0", "v1", (0, -1, 2)), ("v1", "v0", (1, -1, -1))]
    edges = [GraphEdge(f"e{i}", src, dst, w) for i, (src, dst, w) in enumerate(weights)]
    assert graphs.nonnegative_circuit(MultiGraph(3, ("v0", "v1"), tuple(edges), "v0"), "v0") is not None
    widened = [point for name, _, _, point in calls if name == "max_support_solution"]
    assert any(0 in point for point in widened) and any(0 not in point for point in widened)
    for _, sys_, size, _ in calls:
        n, rows, bits = size
        assert n == len(sys_.variables) > 0 and rows == len(sys_.constraints) > 0 and bits > 0
        assert spans.lp_size(sys_) == size  # sized after the run, as a traced run does


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["p2-3sat", "p2-dense", "p1-memoryless"])
def test_benchmark_output_checks_pass_on_each_workload(workload):
    # One pass of the workload with every output checked, as a benchmark
    # run checks it; no bytecode or trace file is written.
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=PERFBENCH.parent, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0, done.stdout
