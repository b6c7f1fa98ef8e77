"""Tests of the benchmark itself (not of mwg). Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import random
import shutil
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import generators as gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mwg import formats, solvers  # noqa: E402


def fixture(name: str) -> str:
    return (ROOT / "fixtures" / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_instances_are_deterministic_per_seed(workload):
    first = workloads.instances(workload, 7)
    assert first == workloads.instances(workload, 7)
    assert first != workloads.instances(workload, 8)
    assert all(isinstance(i.text, str) for i in first)


def test_oracles_agree_on_the_fixtures():
    assert not checks.satisfiable(*gen.parse_cnf(fixture("unsat8.cnf")))
    assert checks.satisfiable(*gen.parse_cnf(fixture("clause1.cnf")))
    assert gen.first_feasible_depth(*gen.parse_kp(fixture("knap2.kp"))) is not None
    cases = [
        (workloads.Instance("unsat8", "3sat", fixture("unsat8.cnf")), True),
        (workloads.Instance("clause1", "3sat", fixture("clause1.cnf")), False),
        (workloads.Instance("knap2", "knapsack", fixture("knap2.kp")), True),
    ]
    for inst, answer in cases:
        out = workloads.solve(inst)
        assert out.answer is answer
        assert checks.verdict_problems(inst, out) == []
        if out.cert is not None:
            assert workloads.check(out.cert, workloads.cert_player(inst), out.game)


def test_checks_catch_a_wrong_verdict():
    inst = workloads.Instance("clause1", "3sat", fixture("clause1.cnf"))
    out = workloads.solve(inst)
    assert run.problems(inst, out) is None
    out.answer = True
    assert checks.verdict_problems(inst, out)
    assert "verdict True" in run.problems(inst, out)


def test_checks_catch_a_witness_outside_its_fixed_graph():
    inst = workloads.Instance("unsat8", "3sat", fixture("unsat8.cnf"))
    out = workloads.solve(inst)
    assert checks.witness_problems(out.game, out.verdict.witnesses) == []
    strategies, circuits = zip(*out.verdict.witnesses)
    shifted = tuple(zip(strategies, circuits[1:] + circuits[:1]))
    assert checks.witness_problems(out.game, shifted) == ["witness circuit leaves its fixed graph"]


def test_a_pass_that_waits_fails(monkeypatch):
    inst = workloads.Instance("clause1", "3sat", fixture("clause1.cnf"))
    solve = workloads.solve
    monkeypatch.setattr(workloads, "solve", lambda i: (time.sleep(0.2), solve(i))[1])
    bench = run.Bench([inst])
    bench.run(0)
    assert bench.failed == 1
    assert "wall time" in bench.problems[0]


def test_traced_run_restores_every_wrapped_name():
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in spans.BOUNDARIES}
    insts = workloads.instances("p1-memoryless", 1)[:6] + [
        workloads.Instance("clause1", "3sat", fixture("clause1.cnf")),
        workloads.Instance("unsat8", "3sat", fixture("unsat8.cnf")),
    ]
    rec = spans.SpanRecorder()
    rec.install()
    try:
        with pytest.raises(RuntimeError):
            rec.install()
        bench = run.Bench(insts)
        bench.run(0, rec)
    finally:
        rec.uninstall()
    assert bench.failed == 0
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn, f"{m}.{a} is still wrapped"
    per_label, strategies, _ = rec.totals()
    assert per_label["graphs.simplify"]["calls"] >= strategies == 3 ** 8 + 1
    assert per_label["op.solve"]["calls"] == len(insts)


def test_spoiler_depth_is_what_the_solver_enumerates():
    rng = random.Random(3)
    for band in (0, 3, 6):
        text = gen.sat_cnf(rng, 9, (2**band, 2 ** (band + 1)))
        depth = gen.first_spoiler_depth(gen.parse_cnf(text)[1])
        rec = spans.SpanRecorder()
        rec.install()
        try:
            out = workloads.solve(workloads.Instance("sat", "3sat", text))
        finally:
            rec.uninstall()
        assert out.answer is False
        assert rec.totals()[1] == depth
        assert rec.totals()[2] == gen.spoiler_shapes(gen.parse_cnf(text)[1], depth)


def test_feasible_depth_matches_plain_enumeration():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(3, 7)
        items = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        bound, target = rng.randint(5, 25), rng.randint(5, 25)
        order = sorted(range(n), key=lambda j: f"i{j + 1}")
        want = None
        for depth, bits in enumerate(product((0, 1), repeat=n), start=1):
            chosen = [order[i] for i in range(n) if bits[i]]
            if sum(items[j][1] for j in chosen) <= bound and sum(items[j][0] for j in chosen) >= target:
                want = depth
                break
        assert gen.first_feasible_depth(items, bound, target) == want


@pytest.mark.parametrize("plant,solve,answer", [
    ("p1-cycle", "energy", True),
    ("p1-cycle", "mp", True),
    ("p2-first", "energy", False),
    ("p2-first", "mp", False),
    ("p2-decoy", "energy", False),
    ("p1-first", "memoryless-mp", True),
    ("p1-all", "memoryless-mp", False),
])
def test_planted_verdicts_hold(plant, solve, answer):
    rng = random.Random(plant)
    for _ in range(3):
        text = gen.dense_game(rng, 8, 3, 3, plant)
        threshold = gen.threshold(rng, 3, (2, 3), zeros=1 if plant == "p1-cycle" else 0)
        inst = workloads.Instance(plant, solve, text, threshold, answer)
        rec = spans.SpanRecorder()
        rec.install()
        try:
            out = workloads.solve(inst)
        finally:
            rec.uninstall()
        assert out.answer is answer
        assert checks.verdict_problems(inst, out) == []
        if plant == "p2-decoy":
            assert rec.totals()[0]["lp.max_support"]["calls"] == 1


def test_clamped_reference_agrees_with_the_oracle():
    rng = random.Random(5)
    for plant in ("p1-first", "p1-all", "p2-first"):
        for cap in (3, 6):
            g = formats.parse_game(gen.dense_game(rng, 6, 2, 2, plant))
            for credit in ((0, 0), (cap, 1), (cap, cap)):
                assert checks.clamped_safety(g, credit, cap) == solvers.clamped_fixed_credit_oracle(g, credit, cap)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 104)]
    assert run.tail(samples, 103) == (90, 93.0)
    assert run.tail(samples[:20], 20) == (50, 10.0)
    assert run.tail(samples * 2, 103) == (90, 93.0)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "p2-3sat", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
