"""Benchmark workloads: seeded instance sets and the operations run on them.

An instance is the text of one input plus what the benchmark needs to
drive it. A *solve* operation does the work of `mwg solve ...` (or
`mwg oracle ...`) in-process: parse the text, encode if needed, solve,
and write the certificate. A *check* operation does the work of
`mwg check ...`: parse the certificate just written and verify it.
Every `mwg` function is looked up on its module at call time, so the
span recorder's replacements take effect in the traced run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

import generators as gen
from mwg import formats, reductions, solvers


@dataclass(frozen=True)
class Instance:
    kind: str  # report label, e.g. "3sat-sat" or "dense-yes-mp"
    solve: str  # "3sat" | "energy" | "mp" | "knapsack" | "memoryless-mp" | "oracle"
    text: str
    threshold: Optional[str] = None
    expect: Optional[bool] = None  # planted verdict; None when a check derives it
    credit: Optional[tuple[int, ...]] = None
    cap: Optional[int] = None


@dataclass
class Outcome:
    answer: bool
    game: object  # the parsed (or encoded) game
    threshold: Optional[tuple] = None
    cert: Optional[str] = None  # certificate text, when the verdict prints one
    verdict: object = None


def solve(inst: Instance) -> Outcome:
    """One solve operation; the benchmark times exactly this call."""
    if inst.solve in ("3sat", "knapsack"):
        if inst.solve == "3sat":
            g = reductions.encode_3sat_two_player(formats.parse_dimacs(inst.text))
            v = solvers.solve_unknown_credit(g)
        else:
            g = reductions.encode_knapsack(formats.parse_knapsack(inst.text))
            v = solvers.solve_memoryless_p1_energy(g)
        return _outcome(v, g, None)
    g = formats.parse_game(inst.text)
    if inst.solve == "oracle":
        return Outcome(solvers.clamped_fixed_credit_oracle(g, inst.credit, inst.cap), g)
    if inst.solve == "energy":
        return _outcome(solvers.solve_unknown_credit(g), g, None)
    t = formats.parse_threshold(inst.threshold)
    if inst.solve == "mp":
        return _outcome(solvers.solve_meanpayoff_threshold(g, t), g, t)
    return _outcome(solvers.solve_memoryless_p1_meanpayoff(g, t), g, t)


def _outcome(v, g, t) -> Outcome:
    if isinstance(v, solvers.MemorylessVerdict):
        cert = formats.write_certificate(v.strategy, v.credit) if v.answer else None
    else:
        cert = None if v.answer else formats.write_certificate(v.spoiler)
    return Outcome(v.answer, g, t, cert, v)


def evidence_game(out: Outcome):
    """The game a verdict's certificates refer to: for the threshold
    variants, the scaled and shifted game. Computed outside the timed
    region."""
    if out.threshold is None:
        return out.game
    return solvers.threshold_shifted(out.game, out.threshold)


def check(cert: str, player: int, game) -> bool:
    """One check operation on a certificate the solve printed."""
    strategy, _ = formats.parse_certificate(cert, player)
    if player == 2:
        return solvers.verify_p2_spoiler(game, strategy)
    return solvers.verify_p1_certificate(game, strategy).accepted


def cert_player(inst: Instance) -> int:
    return 2 if inst.solve in ("3sat", "energy", "mp") else 1


# -- instance sets ------------------------------------------------------------
#
# Quotas and depth targets are fixed per workload so that every seed gets
# the same mix; the seed decides the formulas, items, graphs and weights.
# Mixes are planned so that a group of like instances sits where a pass's
# median and tail percentile fall: a percentile read inside such a group
# moves little from seed to seed, one read between two unlike instances
# jumps. The tail leaves ten operations of a pass beyond it, so the group
# under it must be more than ten strong: the unsatisfiable formulas on
# p2-3sat, the infeasible knapsacks on p1-memoryless, the YES games on
# p2-dense (and, for its checks, the decoy games). The medians fall in
# flat groups of near-equal depth, or among the NO games.

UNSAT_EXTRA = (0,) * 17 + (1,)  # random clauses added to the unsatisfiable core
SAT_DEPTHS = [(43, 1, 200, False), (30, 200, 220, True), (27, 220, 600, False)]
SAT_FLAT_SHAPES = (24, 28)  # the flat group's circuit searches, so that its cost is flat too
KNAP_DEPTHS = [(50, 32, 600, False), (30, 600, 660, True)]
KNAP_INFEASIBLE = 20
KNAP_ITEMS = 13  # one size, so that the certificate checks are alike too
DENSE_YES = 48
DENSE_NO = 240
DENSE_DECOY = 48
MP_GAMES = 60
ORACLES = 30


def depth_windows(plan) -> list[tuple[int, int]]:
    """Depth windows [lo, hi) from (count, lo, hi, flat) segments: a flat
    segment repeats [lo, hi); another spreads its targets evenly in log
    scale over [lo, hi), each with a window 10% wide (at least one)."""
    out = []
    for count, lo, hi, flat in plan:
        for i in range(count):
            if flat:
                out.append((lo, hi))
            else:
                t = round(lo * (hi / lo) ** (i / count))
                out.append((t, max(t + 1, round(t * 1.1))))
    return out


def p2_3sat(rng: random.Random) -> list[Instance]:
    out = [Instance(f"3sat-unsat+{e}", "3sat", gen.unsat_cnf(rng, e)) for e in UNSAT_EXTRA]
    for count, lo, hi, flat in SAT_DEPTHS:
        shapes = SAT_FLAT_SHAPES if flat else None
        for window in depth_windows([(count, lo, hi, flat)]):
            out.append(Instance("3sat-sat", "3sat", gen.sat_cnf(rng, 9, window, shapes)))
    return out


def p2_dense(rng: random.Random) -> list[Instance]:
    out = []
    for i in range(DENSE_YES):
        text = gen.dense_game(rng, 10, 3, 3, "p1-cycle")
        out.append(_dense(rng, "yes", i, text, 3))
    for i in range(DENSE_NO):
        k = 3 + (i // 2) % 2
        text = gen.dense_game(rng, 8 + (i // 4) % 5, 3 + (i // 20) % 2, k, "p2-first")
        out.append(_dense(rng, "no", i, text, k))
    for _ in range(DENSE_DECOY):
        text = gen.dense_game(rng, 10, 3, 3, "p2-decoy")
        out.append(Instance("dense-no-decoy", "energy", text, expect=False))
    return out


def _dense(rng, verdict: str, i: int, text: str, k: int) -> Instance:
    expect = verdict == "yes"
    if i % 2 == 0:
        return Instance(f"dense-{verdict}-energy", "energy", text, expect=expect)
    return Instance(f"dense-{verdict}-mp", "mp", text, gen.threshold(rng, k, (2, 3), zeros=int(expect)), expect)


def p1_memoryless(rng: random.Random) -> list[Instance]:
    out = [Instance("knapsack-infeasible", "knapsack", gen.knapsack(rng, KNAP_ITEMS, None)) for _ in range(KNAP_INFEASIBLE)]
    for window in depth_windows(KNAP_DEPTHS):
        out.append(Instance("knapsack-feasible", "knapsack", gen.knapsack(rng, KNAP_ITEMS, window)))
    for i in range(MP_GAMES):
        plant = "p1-first" if i % 2 == 0 else "p1-all"
        text = gen.dense_game(rng, 10, 3, 2, plant)
        out.append(Instance(f"memoryless-mp-{plant}", "memoryless-mp", text, gen.threshold(rng, 2, (2, 3)), plant == "p1-first"))
    for i in range(ORACLES):
        text = gen.dense_game(rng, 8, 3, 2, "p1-first")
        out.append(Instance("oracle", "oracle", text, credit=(12, 12), cap=24))
    return out


WORKLOADS: dict[str, Callable[[random.Random], list[Instance]]] = {
    "p2-3sat": p2_3sat,
    "p2-dense": p2_dense,
    "p1-memoryless": p1_memoryless,
}


def instances(workload: str, seed: int) -> list[Instance]:
    """The workload's instance set for a seed, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    out = WORKLOADS[workload](rng)
    rng.shuffle(out)
    return out
