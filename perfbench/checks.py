"""Correctness checks on the benchmark's outputs, run outside the timed
region. They share no reasoning with the solvers: truth tables, subset
scans and a plain attractor computation, plus the program's own circuit
validators applied to every witness against its fixed graph.

Each check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

from collections import deque

import generators as gen
from mwg import graphs
from workloads import Instance, Outcome, evidence_game


def verdict_problems(inst: Instance, out: Outcome) -> list[str]:
    """Check a solve operation's verdict and the evidence it carries."""
    if inst.solve == "3sat":
        return _check_3sat(inst, out)
    if inst.solve == "knapsack":
        return _check_knapsack(inst, out)
    if inst.solve == "oracle":
        want = clamped_safety(out.game, inst.credit, inst.cap)
        return [] if out.answer == want else [f"oracle said {out.answer}, reference says {want}"]
    problems = [] if out.answer == inst.expect else [f"verdict {out.answer}, planted {inst.expect}"]
    if out.answer and inst.solve in ("energy", "mp"):
        problems += witness_problems(evidence_game(out), out.verdict.witnesses)
    return problems


def satisfiable(nvars: int, clauses: list[tuple[int, ...]]) -> bool:
    """Truth table."""
    return any(
        all(any((bits >> (abs(lit) - 1) & 1) == (lit > 0) for lit in c) for c in clauses)
        for bits in range(1 << nvars)
    )


def _check_3sat(inst: Instance, out: Outcome) -> list[str]:
    nvars, clauses = gen.parse_cnf(inst.text)
    if satisfiable(nvars, clauses) == out.answer:
        return [f"verdict {out.answer} on a formula whose satisfiability is {not out.answer}"]
    if out.answer:
        return witness_problems(out.game, out.verdict.witnesses)
    chosen = set()
    for j, clause in enumerate(clauses, start=1):
        eid = out.verdict.spoiler.choice.get(f"c{j}", "")
        if not eid.startswith(f"c{j}s") or eid[-1] not in "123":
            return [f"spoiler picks {eid!r} at clause {j}"]
        chosen.add(clause[int(eid[-1]) - 1])
    if any(-lit in chosen for lit in chosen):
        return ["spoiler decodes to a conflicting assignment"]
    return []


def _check_knapsack(inst: Instance, out: Outcome) -> list[str]:
    items, bound, target = gen.parse_kp(inst.text)

    def feasible(subset) -> bool:
        return sum(items[j][1] for j in subset) <= bound and sum(items[j][0] for j in subset) >= target

    exists = any(
        feasible([j for j in range(len(items)) if bits >> j & 1]) for bits in range(1 << len(items))
    )
    if exists != out.answer:
        return [f"verdict {out.answer}, subset scan says {exists}"]
    if out.answer:
        choice = out.verdict.strategy.choice
        subset = [j for j in range(len(items)) if choice.get(f"i{j + 1}") == f"take{j + 1}"]
        if not feasible(subset):
            return ["certified subset is infeasible"]
    return []


def witness_problems(game, witnesses) -> list[str]:
    """A YES must pair every memoryless Player-2 strategy with a circuit
    of its fixed graph that is reachable from the initial state and
    nonnegative in every dimension. Many strategies share a circuit, so
    each distinct circuit is validated and weighed once, against the
    whole game; each witness then only needs its circuit's edges to lie
    in its fixed graph and its start to be reachable there."""
    p2 = [s.id for s in game.states if s.owner == 2]
    expected = 1
    for sid in p2:
        expected *= len(game.out_edges(sid))
    seen = {tuple(sorted(s.choice.items())) for s, _ in witnesses}
    if len(witnesses) != expected or len(seen) != expected:
        return [f"{len(witnesses)} witnesses ({len(seen)} distinct) for {expected} strategies"]
    edges = tuple(graphs.GraphEdge(e.id, e.src, e.dst, e.weight) for e in game.edges)
    whole = graphs.MultiGraph(game.dimension, tuple(s.id for s in game.states), edges, game.init)
    p1_ids = {e.id for e in game.edges if game.owner(e.src) == 1}
    verdicts: dict = {}  # distinct circuit -> its problem, or None
    for strategy, circuit in witnesses:
        fixed_ids = p1_ids | set(strategy.choice.values())
        if not fixed_ids.issuperset(circuit.edges):
            return ["witness circuit leaves its fixed graph"]
        key = (circuit.edges, tuple(sorted(circuit.multiplicity.items())))
        if key not in verdicts:
            verdicts[key] = _circuit_problem(whole, circuit)
        if verdicts[key]:
            return [verdicts[key]]
        fixed = [game.edge_by_id[eid] for eid in fixed_ids]
        if game.edge_by_id[circuit.edges[0]].src not in reachable(fixed, game.init):
            return ["witness circuit is not reachable"]
    return []


def _circuit_problem(g, circuit) -> str | None:
    try:
        graphs.validate_circuit(g, circuit)
    except graphs.WalkError as exc:
        return f"invalid witness circuit: {exc}"
    if any(c < 0 for c in graphs.circuit_weight(g, circuit)):
        return "witness circuit has negative weight"
    return None


def reachable(edges, source) -> set:
    succ: dict = {}
    for e in edges:
        succ.setdefault(e.src, []).append(e.dst)
    seen = {source}
    todo = [source]
    while todo:
        for w in succ.get(todo.pop(), ()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def clamped_safety(game, credit, cap) -> bool:
    """Reference for the clamped fixed-credit oracle: build the arena of
    (state, energy clamped to [0..cap]^k) reachable from (init, credit),
    then compute Player 2's attractor to the moves that drive a component
    negative, with a counter per Player-1 vertex."""
    start = (game.init, tuple(credit))
    succ: dict = {}
    todo = [start]
    while todo:
        v = todo.pop()
        if v in succ:
            continue
        sid, energy = v
        outs = []
        for e in game.out_edges(sid):
            level = [c + w for c, w in zip(energy, e.weight)]
            if min(level) < 0:
                outs.append(None)
                continue
            t = (e.dst, tuple(min(c, cap) for c in level))
            outs.append(t)
            todo.append(t)
        succ[v] = outs
    preds: dict = {v: [] for v in succ}
    lost = set()
    live_moves = {}
    for v, outs in succ.items():
        p1 = game.owner(v[0]) == 1
        live_moves[v] = sum(t is not None for t in outs)
        if (p1 and live_moves[v] == 0) or (not p1 and None in outs):
            lost.add(v)
        for t in outs:
            if t is not None:
                preds[t].append(v)
    queue = deque(lost)
    while queue:
        t = queue.popleft()
        for v in preds[t]:
            if v in lost:
                continue
            if game.owner(v[0]) == 1:
                live_moves[v] -= 1
                if live_moves[v] > 0:
                    continue
            lost.add(v)
            queue.append(v)
    return start not in lost
