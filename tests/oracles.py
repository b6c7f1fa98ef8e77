"""Independent reference implementations and corpus generators.

Everything here is deliberately naive: truth tables, 2^n subset scans,
DFS cycle enumeration, scalar value iteration, exhaustive enumeration of
bounded circulations. The point is to share no reasoning with the
solvers under test, only the public data types.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Iterator, Optional

import numpy as np

from mwg import (
    Circuit,
    CnfFormula,
    Edge,
    GameStructure,
    GraphEdge,
    KnapsackInstance,
    MemorylessStrategy,
    MultiGraph,
    State,
    as_moore,
    enumerate_p2_memoryless,
    eulerian_circuit_from_circulation,
    verify_p1_certificate,
    verify_p2_spoiler,
)


def truth_table_satisfiable(f: CnfFormula) -> Optional[dict[int, bool]]:
    """First satisfying assignment in binary counting order, or None."""
    n = f.variables
    for bits in range(1 << n):
        values = {i + 1: bool(bits >> i & 1) for i in range(n)}
        if f.satisfied_by(values):
            return values
    return None


def knapsack_brute_force(inst: KnapsackInstance) -> Optional[frozenset[int]]:
    """First feasible subset (1-based item indices) by subset bitmask, or None."""
    n = len(inst.items)
    for bits in range(1 << n):
        subset = frozenset(j + 1 for j in range(n) if bits >> j & 1)
        if inst.feasible(subset):
            return subset
    return None


def first_p2_spoiler(g: GameStructure) -> Optional[MemorylessStrategy]:
    """First Player-2 memoryless strategy, in enumeration order, that the
    spoiler checker accepts, or None: the flat enumeration, one circuit
    search per strategy, with no cubes."""
    for s in enumerate_p2_memoryless(g):
        if verify_p2_spoiler(g, s):
            return s
    return None


def first_p1_winner(g: GameStructure) -> Optional[tuple[MemorylessStrategy, tuple[int, ...]]]:
    """First Player-1 memoryless strategy, in enumeration order (states
    and edges by id), that the certificate checker accepts, with the
    credit it certifies; or None. The flat enumeration, no nogoods."""
    states = list(g.states_of(1))
    for combo in product(*([e.id for e in g.out_edges(sid)] for sid in states)):
        strategy = MemorylessStrategy(1, dict(zip(states, combo)))
        check = verify_p1_certificate(g, as_moore(g, strategy))
        if check.accepted:
            return strategy, check.credit
    return None


def _connected(edges) -> bool:
    """Whether the edges, directions ignored, touch one connected piece."""
    adjacent: dict = {}
    for e in edges:
        adjacent.setdefault(e.src, set()).add(e.dst)
        adjacent.setdefault(e.dst, set()).add(e.src)
    if not adjacent:
        return True
    start = next(iter(adjacent))
    seen = {start}
    todo = [start]
    while todo:
        for w in adjacent[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(adjacent)


@cache
def _template(h: int, base: int) -> tuple:
    """Digit vectors of length h below base in lexicographic order, with
    their support bitmasks (bit j for digit j) and nonzero flags. They do
    not depend on the graph, so every oracle call shares them (read-only)."""
    radix = base ** np.arange(h - 1, -1, -1, dtype=np.int64)
    counts = (np.arange(base**h, dtype=np.int64)[:, None] // radix) % base
    support = (counts > 0) @ (np.int64(1) << np.arange(h, dtype=np.int64))
    out = (counts, support, counts.any(axis=1))
    for array in out:
        array.setflags(write=False)
    return out


def bounded_circulation_oracle(g: MultiGraph, bound: int, mode: str) -> Optional[Circuit]:
    """Exhaustively search edge multiplicity maps with entries in 0..bound
    for one that is balanced, weakly connected in its support, and has
    total weight zero ("zero" mode) or nonnegative ("nonnegative" mode) in
    every dimension. Returns the circuit of the lexicographically first
    qualifying map (edges ordered by id), or None.

    Reference implementation for cross-checking the LP-based search at
    test scale; cost grows as (bound + 1) ** len(edges).
    """
    if mode not in ("zero", "nonnegative"):
        raise ValueError(f"unknown mode {mode!r}")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    edges = sorted(g.edges, key=lambda e: repr(e.id))
    m = len(edges)
    if m == 0 or bound == 0:
        return None
    if m > 12:
        raise ValueError("oracle is exhaustive; refusing more than 12 edges")
    vertices = sorted(set(g.vertices), key=repr)
    vindex = {v: i for i, v in enumerate(vertices)}
    # Incidence: +1 into dst, -1 out of src; self-loops cancel to 0.
    inc = np.zeros((m, len(vertices)), dtype=np.int64)
    wmat = np.zeros((m, g.dimension), dtype=np.int64)
    for i, e in enumerate(edges):
        inc[i, vindex[e.dst]] += 1
        inc[i, vindex[e.src]] -= 1
        wmat[i] = e.weight
    # Support connectivity depends only on the nonzero pattern; precompute
    # which of the 2**m patterns qualify.
    pattern_ok = np.array(
        [mask > 0 and _connected([e for i, e in enumerate(edges) if mask >> i & 1]) for mask in range(1 << m)]
    )
    # Enumerate in blocks: the first m-h digits are constant per block and
    # the last h digits run through the template, so block order plus
    # template order is exactly lexicographic order over all maps. A block
    # only needs the template rows whose balance cancels its own; a linear
    # key of the balance finds them (in template order), and an exact
    # comparison drops the rows whose key merely collides.
    base = bound + 1
    h = min(m, 5)
    counts, support, nonzero = _template(h, base)
    inc_lo, w_lo = inc[m - h :], wmat[m - h :]
    mix = (2 * bound * m + 1) ** np.arange(len(vertices), dtype=np.int64)
    keys = counts @ (inc_lo @ mix)
    radix_hi = base ** np.arange(m - h - 1, -1, -1, dtype=np.int64)
    for block in range(base ** (m - h)):
        hi = (block // radix_hi) % base
        hi_balance = hi @ inc[: m - h]
        hi_sums = hi @ wmat[: m - h]
        rows = np.flatnonzero(keys == -(hi_balance @ mix))
        rows = rows[(counts[rows] @ inc_lo == -hi_balance).all(axis=1)]
        sums = counts[rows] @ w_lo
        ok = (sums == -hi_sums) if mode == "zero" else (sums >= -hi_sums)
        ok = ok.all(axis=1)
        if not hi.any():
            ok &= nonzero[rows]
        hi_bits = int((hi > 0) @ (np.int64(1) << np.arange(m - h, dtype=np.int64)))
        ok &= pattern_ok[support[rows] << (m - h) | hi_bits]
        if ok.any():
            row = np.concatenate([hi, counts[rows[np.argmax(ok)]]])
            circulation = {edges[i].id: int(row[i]) for i in range(m) if row[i] > 0}
            return eulerian_circuit_from_circulation(g, circulation)
    return None


def with_unit_drain_loops(g: MultiGraph) -> MultiGraph:
    """Add, at every vertex, one self-loop per dimension with weight -1 in
    that dimension and 0 elsewhere.

    The loops drain arbitrary surplus, reducing nonnegative-circuit search
    to zero-circuit search: the modified graph has a zero circuit exactly
    when the original has a nonnegative one (strip the loops to recover it).
    """
    extra = []
    for v in g.vertices:
        for d in range(g.dimension):
            w = tuple(-1 if i == d else 0 for i in range(g.dimension))
            extra.append(GraphEdge(("drain", v, d + 1), v, v, w))
    return MultiGraph(g.dimension, g.vertices, g.edges + tuple(extra), g.source)


def simple_cycles(g: MultiGraph) -> Iterator[tuple[str, ...]]:
    """All simple cycles as edge id tuples (vertices distinct except the
    closure). Parallel edges yield distinct cycles. Exponential; keep the
    graphs small."""
    order = {v: i for i, v in enumerate(sorted(g.vertices, key=repr))}
    out: dict[str, list] = {v: [] for v in g.vertices}
    for e in sorted(g.edges, key=lambda e: repr(e.id)):
        out[e.src].append(e)

    def extend(root, v, on_path, edges_taken):
        for e in out[v]:
            if e.dst == root:
                yield tuple(edges_taken + [e.id])
            elif e.dst not in on_path and order[e.dst] > order[root]:
                yield from extend(root, e.dst, on_path | {e.dst}, edges_taken + [e.id])

    for root in sorted(g.vertices, key=lambda v: order[v]):
        yield from extend(root, root, {root}, [])


def cycle_sum(g: MultiGraph, cycle: tuple[str, ...], d: int) -> int:
    by_id = {e.id: e for e in g.edges}
    return sum(by_id[eid].weight[d - 1] for eid in cycle)


def min_mean_by_enumeration(g: MultiGraph, d: int) -> Optional[Fraction]:
    means = [
        Fraction(cycle_sum(g, c, d), len(c))
        for c in simple_cycles(g)
    ]
    return min(means) if means else None


def has_negative_simple_cycle(g: MultiGraph, d: int) -> bool:
    return any(cycle_sum(g, c, d) < 0 for c in simple_cycles(g))


def value_iteration_energy(g: GameStructure) -> bool:
    """Classical single-dimension unknown-initial-credit decision.

    f(s) = minimal credit from which Player 1 keeps the running sum >= 0
    forever; Player-1 states minimize over successors, Player-2 states
    maximize. Values are monotone under iteration and either stabilize
    within n*W or diverge, so anything above the cap is treated as loss.
    """
    if g.dimension != 1:
        raise ValueError("oracle handles dimension 1 only")
    cap = len(g.states) * g.max_abs_weight
    inf = cap + 1

    def lift(credit_after, w):
        # inf is absorbing: a lost successor cannot be bought back by a
        # positive edge weight.
        if credit_after > cap:
            return inf
        return min(inf, max(0, credit_after - w))

    f = {s.id: 0 for s in g.states}
    for _ in range(len(g.states) * (cap + 2)):
        changed = False
        for s in g.states:
            need = [lift(f[e.dst], e.weight[0]) for e in g.out_edges(s.id)]
            new = min(need) if s.owner == 1 else max(need)
            if new != f[s.id]:
                f[s.id] = new
                changed = True
        if not changed:
            break
    return f[g.init] <= cap


def clamped_fixpoint_reference(g: GameStructure, v0: tuple[int, ...], cap: int) -> bool:
    """The clamped fixed-credit safety game decided by sweeping every
    (state, clamped energy) pair, in a fixed order, until no pair dies:
    a Player-1 pair lives while some safe move reaches a live pair, a
    Player-2 pair while all its moves are safe and reach live pairs."""
    start = (g.init, tuple(v0))
    moves: dict[tuple, list[Optional[tuple]]] = {}
    queue = [start]
    while queue:
        vtx = queue.pop()
        if vtx in moves:
            continue
        sid, energy = vtx
        succs: list[Optional[tuple]] = []
        for e in g.out_edges(sid):
            ne = tuple(c + w for c, w in zip(energy, e.weight))
            if any(c < 0 for c in ne):
                succs.append(None)  # losing move
                continue
            tgt = (e.dst, tuple(min(c, cap) for c in ne))
            succs.append(tgt)
            if tgt not in moves:
                queue.append(tgt)
        moves[vtx] = succs
    alive = set(moves)
    changed = True
    while changed:
        changed = False
        for vtx in sorted(moves, key=repr):
            if vtx not in alive:
                continue
            succs = moves[vtx]
            if g.owner(vtx[0]) == 1:
                ok = any(t is not None and t in alive for t in succs)
            else:
                ok = all(t is not None and t in alive for t in succs)
            if not ok:
                alive.discard(vtx)
                changed = True
    return start in alive


def rand_cnf(rng: random.Random, max_vars: int = 4, max_clauses: int = 8) -> CnfFormula:
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        clause = tuple(rng.randint(1, n) * rng.choice((1, -1)) for _ in range(3))
        clauses.append(clause)
    return CnfFormula(n, tuple(clauses))


def rand_knapsack(rng: random.Random, max_items: int = 10, max_value: int = 10) -> KnapsackInstance:
    n = rng.randint(1, max_items)
    items = tuple(
        (rng.randint(0, max_value), rng.randint(0, max_value)) for _ in range(n)
    )
    total_w = sum(w for _, w in items)
    total_p = sum(p for p, _ in items)
    return KnapsackInstance(items, rng.randint(0, total_w), rng.randint(0, total_p))


def rand_multigraph(
    rng: random.Random,
    max_vertices: int = 4,
    max_edges: int = 6,
    max_k: int = 3,
    lo: int = -2,
    hi: int = 2,
) -> MultiGraph:
    nv = rng.randint(1, max_vertices)
    ne = rng.randint(1, max_edges)
    k = rng.randint(1, max_k)
    vs = tuple(f"v{i}" for i in range(nv))
    es = tuple(
        GraphEdge(
            f"e{i}",
            vs[rng.randrange(nv)],
            vs[rng.randrange(nv)],
            tuple(rng.randint(lo, hi) for _ in range(k)),
        )
        for i in range(ne)
    )
    return MultiGraph(k, vs, es, vs[0])


def rand_game(
    rng: random.Random,
    max_states: int = 5,
    max_edges: int = 8,
    max_k: int = 3,
    lo: int = -2,
    hi: int = 2,
    owners: tuple[int, ...] = (1, 2),
) -> GameStructure:
    """Valid random game: one outgoing edge per state, extra edges up to
    max_edges."""
    ns = rng.randint(1, min(max_states, max_edges))
    k = rng.randint(1, max_k)
    sts = tuple(State(f"s{i}", rng.choice(owners)) for i in range(ns))
    eds = [
        Edge(
            f"e{i}",
            f"s{i}",
            f"s{rng.randrange(ns)}",
            tuple(rng.randint(lo, hi) for _ in range(k)),
        )
        for i in range(ns)
    ]
    for j in range(rng.randint(0, max_edges - ns)):
        eds.append(
            Edge(
                f"x{j}",
                f"s{rng.randrange(ns)}",
                f"s{rng.randrange(ns)}",
                tuple(rng.randint(lo, hi) for _ in range(k)),
            )
        )
    return GameStructure(k, sts, "s0", tuple(eds))


def random_walk(g: GameStructure, rng: random.Random, steps: int) -> list[str]:
    """Edge-id walk from init of the given length."""
    walk = []
    at = g.init
    for _ in range(steps):
        e = rng.choice(g.out_edges(at))
        walk.append(e.id)
        at = e.dst
    return walk


def random_lasso(g: GameStructure, rng: random.Random):
    """Random lasso: walk from init until a state repeats."""
    from mwg import Lasso

    seen = {g.init: 0}
    walk = []
    at = g.init
    while True:
        e = rng.choice(g.out_edges(at))
        walk.append(e.id)
        at = e.dst
        if at in seen:
            cut = seen[at]
            return Lasso(tuple(walk[:cut]), tuple(walk[cut:]))
        seen[at] = len(walk)
