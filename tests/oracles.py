"""Independent reference implementations and corpus generators.

Everything here is deliberately naive: truth tables, 2^n subset scans,
DFS cycle enumeration, scalar value iteration, exhaustive enumeration of
bounded circulations. The point is to share no reasoning with the
solvers under test, only the public data types. The exceptions are the
cold phase-1 simplex, kept to pin the LP's points exactly, and the
witness-free prune of the memoryless search, which runs the solvers'
Bellman-Ford on graphs it builds itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Callable, Iterator, Optional

import numpy as np

from mwg import (
    Circuit,
    CnfFormula,
    Edge,
    GameStructure,
    GraphEdge,
    KnapsackInstance,
    MemorylessStrategy,
    MooreStrategy,
    MultiGraph,
    State,
    WalkError,
    as_moore,
    verify_p1_certificate,
    verify_p2_spoiler,
)
from mwg import graphs
from mwg.model import WeightVector
from mwg.solvers import _require_valid


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


def enumerate_p2_memoryless(g: GameStructure) -> Iterator[MemorylessStrategy]:
    """All maps from Player-2 states to one of their outgoing edges, in
    lexicographic order (states by id, edges by id). A game without
    Player-2 states yields exactly one empty strategy."""
    states = list(g.states_of(2))
    for combo in product(*([e.id for e in g.out_edges(sid)] for sid in states)):
        yield MemorylessStrategy(2, dict(zip(states, combo)))


def energy_level(g: GameStructure, prefix) -> tuple[int, ...]:
    """Sum of edge weights along a play prefix starting at the initial state.

    The empty prefix has energy level zero. Raises WalkError if the ids do
    not form a connected walk from init.
    """
    total = [0] * g.dimension
    at = g.init
    for eid in prefix:
        edge = g.edge_by_id.get(eid)
        if edge is None:
            raise WalkError(f"unknown edge id {eid!r} in prefix")
        if edge.src != at:
            raise WalkError(f"edge {eid!r} leaves {edge.src!r} but the walk is at {at!r}")
        for d, c in enumerate(edge.weight):
            total[d] += c
        at = edge.dst
    return tuple(total)


def games_equal(a: GameStructure, b: GameStructure) -> bool:
    """Structural equality up to declaration order."""
    return (
        a.dimension == b.dimension
        and a.init == b.init
        and sorted(a.states, key=lambda s: s.id) == sorted(b.states, key=lambda s: s.id)
        and sorted(a.edges, key=lambda e: e.id) == sorted(b.edges, key=lambda e: e.id)
    )


def satisfies(sys_, point) -> bool:
    """Exact check that a point, one value per variable in order, meets
    every constraint of a linear system."""
    if len(point) != len(sys_.variables):
        return False
    values = [Fraction(point[v]) for v in sys_.variables]
    for c in sys_.constraints:
        lhs = sum((a * x for a, x in zip(c.coeffs, values)), Fraction(0))
        if c.relation == "=" and lhs != c.rhs:
            return False
        if c.relation == ">=" and lhs < c.rhs:
            return False
    return True


class _ColdSimplex:
    """Phase-1 simplex with a stored column per artificial and Bland's
    rule, pivoted fraction-free: the one `mwg.lp` ran before it stopped
    storing artificial columns and started continuing max-support probes
    on a solved tableau. Unlike the rest of this module it shares its
    reasoning with the code under test on purpose: it pins the exact
    point phase 1 reaches, which no independent oracle can."""

    def __init__(self, n: int, rows: list[tuple]):
        self.n = n
        self.infeasible_early = False
        self.lower = [Fraction(0)] * n
        self.rows = []
        for coeffs, rel, rhs in rows:
            nz = [j for j, a in enumerate(coeffs) if a]
            if not nz:
                self.infeasible_early |= rhs != 0 if rel == "=" else rhs > 0
            elif rel == ">=" and len(nz) == 1 and coeffs[nz[0]] > 0:
                self.lower[nz[0]] = max(self.lower[nz[0]], Fraction(rhs, coeffs[nz[0]]))
            else:
                self.rows.append((coeffs, rel, rhs))

    def _build(self) -> None:
        n_surplus = sum(1 for _, rel, _ in self.rows if rel == ">=")
        width = self.n + n_surplus
        shifts = [(j, b) for j, b in enumerate(self.lower) if b]
        built = []
        surplus = self.n
        for coeffs, rel, rhs in self.rows:
            rhs2 = rhs - sum(coeffs[j] * b for j, b in shifts)
            m = -rhs2.denominator if rhs2 < 0 else rhs2.denominator
            built.append(([m * a for a in coeffs], surplus if rel == ">=" else None, m, abs(rhs2.numerator)))
            surplus += rel == ">="
        n_art = sum(1 for _, s, m, _ in built if s is None or m > 0)
        self.total_cols = width + n_art
        self.T, self.basis, art_rows = [], [], []
        for row, s, m, rhs in built:
            row += [0] * (self.total_cols - self.n)
            row.append(rhs)
            if s is not None:
                row[s] = -m
            if s is None or m > 0:
                s = width + len(art_rows)
                row[s] = 1
                art_rows.append(len(self.T))
            self.T.append(row)
            self.basis.append(s)
        self.D = 1
        self.z = [0] * width + [1] * n_art + [0]
        for i in art_rows:
            self.z = [a - t for a, t in zip(self.z, self.T[i])]

    def _pivot(self, p: int, q: int) -> None:
        rowp, piv, D = self.T[p], self.T[p][q], self.D
        for row in (*self.T, self.z):
            if row is not rowp:
                f = row[q]
                row[:] = [(a * piv - f * b) // D for a, b in zip(row, rowp)]
        self.D = piv
        self.basis[p] = q

    def _leaving(self, q: int) -> Optional[int]:
        best = None
        for i, row in enumerate(self.T):
            if row[q] <= 0:
                continue
            if best is None:
                best = i
                continue
            lhs, rhs = row[-1] * self.T[best][q], self.T[best][-1] * row[q]
            if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best]):
                best = i
        return best

    def solve(self) -> Optional[list[Fraction]]:
        if self.infeasible_early:
            return None
        self._build()
        while True:
            q = next((j for j in range(self.total_cols) if self.z[j] < 0), None)
            if q is None:
                break
            self._pivot(self._leaving(q), q)
        if self.z[-1] != 0:
            return None
        values = list(self.lower)
        for i, q in enumerate(self.basis):
            if q < self.n:
                values[q] += Fraction(self.T[i][-1], self.T[i][q])
        return values


def _rows(sys_) -> list[tuple]:
    return [(list(c.coeffs), c.relation, c.rhs) for c in sys_.constraints]


def cold_lp_feasible(sys_) -> Optional[list[Fraction]]:
    """The point `_ColdSimplex` reaches on a linear system, or None."""
    return _ColdSimplex(len(sys_.variables), _rows(sys_)).solve()


def cold_max_support(sys_, point) -> Optional[list[Fraction]]:
    """The max-support loop solved from scratch for every probe: the
    system plus sum(x_j outside the support) >= 1, then the midpoint."""
    while point is not None and 0 in point:
        probe = ([int(x == 0) for x in point], ">=", 1)
        wider = _ColdSimplex(len(point), [*_rows(sys_), probe]).solve()
        if wider is None:
            break
        point = [(x + y) / 2 for x, y in zip(point, wider)]
    return point


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


def _canonical_machine(
    states: list[str], memory: tuple[str, ...], update: dict, action: dict
) -> tuple:
    """Signature of a Moore machine under breadth-first relabeling of the
    reachable memory states (unreachable ones dropped)."""
    order = graphs.reachable(memory[0], lambda m: [(None, update[(m, s)]) for s in states])
    rank = {m: i for i, m in enumerate(order)}
    sig = []
    for m in order:
        for s in states:
            sig.append((rank[update[(m, s)]], action.get((m, s))))
    return (len(order), tuple(sig))


def first_moore_winner(
    g: GameStructure, max_memory: int
) -> Optional[tuple[MooreStrategy, WeightVector]]:
    """Search for a winning finite-memory Player-1 strategy with at most
    max_memory memory states, by enumeration in a canonical order: the
    reference for `search_finite_memory_strategy`, which solves memory
    products instead.

    Returns the first strategy accepted by verify_p1_certificate together
    with the least credit it wins from. Exhausting the bound proves nothing (no a priori
    memory bound is known), so absence is None, not a refusal. Intended
    for small games; the candidate space grows doubly exponentially.
    """
    _require_valid(g)
    if max_memory < 1:
        raise ValueError("max_memory must be at least 1")
    state_ids = [s.id for s in g.states]
    p1_states = list(g.states_of(1))
    for size in range(1, max_memory + 1):
        memory = tuple([f"m{i}" for i in range(size)])
        update_keys = [(m, s) for m in memory for s in state_ids]
        action_keys = [(m, s) for m in memory for s in p1_states]
        action_options = [tuple([e.id for e in g.out_edges(s)]) for _, s in action_keys]
        seen_machines: set[tuple] = set()
        for upd_combo in product(memory, repeat=len(update_keys)):
            update = dict(zip(update_keys, upd_combo))
            for act_combo in product(*action_options):
                action = dict(zip(action_keys, act_combo))
                sig = _canonical_machine(state_ids, memory, update, action)
                if sig[0] < size or sig in seen_machines:
                    # Reachable part is a smaller machine (covered by an
                    # earlier size) or a relabeling of one already tried.
                    continue
                seen_machines.add(sig)
                strategy = MooreStrategy(1, memory, memory[0], update, action)
                result = verify_p1_certificate(g, strategy)
                if result.accepted:
                    return strategy, result.credit
    return None


def relaxed_prune(g: GameStructure) -> Callable[[list[int], int], bool]:
    """Reference for the memoryless search's prune hook, with no
    witnesses. Positions are the Player-1 states with more than one edge,
    by id, and a pick is an index into a state's edges by id. The relaxed
    graph of pick[: d + 1] keeps only the picked edge at the first d + 1
    positions and every other edge; prune(pick, d) is True iff its part
    reachable from the initial state has, in some dimension or (k >= 2)
    in the sum of all dimensions, no nonnegative cycle. Each call builds
    that graph and runs `_nonnegative_cycle` in every direction."""
    positions = [s for s in g.states_of(1) if len(g.out_edges(s)) > 1]
    k = g.dimension

    def prune(pick: list[int], d: int) -> bool:
        fixed = {s: g.out_edges(s)[pick[i]].id for i, s in enumerate(positions[: d + 1])}
        edges = [e for e in g.edges if fixed.get(e.src, e.id) == e.id]
        rank, todo = {g.init: 0}, [g.init]
        for u in todo:
            for e in edges:
                if e.src == u and e.dst not in rank:
                    rank[e.dst] = len(rank)
                    todo.append(e.dst)
        arcs = [(rank[e.src], rank[e.dst], e.weight) for e in edges if e.src in rank]
        for i in range(k + (k > 1)):
            weighed = [(u, v, w[i] if i < k else sum(w)) for u, v, w in arcs]
            if graphs._nonnegative_cycle(len(rank), weighed) is None:
                return True
        return False

    return prune


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


def eulerian_circuit_from_circulation(g: MultiGraph, circulation: dict) -> Circuit:
    """Closed walk using each edge exactly its circulation count of times.

    Raises WalkError unless the circulation is a nonempty, balanced and
    weakly connected multiset of g's edges. Hierholzer by splicing: from
    each position of the walk so far, in order, follow unused edges (by
    id) until none leaves the current vertex, which by balance is the
    vertex the detour started from, and insert that closed detour there.
    """
    by_id = {e.id: e for e in g.edges}
    left: dict = {}
    for eid, n in circulation.items():
        if eid not in by_id:
            raise WalkError(f"unknown edge id {eid!r} in circulation")
        if not isinstance(n, int) or n < 0:
            raise WalkError(f"multiplicity of {eid!r} must be a nonnegative integer")
        if n > 0:
            left[eid] = n
    if not left:
        raise WalkError("circulation must use at least one edge")
    balance: dict = {}
    for eid, n in left.items():
        e = by_id[eid]
        balance[e.dst] = balance.get(e.dst, 0) + n
        balance[e.src] = balance.get(e.src, 0) - n
    if any(balance.values()):
        raise WalkError("circulation is not balanced")
    if not _connected([by_id[eid] for eid in left]):
        raise WalkError("circulation support is not connected")
    order = sorted(left, key=repr)

    def detour(at) -> list:
        out = []
        while True:
            eid = next((eid for eid in order if left[eid] and by_id[eid].src == at), None)
            if eid is None:
                return out
            left[eid] -= 1
            out.append(eid)
            at = by_id[eid].dst

    at, walk, i = by_id[order[0]].src, [], 0
    while True:
        walk[i:i] = detour(at)
        if i == len(walk):
            return Circuit.from_walk(walk)
        at = by_id[walk[i]].dst
        i += 1


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


def reachable_part(g: MultiGraph, source) -> MultiGraph:
    """g restricted to the vertices reachable from source and the edges
    leaving them, found by a plain depth-first search, sourced at source."""
    seen, todo = {source}, [source]
    while todo:
        v = todo.pop()
        for e in g.edges:
            if e.src == v and e.dst not in seen:
                seen.add(e.dst)
                todo.append(e.dst)
    vertices = tuple([v for v in g.vertices if v in seen])
    return MultiGraph(g.dimension, vertices, tuple([e for e in g.edges if e.src in seen]), source)


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


def has_negative_simple_cycle(g: MultiGraph, d: int) -> bool:
    return any(cycle_sum(g, c, d) < 0 for c in simple_cycles(g))


def least_credit(g: MultiGraph) -> tuple[int, ...]:
    """Per dimension, max(0, -w) for w the least weight of a simple path
    from g's source, by enumerating every simple path depth first. With
    no reachable negative cycle a least-weight path may be taken simple,
    so this is the least initial credit that keeps every path's running
    sums nonnegative."""
    out_edges: dict = {}
    for e in g.edges:
        out_edges.setdefault(e.src, []).append(e)
    least = [0] * g.dimension
    stack = [(g.source, (g.source,), (0,) * g.dimension)]
    while stack:
        v, path, w = stack.pop()
        least = [min(a, b) for a, b in zip(least, w)]
        for e in out_edges.get(v, ()):
            if e.dst not in path:
                stack.append((e.dst, path + (e.dst,), tuple(a + b for a, b in zip(w, e.weight))))
    return tuple(-x for x in least)


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


def rand_decoy(
    rng: random.Random, max_cycle: int = 3, max_k: int = 3, lo: int = -2, hi: int = 2
) -> MultiGraph:
    """Two vertex-disjoint cycles, each negative alone in some dimension,
    whose sum is nonnegative (zero in the dimensions its slack leaves at
    0), joined by one edge each way. The circulation LP is then feasible
    on a disconnected support, the shape on which the circuit search
    needs the maximal support; whether a nonnegative circuit exists turns
    on the joining edges."""
    k = rng.randint(2, max_k)
    while True:
        a = [tuple(rng.randint(lo, hi) for _ in range(k)) for _ in range(rng.randint(1, max_cycle))]
        sum_a = [sum(w[d] for w in a) for d in range(k)]
        sum_b = [rng.randint(0, 1) - x for x in sum_a]
        if min(sum_a) < 0 and min(sum_b) < 0:
            break
    b = [tuple(rng.randint(lo, hi) for _ in range(k)) for _ in range(rng.randint(1, max_cycle) - 1)]
    b.append(tuple(t - sum(w[d] for w in b) for d, t in enumerate(sum_b)))
    vs = tuple(f"v{i}" for i in range(len(a) + len(b)))
    ring_a, ring_b = vs[: len(a)], vs[len(a) :]
    arcs = [
        (ring[i], ring[(i + 1) % len(ring)], w)
        for ring, ws in ((ring_a, a), (ring_b, b))
        for i, w in enumerate(ws)
    ]
    x, y = rng.choice(ring_a), rng.choice(ring_b)
    for src, dst in ((x, y), (y, x)):
        arcs.append((src, dst, tuple(rng.randint(lo, hi) for _ in range(k))))
    rng.shuffle(arcs)
    edges = tuple(GraphEdge(f"e{i}", src, dst, w) for i, (src, dst, w) in enumerate(arcs))
    return MultiGraph(k, vs, edges, vs[0])


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


def rand_dense_game(
    rng: random.Random, states: int = 10, p2_states: int = 3, k: int = 3, lo: int = -3, hi: int = 2
) -> GameStructure:
    """Unplanted game shaped like the benchmark's dense games: s0 is
    initial, s1..s<p2_states> belong to Player 2, and edge j of every
    state (id e<i>_<j>) follows the j-th of three random permutations of
    the states, redrawn until every state is reachable from s0 along
    Player-1 edges. Weights are uniform in [lo, hi]."""
    owner = [2 if 1 <= i <= p2_states else 1 for i in range(states)]
    while True:
        perms = [rng.sample(range(states), states) for _ in range(3)]
        seen, todo = {0}, [0]
        while todo:
            i = todo.pop()
            for perm in perms if owner[i] == 1 else ():
                if perm[i] not in seen:
                    seen.add(perm[i])
                    todo.append(perm[i])
        if len(seen) == states:
            break
    sts = tuple(State(f"s{i}", owner[i]) for i in range(states))
    eds = tuple(
        Edge(f"e{i}_{j}", f"s{i}", f"s{perm[i]}", tuple(rng.randint(lo, hi) for _ in range(k)))
        for i in range(states)
        for j, perm in enumerate(perms)
    )
    return GameStructure(k, sts, "s0", eds)


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
