"""Decision procedures for multi-weighted games.

Solves the unknown-initial-credit problem (does some nonnegative starting
credit let Player 1 keep all running sums nonnegative forever?), its
mean-payoff threshold counterpart for finite-memory strategies, and the
variants where Player 1 is restricted to memoryless strategies.

The master procedure rests on two facts. First, if Player 2 can spoil at
all, a memoryless strategy suffices, so covering Player 2's memoryless
strategies is exhaustive. Second, with Player 2 fixed the game is a
one-player graph, and Player 1 survives from some credit exactly when a
circuit with componentwise-nonnegative total weight is reachable from the
initial state. A No answer therefore comes with a spoiling strategy. A
Yes answer comes with a cover: lassos (a stem from the initial state and
a nonnegative circuit), each paired with the cube of Player-2 choices it
depends on, such that every Player-2 memoryless strategy agrees with
some cube; `verify_p2_cover` checks one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from . import graphs
from .errors import DimensionError, InvalidGameError, StrategyError, WalkError
from .graphs import (
    Circuit,
    MultiGraph,
    circuit_weight,
    negative_cycle_in_dimension,
    validate_circuit,
)
from .model import (
    GameStructure,
    Lasso,
    MemorylessStrategy,
    MooreStrategy,
    WeightVector,
    as_moore,
    check_strategy,
    product_with_strategy,
    scale_weights,
    shift_weights,
    validate_game,
)

# Player-2 choices at some of Player 2's states: state id -> edge id. A
# cube contains every Player-2 memoryless strategy that agrees with it.
Cube = Mapping[str, str]


class CoverWitnesses:
    """A cover expanded on demand into one (strategy, circuit) pair per
    Player-2 memoryless strategy, in enumeration order; each strategy is
    paired with the circuit of the first cube that contains it.

    `choices` lists each Player-2 state with its edge ids. A cover holds
    one lasso per cube, the expansion one entry per strategy, so the
    pairs are built while iterating and never stored.
    """

    def __init__(
        self, choices: Sequence[tuple[str, Sequence[str]]], cover: Sequence[tuple[Cube, Lasso]]
    ):
        self._choices = choices
        self._cover = cover

    def __len__(self) -> int:
        return prod(len(edges) for _, edges in self._choices)

    def __iter__(self) -> Iterator[tuple[MemorylessStrategy, Circuit]]:
        states = [s for s, _ in self._choices]
        circuits = [(cube, Circuit.from_walk(lasso.cycle)) for cube, lasso in self._cover]
        for combo in product(*(edges for _, edges in self._choices)):
            choice = dict(zip(states, combo))
            for cube, circuit in circuits:
                if all(choice.get(s) == e for s, e in cube.items()):
                    yield MemorylessStrategy(2, choice), circuit
                    break
            else:
                raise StrategyError(f"no cube of the cover contains the strategy {choice}")


@dataclass(frozen=True)
class Verdict:
    """Outcome of an unknown-initial-credit (or threshold) decision.

    On Yes, `cover` is a tuple of (cube, lasso) pairs: each lasso walks
    only Player-1 edges and its cube's edges, and its circuit has
    nonnegative weight in every dimension, so every Player-2 memoryless
    strategy that agrees with the cube leaves Player 1 that circuit; the
    cubes together contain every such strategy (`verify_p2_cover`).
    `choices` lists each Player-2 state with its edge ids in enumeration
    order, and `witnesses` expands the cover lazily into one (strategy,
    circuit) pair per strategy. `credit` is the heuristic n*W suggestion
    of `sufficient_credit`, n the states reachable from the initial one,
    neither proven nor minimal. On No, `spoiler` is the first Player-2
    memoryless strategy, in enumeration order, whose fixed graph has no
    reachable nonnegative circuit. A game without Player-2 states has
    one strategy, the empty one: a Yes has a single empty cube, a No the
    empty spoiler.
    """

    answer: bool
    cover: Optional[tuple[tuple[Cube, Lasso], ...]] = None
    credit: Optional[WeightVector] = None
    spoiler: Optional[MemorylessStrategy] = None
    choices: tuple[tuple[str, tuple[str, ...]], ...] = ()

    @property
    def witnesses(self) -> Optional[CoverWitnesses]:
        return None if self.cover is None else CoverWitnesses(self.choices, self.cover)


@dataclass(frozen=True)
class MemorylessVerdict:
    """Outcome of the memoryless-Player-1 variants. On Yes carries the
    winning strategy and an initial credit for it; a No is by covering
    nogood cubes (every candidate agrees with a losing lasso's choices)
    and carries nothing."""

    answer: bool
    strategy: Optional[MemorylessStrategy] = None
    credit: Optional[WeightVector] = None


@dataclass(frozen=True)
class CertificateCheck:
    accepted: bool
    credit: Optional[WeightVector] = None


def as_multigraph(g: GameStructure, s: Optional[MemorylessStrategy] = None) -> MultiGraph:
    """View a game as a plain multigraph (ownership forgotten), sourced at
    the initial state. With a checked memoryless strategy s, only the
    chosen edge survives at the states of s.player."""
    edges = tuple(e for e in g.edges if s is None or s.choice.get(e.src, e.id) == e.id)
    return MultiGraph(g.dimension, tuple(st.id for st in g.states), edges, g.init)


def _require_valid(g: GameStructure) -> None:
    violations = validate_game(g)
    if violations:
        raise InvalidGameError(violations)


def _choice_space(g: GameStructure, player: int) -> tuple[list[str], list[tuple[str, ...]]]:
    states = list(g.states_of(player))
    options = [tuple(e.id for e in g.out_edges(s)) for s in states]
    return states, options


def enumerate_p2_memoryless(g: GameStructure) -> Iterator[MemorylessStrategy]:
    """All maps from Player-2 states to one of their outgoing edges, in
    lexicographic order (states by id, edges by id). A game without
    Player-2 states yields exactly one empty strategy."""
    states, options = _choice_space(g, 2)
    for combo in product(*options):
        yield MemorylessStrategy(2, dict(zip(states, combo)))


def _first_uncovered(
    sizes: Sequence[int],
    cubes: Iterable[tuple[tuple[int, int], ...]],
    settle: Callable[[list[int]], Optional[tuple[tuple[int, int], ...]]],
) -> Optional[list[int]]:
    """First choice vector, in lexicographic order, that no cube contains.

    A choice vector picks an option index below sizes[i] at each
    position i; a cube is a tuple of (position, option index) pairs in
    position order and contains every vector that agrees with it there.
    The walk is depth first and prunes a partial vector as soon as it
    contains a cube. At each full vector that no cube contains, `settle`
    either returns a cube containing it, which is learnt, and the walk
    jumps back to that cube's deepest position; or returns None, and the
    walk stops at that vector. None means the cubes contain every vector.
    Cubes passed in are always indexed; a learnt one only when it can
    still contain a later vector.
    """
    m = len(sizes)
    # Cubes by deepest position and the option there; each entry keeps
    # the cube's other pairs. A cube is tested only once its deepest
    # position is assigned, i.e. when it can first be contained.
    by_last: list[dict[int, list[tuple[tuple[int, int], ...]]]] = [{} for _ in range(m)]
    cubes = list(cubes)
    if not all(cubes):
        return None  # an empty cube contains everything
    for cube in cubes:
        by_last[cube[-1][0]].setdefault(cube[-1][1], []).append(cube[:-1])
    pick = [0] * m
    d = 0
    while True:
        if d < m:
            rests = by_last[d].get(pick[d])
            if not rests or not any(all(pick[i] == o for i, o in rest) for rest in rests):
                d += 1
                if d < m:
                    pick[d] = 0
                continue
        else:
            cube = settle(pick)
            if cube is None:
                return pick
            if not cube:
                return None
            d = cube[-1][0]
            # A cube fixing every position up to its deepest one contains
            # no vector after this one, which the walk leaves for good.
            if len(cube) <= d:
                by_last[d].setdefault(cube[-1][1], []).append(cube[:-1])
        # Every vector extending pick[: d + 1] is contained: move on to
        # the next partial vector in lexicographic order.
        while pick[d] + 1 == sizes[d]:
            d -= 1
            if d < 0:
                return None
        pick[d] += 1


def solve_unknown_credit(g: GameStructure) -> Verdict:
    """Decide whether Player 1 wins the energy objective for some
    nonnegative initial credit.

    Searches Player-2 memoryless strategies depth first, over Player-2
    states in enumeration order. The fixed graph of the first strategy
    not yet covered is searched for a reachable circuit with nonnegative
    weight in every dimension; the search result is cached by the shape
    of the fixed graph after chain contraction and removal of duplicate
    parallel edges. A circuit found, entered by a shortest stem from the
    initial state, is a lasso that depends on Player 2's choices only at
    the Player-2 states it leaves from: every strategy that agrees there
    (the cube) contains it. So one circuit search settles the whole
    cube, and the search jumps back past it and skips every partial
    strategy a learnt cube contains. On the 3SAT encodings a cube is
    typically two clauses picking clashing literals, so the search runs
    like DPLL on the formula instead of through all 3^clauses
    strategies. Skipped strategies all contain a witness, so a spoiler,
    if any, is the first in enumeration order.
    """
    _require_valid(g)
    k = g.dimension
    state_ids = [s.id for s in g.states]
    sindex = {sid: i for i, sid in enumerate(state_ids)}
    init = sindex[g.init]
    p2_states, options = _choice_space(g, 2)
    position = {sindex[s]: i for i, s in enumerate(p2_states)}
    # Records are prebuilt per edge so the per-strategy work only
    # concatenates lists: (src index, dst index, weight, (edge id,)).
    rec_of_edge = {
        e.id: (sindex[e.src], sindex[e.dst], e.weight, (e.id,)) for e in g.edges
    }
    fixed_recs = [rec_of_edge[e.id] for s in g.states if s.owner == 1 for e in g.out_edges(s.id)]
    # (record, dst index) pairs out of each state, by state index.
    out_pairs = [[(rec_of_edge[e.id], sindex[e.dst]) for e in g.out_edges(sid)] for sid in state_ids]
    cache: dict[tuple, Optional[list[int]]] = {}
    cover: list[tuple[Cube, Lasso]] = []

    def settle(pick: list[int]) -> Optional[tuple[tuple[int, int], ...]]:
        chosen = [rec_of_edge[opts[i]] for opts, i in zip(options, pick)]
        succ = list(out_pairs)
        for rec in chosen:
            succ[rec[0]] = ((rec, rec[1]),)
        # Breadth first, so that parent edges spell shortest stems.
        parent = graphs.reachable(init, succ.__getitem__)
        live = [r for r in fixed_recs + chosen if r[0] in parent]
        # Duplicate parallel edges are interchangeable for circuit
        # existence; keep one representative each and remember its ids.
        rep: dict[tuple, tuple] = {}
        for src, dst, weight, exp in graphs._simplify(live):
            key = (src, dst, weight)
            if key not in rep or exp < rep[key]:
                rep[key] = exp
        items = sorted(rep.items())
        shape = tuple(t for t, _ in items)
        if shape in cache:
            abstract = cache[shape]
        else:
            abstract = graphs._search_circuit(
                [(t[0], t[1], t[2], (i,)) for i, (t, _) in enumerate(items)], k, "nonnegative"
            )
            cache[shape] = abstract
        if abstract is None:
            return None
        walk = [eid for i in abstract for eid in items[i][1]]
        # Enter the circuit at its state nearest to the initial state.
        rank = {v: i for i, v in enumerate(parent)}
        cut = min(range(len(walk)), key=lambda i: rank[rec_of_edge[walk[i]][0]])
        stem = []
        rec = parent[rec_of_edge[walk[cut]][0]]
        while rec is not None:
            stem.append(rec[3][0])
            rec = parent[rec[0]]
        lasso = Lasso(tuple(reversed(stem)), tuple(walk[cut:] + walk[:cut]))
        srcs = {rec_of_edge[eid][0] for eid in stem + walk}
        used = sorted(position[v] for v in srcs if v in position)
        cover.append(({p2_states[i]: options[i][pick[i]] for i in used}, lasso))
        return tuple((i, pick[i]) for i in used)

    pick = _first_uncovered([len(o) for o in options], (), settle)
    if pick is not None:
        spoiler = {s: opts[i] for s, opts, i in zip(p2_states, options, pick)}
        return Verdict(False, spoiler=MemorylessStrategy(2, spoiler))
    n = len(graphs.reachable(init, out_pairs.__getitem__))
    return Verdict(
        True, cover=tuple(cover), credit=sufficient_credit(g, n), choices=tuple(zip(p2_states, options))
    )


def _as_fractions(v: Sequence, k: int) -> list[Fraction]:
    vals = [Fraction(x) for x in v]
    if len(vals) != k:
        raise DimensionError(f"threshold has {len(vals)} components, expected {k}")
    return vals


def threshold_shifted(g: GameStructure, v: Sequence) -> GameStructure:
    """Scale weights to clear the threshold's denominators, then shift so
    that meeting threshold v in g becomes meeting 0 in the result."""
    vals = _as_fractions(v, g.dimension)
    c = lcm(*[x.denominator for x in vals]) if vals else 1
    scaled = scale_weights(g, c)
    shift = tuple(int(c * x) for x in vals)
    return shift_weights(scaled, shift)


def solve_meanpayoff_threshold(g: GameStructure, v: Sequence) -> Verdict:
    """Decide whether a finite-memory Player-1 strategy achieves mean
    payoff at least v in every dimension against all finite-memory
    opposition. Equivalent to the unknown-credit problem of the scaled
    and shifted game; the returned certificates refer to that game (same
    state and edge ids, weights shifted)."""
    _require_valid(g)
    return solve_unknown_credit(threshold_shifted(g, v))


def sufficient_credit(g: GameStructure, n: int) -> WeightVector:
    """The n*W vector, W the largest absolute weight of g. With n the
    vertices of a strategy product that has no reachable negative cycle
    in any dimension (what verify_p1_certificate establishes), it is
    sufficient. With n the states reachable in g, it is the advisory
    credit of a Yes from solve_unknown_credit: the cover, not this
    vector, is the verifiable part of that verdict."""
    return tuple(n * g.max_abs_weight for _ in range(g.dimension))


def verify_p1_certificate(
    g: GameStructure, s: Union[MooreStrategy, MemorylessStrategy]
) -> CertificateCheck:
    """Accept a Player-1 strategy iff its product with the game has no
    reachable negative simple cycle in any dimension; on acceptance the
    certificate is winning from the returned credit."""
    if s.player != 1:
        raise StrategyError("certificate must belong to Player 1")
    moore = as_moore(g, s) if isinstance(s, MemorylessStrategy) else s
    check_strategy(g, moore)
    p = product_with_strategy(g, moore)
    for d in range(1, g.dimension + 1):
        if negative_cycle_in_dimension(p, d, p.source) is not None:
            return CertificateCheck(False)
    return CertificateCheck(True, sufficient_credit(g, len(p.vertices)))


def verify_p2_spoiler(g: GameStructure, s: MemorylessStrategy) -> bool:
    """Accept a Player-2 memoryless strategy iff the graph it induces has
    no circuit, reachable from the initial state, with nonnegative weight
    in every dimension. Acceptance means no initial credit saves
    Player 1."""
    if s.player != 2:
        raise StrategyError("spoiler must belong to Player 2")
    check_strategy(g, s)
    return graphs.nonnegative_circuit(as_multigraph(g, s), g.init) is None


def verify_p2_cover(g: GameStructure, cover: Iterable[tuple[Cube, Lasso]]) -> bool:
    """Accept a Yes certificate: (cube, lasso) pairs such that
    - each cube maps Player-2 states to outgoing edges of theirs;
    - each lasso's stem starts at the initial state and leads to its
      circuit, and stem and circuit walk only Player-1 edges and the
      cube's edges;
    - each circuit is closed and nonnegative in every dimension;
    - the cubes together contain every Player-2 memoryless strategy.
    Coverage is decided by a depth-first walk over Player-2 states that
    prunes each partial strategy a cube contains, without listing all
    strategies. Acceptance means every Player-2 memoryless strategy
    leaves Player 1 a reachable nonnegative circuit, so some initial
    credit wins for Player 1."""
    states, options = _choice_space(g, 2)
    position = {s: i for i, s in enumerate(states)}
    whole = as_multigraph(g)
    p1_edges = {e.id for e in g.edges if g.owner(e.src) == 1}
    cubes = []
    for cube, lasso in cover:
        if any(s not in position or e not in options[position[s]] for s, e in cube.items()):
            return False
        walk = lasso.stem + lasso.cycle
        if not lasso.cycle or not (p1_edges | set(cube.values())).issuperset(walk):
            return False
        at = g.init
        for eid in walk:
            e = g.edge_by_id[eid]
            if e.src != at:
                return False
            at = e.dst
        circuit = Circuit.from_walk(lasso.cycle)
        try:
            validate_circuit(whole, circuit)
        except WalkError:
            return False
        if any(c < 0 for c in circuit_weight(whole, circuit)):
            return False
        cubes.append(tuple(sorted((position[s], options[position[s]].index(e)) for s, e in cube.items())))
    return _first_uncovered([len(o) for o in options], cubes, lambda pick: None) is None


def solve_memoryless_p1_energy(g: GameStructure) -> MemorylessVerdict:
    """Decide whether some memoryless Player-1 strategy wins the energy
    objective for some initial credit: a candidate wins iff its fixed
    graph (Player-2 branching intact) has no reachable negative cycle in
    any dimension. The first winning candidate in enumeration order is
    returned.

    Candidates are walked depth first over the Player-1 states with a
    choice. A losing one is refuted by a negative cycle plus a shortest
    stem to it from the initial state; every candidate that agrees with
    it at the states the stem and cycle leave from (its nogood cube)
    loses too, and the walk skips them all."""
    _require_valid(g)
    states, options = _choice_space(g, 1)
    multi = [(s, g.out_edges(s)) for s, opts in zip(states, options) if len(opts) > 1]
    position = {s: j for j, (s, _) in enumerate(multi)}
    forced = {s: es[0] for s, es in g.outgoing.items() if len(es) == 1}

    def settle(pick: list[int]) -> Optional[tuple[tuple[int, int], ...]]:
        # Deterministic play from the initial state closes one cycle.
        at, seen, walk, used = g.init, {}, [], []
        while at not in seen:
            seen[at] = len(walk)
            j = position.get(at)
            if j is not None:
                used.append(j)
                walk.append(multi[j][1][pick[j]])
            elif at in forced:
                walk.append(forced[at])
            else:
                break
            at = walk[-1].dst
        else:
            if all(sum(c) >= 0 for c in zip(*(e.weight for e in walk[seen[at] :]))):
                return None
            return tuple((j, pick[j]) for j in sorted(used))
        # Player 2 branches: search the graph for a negative cycle.
        step = {s: opts[i] for (s, opts), i in zip(multi, pick)}
        sub = as_multigraph(g, MemorylessStrategy(1, {s: e.id for s, e in step.items()}))
        found = (negative_cycle_in_dimension(sub, d, g.init) for d in range(1, g.dimension + 1))
        cycle = next((c for c in found if c is not None), None)
        if cycle is None:
            return None
        # The stem is a shortest path to the cycle's state nearest the start.
        out = {s: ((e, e.dst),) for s, e in step.items()}
        parent = graphs.reachable(g.init, lambda v: out.get(v) or [(e, e.dst) for e in g.out_edges(v)])
        srcs = [g.edge_by_id[eid].src for eid in cycle]
        e = parent[min(srcs, key=list(parent).index)]
        while e is not None:
            srcs.append(e.src)
            e = parent[e.src]
        return tuple((j, pick[j]) for j in sorted(position[s] for s in srcs if s in position))

    pick = _first_uncovered([len(opts) for _, opts in multi], (), settle)
    if pick is None:
        return MemorylessVerdict(False)
    choice = dict(zip(states, (opts[0] for opts in options)))
    choice.update((s, opts[i].id) for (s, opts), i in zip(multi, pick))
    strategy = MemorylessStrategy(1, choice)
    p = product_with_strategy(g, as_moore(g, strategy))
    return MemorylessVerdict(True, strategy, sufficient_credit(g, len(p.vertices)))


def solve_memoryless_p1_meanpayoff(g: GameStructure, v: Sequence) -> MemorylessVerdict:
    """Memoryless variant of the threshold problem: accept a candidate iff
    every cycle of its fixed graph has mean weight at least v in every
    dimension, i.e. the scaled-and-shifted graph has minimum cycle mean
    >= 0 (equivalently, no negative cycle). Certificates refer to the
    shifted game."""
    _require_valid(g)
    return solve_memoryless_p1_energy(threshold_shifted(g, v))


def clamped_fixed_credit_oracle(g: GameStructure, v0: WeightVector, cap: int) -> bool:
    """Decide the finite safety game on (state, energy clamped to
    [0..cap]^k): any move driving a component negative is unavailable to
    Player 1 and immediately winning for Player 2.

    Clamping discards surplus above cap, so True underapproximates
    Player 1's power in the real fixed-credit game: True implies Player 1
    wins with credit v0, False is inconclusive.
    """
    _require_valid(g)
    if len(v0) != g.dimension:
        raise DimensionError(f"credit has {len(v0)} components, expected {g.dimension}")
    if any(c < 0 for c in v0):
        raise ValueError("credit components must be nonnegative")
    if any(c > cap for c in v0):
        raise ValueError("cap is smaller than a credit component")
    # Explore (state, clamped energy) pairs, keeping each pair's
    # predecessors and a count of its moves that keep it alive: for
    # Player 1 its safe moves, for Player 2 one if all its moves are safe.
    start = (g.init, tuple(v0))
    preds: dict[tuple, list[tuple]] = {start: []}
    live: dict[tuple, int] = {}
    queue = [start]
    for vtx in queue:
        sid, energy = vtx
        safe, out = 0, g.out_edges(sid)
        for e in out:
            ne = tuple(c + w for c, w in zip(energy, e.weight))
            if min(ne) < 0:
                continue  # losing move
            safe += 1
            tgt = (e.dst, tuple(min(c, cap) for c in ne))
            if tgt not in preds:
                preds[tgt] = []
                queue.append(tgt)
            preds[tgt].append(vtx)
        live[vtx] = safe if g.owner(sid) == 1 else int(safe == len(out))
    # Player 2's attractor: a pair is lost once its count drops to zero,
    # and each lost pair takes one count from every move into it.
    lost = [vtx for vtx in queue if not live[vtx]]
    for vtx in lost:
        for u in preds[vtx]:
            if live[u]:
                live[u] -= 1
                if not live[u]:
                    lost.append(u)
    return live[start] > 0


def _canonical_machine(
    states: list[str], memory: tuple[str, ...], update: dict, action: dict
) -> tuple:
    """Signature of a Moore machine under breadth-first relabeling of the
    reachable memory states (unreachable ones dropped)."""
    order = [memory[0]]
    rank = {memory[0]: 0}
    qi = 0
    while qi < len(order):
        m = order[qi]
        qi += 1
        for s in states:
            nxt = update[(m, s)]
            if nxt not in rank:
                rank[nxt] = len(order)
                order.append(nxt)
    sig = []
    for m in order:
        for s in states:
            sig.append((rank[update[(m, s)]], action.get((m, s))))
    return (len(order), tuple(sig))


def search_finite_memory_strategy(
    g: GameStructure, max_memory: int
) -> Optional[tuple[MooreStrategy, WeightVector]]:
    """Search for a winning finite-memory Player-1 strategy with at most
    max_memory memory states, by enumeration in a canonical order.

    Returns the first strategy accepted by verify_p1_certificate together
    with its credit. Exhausting the bound proves nothing (no a priori
    memory bound is known), so absence is None, not a refusal. Intended
    for small games; the candidate space grows doubly exponentially.
    """
    _require_valid(g)
    if max_memory < 1:
        raise ValueError("max_memory must be at least 1")
    state_ids = [s.id for s in g.states]
    p1_states = list(g.states_of(1))
    for size in range(1, max_memory + 1):
        memory = tuple(f"m{i}" for i in range(size))
        update_keys = [(m, s) for m in memory for s in state_ids]
        action_keys = [(m, s) for m in memory for s in p1_states]
        action_options = [tuple(e.id for e in g.out_edges(s)) for _, s in action_keys]
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
