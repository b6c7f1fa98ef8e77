"""Decision procedures for multi-weighted games.

Solves the unknown-initial-credit problem (does some nonnegative starting
credit let Player 1 keep all running sums nonnegative forever?), its
mean-payoff threshold counterpart for finite-memory strategies, and the
variants where Player 1 has no memory, or bounded memory via a product.

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

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from . import graphs
from .errors import DimensionError, InvalidGameError, StrategyError
from .graphs import (
    Circuit,
    MultiGraph,
    _follow,
    negative_cycle_in_dimension,  # noqa: F401 -- still looked up on this module
)
from .model import (
    Edge,
    GameStructure,
    Lasso,
    MemorylessStrategy,
    MooreStrategy,
    State,
    WeightVector,
    as_moore,
    check_strategy,
    product_with_strategy,
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
        for combo in product(*[edges for _, edges in self._choices]):
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
    winning strategy and an initial credit for it. A No carries nothing:
    the search found every candidate to agree with a losing lasso's
    choices (a nogood cube) or to extend a refuted prefix, one whose
    relaxed graph has no reachable cycle that is nonnegative in some
    dimension or in the sum of all dimensions."""

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
    edges = tuple([e for e in g.edges if s is None or s.choice.get(e.src, e.id) == e.id])
    return MultiGraph(g.dimension, tuple([st.id for st in g.states]), edges, g.init)


def _require_valid(g: GameStructure) -> None:
    violations = validate_game(g)
    if violations:
        raise InvalidGameError(violations)


def _choice_space(g: GameStructure, player: int) -> tuple[list[str], list[tuple[str, ...]]]:
    states = list(g.states_of(player))
    options = [tuple([e.id for e in g.out_edges(s)]) for s in states]
    return states, options


def _first_uncovered(
    sizes: Sequence[int],
    cubes: Iterable[tuple[tuple[int, int], ...]],
    settle: Callable[[list[int]], Optional[tuple[tuple[int, int], ...]]],
    prune: Optional[Callable[[list[int], int], bool]] = None,
) -> Optional[list[int]]:
    """First choice vector, in lexicographic order, that no cube contains.

    A choice vector picks an option index below sizes[i] at each
    position i; a cube is a tuple of (position, option index) pairs in
    position order and contains every vector that agrees with it there.
    The walk is depth first and skips a partial vector as soon as it
    contains a cube. At each full vector that no cube contains, `settle`
    either returns a cube containing it, which is learnt, or returns
    None, and the walk stops at that vector. None means the cubes
    contain every vector.

    The walk backjumps and learns, as conflict-directed backjumping does
    in CSP and SAT search. Each position d has a conflict set, emptied
    when the walk enters d from d - 1: the other positions, all before
    d, of each cube that excluded an option tried at d. A cube from
    `settle` counts at its deepest position. When the options at d run
    out, every vector that agrees with the picks at d's conflict set is
    contained in a cube; an empty set means every vector is. So the walk
    jumps to the deepest position j of the set, and on to j's next
    option. Those picks form the resolved cube, which excludes pick[j]:
    its positions other than j join j's conflict set, and it is learnt.
    A cube, given or learnt, is indexed at its deepest position unless
    it fixes every position up to there, as such a cube contains no
    vector after this one, which the walk leaves for good. The walk
    skips only vectors that a cube contains or that extend a pruned
    prefix, so it settles the same vectors in the same order as a walk
    that backs up one position at a time, and the vector it returns is
    the first uncovered one.

    With a `prune` hook, each partial vector pick[: d + 1] that no cube
    contains is offered as prune(pick, d) once position d is assigned;
    True skips every vector extending it, as a contained prefix is
    skipped. The hook does not say which picks refute the prefix, so
    they are taken to be all of pick[:d]: from a pruned option the walk
    backs up one position at a time, and a cube resolved from a prune
    fixes every position up to its deepest and is never indexed. The
    hook is called for pick[: d + 1] only after it returned False for
    pick[:d], so it may keep state per depth.
    """
    m = len(sizes)
    # Cubes by deepest position and the option there; each entry keeps
    # the cube's other pairs and, as a bitmask, their positions. A cube
    # is tested only once its deepest position is assigned, i.e. when it
    # can first be contained.
    by_last: list[dict[int, list[tuple[int, tuple[tuple[int, int], ...]]]]] = [{} for _ in range(m)]
    cubes = list(cubes)
    if not all(cubes):
        return None  # an empty cube contains everything
    for cube in cubes:
        by_last[cube[-1][0]].setdefault(cube[-1][1], []).append((_positions(cube[:-1]), cube[:-1]))
    pick = [0] * m
    conflict = [0] * m  # each position's conflict set, as a bitmask
    d = 0
    while True:
        if d < m:
            rests = by_last[d].get(pick[d])
            why = next((bits for bits, rest in rests if all(pick[i] == o for i, o in rest)), None) if rests else None
            if why is None:
                if prune is None or not prune(pick, d):
                    d += 1
                    if d < m:
                        pick[d] = conflict[d] = 0
                    continue
                why = (1 << d) - 1
            conflict[d] |= why
        else:
            cube = settle(pick)
            if cube is None:
                return pick
            if not cube:
                return None
            d, rest = cube[-1][0], cube[:-1]
            why = _positions(rest)
            conflict[d] |= why
            if len(rest) < d:
                by_last[d].setdefault(pick[d], []).append((why, rest))
        # Every vector that agrees with pick[: d + 1] is contained or
        # pruned. Once d has no option left, jump back to the deepest
        # position that took part, learning the resolved cube there.
        while pick[d] + 1 == sizes[d]:
            why = conflict[d]
            if not why:
                return None
            d = why.bit_length() - 1
            why ^= 1 << d
            conflict[d] |= why
            if why.bit_count() < d:
                by_last[d].setdefault(pick[d], []).append((why, tuple([(i, pick[i]) for i in range(d) if why >> i & 1])))
        pick[d] += 1


def _positions(pairs: Sequence[tuple[int, int]]) -> int:
    return sum([1 << i for i, _ in pairs])


def solve_unknown_credit(g: GameStructure) -> Verdict:
    """Decide whether Player 1 wins the energy objective for some
    nonnegative initial credit.

    Searches Player-2 memoryless strategies depth first, over Player-2
    states in enumeration order. Contracted once per solve, the game
    hops over single-edge Player-1 states; in the fixed graph of the
    first strategy not yet covered, a hop into a Player-2 state follows
    the picked hops on to a Player-1 state or a loop node. That graph is
    searched for a reachable circuit nonnegative in every dimension,
    unless a circuit found earlier has all its hops in it. A circuit,
    entered by a stem shortest in hops from the initial state, is a
    lasso that depends on Player 2's choices only at the Player-2 states
    it leaves from: every strategy that agrees there (the cube) contains
    it. So one circuit settles the whole cube, and the search skips
    every partial strategy a learnt cube contains. It backjumps and
    learns: once the cubes exclude every pick at a Player-2 state, it
    jumps back to the deepest earlier state whose pick took part, and
    learns the cube they resolve to (see `_first_uncovered`). On the
    3SAT encodings a cube is typically two clauses picking clashing
    literals, so the search runs like DPLL with conflict-directed
    backjumping on the formula instead of through all 3^clauses
    strategies (unsat8.cnf: 28 fixed graphs, 3 circuit searches; random
    3-CNFs at about 4.26 clauses per variable: mostly under 0.2 s up to
    16 variables, at most a few seconds). Skipped
    strategies all contain a witness, and a spoiler is returned only
    once a search found no circuit, so it is the first in enumeration
    order.
    """
    _require_valid(g)
    return _unknown_credit(g)


def _unknown_credit(g: GameStructure) -> Verdict:
    p2_states, options = _choice_space(g, 2)
    position = {s: i for i, s in enumerate(p2_states)}
    # Every edge of a node hops over single-edge Player-1 states.
    rec = {e.id: (e.src, e.dst, e.weight, (e.id,)) for e in g.edges}
    forced = {s: rec[es[0].id] for s, es in g.outgoing.items() if len(es) == 1 and g.owner(s) == 1}
    forced_loops: dict[str, list[tuple]] = {}
    out = {s: [_follow(rec[e.id], forced, forced_loops) for e in es] for s, es in g.outgoing.items() if s not in forced}
    start = _follow((None, g.init, (0,) * g.dimension, ()), forced, forced_loops)
    found: list[list[tuple]] = []
    cover: list[tuple[Cube, Lasso]] = []

    def settle(pick: list[int]) -> Optional[tuple[tuple[int, int], ...]]:
        chosen = {s: out[s][i] for s, i in zip(p2_states, pick)}
        loops = dict(forced_loops)
        # Parallel hops of equal weight are interchangeable for circuit
        # existence; keep one representative each and remember its ids.
        rep: dict[tuple, tuple] = {}

        def succ(u: str) -> list:
            hops = loops[u] if u in loops else [_follow(h, chosen, loops) for h in out[u]]
            for src, dst, weight, ids in hops:
                rep.setdefault((src, dst, weight), ids)
            return [(h, h[1]) for h in hops]

        entry = _follow(start, chosen, loops)
        # Breadth first, so that parent hops spell stems shortest in hops.
        parent = graphs.reachable(entry[1], succ)
        # A circuit found earlier, as its walk of (src, dst, weight) hops,
        # is a closed walk here too if all its hops are.
        circuit = next((c for c in found if all([t in rep for t in c])), None)
        if circuit is None:
            items = sorted(rep)
            walk = graphs._search_circuit([(*t, (i,)) for i, t in enumerate(items)], g.dimension, "nonnegative")
            if walk is None:
                return None
            circuit = [items[i] for i in walk]
            found.append(circuit)
        # Enter the circuit at its node nearest to the initial state.
        rank = {v: i for i, v in enumerate(parent)}
        cut = min(range(len(circuit)), key=lambda i: rank[circuit[i][0]])
        cycle = [eid for t in circuit[cut:] + circuit[:cut] for eid in rep[t]]
        stem, h = [], parent[circuit[cut][0]]
        while h is not None:
            stem[:0] = h[3]
            h = parent[h[0]]
        stem[:0] = entry[3]
        used = sorted({position[s] for s in {g.edge_by_id[eid].src for eid in stem + cycle} if s in position})
        cover.append(({p2_states[i]: options[i][pick[i]] for i in used}, Lasso(tuple(stem), tuple(cycle))))
        return tuple([(i, pick[i]) for i in used])

    pick = _first_uncovered([len(o) for o in options], (), settle)
    if pick is not None:
        spoiler = {s: opts[i] for s, opts, i in zip(p2_states, options, pick)}
        return Verdict(False, spoiler=MemorylessStrategy(2, spoiler))
    n = len(graphs.reachable(g.init, lambda s: [(None, e.dst) for e in g.out_edges(s)]))
    return Verdict(
        True, cover=tuple(cover), credit=sufficient_credit(g, n),
        choices=tuple(list(zip(p2_states, options))),
    )


def _as_fractions(v: Sequence, k: int) -> list[Fraction]:
    vals = [Fraction(x) for x in v]
    if len(vals) != k:
        raise DimensionError(f"threshold has {len(vals)} components, expected {k}")
    return vals


def threshold_shifted(g: GameStructure, v: Sequence) -> GameStructure:
    """Scale weights by c, the lcm of the threshold's denominators, and
    subtract c*v, in one pass over the edges, so that meeting threshold v
    in g becomes meeting 0 in the result: `shift_weights` after
    `scale_weights`. That keeps every invariant `validate_game` checks,
    so the threshold solvers validate g and not the result."""
    vals = _as_fractions(v, g.dimension)
    c = lcm(*[x.denominator for x in vals]) if vals else 1
    shift = [int(c * x) for x in vals]
    edges = tuple([Edge(e.id, e.src, e.dst, tuple([c * w - y for w, y in zip(e.weight, shift)])) for e in g.edges])
    return GameStructure(g.dimension, g.states, g.init, edges)


def solve_meanpayoff_threshold(g: GameStructure, v: Sequence) -> Verdict:
    """Decide whether a finite-memory Player-1 strategy achieves mean
    payoff at least v in every dimension against all finite-memory
    opposition. Equivalent to the unknown-credit problem of the scaled
    and shifted game; the returned certificates refer to that game (same
    state and edge ids, weights shifted)."""
    _require_valid(g)
    return _unknown_credit(threshold_shifted(g, v))


def sufficient_credit(g: GameStructure, n: int) -> WeightVector:
    """The n*W vector, W the largest absolute weight of g. With n the
    vertices of a strategy product that has no reachable negative cycle
    in any dimension (what verify_p1_certificate establishes), it is
    sufficient. With n the states reachable in g, it is the advisory
    credit of a Yes from solve_unknown_credit: the cover, not this
    vector, is the verifiable part of that verdict."""
    return tuple([n * g.max_abs_weight for _ in range(g.dimension)])


def verify_p1_certificate(
    g: GameStructure, s: Union[MooreStrategy, MemorylessStrategy]
) -> CertificateCheck:
    """Accept a Player-1 strategy iff its product with the game has no
    reachable negative simple cycle in any dimension. On acceptance the
    returned credit is the least one the strategy wins from: in each
    dimension, max(0, -min dist), dist the least weight of a path from
    the source to each product vertex. Player 2 can follow that path, and
    no path does worse."""
    if s.player != 1:
        raise StrategyError("certificate must belong to Player 1")
    # product_with_strategy checks the certificate, a memoryless one as a
    # Moore machine, so both kinds are rejected with the same messages.
    p = product_with_strategy(g, as_moore(g, s) if isinstance(s, MemorylessStrategy) else s)
    # The product lists its vertices breadth first from the source: all
    # are reachable, and the source is node 0.
    rank = {v: i for i, v in enumerate(p.vertices)}
    edges = [(rank[e.src], rank[e.dst], e.weight) for e in p.edges]
    credit = []
    for d in range(g.dimension):
        # Longest paths on the negated weights: -dist, 0 at the source.
        negated: list = []
        if graphs._positive_cycle(len(rank), [(u, v, -w[d]) for u, v, w in edges], negated) is not None:
            return CertificateCheck(False)
        credit.append(max(negated))
    return CertificateCheck(True, tuple(credit))


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
        # The walk is connected, so the cycle is closed iff it ends where it began.
        weights = [g.edge_by_id[eid].weight for eid in lasso.cycle]
        if at != g.edge_by_id[lasso.cycle[0]].src or any(sum(c) < 0 for c in zip(*weights)):
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
    choice. Chains of single-edge states (either owner) are contracted
    once per solve into a hop graph: its nodes are the choice states of
    both players and the loops of single edges, and each option of a
    choice state hops, with the chain's summed weight, to the next node.

    Partial candidates are refuted on the way. The relaxed graph of a
    prefix keeps only the picked hop at the positions it assigns and
    every hop elsewhere, so it contains the graph of every completion; a
    winner's reachable cycles are all nonnegative, and it has one. So
    if, in some dimension or in the sum of all dimensions, no cycle
    reachable in the relaxed graph is nonnegative, no completion wins
    and the walk skips them all; at the empty prefix that answers No
    before any candidate is tried. The sum is the Lagrangian bound with
    unit multipliers; on a knapsack chain it is profit minus weight
    taken, plus every positive open profit minus weight, plus bound
    minus target. Each of these directions keeps a witness lasso, a
    nonnegative cycle and the stem to it, with its cycle's weight, per
    depth, and is searched again only when a pick cuts its witness, as
    watched literals are. If the pick's hop leads where the cut one did,
    the witness is patched: the walk after it is unchanged, so only the
    weight moves, by the two hops' difference if the pick is on the
    cycle. Else the search plays the prefix's picks, then the cut
    witness's options, then option 0 (at Player-2 states too, whose hops
    are all kept); at the empty prefix that is the first candidate's
    play, so a first candidate that wins costs no further search. Else
    Bellman-Ford runs on the prefix's relaxed graph, filtered from a list
    of every hop reachable from the start that is made once per solve,
    and looks for a longest path with the exact weights w*(n+1)+1, n the
    reachable nodes: a simple cycle is positive there iff its weight w
    is nonnegative.

    A full candidate that passes is its own relaxed graph. While play
    from the initial state meets only Player-1 choices it is
    deterministic, so that graph has one reachable cycle, nonnegative in
    every dimension, and the candidate wins. Play that reaches a Player-2
    state with several edges is settled by Bellman-Ford on that graph's
    negated weights, one dimension at a time. A loser is refuted by a
    negative cycle plus a shortest stem to it from the start; every
    candidate that agrees with it at the Player-1 positions the stem and
    cycle leave from (its nogood cube) contains that lasso, as Player-2
    nodes keep all their hops and loop nodes have one, so it loses too,
    and the walk skips them all. Only candidates without a winner are
    skipped, so the first winner is the first the enumeration reaches."""
    _require_valid(g)
    return _memoryless_p1_energy(g)


def _memoryless_p1_energy(g: GameStructure) -> MemorylessVerdict:
    states, options = _choice_space(g, 1)
    multi = [(s, g.out_edges(s)) for s, opts in zip(states, options) if len(opts) > 1]
    m = len(multi)
    # Nodes of the hop graph: node j < m is the Player-1 state at position
    # j of a choice vector; Player 2's choice states follow, then the
    # loops of single edges, in the order hops first run into them.
    branching = [s for s in g.states_of(2) if len(g.out_edges(s)) > 1]
    choice_states = [s for s, _ in multi] + branching
    forced = {s: (s, es[0].dst, es[0].weight, ()) for s, es in g.outgoing.items() if len(es) == 1}
    loops: dict[str, list[tuple]] = {}
    recs = [[_follow((s, e.dst, e.weight, ()), forced, loops) for e in g.out_edges(s)] for s in choice_states]
    start_state = _follow((None, g.init, (0,) * g.dimension, ()), forced, loops)[1]
    node = {s: j for j, s in enumerate(choice_states + list(loops))}
    # With k >= 2 a hop weight carries one more direction, the sum of its
    # k weights; a winner's cycles are nonnegative there too.
    k = g.dimension
    directed = (lambda w: w + (sum(w),)) if k > 1 else (lambda w: w)
    # hops[u][o]: the node option o of node u leads to, and its weight. A
    # loop node has one hop, to itself, weighing one turn of the loop.
    hops = [[(node[h[1]], directed(h[2])) for h in hs] for hs in recs + list(loops.values())]
    start = node[start_state]

    def settle(pick: list[int]) -> Optional[tuple[tuple[int, int], ...]]:
        # pick passed the relaxed test of the full vector (of the empty
        # prefix if no position has a choice), so it wins if play stays
        # deterministic: until a choice repeats or a loop of single
        # edges closes.
        u, seen = start, set()
        while u < m and u not in seen:
            seen.add(u)
            u = hops[u][pick[u]][0]
        if u < m or u >= len(choice_states):
            return None
        # Player 2 branches: Bellman-Ford on the negated weights of the
        # candidate's hop graph, the relaxed graph of the full vector, for
        # a cycle negative in some dimension. Every candidate that agrees
        # with the lasso's options contains it, so they are a nogood cube.
        edges = relaxed_hops(pick, m - 1)
        for i in range(k):
            cycle = graphs._positive_cycle(len(rank), [(r, s, -w[i]) for _, _, r, s, w in edges])
            if cycle is not None:
                return tuple(sorted(lasso_of(cycle, edges, relaxed_graph(pick, m - 1))[0].items()))
        return None

    def relaxed_graph(pick: list[int], d: int) -> dict:
        # Breadth-first parent hops, as (node, option), of the part of the
        # relaxed graph of pick[: d + 1] reachable from the start.
        return graphs.reachable(start, lambda u: [((u, o), hops[u][o][0]) for o in ([pick[u]] if u <= d else range(len(hops[u])))])

    # Every hop reachable from the start, listed on first use as (node,
    # option, rank, next rank, weight) in breadth-first rank order.
    rank: dict[int, int] = {}
    listed: list[tuple[int, int, int, int, WeightVector]] = []

    def relaxed_hops(pick: list[int], d: int) -> list[tuple[int, int, int, int, WeightVector]]:
        # The listed hops of the relaxed graph of pick[: d + 1]; those it
        # does not reach stay, but Bellman-Ford from rank 0 never relaxes
        # them, and len(rank) bounds every simple cycle.
        if not rank:
            rank.update((v, r) for r, v in enumerate(graphs.reachable(start, lambda u: [(None, v) for v, _ in hops[u]])))
            listed.extend([(u, o, rank[u], rank[v], w) for u in rank for o, (v, w) in enumerate(hops[u])])
        return [h for h in listed if h[0] > d or h[1] == pick[h[0]]]

    def lasso_of(cycle: list[int], edges: list, parent: dict) -> tuple:
        # The lasso a cycle of edges makes, entered by a shortest stem at
        # its node nearest the start, as play returns it.
        ring = [edges[x][:2] for x in cycle]
        lasso, back = list(ring), parent[min([u for u, _ in ring], key=list(parent).index)]
        while back is not None:
            lasso.append(back)
            back = parent[back[0]]
        weight = [sum(c) for c in zip(*[edges[x][4] for x in cycle])]
        return {v: o for v, o in lasso if v < m}, {v for v, _ in ring if v < m}, weight

    def play(pick: list[int], d: int, prefer: dict[int, int]) -> tuple:
        # The lasso of the play that takes the prefix's picks, then
        # prefer's options, else option 0: the options it takes at
        # Player-1 positions, those on its cycle, and its cycle's weight.
        path, at, u = [], {}, start
        while u not in at:
            at[u] = len(path)
            path.append((u, pick[u] if u <= d else prefer.get(u, 0)))
            u = hops[u][path[-1][1]][0]
        cycle = path[at[u] :]
        weight = [sum(c) for c in zip(*[hops[v][o][1] for v, o in cycle])]
        return {v: o for v, o in path if v < m}, {v for v, _ in cycle if v < m}, weight

    def patch(pick: list[int], d: int, w: tuple) -> tuple:
        # w with pick[d]'s hop for its own, which leads to the same node:
        # the weight moves by their difference if d is on the cycle.
        options, ring, weight = w
        if d in ring:
            weight = [a + b - c for a, b, c in zip(weight, hops[d][pick[d]][1], hops[d][options[d]][1])]
        return {**options, d: pick[d]}, ring, weight

    def witnesses(pick: list[int], d: int, old: list[tuple]) -> Optional[list[tuple]]:
        # Per direction, a lasso of the relaxed graph of pick[: d + 1]
        # whose cycle is nonnegative there; None if some direction has
        # none. old holds the witnesses of pick[:d], and only those pick[d]
        # cuts are replaced: patched if pick[d]'s hop leads where the cut
        # one did, else by the play that keeps to the cut witness where
        # the prefix allows, else by a search of the relaxed graph.
        new, plays, rest = list(old), {}, []
        for i, w in enumerate(old):
            if d >= 0 and w[0].get(d, pick[d]) == pick[d]:
                continue
            if id(w) not in plays:
                same = d >= 0 and hops[d][pick[d]][0] == hops[d][w[0][d]][0]
                plays[id(w)] = patch(pick, d, w) if same else play(pick, d, w[0])
            lasso = plays[id(w)]
            if lasso[2][i] >= 0:
                new[i] = lasso
            else:
                rest.append(i)
        if not rest:
            return new
        edges, parent = relaxed_hops(pick, d), None
        for i in rest:
            cycle = graphs._nonnegative_cycle(len(rank), [(r, s, w[i]) for _, _, r, s, w in edges])
            if cycle is None:
                return None
            parent = parent or relaxed_graph(pick, d)
            new[i] = lasso_of(cycle, edges, parent)
        return new

    # wit[d + 1]: the witnesses of the prefix pick[: d + 1].
    wit: list[Optional[list[tuple]]] = [None] * (m + 1)
    wit[0] = witnesses([], -1, [({}, set(), [])] * (k + (k > 1)))
    if wit[0] is None:
        return MemorylessVerdict(False)

    def prune(pick: list[int], d: int) -> bool:
        wit[d + 1] = witnesses(pick, d, wit[d])
        return wit[d + 1] is None

    pick = _first_uncovered([len(opts) for _, opts in multi], (), settle, prune)
    if pick is None:
        return MemorylessVerdict(False)
    choice = dict(zip(states, (opts[0] for opts in options)))
    choice.update((s, opts[i].id) for (s, opts), i in zip(multi, pick))
    # The credit's n: the states play can reach under the strategy.
    n = len(graphs.reachable(g.init, lambda s: [(None, e.dst) for e in g.out_edges(s) if choice.get(s, e.id) == e.id]))
    return MemorylessVerdict(True, MemorylessStrategy(1, choice), sufficient_credit(g, n))


def solve_memoryless_p1_meanpayoff(g: GameStructure, v: Sequence) -> MemorylessVerdict:
    """Memoryless variant of the threshold problem: accept a candidate iff
    every cycle of its fixed graph has mean weight at least v in every
    dimension, i.e. the scaled-and-shifted graph has minimum cycle mean
    >= 0 (equivalently, no negative cycle). Certificates refer to the
    shifted game."""
    _require_valid(g)
    return _memoryless_p1_energy(threshold_shifted(g, v))


def clamped_fixed_credit_oracle(g: GameStructure, v0: WeightVector, cap: int) -> bool:
    """Decide the finite safety game on (state, energy clamped to
    [0..cap]^k): any move driving a component negative is unavailable to
    Player 1 and immediately winning for Player 2.

    Clamping discards surplus above cap, so True underapproximates
    Player 1's power in the real fixed-credit game: True implies Player 1
    wins with credit v0, False is inconclusive.

    More energy never hurts, so the energies from which Player 1 wins at
    a state form an upward-closed subset of [0..cap]^k, kept as its
    minimal credits. These sets are computed as a greatest fixpoint over
    the states reachable from the initial one: each starts as
    {(0, ..., 0)}, the whole box, and is recomputed from a FIFO worklist,
    which takes a state's predecessors again when its set changes. An
    edge of weight w into a state with minimal credit m is safe from
    exactly the energies x >= max(0, m - w), and only if m - w <= cap:
    since m <= cap, min(x + w, cap) >= m holds iff x + w >= m, and no
    energy above cap is ever held. A Player-1 state takes the union over
    its edges, a Player-2 state the intersection (componentwise maxima).

    Every iterate contains the fixpoint, so the answer is False as soon
    as v0 dominates no minimal credit of the initial state. Each change
    strictly shrinks an upward-closed subset of [0..cap]^k, so there are
    at most |S|·(cap+1)^k changes; the sets themselves only hold the
    credits the game forces, however large the cap.
    """
    _require_valid(g)
    if len(v0) != g.dimension:
        raise DimensionError(f"credit has {len(v0)} components, expected {g.dimension}")
    if any(c < 0 for c in v0):
        raise ValueError("credit components must be nonnegative")
    if any(c > cap for c in v0):
        raise ValueError("cap is smaller than a credit component")
    order = graphs.reachable(g.init, lambda s: [(None, e.dst) for e in g.out_edges(s)])
    preds: dict[str, list[str]] = {s: [] for s in order}
    for s in order:
        for e in g.out_edges(s):
            preds[e.dst].append(s)
    credits = {s: [tuple([0] * g.dimension)] for s in order}
    queue = deque(order)
    queued = set(order)
    while queue:
        s = queue.popleft()
        queued.discard(s)
        pres = [_credits_through(credits[e.dst], e.weight, cap) for e in g.out_edges(s)]
        if g.owner(s) == 1:
            new = _minimal([m for pre in pres for m in pre])
        else:
            new = _minimal(pres[0])
            for pre in pres[1:]:
                new = _minimal([tuple([a if a > b else b for a, b in zip(x, y)]) for x in new for y in pre])
        if new == credits[s]:
            continue
        credits[s] = new
        if s == g.init and not _covers(v0, new):
            return False
        for p in preds[s]:
            if p not in queued:
                queued.add(p)
                queue.append(p)
    return _covers(v0, credits[g.init])


def _credits_through(target: list[tuple[int, ...]], w: tuple[int, ...], cap: int) -> list[tuple[int, ...]]:
    """Least clamped energies from which an edge of weight w reaches one
    of the target's minimal credits (not minimised)."""
    out = []
    for m in target:
        need = [a - b for a, b in zip(m, w)]
        if max(need) <= cap:
            out.append(tuple([c if c > 0 else 0 for c in need]))
    return out


def _minimal(points: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The componentwise-minimal points, sorted. A point sorts after every
    point it dominates, so one pass keeps exactly the minimal ones."""
    if len(points) < 2:
        return points
    kept: list[tuple[int, ...]] = []
    for p in sorted(set(points)):
        if not _covers(p, kept):
            kept.append(p)
    return kept


def _covers(x: Sequence[int], minimal: list[tuple[int, ...]]) -> bool:
    """Whether x dominates some point of minimal componentwise."""
    return any(all([a >= b for a, b in zip(x, m)]) for m in minimal)


def search_finite_memory_strategy(
    g: GameStructure, max_memory: int
) -> Optional[tuple[MooreStrategy, WeightVector]]:
    """Search for a winning finite-memory Player-1 strategy with at most
    max_memory memory states, fewest first.

    A Moore machine with memory M is a memoryless Player-1 strategy of
    the product of g with M, decided by the memoryless search. There each
    (m, s) is a Player-1 state. At Player 1's s, an edge per (m', e) goes
    to (m', dst e) with e's weight; at Player 2's s, a zero-weight edge
    per m' goes to a Player-2 state with one edge per e, to (m', dst e).
    A winner's graph is the machine's product with g, each Player-2 step
    split in two, so it wins iff the machine does. The machine is read
    off the first size with a winner, so it reaches all its memory.

    Returns it with the least credit it wins from. Exhausting the bound
    proves nothing (no a priori memory bound is known), so absence is
    None, not a refusal.
    """
    _require_valid(g)
    if max_memory < 1:
        raise ValueError("max_memory must be at least 1")
    at = {s.id: j for j, s in enumerate(g.states)}
    for size in range(1, max_memory + 1):
        memory = tuple([f"m{i}" for i in range(size)])
        states, edges, move = [], [], {}
        for (i, m), (j, s) in product(enumerate(memory), enumerate(g.states)):
            states.append(State(f"c{i}.{j}", 1))
            out = g.out_edges(s.id)
            if s.owner == 2:
                states.append(State(f"d{i}.{j}", 2))
                edges += [Edge(f"d{i}.{j}.{x}", f"d{i}.{j}", f"c{i}.{at[e.dst]}", e.weight) for x, e in enumerate(out)]
            for y, (n, e) in enumerate(product(range(size), out if s.owner == 1 else [None])):
                dst, w = (f"c{n}.{at[e.dst]}", e.weight) if e else (f"d{n}.{j}", (0,) * g.dimension)
                edges.append(Edge(f"c{i}.{j}.{y}", f"c{i}.{j}", dst, w))
                move[edges[-1].id] = ((m, s.id), memory[n], e and e.id)
        v = _memoryless_p1_energy(GameStructure(g.dimension, tuple(states), f"c0.{at[g.init]}", tuple(edges)))
        if v.answer:
            picks = [move[x] for x in v.strategy.choice.values()]
            update = {key: n for key, n, _ in picks}
            strategy = MooreStrategy(1, memory, memory[0], update, {key: x for key, _, x in picks if x is not None})
            return strategy, verify_p1_certificate(g, strategy).credit
    return None
