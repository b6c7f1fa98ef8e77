"""Core types for multi-weighted games on finite graphs.

A game is played on a directed multigraph whose edges carry integer weight
vectors of a fixed dimension. Every state belongs to player 1 or player 2;
the owner of the current state picks the next edge. Plays are infinite, so
validation requires out-degree >= 1 everywhere. Parallel edges are allowed
and distinguished by edge id; strategies and plays therefore refer to edge
ids, never to (src, dst) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

from .errors import DimensionError, StrategyError, WalkError
from .graphs import GraphEdge, MultiGraph, reachable

# Weight vectors are plain tuples of ints; helpers below operate on them.
WeightVector = tuple[int, ...]


def vector_add(a: WeightVector, b: WeightVector) -> WeightVector:
    return tuple(x + y for x, y in zip(a, b))


def vector_sub(a: WeightVector, b: WeightVector) -> WeightVector:
    return tuple(x - y for x, y in zip(a, b))


@dataclass(frozen=True)
class State:
    id: str
    owner: int  # 1 or 2


class Edge(GraphEdge):
    """A game edge: a multigraph edge whose id and endpoints are strings
    (state ids), so a game's edges serve as the edges of its graph views."""


@dataclass(frozen=True)
class GameStructure:
    """Immutable game arena. Use validate_game to check the invariants."""

    dimension: int
    states: tuple[State, ...]
    init: str
    edges: tuple[Edge, ...]

    @cached_property
    def state_by_id(self) -> dict[str, State]:
        return {s.id: s for s in self.states}

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def outgoing(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {s.id: [] for s in self.states}
        for e in self.edges:
            if e.src in out:
                out[e.src].append(e)
        return {sid: tuple(sorted(es, key=lambda e: e.id)) for sid, es in out.items()}

    def out_edges(self, state_id: str) -> tuple[Edge, ...]:
        return self.outgoing[state_id]

    def owner(self, state_id: str) -> int:
        return self.state_by_id[state_id].owner

    def states_of(self, player: int) -> tuple[str, ...]:
        return tuple(s.id for s in sorted(self.states, key=lambda s: s.id) if s.owner == player)

    @cached_property
    def max_abs_weight(self) -> int:
        return max((abs(c) for e in self.edges for c in e.weight), default=0)

    def zero_vector(self) -> WeightVector:
        return (0,) * self.dimension


@dataclass
class MemorylessStrategy:
    """Maps every state owned by `player` to one of its outgoing edge ids."""

    player: int
    choice: dict[str, str]


@dataclass
class MooreStrategy:
    """Finite-memory strategy: a Moore machine over memory ids.

    `update` must be total on memory x states (memory advances on every
    move, whoever made it); `action` must be total on memory x states owned
    by `player`.
    """

    player: int
    memory: tuple[str, ...]
    initial: str
    update: dict[tuple[str, str], str]
    action: dict[tuple[str, str], str]


Strategy = Union[MemorylessStrategy, MooreStrategy]


@dataclass(frozen=True)
class Lasso:
    """A stem from the initial state followed by a nonempty cycle, as edge ids."""

    stem: tuple[str, ...]
    cycle: tuple[str, ...]


@dataclass(frozen=True)
class Violation:
    rule: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule} ({self.subject}): {self.message}"


def validate_game(g: GameStructure) -> list[Violation]:
    """Check all structural invariants; returns violations instead of raising."""
    out: list[Violation] = []
    if not isinstance(g.dimension, int) or g.dimension < 1:
        out.append(Violation("dimension", str(g.dimension), "dimension must be an integer >= 1"))
    seen_states: set[str] = set()
    for s in g.states:
        if s.id in seen_states:
            out.append(Violation("state-id-unique", s.id, "duplicate state id"))
        seen_states.add(s.id)
        if s.owner not in (1, 2):
            out.append(Violation("owner", s.id, f"owner must be 1 or 2, got {s.owner!r}"))
    if g.init not in seen_states:
        out.append(Violation("init-declared", g.init, "initial state is not a declared state"))
    seen_edges: set[str] = set()
    for e in g.edges:
        if e.id in seen_edges:
            out.append(Violation("edge-id-unique", e.id, "duplicate edge id"))
        seen_edges.add(e.id)
        for endpoint in (e.src, e.dst):
            if endpoint not in seen_states:
                out.append(Violation("endpoint", e.id, f"references undeclared state {endpoint!r}"))
        if g.dimension >= 1 and len(e.weight) != g.dimension:
            out.append(
                Violation(
                    "weight-arity",
                    e.id,
                    f"weight has {len(e.weight)} components, game dimension is {g.dimension}",
                )
            )
        if not all(isinstance(c, int) for c in e.weight):
            out.append(Violation("weight-integer", e.id, "weight components must be integers"))
    with_out = {e.src for e in g.edges}
    for s in g.states:
        if s.id not in with_out:
            out.append(Violation("out-degree", s.id, "state has no outgoing edge"))
    return out


def energy_level(g: GameStructure, prefix: Iterable[str]) -> WeightVector:
    """Sum of edge weights along a play prefix starting at the initial state.

    The empty prefix has energy level zero. Raises WalkError if the ids do
    not form a connected walk from init.
    """
    total = list(g.zero_vector())
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


def _walk_end(g: GameStructure, start: str, ids: Iterable[str], what: str) -> str:
    at = start
    for eid in ids:
        edge = g.edge_by_id.get(eid)
        if edge is None:
            raise WalkError(f"unknown edge id {eid!r} in {what}")
        if edge.src != at:
            raise WalkError(f"edge {eid!r} leaves {edge.src!r} but the {what} is at {at!r}")
        at = edge.dst
    return at


def mean_payoff_of_lasso(g: GameStructure, lasso: Lasso) -> tuple[Fraction, ...]:
    """Mean weight per dimension of the lasso's cycle, as exact fractions.

    The stem must be a walk from init and the cycle must loop back to the
    stem's endpoint; the value itself depends only on the cycle.
    """
    if not lasso.cycle:
        raise WalkError("lasso cycle must be nonempty")
    anchor = _walk_end(g, g.init, lasso.stem, "lasso stem")
    if _walk_end(g, anchor, lasso.cycle, "lasso cycle") != anchor:
        raise WalkError("lasso cycle does not return to the stem's endpoint")
    total = list(g.zero_vector())
    for eid in lasso.cycle:
        for d, c in enumerate(g.edge_by_id[eid].weight):
            total[d] += c
    n = len(lasso.cycle)
    return tuple(Fraction(t, n) for t in total)


def shift_weights(g: GameStructure, v: WeightVector) -> GameStructure:
    """Subtract v from every edge weight (used to reduce threshold v to 0)."""
    if len(v) != g.dimension:
        raise DimensionError(f"shift vector has {len(v)} components, game dimension is {g.dimension}")
    if not all(isinstance(c, int) for c in v):
        raise DimensionError("shift vector components must be integers")
    edges = tuple(Edge(e.id, e.src, e.dst, vector_sub(e.weight, v)) for e in g.edges)
    return GameStructure(g.dimension, g.states, g.init, edges)


def scale_weights(g: GameStructure, c: int) -> GameStructure:
    """Multiply every edge weight by an integer factor c >= 1."""
    if not isinstance(c, int) or c < 1:
        raise ValueError(f"scale factor must be an integer >= 1, got {c!r}")
    edges = tuple(Edge(e.id, e.src, e.dst, tuple(c * w for w in e.weight)) for e in g.edges)
    return GameStructure(g.dimension, g.states, g.init, edges)


def check_strategy(g: GameStructure, s: Strategy) -> None:
    """Raise StrategyError unless s is a total, well-formed strategy for g."""
    if s.player not in (1, 2):
        raise StrategyError(f"strategy player must be 1 or 2, got {s.player!r}")
    owned = g.states_of(s.player)
    if isinstance(s, MemorylessStrategy):
        if set(s.choice) != set(owned):
            raise StrategyError("memoryless strategy domain must be exactly the states owned by its player")
        for sid, eid in s.choice.items():
            edge = g.edge_by_id.get(eid)
            if edge is None or edge.src != sid:
                raise StrategyError(f"choice at {sid!r} is not an outgoing edge id: {eid!r}")
        return
    if not s.memory or len(set(s.memory)) != len(s.memory):
        raise StrategyError("Moore strategy memory ids must be nonempty and unique")
    if s.initial not in s.memory:
        raise StrategyError(f"initial memory {s.initial!r} is not a memory id")
    for m in s.memory:
        for sid in (st.id for st in g.states):
            nxt = s.update.get((m, sid))
            if nxt is None:
                raise StrategyError(f"update is not total: missing ({m!r}, {sid!r})")
            if nxt not in s.memory:
                raise StrategyError(f"update({m!r}, {sid!r}) = {nxt!r} is not a memory id")
        for sid in owned:
            eid = s.action.get((m, sid))
            if eid is None:
                raise StrategyError(f"action is not total: missing ({m!r}, {sid!r})")
            edge = g.edge_by_id.get(eid)
            if edge is None or edge.src != sid:
                raise StrategyError(f"action({m!r}, {sid!r}) is not an outgoing edge id: {eid!r}")


def as_moore(g: GameStructure, s: MemorylessStrategy) -> MooreStrategy:
    """View a memoryless strategy as a single-memory Moore machine."""
    m0 = "m0"
    update = {(m0, st.id): m0 for st in g.states}
    action = {(m0, sid): eid for sid, eid in s.choice.items()}
    return MooreStrategy(s.player, (m0,), m0, update, action)


def product_with_strategy(g: GameStructure, s: Strategy) -> MultiGraph:
    """Unfold g against s: the (memory, state) pairs reachable from init,
    in breadth-first order, with source (initial memory, init).

    At states owned by s.player only the edge picked by s survives; the
    opponent keeps all outgoing edges. Memory advances via s.update on every
    transition. Edge ids are (vertex, game edge id) pairs, unique because
    the out-edges of a vertex carry distinct game edge ids.
    """
    check_strategy(g, s)
    moore = as_moore(g, s) if isinstance(s, MemorylessStrategy) else s
    start = (moore.initial, g.init)
    edges: list[GraphEdge] = []

    def succ(v: tuple[str, str]) -> list[tuple[GraphEdge, tuple[str, str]]]:
        m, sid = v
        if g.owner(sid) == moore.player:
            out = (g.edge_by_id[moore.action[v]],)
        else:
            out = g.out_edges(sid)
        m_next = moore.update[v]
        new = [GraphEdge((v, e.id), v, (m_next, e.dst), e.weight) for e in out]
        edges.extend(new)
        return [(e, e.dst) for e in new]

    vertices = tuple(reachable(start, succ))
    return MultiGraph(g.dimension, vertices, tuple(edges), start)


def strategies_equal(a: Strategy, b: Strategy) -> bool:
    """Structural equality that tolerates memoryless/Moore mixing."""
    if isinstance(a, MemorylessStrategy) and isinstance(b, MemorylessStrategy):
        return a.player == b.player and a.choice == b.choice
    if isinstance(a, MooreStrategy) and isinstance(b, MooreStrategy):
        return (
            a.player == b.player
            and set(a.memory) == set(b.memory)
            and a.initial == b.initial
            and a.update == b.update
            and a.action == b.action
        )
    return False
