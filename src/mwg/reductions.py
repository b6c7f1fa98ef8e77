"""Encodings between classical decision problems and multi-weighted games.

Three constructions: 3SAT into a two-player game whose unknown-credit
answer is No exactly when the formula is satisfiable; Knapsack into a
2-dimensional one-player chain whose memoryless verdict is feasibility;
and 3SAT into a one-player chain (one dimension per clause) whose
memoryless verdict is satisfiability. Each encoder has a decoder that
turns an accepted strategy back into a solution of the source problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import StrategyError
from .model import Edge, GameStructure, MemorylessStrategy, State


@dataclass(frozen=True)
class CnfFormula:
    """3-CNF: clauses are triples of nonzero literals, where literal +i
    means variable i and -i its negation, 1 <= i <= variables. Repeated
    literals within a clause are allowed."""

    variables: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.variables < 0:
            raise ValueError("variable count must be nonnegative")
        for ci, clause in enumerate(self.clauses, start=1):
            if len(clause) != 3:
                raise ValueError(f"clause {ci} has {len(clause)} literals, expected 3")
            for lit in clause:
                if not isinstance(lit, int) or lit == 0:
                    raise ValueError(f"clause {ci} contains invalid literal {lit!r}")
                if abs(lit) > self.variables:
                    raise ValueError(f"clause {ci} references variable {abs(lit)} out of range")

    def satisfied_by(self, values: Mapping[int, bool]) -> bool:
        return all(
            any(values.get(abs(lit), False) == (lit > 0) for lit in clause)
            for clause in self.clauses
        )


@dataclass(frozen=True)
class KnapsackInstance:
    """Items are (profit, weight) pairs of nonnegative integers; feasible
    subsets have total weight <= bound and total profit >= target."""

    items: tuple[tuple[int, int], ...]
    bound: int
    target: int

    def __post_init__(self) -> None:
        for i, (p, w) in enumerate(self.items, start=1):
            if p < 0 or w < 0:
                raise ValueError(f"item {i} has negative profit or weight")
        if self.bound < 0 or self.target < 0:
            raise ValueError("bound and target must be nonnegative")

    def feasible(self, subset) -> bool:
        chosen = set(subset)
        total_w = sum(self.items[j - 1][1] for j in chosen)
        total_p = sum(self.items[j - 1][0] for j in chosen)
        return total_w <= self.bound and total_p >= self.target


def _literal_state(lit: int) -> str:
    return f"x{lit}" if lit > 0 else f"nx{-lit}"


def _literal_dimension(lit: int) -> int:
    """0-based component of a literal: variable i occupies components
    2i-2 (positive) and 2i-1 (negated), keeping the pairing explicit."""
    return 2 * (abs(lit) - 1) + (0 if lit > 0 else 1)


def _complement_dimension(lit: int) -> int:
    return _literal_dimension(-lit)


def encode_3sat_two_player(f: CnfFormula) -> GameStructure:
    """Game with one component per literal (dimension 2n). From the
    initial state Player 1 picks a clause; the clause is Player 2's, who
    picks one of its three literals; the literal returns to the start
    with +1 on its own component and -1 on its complement's.

    Player 2 spoils exactly by choosing, clause by clause, literals that
    form a non-conflicting assignment, i.e. exactly when f is
    satisfiable. Literal states exist only for literals that occur.
    """
    if not f.clauses:
        raise ValueError("formula must have at least one clause")
    k = 2 * f.variables
    zero = tuple([0 for _ in range(k)])
    states = [State("init", 1)]
    edges = []
    occurring = sorted({lit for clause in f.clauses for lit in clause}, key=_literal_state)
    for j, clause in enumerate(f.clauses, start=1):
        states.append(State(f"c{j}", 2))
        edges.append(Edge(f"pick{j}", "init", f"c{j}", zero))
        for t, lit in enumerate(clause, start=1):
            edges.append(Edge(f"c{j}s{t}", f"c{j}", _literal_state(lit), zero))
    for lit in occurring:
        states.append(State(_literal_state(lit), 1))
        weight = list(zero)
        weight[_literal_dimension(lit)] = 1
        weight[_complement_dimension(lit)] = -1
        edges.append(Edge(f"ret_{_literal_state(lit)}", _literal_state(lit), "init", tuple(weight)))
    return GameStructure(k, tuple(states), "init", tuple(edges))


@dataclass(frozen=True)
class DecodedAssignment:
    """Assignment read off a Player-2 strategy: chosen literals are set
    true, untouched variables default to false. Conflicting means some
    variable was chosen in both polarities (then `values` keeps the
    positive choice and the flag is the real signal)."""

    values: Mapping[int, bool]
    conflicting: bool


def decode_3sat_spoiler(f: CnfFormula, s: MemorylessStrategy) -> DecodedAssignment:
    """Assignment induced by a Player-2 strategy on the two-player
    encoding: each clause's chosen literal is made true."""
    if s.player != 2:
        raise StrategyError("spoiler must belong to Player 2")
    chosen: set[int] = set()
    for j, clause in enumerate(f.clauses, start=1):
        state = f"c{j}"
        if state not in s.choice:
            raise StrategyError(f"strategy does not cover clause state {state!r}")
        eid = s.choice[state]
        prefix = f"c{j}s"
        if not eid.startswith(prefix) or eid[len(prefix) :] not in ("1", "2", "3"):
            raise StrategyError(f"edge {eid!r} is not a literal choice of {state!r}")
        chosen.add(clause[int(eid[len(prefix) :]) - 1])
    conflicting = any(-lit in chosen for lit in chosen)
    values = {i: (i in chosen) for i in range(1, f.variables + 1)}
    return DecodedAssignment(values, conflicting)


def encode_knapsack(inst: KnapsackInstance) -> GameStructure:
    """One-player 2-dimensional chain: item j offers a take edge with
    weight (p_j, -w_j) or a skip edge with weight (0,0); after the last
    item a closing edge with weight (-target, bound) restarts the chain.
    A memoryless strategy is a subset choice, and its unique cycle is
    componentwise nonnegative exactly when the subset is feasible."""
    n = len(inst.items)
    if n == 0:
        raise ValueError("instance must have at least one item")
    states = []
    edges = []
    for j, (p, w) in enumerate(inst.items, start=1):
        states += [State(f"i{j}", 1), State(f"i{j}y", 1), State(f"i{j}n", 1)]
        edges += [
            Edge(f"take{j}", f"i{j}", f"i{j}y", (p, -w)),
            Edge(f"skip{j}", f"i{j}", f"i{j}n", (0, 0)),
            Edge(f"nexty{j}", f"i{j}y", f"i{j + 1}", (0, 0)),
            Edge(f"nextn{j}", f"i{j}n", f"i{j + 1}", (0, 0)),
        ]
    states.append(State(f"i{n + 1}", 1))
    edges.append(Edge("close", f"i{n + 1}", "i1", (-inst.target, inst.bound)))
    return GameStructure(2, tuple(states), "i1", tuple(edges))


def decode_knapsack_strategy(inst: KnapsackInstance, s: MemorylessStrategy) -> frozenset[int]:
    """Item indices (1-based) whose take edge the strategy picks."""
    if s.player != 1:
        raise StrategyError("knapsack strategies belong to Player 1")
    subset = set()
    for j in range(1, len(inst.items) + 1):
        state = f"i{j}"
        if state not in s.choice:
            raise StrategyError(f"strategy does not cover item state {state!r}")
        if s.choice[state] == f"take{j}":
            subset.add(j)
    return frozenset(subset)


def encode_3sat_memoryless(f: CnfFormula) -> GameStructure:
    """One-player chain with one dimension per clause: variable i offers a
    True edge and a False edge whose weight vectors flag the clauses that
    choice satisfies; the closing edge subtracts 1 from every clause
    component. A memoryless strategy's unique cycle is nonnegative
    exactly when its assignment satisfies every clause."""
    if not f.clauses:
        raise ValueError("formula must have at least one clause")
    n = f.variables
    if n == 0:
        raise ValueError("formula must have at least one variable")
    m = len(f.clauses)
    states = []
    edges = []
    zero = tuple([0 for _ in range(m)])
    for i in range(1, n + 1):
        states += [State(f"v{i}", 1), State(f"v{i}t", 1), State(f"v{i}f", 1)]
        sat_true = tuple([1 if i in clause else 0 for clause in f.clauses])
        sat_false = tuple([1 if -i in clause else 0 for clause in f.clauses])
        edges += [
            Edge(f"sett{i}", f"v{i}", f"v{i}t", sat_true),
            Edge(f"setf{i}", f"v{i}", f"v{i}f", sat_false),
            Edge(f"advt{i}", f"v{i}t", f"v{i + 1}", zero),
            Edge(f"advf{i}", f"v{i}f", f"v{i + 1}", zero),
        ]
    states.append(State(f"v{n + 1}", 1))
    edges.append(Edge("close", f"v{n + 1}", "v1", tuple([-1 for _ in range(m)])))
    return GameStructure(m, tuple(states), "v1", tuple(edges))


def decode_memoryless_assignment(f: CnfFormula, s: MemorylessStrategy) -> dict[int, bool]:
    """Assignment read off a strategy on the one-player encoding: variable
    i is true iff its True edge is chosen."""
    if s.player != 1:
        raise StrategyError("assignment strategies belong to Player 1")
    values = {}
    for i in range(1, f.variables + 1):
        state = f"v{i}"
        if state not in s.choice:
            raise StrategyError(f"strategy does not cover variable state {state!r}")
        values[i] = s.choice[state] == f"sett{i}"
    return values
