"""Circuit detection and cycle analysis on multi-weighted multigraphs.

The central operation decides whether a directed multigraph carries a
circuit (a closed walk, possibly revisiting edges) whose total weight is
zero, or nonnegative, in every dimension. Existence is decided through a
linear program over edge multiplicities: a circuit induces a balanced
multiplicity vector (inflow equals outflow at every vertex), and
conversely any balanced integer vector whose support is weakly connected
is realized by some closed walk (Euler). Connectivity is not linear, so
the search runs per strongly connected component and continues on the
support of a maximal feasible point; see _search_circuit for the
completeness argument. In nonnegative mode _prune drops loops that no
nonnegative circuit uses (the LP presolve rule for a column forced to
0), and a sign test accepts a loop, or two at a vertex, nonnegative in
every dimension, or refutes a component with a dimension in which
Bellman-Ford finds no nonnegative simple cycle, before any LP is built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from .errors import DimensionError, WalkError
from .lp import integer_scale, lp_feasible, max_support_solution, system

EdgeId = Hashable
Vertex = Hashable


@dataclass(frozen=True)
class GraphEdge:
    id: EdgeId
    src: Vertex
    dst: Vertex
    weight: tuple[int, ...]


@dataclass(frozen=True)
class MultiGraph:
    """Directed multigraph with integer weight vectors on edges.

    Vertex and edge ids may be any sortable hashables (game state ids are
    strings; product graphs use tuples). `source` is optional and only
    used by operations that restrict to the reachable part.
    """

    dimension: int
    vertices: tuple[Vertex, ...]
    edges: tuple[GraphEdge, ...]
    source: Optional[Vertex] = None


@dataclass(frozen=True)
class Circuit:
    """A closed walk given as edge ids, with its edge multiset."""

    edges: tuple[EdgeId, ...]
    multiplicity: Mapping[EdgeId, int] = field(hash=False, compare=True)

    @staticmethod
    def from_walk(ids: Sequence[EdgeId]) -> "Circuit":
        return Circuit(tuple(ids), dict(Counter(ids)))


def validate_circuit(g: MultiGraph, c: Circuit) -> None:
    """Raise WalkError unless c is a closed connected walk in g with a
    multiplicity map matching its occurrence counts."""
    if not c.edges:
        raise WalkError("circuit must be nonempty")
    by_id = {e.id: e for e in g.edges}
    for eid in c.edges:
        if eid not in by_id:
            raise WalkError(f"unknown edge id {eid!r} in circuit")
    for a, b in zip(c.edges, c.edges[1:]):
        if by_id[a].dst != by_id[b].src:
            raise WalkError(f"edges {a!r} and {b!r} are not consecutive")
    if by_id[c.edges[-1]].dst != by_id[c.edges[0]].src:
        raise WalkError("circuit does not close")
    if dict(Counter(c.edges)) != dict(c.multiplicity):
        raise WalkError("multiplicity map does not match the walk")


def circuit_weight(g: MultiGraph, c: Circuit) -> tuple[int, ...]:
    """Componentwise weight of the circuit's edge multiset."""
    by_id = {e.id: e for e in g.edges}
    total = [0] * g.dimension
    for eid, n in c.multiplicity.items():
        for d, w in enumerate(by_id[eid].weight):
            total[d] += n * w
    return tuple(total)


# -- reachability ------------------------------------------------------------


def reachable(source: Vertex, succ: Callable[[Vertex], Iterable[tuple[object, Vertex]]]) -> dict:
    """Breadth-first search from source; succ(v) lists (edge, successor)
    pairs. Maps every reachable vertex, in visit order, to the edge it was
    first reached by (None for source), so parent pointers spell shortest
    paths."""
    parent: dict = {source: None}
    queue = [source]
    for v in queue:
        for edge, w in succ(v):
            if w not in parent:
                parent[w] = edge
                queue.append(w)
    return parent


def _reached(g: MultiGraph, source: Vertex) -> dict:
    """`reachable` over g's edges from source: every vertex reachable from
    source, in breadth-first order, mapped to the edge that first reached
    it."""
    if source not in g.vertices:
        raise WalkError(f"unknown source vertex {source!r}")
    succ: dict[Vertex, list] = {}
    for e in g.edges:
        succ.setdefault(e.src, []).append((e, e.dst))
    return reachable(source, lambda v: succ.get(v, ()))


# -- internal circuit search -------------------------------------------------
#
# Internal edges are records (src, dst, weight, expansion) where expansion
# is the tuple of original edge ids the record stands for. The search
# splits the records into strongly connected components first (_rec_sccs,
# Kosaraju's two passes, the second by `reachable`), as every circuit lies
# inside one, then contracts each component's forced chains with _follow.
# Circuits of the contracted components correspond exactly to circuits of
# the original, so witnesses expand back losslessly. A circulation the LP
# finds is walked by _euler_walk.

_Rec = tuple[Vertex, Vertex, tuple[int, ...], tuple]


def _follow(h: tuple, step: Mapping, loops: dict[Vertex, list[tuple]]) -> tuple:
    """Extend the hop h, a record (src, dst, summed weight, edge ids), by
    step's one hop out of each state it reaches, up to a state without one
    or a loop node. A cycle of such hops becomes a loop node at its least
    state, with one hop, one turn, kept in loops."""
    trail: dict = {}
    while h[1] in step and h[1] not in trail and h[1] not in loops:
        trail[h[1]], nxt = h, step[h[1]]
        h = (h[0], nxt[1], tuple([x + y for x, y in zip(h[2], nxt[2])]), h[3] + nxt[3])
    if h[1] in trail:
        states = list(trail)
        h = trail[min(states[states.index(h[1]) :])]
        loops[h[1]] = [_follow(step[h[1]], step, {h[1]: []})]
    return h


def _simplify(recs: list[_Rec]) -> list[list[_Rec]]:
    """The strongly connected components of recs, in _rec_sccs order, each
    with its forced chains contracted: a vertex with one record inside the
    component is hopped over. A component of forced vertices only is one
    simple cycle (a self-loop alone included), which becomes one loop
    record at its least vertex. Otherwise every chain of forced vertices
    ends at an unforced one, and the contracted component is strongly
    connected."""
    out = []
    for comp in _rec_sccs(recs):
        inner = [recs[i] for i in comp]
        outs = Counter([r[0] for r in inner])
        forced = {r[0]: r for r in inner if outs[r[0]] == 1}
        if len(forced) == len(outs):
            v = min(forced)
            out.append([_follow(forced[v], forced, {v: []})])
        else:
            out.append([_follow(r, forced, {}) for r in inner if r[0] not in forced])
    return out


def _rec_sccs(recs: list[_Rec]) -> list[list[int]]:
    """Indices of recs grouped by strongly connected component, each group
    in index order, the groups ordered by their component's least vertex
    under repr; a record joining two components is in none. Kosaraju: a
    depth-first pass lists the vertices by finish time, then, latest
    finished first, each vertex not yet placed takes what reaches it over
    the records, less the vertices placed before, as its component."""
    succ: dict[Vertex, list[Vertex]] = {}
    pred: dict[Vertex, list[tuple[int, Vertex]]] = {}
    for i, (src, dst, _, _) in enumerate(recs):
        succ.setdefault(src, []).append(dst)
        pred.setdefault(dst, []).append((i, src))
    finished: list[Vertex] = []
    seen: set = set()
    for root in succ:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            for w in work[-1][1]:
                if w not in seen:
                    seen.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    break
            else:
                finished.append(work.pop()[0])
    label: dict[Vertex, Vertex] = {}
    for v in reversed(finished):
        if v not in label:
            comp = reachable(v, lambda u: [p for p in pred.get(u, ()) if p[1] not in label])
            label.update(dict.fromkeys(comp, min(comp, key=repr)))
    grouped: dict[Vertex, list[int]] = {}
    for i, (src, dst, _, _) in enumerate(recs):
        if label[src] == label[dst]:
            grouped.setdefault(label[src], []).append(i)
    return [grouped[v] for v in sorted(grouped, key=repr)]


def _euler_walk(recs: list[_Rec], counts: list[int]) -> list[int]:
    """Hierholzer on the multiset {recs[i] with multiplicity counts[i]}:
    rec indices in walk order, from the least source under repr, each
    vertex spending its records in index order. One stack holds the walk
    in progress as (vertex, record it was entered by) pairs; an entry whose
    vertex has nothing left to spend is final and is popped onto the walk.

    Precondition: balanced support. Raises WalkError if the support is not
    connected, when the walk spends fewer records than counts holds.
    """
    spend: dict[Vertex, list[int]] = {}
    for i in reversed(range(len(recs))):
        if counts[i]:
            spend.setdefault(recs[i][0], []).extend([i] * counts[i])
    stack = [(min(spend, key=repr), None)]
    walk: list[int] = []
    while stack:
        left = spend.get(stack[-1][0])
        if left:
            i = left.pop()
            stack.append((recs[i][1], i))
        else:
            walk.append(stack.pop()[1])
    walk.pop()
    if len(walk) < sum(counts):
        raise WalkError("circulation support is not connected")
    walk.reverse()
    return walk


def _circulation_system(recs: list[_Rec], dimension: int, mode: str):
    vertices = sorted({r[0] for r in recs} | {r[1] for r in recs}, key=repr)
    balance = {v: [0] * len(recs) for v in vertices}
    for i, (src, dst, _, _) in enumerate(recs):
        balance[dst][i] += 1
        balance[src][i] -= 1
    rows = [(balance[v], "=", 0) for v in vertices]
    relation = "=" if mode == "zero" else ">="
    for d in range(dimension):
        rows.append(([r[2][d] for r in recs], relation, 0))
    rows.append(([1] * len(recs), ">=", 1))
    return system(len(recs), rows)


def _search_circuit(recs: list[_Rec], dimension: int, mode: str) -> list | None:
    """Witness walk (original edge ids) of a qualifying circuit, or None.

    The records are split into strongly connected components first, and
    each component's forced chains are then contracted (_simplify); the
    components are searched one at a time, depth first on an explicit
    stack. In nonnegative mode each component is first pruned (_prune),
    then gets the sign test of _sign_test, which is exact: every circuit
    is a union of simple cycles of its component, so a dimension without a
    nonnegative simple cycle refutes the component, and a closed walk
    nonnegative in every dimension is itself a witness. Only a component
    that neither settles reaches the LP. Any qualifying circuit C confined
    to a component induces a feasible multiplicity vector, so LP
    infeasibility is conclusive. If feasible, the support of a maximal
    feasible point contains the support of every feasible point, C's
    included; either that support spans the component (then it is
    strongly connected, so a solution with every x_e >= 1 is realizable
    as a circuit; a vertex of those is walked, as the midpoint's
    denominators can ask for a walk of 10^12 edges), or searching the
    strictly smaller support subgraph in its place keeps C intact.
    Termination: the edge set shrinks each time.
    """

    # Components go on the stack last first, so it pops them in _rec_sccs
    # order and a support's components come before the next sibling.
    stack = _simplify(recs)[::-1]
    while stack:
        comp = stack.pop()
        if mode == "nonnegative":
            comp = _prune(comp)
            cycle = _sign_test(comp, dimension) if comp else []
            if cycle is not None:
                if not cycle:
                    continue
                return [eid for r in cycle for eid in r[3]]
        sys_ = _circulation_system(comp, dimension, mode)
        point = lp_feasible(sys_)
        if point is None:
            continue
        # A circulation's support is a union of cycles: connected iff it is
        # one strongly connected component.
        if len(_rec_sccs([r for r, x in zip(comp, point) if x])) > 1:
            point = max_support_solution(sys_, point)
            if 0 in point:
                stack += _simplify([r for r, x in zip(comp, point) if x > 0])[::-1]
                continue
            # x_e >= 1 on every edge; _presolve absorbs these rows as bounds.
            units = [([int(i == j) for j in sys_.variables], ">=", 1) for i in sys_.variables]
            point = lp_feasible(system(len(comp), [*sys_.constraints, *units]))
            if point is None:
                raise AssertionError("no circulation uses every edge of a spanning support")
        walk = _euler_walk(comp, integer_scale(point))
        return [eid for i in walk for eid in comp[i][3]]
    return None


def _prune(comp: list[_Rec]) -> list[_Rec]:
    """A one-vertex comp less its loops negative where no loop is positive,
    until none is: every circuit through one is negative there. Larger
    components come back whole (their kept records would need _simplify)."""
    while len({r[0] for r in comp}) == 1:
        dims = [d for d, top in enumerate(map(max, zip(*[r[2] for r in comp]))) if top <= 0]
        kept = [r for r in comp if all([r[2][d] == 0 for d in dims])]
        if len(kept) == len(comp):
            break
        comp = kept
    return comp


def _sign_test(comp: list[_Rec], dimension: int) -> list[_Rec] | None:
    """Settle a strongly connected component without the LP where simple
    cycles suffice: a simple cycle, or two loops at a vertex, nonnegative in
    every dimension, in walk order; [] if some dimension has no nonnegative
    simple cycle, so no circuit of comp, a union of simple cycles, is
    nonnegative there; None if neither is found.

    Self-loops come first: one nonnegative in every dimension is a
    witness, and so are two at one vertex whose sum is (at two vertices
    they need a path between them). A dimension where some loop is
    nonnegative cannot be refuted, so only the other dimensions run
    Bellman-Ford. Every vertex of comp is reachable from node 0, so its
    search sees every cycle."""
    loops = [r for r in comp if r[0] == r[1]]
    for r in loops:
        if min(r[2]) >= 0:
            return [r]
    for a, b in combinations(loops, 2):
        if a[0] == b[0] and min([x + y for x, y in zip(a[2], b[2])]) >= 0:
            return [a, b]
    dims = [d for d in range(dimension) if all(r[2][d] < 0 for r in loops)]
    if not dims:
        return None
    index = {v: i for i, v in enumerate(dict.fromkeys([v for r in comp for v in r[:2]]))}
    ends = [(index[r[0]], index[r[1]]) for r in comp]
    for d in dims:
        cycle = _nonnegative_cycle(len(index), [(u, v, r[2][d]) for (u, v), r in zip(ends, comp)])
        if cycle is None:
            return []
        walk = [comp[x] for x in reversed(cycle)]
        if min([sum(c) for c in zip(*[r[2] for r in walk])]) >= 0:
            return walk
    return None


def zero_circuit(g: MultiGraph) -> Circuit | None:
    """A circuit whose weight is exactly zero in every dimension, if any."""
    recs = [(e.src, e.dst, e.weight, (e.id,)) for e in sorted(g.edges, key=lambda e: repr(e.id))]
    walk = _search_circuit(recs, g.dimension, "zero")
    return Circuit.from_walk(walk) if walk is not None else None


def nonnegative_circuit(g: MultiGraph, source: Vertex) -> Circuit | None:
    """A circuit reachable from source with weight >= 0 in every dimension."""
    seen = _reached(g, source)
    recs = [(e.src, e.dst, e.weight, (e.id,)) for e in sorted(g.edges, key=lambda e: repr(e.id)) if e.src in seen]
    walk = _search_circuit(recs, g.dimension, "nonnegative")
    return Circuit.from_walk(walk) if walk is not None else None


# -- cycles of a given sign (Bellman-Ford) ----------------------------------


def negative_cycle_in_dimension(g: MultiGraph, d: int, source: Vertex) -> tuple[EdgeId, ...] | None:
    """A simple cycle, reachable from source, with negative total weight in
    dimension d (1-based), or None if every reachable cycle is nonnegative
    there. The cycle starts at its vertex that a breadth-first search
    from source reaches first.

    A cycle is negative in dimension d iff it is positive on the negated
    weights, which is what _positive_cycle looks for.
    """
    if not 1 <= d <= g.dimension:
        raise DimensionError(f"dimension index {d} out of range 1..{g.dimension}")
    rank = {v: i for i, v in enumerate(_reached(g, source))}
    edges = [e for e in g.edges if e.src in rank]
    cycle = _positive_cycle(len(rank), [(rank[e.src], rank[e.dst], -e.weight[d - 1]) for e in edges])
    if cycle is None:
        return None
    walk = [edges[x] for x in reversed(cycle)]
    cut = min(range(len(walk)), key=lambda i: rank[walk[i].src])
    walk = walk[cut:] + walk[:cut]
    if sum(e.weight[d - 1] for e in walk) >= 0:
        raise AssertionError("Bellman-Ford returned a cycle that is not negative")
    return tuple([e.id for e in walk])


def _nonnegative_cycle(n: int, edges: list[tuple[int, int, int]]) -> list[int] | None:
    """A simple cycle of nonnegative total weight reachable from node 0,
    as _positive_cycle returns one, or None if there is none. A simple
    cycle has at most n edges, so it is nonnegative iff it is positive
    under the weights w·(n+1)+1."""
    scale = n + 1
    return _positive_cycle(n, [(u, v, w * scale + 1) for u, v, w in edges])


def _positive_cycle(
    n: int, edges: list[tuple[int, int, int]], distances: list | None = None
) -> list[int] | None:
    """A cycle of positive total weight reachable from node 0, as indices
    into edges in reverse walk order, or None if there is none; edges are
    (src, dst, weight) over the nodes 0..n-1. Bellman-Ford for longest
    paths: without such a cycle n-1 rounds settle every distance, so a
    change in round n means one exists. The node changed last then holds
    more than any simple path gives it, so its parent edges never lead
    back to the source unchanged: n of them end on a cycle of parent
    edges, a positive one. When there is none and a `distances` list is
    given, it is left holding the weight of a longest path to each node
    (None where unreachable)."""
    dist: list[int | None] = [0] + [None] * (n - 1)
    parent = [0] * n
    for _ in range(n):
        last = None
        for x, (u, v, w) in enumerate(edges):
            du = dist[u]
            if du is not None and (dist[v] is None or du + w > dist[v]):
                dist[v] = du + w
                parent[v] = x
                last = v
        if last is None:
            if distances is not None:
                distances[:] = dist
            return None
    for _ in range(n):
        last = edges[parent[last]][0]
    cycle, v = [], last
    while True:
        cycle.append(parent[v])
        v = edges[parent[v]][0]
        if v == last:
            return cycle
