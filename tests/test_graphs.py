import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwg import (
    Circuit,
    DimensionError,
    GraphEdge,
    MemorylessStrategy,
    MultiGraph,
    WalkError,
    as_multigraph,
    circuit_weight,
    encode_3sat_two_player,
    negative_cycle_in_dimension,
    nonnegative_circuit,
    product_with_strategy,
    reachable,
    solve_unknown_credit,
    validate_circuit,
    verify_p2_spoiler,
    zero_circuit,
)
from mwg import graphs
from oracles import (
    _connected,
    bounded_circulation_oracle,
    enumerate_p2_memoryless,
    eulerian_circuit_from_circulation,
    has_negative_simple_cycle,
    rand_cnf,
    rand_decoy,
    rand_game,
    rand_multigraph,
    reachable_part,
    simple_cycles,
    truth_table_satisfiable,
    with_unit_drain_loops,
)


def loops(*weights):
    """Single vertex with one self-loop per given weight vector."""
    k = len(weights[0])
    edges = tuple(GraphEdge(f"e{i+1}", "s", "s", w) for i, w in enumerate(weights))
    return MultiGraph(k, ("s",), edges, "s")


def path_graph(*weights):
    """Simple directed cycle v0 -> v1 -> ... -> v0 with scalar weights."""
    n = len(weights)
    vs = tuple(f"v{i}" for i in range(n))
    es = tuple(
        GraphEdge(f"e{i}", vs[i], vs[(i + 1) % n], (w,)) for i, w in enumerate(weights)
    )
    return MultiGraph(1, vs, es, "v0")


def sccs(g):
    """The circuit search's components of g (_rec_sccs over g's edges as
    records, in id order), each as its sorted vertices, in _rec_sccs
    order. A component that holds no record is not listed."""
    recs = [(e.src, e.dst, e.weight, (e.id,)) for e in sorted(g.edges, key=lambda e: repr(e.id))]
    return [sorted({recs[i][0] for i in comp}) for comp in graphs._rec_sccs(recs)]


def mutual_reachability_groups(recs):
    """_rec_sccs by brute force: the transitive closure of the records,
    each record grouped under the least vertex (by repr) of the vertices
    its ends both reach and are reached from, if its ends reach each
    other."""
    vs = {v for r in recs for v in r[:2]}
    reach = {v: {v} for v in vs}
    changed = True
    while changed:
        changed = False
        for src, dst, _, _ in recs:
            for v in vs:
                if src in reach[v] and not reach[dst] <= reach[v]:
                    reach[v] |= reach[dst]
                    changed = True
    label = {v: min([u for u in reach[v] if v in reach[u]], key=repr) for v in vs}
    grouped = {}
    for i, (src, dst, _, _) in enumerate(recs):
        if dst in reach[src] and src in reach[dst]:
            grouped.setdefault(label[src], []).append(i)
    return [grouped[v] for v in sorted(grouped, key=repr)]


class TestSccs:
    def test_fig2_single_component(self, fig2):
        assert sccs(as_multigraph(fig2)) == [["qa", "qb"]]

    def test_fig1_left_choice(self, fig1):
        p = product_with_strategy(fig1, MemorylessStrategy(2, {"q0": "to_q1"}))
        comps = sccs(p)
        # q0 is a component of its own too, but no record lies inside it.
        assert [sorted(s for _, s in comp) for comp in comps] == [["q1"]]

    def test_dag_has_no_component(self):
        g = MultiGraph(
            1,
            ("a", "b", "c"),
            (GraphEdge("e1", "a", "b", (0,)), GraphEdge("e2", "b", "c", (0,))),
        )
        assert sccs(g) == []

    def test_order_by_smallest_member(self):
        g = MultiGraph(
            1,
            ("z", "a", "m"),
            (
                GraphEdge("e1", "z", "a", (0,)),
                GraphEdge("e2", "a", "z", (0,)),
                GraphEdge("e3", "m", "m", (0,)),
            ),
        )
        assert sccs(g) == [["a", "z"], ["m"]]

    def test_matches_mutual_reachability(self):
        rng = random.Random(29)
        for _ in range(1500):
            n = rng.randint(1, 8)
            names = [[f"v{x}" for x in range(n)], [(x % 3, f"q{x}") for x in range(n)], list(range(n))][rng.randrange(3)]
            recs = [(rng.choice(names), rng.choice(names), (0,), (i,)) for i in range(rng.randint(0, 14))]
            assert graphs._rec_sccs(recs) == mutual_reachability_groups(recs)

    def test_long_chain_is_linear(self):
        # A chain of 3,000 vertices into a self-loop, the sink least under
        # repr: a search that redoes the chain for each vertex is quadratic.
        n = 3000
        vs = tuple(f"v{i:04d}" for i in range(n))
        edges = [GraphEdge(f"e{i:04d}", vs[i + 1], vs[i], (-1,)) for i in range(n - 1)]
        g = MultiGraph(1, vs, (*edges, GraphEdge("loop", vs[0], vs[0], (0,))), vs[-1])
        start = time.perf_counter()
        assert nonnegative_circuit(g, vs[-1]).edges == ("loop",)
        assert time.perf_counter() - start < 0.5


def _distances(g, source):
    """Edge count of a shortest path from source to each reachable vertex:
    a plain breadth-first search, one level at a time."""
    dist = {source: 0}
    level = [source]
    while level:
        nxt = [e.dst for e in g.edges if e.src in level and e.dst not in dist]
        for v in nxt:
            dist[v] = dist[level[0]] + 1
        level = list(dict.fromkeys(nxt))
    return dist


class TestReachable:
    def _succ(self, g):
        return lambda v: [(e, e.dst) for e in g.edges if e.src == v]

    def test_keys_are_the_transitive_closure(self):
        rng = random.Random(3)
        for _ in range(200):
            g = rand_multigraph(rng, max_vertices=7, max_edges=14)
            closure = {v: {v} for v in g.vertices}
            changed = True
            while changed:
                changed = False
                for e in g.edges:
                    for v in g.vertices:
                        if e.src in closure[v] and e.dst not in closure[v]:
                            closure[v].add(e.dst)
                            changed = True
            for v in g.vertices:
                assert set(reachable(v, self._succ(g))) == closure[v]

    def test_parent_chains_spell_shortest_paths(self):
        rng = random.Random(19)
        for _ in range(200):
            g = rand_multigraph(rng, max_vertices=7, max_edges=14)
            parent = reachable("v0", self._succ(g))
            dist = _distances(g, "v0")
            assert parent["v0"] is None
            for v in parent:
                path = []
                at = v
                while parent[at] is not None:
                    e = parent[at]
                    assert e.dst == at and e in g.edges
                    path.append(e)
                    at = e.src
                assert at == "v0" and len(path) == dist[v]
            # Visit order is breadth first: distances never decrease.
            order = [dist[v] for v in parent]
            assert order == sorted(order)

    def test_searches_reject_an_unknown_source(self, fig2):
        with pytest.raises(WalkError):
            nonnegative_circuit(as_multigraph(fig2), "nope")
        with pytest.raises(WalkError):
            negative_cycle_in_dimension(as_multigraph(fig2), 1, "nope")


class TestZeroCircuit:
    def test_zero_loop(self):
        g = loops((0, 0))
        c = zero_circuit(g)
        validate_circuit(g, c)
        assert c.edges == ("e1",)

    def test_unbalanced_loop_absent(self):
        assert zero_circuit(loops((1, -1))) is None

    def test_opposite_loops_cancel(self):
        g = loops((1, -1), (-1, 1))
        c = zero_circuit(g)
        validate_circuit(g, c)
        assert c.multiplicity == {"e1": 1, "e2": 1}
        assert circuit_weight(g, c) == (0, 0)

    def test_spans_components(self):
        # A zero circuit may live in a non-initial SCC.
        g = MultiGraph(
            1,
            ("a", "b"),
            (GraphEdge("hop", "a", "b", (5,)), GraphEdge("stay", "b", "b", (0,))),
            "a",
        )
        c = zero_circuit(g)
        validate_circuit(g, c)
        assert circuit_weight(g, c) == (0,)


class TestNonnegativeCircuit:
    def test_fig2_has_witness(self, fig2):
        g = as_multigraph(fig2)
        c = nonnegative_circuit(g, "qa")
        validate_circuit(g, c)
        w = circuit_weight(g, c)
        assert all(x >= 0 for x in w)

    def test_negative_loop_absent(self):
        assert nonnegative_circuit(loops((-1,)), "s") is None

    def test_fig1_right_choice_mixes_returns(self, fig1):
        p = product_with_strategy(fig1, MemorylessStrategy(2, {"q0": "to_q2"}))
        c = nonnegative_circuit(p, p.source)
        validate_circuit(p, c)
        assert circuit_weight(p, c) == (0, 0)
        used = {eid for (_, eid) in c.multiplicity}
        assert {"ret_a", "ret_b"} <= used

    def test_unreachable_witness_ignored(self):
        g = MultiGraph(
            1,
            ("a", "b"),
            (
                GraphEdge("stay", "a", "a", (-1,)),
                GraphEdge("good", "b", "b", (1,)),
            ),
            "a",
        )
        assert nonnegative_circuit(g, "a") is None
        c = nonnegative_circuit(g, "b")
        assert c is not None and c.edges == ("good",)

    def test_missing_source_rejected(self, fig2):
        with pytest.raises(WalkError):
            nonnegative_circuit(as_multigraph(fig2), "nope")


class TestEulerian:
    def test_single_loop(self):
        g = loops((0,))
        c = eulerian_circuit_from_circulation(g, {"e1": 1})
        assert c.edges == ("e1",)

    def test_two_parallel_loops(self):
        g = loops((1,), (2,))
        c = eulerian_circuit_from_circulation(g, {"e1": 1, "e2": 1})
        assert len(c.edges) == 2
        assert c.multiplicity == {"e1": 1, "e2": 1}

    def test_random_circulations_round_trip(self):
        rng = random.Random(21)
        # 4-vertex strongly connected shell plus chords; build circulations
        # by overlaying random simple cycles.
        vs = ("a", "b", "c", "d")
        ring = [GraphEdge(f"r{i}", vs[i], vs[(i + 1) % 4], (0,)) for i in range(4)]
        chords = [
            GraphEdge("c0", "a", "c", (0,)),
            GraphEdge("c1", "c", "a", (0,)),
            GraphEdge("c2", "b", "d", (0,)),
            GraphEdge("c3", "d", "b", (0,)),
        ]
        g = MultiGraph(1, vs, tuple(ring + chords), "a")
        cycles = list(simple_cycles(g))
        for _ in range(30):
            circulation: dict[str, int] = {}
            for cyc in rng.sample(cycles, rng.randint(1, 4)):
                for eid in cyc:
                    circulation[eid] = circulation.get(eid, 0) + 1
            support = [e for e in g.edges if circulation.get(e.id, 0) > 0]
            if not _connected(support):
                continue
            c = eulerian_circuit_from_circulation(g, circulation)
            assert c.multiplicity == circulation
            validate_circuit(g, c)

    def test_unbalanced_rejected(self):
        g = MultiGraph(
            1, ("a", "b"), (GraphEdge("e1", "a", "b", (0,)),), "a"
        )
        with pytest.raises(WalkError):
            eulerian_circuit_from_circulation(g, {"e1": 1})

    def test_disconnected_support_rejected(self):
        g = MultiGraph(
            1,
            ("a", "b"),
            (GraphEdge("e1", "a", "a", (0,)), GraphEdge("e2", "b", "b", (0,))),
            "a",
        )
        with pytest.raises(WalkError):
            eulerian_circuit_from_circulation(g, {"e1": 1, "e2": 1})

    def test_empty_circulation_rejected(self):
        with pytest.raises(WalkError):
            eulerian_circuit_from_circulation(loops((0,)), {})

    def test_solver_walk_splices_in_index_order(self):
        # From a, the walk's least source, b spends b->a (record 1) first
        # and is stuck at a; so b's cycles through c (twice) and d are
        # spliced in before it, in record order.
        recs = [(u, v, (0,), (i,)) for i, (u, v) in enumerate(["ab", "ba", "bc", "cb", "bd", "db"])]
        assert graphs._euler_walk(recs, [1, 1, 2, 2, 1, 1]) == [0, 2, 3, 2, 3, 4, 5, 1]

    def test_solver_walk_rejects_disconnected_support(self):
        recs = [("a", "a", (0,), ("e1",)), ("b", "b", (0,), ("e2",))]
        with pytest.raises(WalkError):
            graphs._euler_walk(recs, [1, 1])


class TestNegativeCycle:
    def test_negative_self_loop(self):
        g = loops((-1,))
        assert negative_cycle_in_dimension(g, 1, "s") == ("e1",)

    def test_all_nonnegative_absent(self, fig2):
        g = as_multigraph(fig2)
        assert negative_cycle_in_dimension(g, 1, "qa") is None
        assert negative_cycle_in_dimension(g, 2, "qa") is None

    def test_fig1_constant_ret_a(self, fig1):
        p = product_with_strategy(
            fig1, MemorylessStrategy(1, {"q1": "loop", "q2": "ret_a"})
        )
        cyc = negative_cycle_in_dimension(p, 1, p.source)
        assert cyc is not None
        assert [eid for (_, eid) in cyc] == ["to_q2", "ret_a"]
        assert negative_cycle_in_dimension(p, 2, p.source) is None

    def test_bad_dimension_rejected(self, fig2):
        with pytest.raises(DimensionError):
            negative_cycle_in_dimension(as_multigraph(fig2), 3, "qa")
        with pytest.raises(DimensionError):
            negative_cycle_in_dimension(as_multigraph(fig2), 0, "qa")

    def test_agrees_with_enumeration(self):
        rng = random.Random(17)
        for _ in range(120):
            g = rand_multigraph(rng, max_vertices=6, max_edges=8)
            sub = reachable_part(g, "v0")
            for d in range(1, g.dimension + 1):
                got = negative_cycle_in_dimension(g, d, "v0")
                want = has_negative_simple_cycle(sub, d)
                assert (got is not None) == want
                if got is not None:
                    by_id = {e.id: e for e in g.edges}
                    assert sum(by_id[eid].weight[d - 1] for eid in got) < 0
                    # simple: no vertex repeats along the cycle
                    srcs = [by_id[eid].src for eid in got]
                    assert len(srcs) == len(set(srcs))

    def test_positive_cycle_on_negated_weights_agrees(self):
        # Bellman-Ford for longest paths, on the negated weights, finds a
        # cycle iff a negative simple cycle is reachable from node 0, and
        # it returns a closed walk of positive weight with no repeated
        # vertex.
        rng = random.Random(19)
        for _ in range(300):
            g = rand_multigraph(rng, max_vertices=6, max_edges=9)
            index = {v: i for i, v in enumerate(sorted(g.vertices, key=lambda v: v != "v0"))}
            sub = reachable_part(g, "v0")
            for d in range(1, g.dimension + 1):
                edges = [(index[e.src], index[e.dst], -e.weight[d - 1]) for e in g.edges]
                got = graphs._positive_cycle(len(index), edges)
                assert (got is not None) == has_negative_simple_cycle(sub, d)
                if got is not None:
                    walk = [edges[x] for x in reversed(got)]
                    assert all(a[1] == b[0] for a, b in zip(walk, walk[1:] + walk[:1]))
                    assert len({u for u, _, _ in walk}) == len(walk)
                    assert sum(w for _, _, w in walk) > 0


class TestBoundedOracle:
    def test_opposite_loops(self):
        c = bounded_circulation_oracle(loops((1, -1), (-1, 1)), 2, "zero")
        assert c.multiplicity == {"e1": 1, "e2": 1}

    def test_negative_loop_nonnegative_mode(self):
        assert bounded_circulation_oracle(loops((-1,)), 5, "nonnegative") is None

    def test_zero_loop(self):
        c = bounded_circulation_oracle(loops((0, 0)), 1, "zero")
        assert c.multiplicity == {"e1": 1}

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            bounded_circulation_oracle(loops((0,)), 1, "positive")

    def test_too_many_edges_rejected(self):
        g = loops(*[(0,)] * 13)
        with pytest.raises(ValueError):
            bounded_circulation_oracle(g, 1, "zero")


def assert_one_sided_agreement(g: MultiGraph) -> None:
    """Every circuit the bounded oracle finds, the LP search finds too, and
    every circuit the LP search returns is valid, qualifying and (in
    nonnegative mode) reachable from v0."""
    want_zero = bounded_circulation_oracle(g, 12, "zero")
    got_zero = zero_circuit(g)
    if want_zero is not None:
        assert got_zero is not None
    if got_zero is not None:
        validate_circuit(g, got_zero)
        assert circuit_weight(g, got_zero) == (0,) * g.dimension
    sub = reachable_part(g, "v0")
    want_nn = bounded_circulation_oracle(sub, 12, "nonnegative")
    got_nn = nonnegative_circuit(g, "v0")
    if want_nn is not None:
        assert got_nn is not None
    if got_nn is not None:
        validate_circuit(g, got_nn)
        assert all(x >= 0 for x in circuit_weight(g, got_nn))
        assert {e.id for e in sub.edges} >= set(got_nn.multiplicity)


class TestCircuitSearchAgainstOracle:
    def test_one_sided_agreement(self):
        rng = random.Random(7)
        for _ in range(120):
            assert_one_sided_agreement(rand_multigraph(rng))

    @pytest.mark.slow
    def test_one_sided_agreement_large(self, monkeypatch):
        # Random graphs rarely leave a disconnected support; the decoys
        # always do, so they drive the second LP, max_support_solution.
        real = graphs.max_support_solution
        calls = []

        def counted(sys_, out):
            calls.append(len(sys_.variables))
            return real(sys_, out)

        monkeypatch.setattr(graphs, "max_support_solution", counted)
        rng = random.Random(1009)
        for _ in range(1000):
            assert_one_sided_agreement(rand_multigraph(rng))
        for _ in range(200):
            assert_one_sided_agreement(rand_decoy(rng))
        assert len(calls) >= 50

    def test_gadget_route_matches_direct(self):
        rng = random.Random(29)
        for _ in range(60):
            g = rand_multigraph(rng)
            sub = reachable_part(g, "v0")
            gadget = with_unit_drain_loops(sub)
            z = zero_circuit(gadget)
            direct = nonnegative_circuit(g, "v0")
            assert (z is None) == (direct is None)
            if z is not None:
                real = [eid for eid in z.edges if eid in {e.id for e in sub.edges}]
                assert real
                stripped = Circuit.from_walk(real)
                validate_circuit(sub, stripped)
                assert all(x >= 0 for x in circuit_weight(sub, stripped))


def components(g: MultiGraph) -> list[list]:
    """The strongly connected components the circuit search starts from,
    as lists of its internal edge records."""
    return graphs._simplify([(e.src, e.dst, e.weight, (e.id,)) for e in sorted(g.edges, key=lambda e: repr(e.id))])


def sign_test_corpus(seed: int, graphs_each: int) -> list[MultiGraph]:
    """Random multigraphs, decoys, and the fixed graphs of random games."""
    rng = random.Random(seed)
    out = [rand_multigraph(rng, max_vertices=5, max_edges=9) for _ in range(graphs_each)]
    out += [rand_decoy(rng) for _ in range(graphs_each)]
    for _ in range(graphs_each // 10):
        g = rand_game(rng, max_states=5, max_edges=9)
        out += [reachable_part(as_multigraph(g, s), g.init) for s in enumerate_p2_memoryless(g)]
    return out


def assert_sign_test_agrees_with_lp(corpus: list[MultiGraph]) -> None:
    """A refuted component has an infeasible circulation LP; a witness is a
    closed walk of the graph, nonnegative in every dimension. Every
    outcome occurs."""
    seen = {"refuted": 0, "witness": 0, "undecided": 0}
    for g in corpus:
        for comp in components(g):
            cycle = graphs._sign_test(comp, g.dimension)
            point = graphs.lp_feasible(graphs._circulation_system(comp, g.dimension, "nonnegative"))
            if cycle is None:
                seen["undecided"] += 1
            elif not cycle:
                seen["refuted"] += 1
                assert point is None
            else:
                seen["witness"] += 1
                c = Circuit.from_walk([eid for r in cycle for eid in r[3]])
                validate_circuit(g, c)
                assert min(circuit_weight(g, c)) >= 0
                assert point is not None
    assert min(seen.values()) > 0, seen


def assert_contraction_exact(g: MultiGraph) -> None:
    """Each component is strongly connected and has no forced vertex left
    (one record out, not a self-loop); each record's ids walk g from its
    src to its dst and weigh what it does; together the records use
    exactly the edges of g whose ends share a strongly connected
    component."""
    by_id = {e.id: e for e in g.edges}
    succ = {v: [(None, e.dst) for e in g.edges if e.src == v] for v in g.vertices}
    reach = {v: set(reachable(v, succ.__getitem__)) for v in g.vertices}
    used = set()
    for comp in components(g):
        outs: dict = {}
        for src, dst, weight, ids in comp:
            outs.setdefault(src, []).append(dst)
            at, total = src, [0] * g.dimension
            for eid in ids:
                assert by_id[eid].src == at
                at = by_id[eid].dst
                total = [a + b for a, b in zip(total, by_id[eid].weight)]
            assert ids and at == dst and tuple(total) == weight
            used.update(ids)
        assert all(not (len(dsts) == 1 and dsts[0] != v) for v, dsts in outs.items())
        vertices = set(outs) | {r[1] for r in comp}
        for v in vertices:
            assert set(reachable(v, lambda u: [(None, w) for w in outs.get(u, ())])) == vertices
    assert used == {e.id for e in g.edges if e.src in reach[e.dst]}


class TestSimplify:
    def test_contraction_is_exact(self):
        for g in sign_test_corpus(41, 150):
            assert_contraction_exact(g)

    def test_forced_cycle_is_one_loop_at_its_least_vertex(self):
        edges = (GraphEdge("e1", "b", "c", (1,)), GraphEdge("e2", "c", "a", (-2,)), GraphEdge("e3", "a", "b", (3,)))
        g = MultiGraph(1, ("a", "b", "c"), edges, "b")
        assert components(g) == [[("a", "a", (2,), ("e3", "e1", "e2"))]]


class TestSignTest:
    def test_agrees_with_the_lp(self):
        assert_sign_test_agrees_with_lp(sign_test_corpus(31, 150))

    @pytest.mark.slow
    def test_agrees_with_the_lp_large(self):
        assert_sign_test_agrees_with_lp(sign_test_corpus(37, 8000))

    def test_nonnegative_loop_is_the_witness(self, fig2, monkeypatch):
        calls = count_calls(monkeypatch, "lp_feasible")
        assert nonnegative_circuit(as_multigraph(fig2), "qa").edges == ("loopa",)
        assert calls == []

    def test_zero_weight_cycle_is_a_witness(self):
        # The loops are negative in both dimensions and every vertex has two
        # out-edges, so Bellman-Ford runs on the uncontracted pair. The one
        # other cycle, ab then ba, weighs 0 in both dimensions; the +1 of
        # the scaled weights is what makes it positive.
        g = MultiGraph(
            2,
            ("a", "b"),
            (
                GraphEdge("ab", "a", "b", (2, -1)),
                GraphEdge("ba", "b", "a", (-2, 1)),
                GraphEdge("aa", "a", "a", (-1, -1)),
                GraphEdge("bb", "b", "b", (-1, -1)),
            ),
            "a",
        )
        (comp,) = components(g)
        assert sorted(eid for r in graphs._sign_test(comp, 2) for eid in r[3]) == ["ab", "ba"]
        assert nonnegative_circuit(g, "a").multiplicity == {"ab": 1, "ba": 1}

    def test_cycles_nonnegative_in_one_dimension_each_go_to_the_lp(self, monkeypatch):
        # The cycle through hi is nonnegative only in dimension 1, the one
        # through lo only in dimension 2: neither is a witness, and only
        # the LP finds their sum.
        g = MultiGraph(
            2,
            ("a", "b"),
            (
                GraphEdge("hi", "a", "b", (1, -1)),
                GraphEdge("lo", "a", "b", (-1, 1)),
                GraphEdge("back", "b", "a", (0, 0)),
                GraphEdge("aa", "a", "a", (-1, -1)),
                GraphEdge("bb", "b", "b", (-1, -1)),
            ),
            "a",
        )
        (comp,) = components(g)
        assert graphs._sign_test(comp, 2) is None
        calls = count_calls(monkeypatch, "lp_feasible")
        c = nonnegative_circuit(g, "a")
        validate_circuit(g, c)
        assert min(circuit_weight(g, c)) >= 0 and {"hi", "lo"} <= set(c.multiplicity)
        assert len(calls) == 1

    def test_refutes_without_an_lp(self, monkeypatch):
        # Every cycle, the loop included, is negative in dimension 1.
        g = MultiGraph(
            2,
            ("a", "b", "c"),
            (
                GraphEdge("ab", "a", "b", (3, 5)),
                GraphEdge("bc", "b", "c", (-2, 5)),
                GraphEdge("ca", "c", "a", (-2, 5)),
                GraphEdge("ba", "b", "a", (-4, 5)),
                GraphEdge("cc", "c", "c", (-1, 5)),
            ),
            "a",
        )
        calls = count_calls(monkeypatch, "lp_feasible")
        assert nonnegative_circuit(g, "a") is None
        assert calls == []

    def test_loop_components_run_no_bellman_ford(self, monkeypatch, unsat8):
        # The 3SAT encoding's fixed graphs end in one-vertex components of
        # loops e_l - e_-l, one per clause. Pruning drops every loop whose
        # clash partner is absent, and a surviving loop pairs with its
        # partner into a walk of weight 0: neither Bellman-Ford nor the LP
        # runs.
        calls = count_calls(monkeypatch, "_positive_cycle")
        lps = count_calls(monkeypatch, "lp_feasible")
        assert solve_unknown_credit(encode_3sat_two_player(unsat8)).answer
        assert calls == [] and lps == []

    def test_clashing_loops_are_a_pair_witness(self, monkeypatch):
        calls = count_calls(monkeypatch, "lp_feasible")
        assert nonnegative_circuit(loops((1, -1), (-1, 1)), "s").edges == ("e1", "e2")
        assert calls == []

    def test_no_nonnegative_pair_goes_to_the_lp(self, monkeypatch):
        # Every pair sums to a permutation of (1, 1, -2); only the three
        # loops together weigh 0, and the LP finds them.
        g = loops((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
        (comp,) = components(g)
        assert graphs._sign_test(comp, 3) is None
        calls = count_calls(monkeypatch, "lp_feasible")
        assert nonnegative_circuit(g, "s").multiplicity == {"e1": 1, "e2": 1, "e3": 1}
        assert len(calls) == 1

    def test_loops_at_different_vertices_are_not_a_pair(self):
        # aa + bb weighs 0, but a walk through both loops takes ab and ba,
        # which sum to -2 in both dimensions: there is no nonnegative
        # circuit.
        g = MultiGraph(
            2,
            ("a", "b"),
            (
                GraphEdge("aa", "a", "a", (1, -1)),
                GraphEdge("bb", "b", "b", (-1, 1)),
                GraphEdge("ab", "a", "b", (-1, -1)),
                GraphEdge("ba", "b", "a", (-1, -1)),
            ),
            "a",
        )
        (comp,) = components(g)
        assert graphs._sign_test(comp, 2) is None
        assert nonnegative_circuit(g, "a") is None


class TestPrune:
    def test_pruned_records_are_in_no_nonnegative_circuit(self):
        # Each record _prune drops has x_r = 0 in every feasible point of
        # its component's circulation LP: adding x_r >= 1 makes it
        # infeasible.
        comps = hits = 0
        for g in sign_test_corpus(41, 150):
            for comp in components(g):
                comps += 1
                kept = graphs._prune(comp)
                dropped = [r for r in comp if r not in kept]
                hits += bool(dropped)
                sys_ = graphs._circulation_system(comp, g.dimension, "nonnegative")
                for r in dropped:
                    unit = [int(x == r) for x in comp]
                    assert graphs.lp_feasible(graphs.system(len(comp), [*sys_.constraints, (unit, ">=", 1)])) is None
        assert hits > comps / 20, (hits, comps)

    def test_pruning_settles_a_component_without_the_lp(self, monkeypatch):
        # No loop is positive in dimension 2, so e1 goes; then none is
        # positive in dimension 1, so e2 goes too. Neither the sign test
        # alone (no pair is nonnegative, and each dimension has a loop
        # that is) nor Bellman-Ford nor the LP is needed.
        g = loops((1, -1), (-2, 0))
        (comp,) = components(g)
        assert graphs._sign_test(comp, 2) is None
        assert graphs._prune(comp) == []
        calls = count_calls(monkeypatch, "lp_feasible")
        bf = count_calls(monkeypatch, "_positive_cycle")
        assert nonnegative_circuit(g, "s") is None
        assert calls == [] and bf == []

    def test_larger_components_come_back_whole(self):
        # ab is negative in dimension 2, where no edge is positive, but the
        # rule is applied at one vertex only.
        g = MultiGraph(
            2,
            ("a", "b"),
            (
                GraphEdge("aa", "a", "a", (-1, 0)),
                GraphEdge("ab", "a", "b", (2, -1)),
                GraphEdge("ba", "b", "a", (2, 0)),
                GraphEdge("bb", "b", "b", (-1, 0)),
            ),
            "a",
        )
        (comp,) = components(g)
        assert graphs._prune(comp) == comp
        assert nonnegative_circuit(g, "a") is None

    def test_3sat_encodings_reach_no_lp(self, monkeypatch, unsat8, clause1):
        rng = random.Random(43)
        formulas = [unsat8, clause1] + [rand_cnf(rng, max_vars=5, max_clauses=9) for _ in range(40)]
        calls = count_calls(monkeypatch, "lp_feasible")
        for f in formulas:
            g = encode_3sat_two_player(f)
            v = solve_unknown_credit(g)
            assert v.answer == (truth_table_satisfiable(f) is None)
            if not v.answer:
                assert verify_p2_spoiler(g, v.spoiler)
        assert calls == []


def count_calls(monkeypatch, name: str) -> list:
    """Record the arguments of every call to graphs.<name>."""
    real = getattr(graphs, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graphs, name, counted)
    return calls


def test_with_unit_drain_loops_shape(fig2):
    g = as_multigraph(fig2)
    gadget = with_unit_drain_loops(g)
    assert len(gadget.edges) == len(g.edges) + g.dimension * len(g.vertices)
    drains = [e for e in gadget.edges if e.id not in {x.id for x in g.edges}]
    for e in drains:
        assert e.src == e.dst
        assert sum(e.weight) == -1 and min(e.weight) == -1


def test_circuit_from_walk_counts():
    c = Circuit.from_walk(["a", "b", "a"])
    assert c.multiplicity == {"a": 2, "b": 1}


def test_validate_circuit_rejects_bad_walks(fig2):
    g = as_multigraph(fig2)
    with pytest.raises(WalkError):
        validate_circuit(g, Circuit(("ab",), {"ab": 1}))  # open walk
    with pytest.raises(WalkError):
        validate_circuit(g, Circuit(("ab", "ba"), {"ab": 2}))  # multiplicity mismatch
    with pytest.raises(WalkError):
        validate_circuit(g, Circuit(("ab", "loopa"), {"ab": 1, "loopa": 1}))  # not adjacent
