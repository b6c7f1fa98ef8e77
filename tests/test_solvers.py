import collections
import itertools
import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from mwg import (
    CnfFormula,
    DimensionError,
    Edge,
    GameStructure,
    InvalidGameError,
    KnapsackInstance,
    Lasso,
    MemorylessStrategy,
    MooreStrategy,
    State,
    StrategyError,
    Verdict,
    as_moore,
    as_multigraph,
    circuit_weight,
    clamped_fixed_credit_oracle,
    decode_3sat_spoiler,
    decode_knapsack_strategy,
    encode_3sat_memoryless,
    encode_3sat_two_player,
    encode_knapsack,
    negative_cycle_in_dimension,
    product_with_strategy,
    scale_weights,
    search_finite_memory_strategy,
    solve_meanpayoff_threshold,
    solve_memoryless_p1_energy,
    solve_memoryless_p1_meanpayoff,
    solve_unknown_credit,
    sufficient_credit,
    threshold_shifted,
    validate_circuit,
    verify_p1_certificate,
    verify_p2_cover,
    verify_p2_spoiler,
)
from mwg import graphs, solvers
from mwg.solvers import _first_uncovered
from oracles import (
    bounded_circulation_oracle,
    clamped_fixpoint_reference,
    energy_level,
    enumerate_p2_memoryless,
    first_p1_winner,
    first_p2_spoiler,
    least_credit,
    rand_cnf,
    rand_dense_game,
    rand_game,
    rand_knapsack,
    reachable_part,
    truth_table_satisfiable,
    value_iteration_energy,
)
from test_model import alternating_fig1_strategy


def single_loop_game(weight):
    return GameStructure(
        len(weight),
        (State("s", 1),),
        "s",
        (Edge("stay", "s", "s", tuple(weight)),),
    )


def fixed_graph(g, lam2):
    """Multigraph of g with Player 2 pinned to lam2, original edge ids."""
    chosen = set(lam2.choice.values())
    p2 = {s.id for s in g.states if s.owner == 2}
    mg = as_multigraph(g)
    kept = tuple(e for e in mg.edges if e.src not in p2 or e.id in chosen)
    return replace(mg, edges=kept)


def revalidate_witnesses(g, verdict):
    """The cover of a Yes must pass its checker, and every (strategy,
    circuit) pair it expands to must re-check in the fixed graph."""
    assert verdict.answer
    assert verify_p2_cover(g, verdict.cover)
    for lam2, circuit in verdict.witnesses:
        sub = reachable_part(fixed_graph(g, lam2), g.init)
        validate_circuit(sub, circuit)
        w = circuit_weight(sub, circuit)
        assert all(x >= 0 for x in w)


class TestOnePlayer:
    # Games without Player-2 states: the single-strategy case of the
    # general search, with one empty cube on Yes and an empty spoiler on No.
    def test_fig2_yes(self, fig2):
        v = solve_unknown_credit(fig2)
        assert v.answer
        assert len(v.witnesses) == 1
        assert [cube for cube, _ in v.cover] == [{}]
        assert all(c >= 0 for c in v.credit)

    def test_negative_loop_no(self):
        v = solve_unknown_credit(single_loop_game((-1,)))
        assert not v.answer
        assert v.spoiler.choice == {}

    def test_single_item_knapsack_mixes_rounds(self):
        g = encode_knapsack(KnapsackInstance(((3, 3),), 1, 1))
        one_player = GameStructure(
            g.dimension,
            tuple(State(s.id, 1) for s in g.states),
            g.init,
            g.edges,
        )
        assert solve_unknown_credit(one_player).answer

    def test_lasso_wins_from_its_length_times_w(self):
        # The cover's single lasso, played from credit
        # (|stem| + |cycle|) * W, never lets the energy go negative: the
        # stem and the first round lose at most that much, and the cycle
        # is nonnegative.
        rng = random.Random(13)
        yes = 0
        for _ in range(300):
            g = rand_game(rng, max_states=5, max_edges=8, owners=(1,))
            v = solve_unknown_credit(g)
            if not v.answer:
                continue
            yes += 1
            ((cube, lasso),) = v.cover
            assert cube == {}
            credit = (len(lasso.stem) + len(lasso.cycle)) * g.max_abs_weight
            walk = lasso.stem + lasso.cycle + lasso.cycle
            for i in range(len(walk) + 1):
                assert all(credit + c >= 0 for c in energy_level(g, walk[:i]))
        assert yes > 100


class TestEnumerateP2:
    def test_fig1_two_strategies(self, fig1):
        strategies = list(enumerate_p2_memoryless(fig1))
        assert len(strategies) == 2
        assert [s.choice for s in strategies] == [{"q0": "to_q1"}, {"q0": "to_q2"}]

    def test_no_p2_states(self, fig2):
        strategies = list(enumerate_p2_memoryless(fig2))
        assert len(strategies) == 1
        assert strategies[0].choice == {}

    def test_single_clause_three_strategies(self, clause1):
        g = encode_3sat_two_player(clause1)
        count = 1
        for sid in g.states_of(2):
            count *= len(g.out_edges(sid))
        strategies = list(enumerate_p2_memoryless(g))
        assert len(strategies) == count == 3

    def test_deterministic_order(self, fig1):
        a = [s.choice for s in enumerate_p2_memoryless(fig1)]
        b = [s.choice for s in enumerate_p2_memoryless(fig1)]
        assert a == b


class TestUnknownCredit:
    def test_fig1_yes_with_witnesses(self, fig1):
        v = solve_unknown_credit(fig1)
        assert v.answer
        assert len(v.witnesses) == 2
        revalidate_witnesses(fig1, v)
        assert all(c >= 0 for c in v.credit)

    def test_unsat_cnf_yes(self, unsat8):
        v = solve_unknown_credit(encode_3sat_two_player(unsat8))
        assert v.answer

    def test_single_clause_no_with_spoiler(self, clause1):
        g = encode_3sat_two_player(clause1)
        v = solve_unknown_credit(g)
        assert not v.answer
        assert verify_p2_spoiler(g, v.spoiler)
        decoded = decode_3sat_spoiler(clause1, v.spoiler)
        assert not decoded.conflicting
        assert clause1.satisfied_by(decoded.values)

    def test_invalid_game_rejected(self):
        broken = GameStructure(1, (State("a", 1),), "a", ())
        with pytest.raises(InvalidGameError):
            solve_unknown_credit(broken)


class TestValidateOnce:
    """Each library call validates the game it is given once; the
    threshold wrappers solve the scaled and shifted game, which keeps
    every invariant, without validating it again."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        validate = solvers.validate_game
        monkeypatch.setattr(solvers, "validate_game", lambda g: calls.append(g) or validate(g))
        return calls

    @pytest.mark.parametrize("solve", [
        lambda fig1, fig2: solve_unknown_credit(fig1),
        lambda fig1, fig2: solve_meanpayoff_threshold(fig2, (Fraction(1, 2), 0)),
        lambda fig1, fig2: solve_memoryless_p1_energy(fig1),
        lambda fig1, fig2: solve_memoryless_p1_meanpayoff(fig2, (2, Fraction(-1, 3))),
        lambda fig1, fig2: clamped_fixed_credit_oracle(fig1, (1, 1), 3),
    ], ids=["energy", "mp", "memoryless-energy", "memoryless-mp", "oracle"])
    def test_one_validation_per_call(self, solve, fig1, fig2, validations):
        solve(fig1, fig2)
        assert len(validations) == 1

    @pytest.mark.parametrize("solve", [solve_meanpayoff_threshold, solve_memoryless_p1_meanpayoff])
    def test_wrappers_still_reject_an_invalid_game(self, solve):
        broken = GameStructure(1, (State("a", 1),), "a", ())
        with pytest.raises(InvalidGameError):
            solve(broken, (0,))


class TestCover:
    @pytest.fixture(scope="class")
    def unsat_game(self, unsat8):
        g = encode_3sat_two_player(unsat8)
        return g, solve_unknown_credit(g)

    def test_unsat_cover_is_small(self, unsat_game):
        # 3^8 strategies; each cube is a pair of clauses picking clashing
        # literals, so a few dozen cubes cover them all.
        g, v = unsat_game
        assert len(v.cover) <= 100
        assert len(v.witnesses) == 3**8
        revalidate_witnesses(g, v)

    def test_dropping_the_last_cube_rejected(self, unsat_game):
        # The last cube was learnt at a strategy no earlier cube contains.
        g, v = unsat_game
        assert not verify_p2_cover(g, v.cover[:-1])
        partial = Verdict(True, cover=v.cover[:-1], choices=v.choices)
        with pytest.raises(StrategyError):
            list(partial.witnesses)

    def test_swapped_cube_edge_rejected(self, unsat_game):
        g, v = unsat_game
        (cube, lasso), rest = v.cover[0], v.cover[1:]
        state, eid = sorted(cube.items())[0]
        other = next(e.id for e in g.out_edges(state) if e.id != eid)
        p1_edge = g.out_edges(g.init)[0].id
        unvisited = next(s for s in g.states_of(2) if s not in cube)
        for swapped in (
            {state: other},  # the lasso leaves `state` by `eid`
            {state: p1_edge},  # not an edge of `state`
            # Choices the lasso does not use must still be legal.
            {g.init: p1_edge},
            {unvisited: p1_edge},
        ):
            assert not verify_p2_cover(g, (({**cube, **swapped}, lasso),) + rest), swapped

    def test_unclosed_circuit_rejected(self, unsat_game):
        g, v = unsat_game
        cube, lasso = v.cover[0]
        # The stem swallows the circuit's first edge (of weight zero): the
        # walk stays connected and nonnegative, but no longer closes.
        assert g.edge_by_id[lasso.cycle[0]].weight == (0,) * g.dimension
        cut = Lasso(lasso.stem + lasso.cycle[:1], lasso.cycle[1:])
        assert not verify_p2_cover(g, ((cube, cut),) + v.cover[1:])

    def test_circuit_off_its_cube_rejected(self, unsat_game):
        g, v = unsat_game
        cube, _ = v.cover[0]
        p2 = set(g.states_of(2))
        foreign = next(
            lasso
            for _, lasso in v.cover
            if any(g.edge_by_id[e].src in p2 and e not in cube.values() for e in lasso.cycle)
        )
        assert not verify_p2_cover(g, ((cube, foreign),) + v.cover[1:])

    def test_stem_must_start_at_init(self, fig1):
        cover = solve_unknown_credit(fig1).cover
        (cube, lasso), rest = cover[0], cover[1:]
        assert lasso.stem
        moved = Lasso(lasso.stem[1:], lasso.cycle)
        assert not verify_p2_cover(fig1, ((cube, moved),) + rest)

    def test_negative_circuit_rejected(self):
        g = GameStructure(
            1,
            (State("a", 1),),
            "a",
            (Edge("down", "a", "a", (-1,)), Edge("up", "a", "a", (1,))),
        )
        assert verify_p2_cover(g, (({}, Lasso((), ("up",))),))
        assert not verify_p2_cover(g, (({}, Lasso((), ("down",))),))
        assert not verify_p2_cover(g, ())

    def test_spoiler_is_the_first_in_enumeration_order(self):
        # The reference enumerates strategies flat and checks each one;
        # the cube search must find the same first spoiler.
        rng = random.Random(67)
        games = [rand_game(rng, max_states=6, max_edges=10) for _ in range(300)]
        games += [encode_3sat_two_player(rand_cnf(rng, max_vars=3, max_clauses=7)) for _ in range(30)]
        for g in games:
            v = solve_unknown_credit(g)
            reference = first_p2_spoiler(g)
            assert v.answer == (reference is None)
            if reference is not None:
                assert v.spoiler.choice == reference.choice


def on_cycle(g, keep, through):
    """Whether some state of `through` lies on a cycle of g whose states
    are all in `keep`."""
    for s in through:
        seen = graphs.reachable(s, lambda v: [(None, e.dst) for e in g.out_edges(v) if e.dst in keep])
        if any(e.dst == s for v in seen for e in g.out_edges(v)):
            return True
    return False


def count_circuit_searches(g, monkeypatch):
    """solve_unknown_credit(g), the fixed graphs it settles and the
    circuit searches it runs, counted by wrapping its settle hook and
    graphs._search_circuit."""
    settled, searched = [], []
    walk, search = solvers._first_uncovered, graphs._search_circuit
    monkeypatch.setattr(
        solvers, "_first_uncovered",
        lambda sizes, cubes, settle: walk(sizes, cubes, lambda p: settled.append(tuple(p)) or settle(p)),
    )
    monkeypatch.setattr(graphs, "_search_circuit", lambda *a: searched.append(a) or search(*a))
    v = solve_unknown_credit(g)
    monkeypatch.undo()
    return v, len(settled), len(searched)


def random_3cnf(rng, variables, clauses):
    """Clauses of three literals drawn uniformly, as rand_cnf draws them."""
    return CnfFormula(variables, tuple(
        tuple(rng.randint(1, variables) * rng.choice((1, -1)) for _ in range(3)) for _ in range(clauses)
    ))


def assert_3sat_verdict(f):
    """The two-player encoding of f answers Yes iff f is unsatisfiable,
    a Yes cover passes its checker, and a No spoiler passes its checker
    and picks literals that agree and satisfy f."""
    g = encode_3sat_two_player(f)
    v = solve_unknown_credit(g)
    if v.answer:
        assert verify_p2_cover(g, v.cover)
    else:
        assert verify_p2_spoiler(g, v.spoiler)
        decoded = decode_3sat_spoiler(f, v.spoiler)
        assert not decoded.conflicting and f.satisfied_by(decoded.values)
    return v.answer


class TestCubeSearch:
    """The search contracts single-edge Player-1 chains once per solve,
    resolves each strategy's Player-2 picks into hops between Player-1
    nodes and loop nodes, and reuses the circuits it has found."""

    @pytest.mark.parametrize("seed, games", [(83, 1000), pytest.param(89, 20000, marks=pytest.mark.slow)])
    def test_mostly_player2_games_match_the_flat_enumeration(self, seed, games):
        # Two states in three belong to Player 2, so play often starts at
        # a Player-2 state, Player-2 picks alone close cycles, and loops
        # of single-edge Player-1 states occur too.
        rng = random.Random(seed)
        kinds = collections.Counter()
        for _ in range(games):
            g = rand_game(rng, max_states=8, max_edges=14, owners=(1, 2, 2))
            v = solve_unknown_credit(g)
            reference = first_p2_spoiler(g)
            assert v.answer == (reference is None)
            if reference is None:
                assert verify_p2_cover(g, v.cover)
            else:
                assert v.spoiler.choice == reference.choice
            forced = {s.id for s in g.states if s.owner == 1 and len(g.out_edges(s.id)) == 1}
            p2 = set(g.states_of(2))
            kinds["yes" if v.answer else "no"] += 1
            kinds["p2 init"] += g.init in p2
            kinds["p2 cycle"] += on_cycle(g, p2 | forced, p2)
            kinds["forced loop"] += on_cycle(g, forced, forced)
        assert min(kinds.values()) > games // 20, kinds

    def test_unsat8_reuses_its_circuits(self, unsat8, monkeypatch):
        # 28 fixed graphs are settled; a circuit of two clauses picking
        # clashing literals is one walk of (init, init, weight) hops,
        # whichever clauses pick them, so 3 searches serve all 28.
        g = encode_3sat_two_player(unsat8)
        v, settled, searched = count_circuit_searches(g, monkeypatch)
        assert v.answer and verify_p2_cover(g, v.cover)
        assert (settled, searched) == (28, 3)

    def test_reused_circuit_runs_over_the_current_picks(self, monkeypatch):
        # Both picks of weight (0,0) hop from a back to a with equal
        # weight. The circuit found over p's pick settles the strategy
        # that picks p1 and q0 without a search, and its lasso
        # walks q's pick, the one that strategy makes.
        g = hop_game("a", [("a", 1), ("p", 2), ("q", 2)], [
            ("ap", "a", "p", (0, 0)), ("aq", "a", "q", (0, 0)),
            ("p0", "p", "a", (0, 0)), ("p1", "p", "a", (1, -1)),
            ("q0", "q", "a", (0, 0)), ("q1", "q", "a", (-1, 1)),
        ])
        v, settled, searched = count_circuit_searches(g, monkeypatch)
        assert (settled, searched) == (3, 2)
        assert v.cover[0] == ({"p": "p0"}, Lasso((), ("ap", "p0")))
        assert v.cover[1] == ({"q": "q0"}, Lasso((), ("aq", "q0")))
        assert verify_p2_cover(g, v.cover)

    def test_player2_picks_closing_a_cycle(self):
        # Play starts at p; picking p1 and q1 closes p -> q -> p, a loop
        # node of weight 1 at p, the lasso's least state.
        g = hop_game("q", [("p", 2), ("q", 2), ("a", 1)], [
            ("p1", "p", "q", (1,)), ("p2", "p", "a", (0,)),
            ("q1", "q", "p", (0,)), ("q2", "q", "a", (0,)),
            ("a1", "a", "a", (-1,)), ("a2", "a", "p", (0,)),
        ])
        v = solve_unknown_credit(g)
        assert v.cover[0] == ({"p": "p1", "q": "q1"}, Lasso(("q1",), ("p1", "q1")))
        revalidate_witnesses(g, v)

    def test_spanning_support_walks_a_vertex(self, monkeypatch):
        # An unplanted dense game whose circuit LP point spans its
        # component only after the max-support step: the midpoint of that
        # step asks for a walk of more than 10^6 edges, a vertex of the
        # circulations using every edge for a few hundred.
        rng = random.Random(7)
        g = [rand_dense_game(rng) for _ in range(4)][-1]
        walks, supports = [], []
        euler, widen = graphs._euler_walk, graphs.max_support_solution
        monkeypatch.setattr(graphs, "_euler_walk", lambda recs, c: walks.append(sum(c)) or euler(recs, c))
        monkeypatch.setattr(graphs, "max_support_solution", lambda *a: supports.append(a) or widen(*a))
        v = solve_unknown_credit(g)
        assert supports and max(walks) < 10**4
        assert not v.answer and verify_p2_spoiler(g, v.spoiler)

    def test_random_3sat_past_toy_sizes(self):
        # At 7 variables and 30 clauses, and at 8 and 34, a walk that
        # backs up one position at a time ran past 5 s on most formulas.
        elapsed, answers = 0.0, []
        for variables, clauses in ((7, 30), (8, 34)):
            rng = random.Random(variables)
            for _ in range(6):
                f = random_3cnf(rng, variables, clauses)
                start = time.perf_counter()
                answers.append(assert_3sat_verdict(f))
                elapsed += time.perf_counter() - start
                assert answers[-1] == (truth_table_satisfiable(f) is None)
        assert elapsed < 2, f"{elapsed:.2f}s"
        assert 0 < sum(answers) < len(answers)

    @pytest.mark.slow
    @pytest.mark.parametrize("variables", [10, 12, 14, 16])
    def test_random_3sat_at_the_threshold_ratio(self, variables):
        # Clauses per variable 4.26, where random formulas are hardest.
        # Each formula has a budget of 5 s; none takes 1 s, and without
        # learning resolved cubes one at 12 variables takes 16 s.
        rng = random.Random(variables)
        for _ in range(6):
            f = random_3cnf(rng, variables, round(4.26 * variables))
            start = time.perf_counter()
            answer = assert_3sat_verdict(f)
            elapsed = time.perf_counter() - start
            assert elapsed < 5, f"{elapsed:.2f}s"
            assert answer == (truth_table_satisfiable(f) is None)

    @pytest.mark.slow
    def test_spanning_supports_walk_short_circuits(self):
        # 300 unplanted dense games: 73 of them asked for walks of more
        # than 10^5 edges, up to 7.5 * 10^12, when the max-support
        # midpoint itself was walked.
        rng = random.Random(7)
        walks = []
        euler = graphs._euler_walk
        graphs._euler_walk = lambda recs, counts: walks.append(sum(counts)) or euler(recs, counts)
        try:
            for _ in range(300):
                g = rand_dense_game(rng)
                v = solve_unknown_credit(g)
                assert verify_p2_cover(g, v.cover) if v.answer else verify_p2_spoiler(g, v.spoiler)
        finally:
            graphs._euler_walk = euler
        assert max(walks) < 10**4


class TestMeanpayoffThreshold:
    def test_fig2_one_one_no(self, fig2):
        assert not solve_meanpayoff_threshold(fig2, (1, 1)).answer

    def test_fig2_two_zero_yes(self, fig2):
        assert solve_meanpayoff_threshold(fig2, (2, 0)).answer

    def test_fig1_zero_matches_energy(self, fig1):
        assert (
            solve_meanpayoff_threshold(fig1, (0, 0)).answer
            == solve_unknown_credit(fig1).answer
        )

    def test_rational_threshold(self, fig2):
        assert solve_meanpayoff_threshold(fig2, (Fraction(1, 2), Fraction(1, 2))).answer
        assert not solve_meanpayoff_threshold(
            fig2, (Fraction(1, 2), Fraction(3, 2))
        ).answer

    def test_dimension_mismatch(self, fig2):
        with pytest.raises(DimensionError):
            solve_meanpayoff_threshold(fig2, (1,))

    def test_threshold_shifted_weights(self, fig2):
        shifted = threshold_shifted(fig2, (1, 1))
        assert shifted.edge_by_id["loopa"].weight == (1, -1)
        scaled = threshold_shifted(fig2, (Fraction(1, 2), 0))
        assert scaled.edge_by_id["loopa"].weight == (3, 0)
        assert scaled.edge_by_id["loopb"].weight == (-1, 4)


class TestSufficientCredit:
    def test_fig2_stay_at_a(self, fig2):
        stay = MemorylessStrategy(1, {"qa": "loopa", "qb": "loopb"})
        p = product_with_strategy(fig2, stay)
        assert sufficient_credit(fig2, len(p.vertices)) == (2, 2)

    def test_zero_weight_game(self):
        g = single_loop_game((0, 0, 0))
        p = product_with_strategy(g, MemorylessStrategy(1, {"s": "stay"}))
        assert sufficient_credit(g, len(p.vertices)) == (0, 0, 0)

    def test_fig1_alternating(self, fig1):
        p = product_with_strategy(fig1, alternating_fig1_strategy())
        n = len(p.vertices)
        assert sufficient_credit(fig1, n) == (2 * n, 2 * n)


class TestVerifyP1:
    def test_alternating_accepted(self, fig1):
        # The least credit the strategy wins from, not the n*W bound (12,12).
        res = verify_p1_certificate(fig1, alternating_fig1_strategy())
        assert res.accepted
        assert res.credit == (3, 0)

    def test_constant_return_rejected(self, fig1):
        lam1 = MemorylessStrategy(1, {"q1": "loop", "q2": "ret_a"})
        res = verify_p1_certificate(fig1, as_moore(fig1, lam1))
        assert not res.accepted

    def test_both_memoryless_p1_choices_rejected(self, fig1):
        for ret in ("ret_a", "ret_b"):
            lam1 = MemorylessStrategy(1, {"q1": "loop", "q2": ret})
            assert not verify_p1_certificate(fig1, as_moore(fig1, lam1)).accepted

    def test_fig2_stay_accepted(self, fig2):
        stay = MemorylessStrategy(1, {"qa": "loopa", "qb": "loopb"})
        res = verify_p1_certificate(fig2, as_moore(fig2, stay))
        assert res.accepted

    def test_invalid_strategy_rejected(self, fig1):
        with pytest.raises(StrategyError):
            verify_p1_certificate(fig1, as_moore(fig1, MemorylessStrategy(1, {"q1": "loop"})))

    def test_matches_the_search_per_dimension(self):
        # The check ranks the product once for all dimensions; running
        # negative_cycle_in_dimension on it per dimension must agree, and
        # the credit must be the least one, found over simple paths.
        rng = random.Random(59)
        accepted = collections.Counter()
        for _ in range(300):
            g = rand_game(rng, max_states=6, max_edges=12)
            p1 = list(g.states_of(1))
            memory = ("m0", "m1")
            moore = MooreStrategy(
                1, memory, "m0",
                {(m, s.id): rng.choice(memory) for m in memory for s in g.states},
                {(m, s): rng.choice(g.out_edges(s)).id for m in memory for s in p1},
            )
            memoryless = MemorylessStrategy(1, {s: rng.choice(g.out_edges(s)).id for s in p1})
            for strategy in (memoryless, moore):
                p = product_with_strategy(g, strategy)
                wins = all(negative_cycle_in_dimension(p, d, p.source) is None for d in range(1, g.dimension + 1))
                check = verify_p1_certificate(g, strategy)
                assert check.accepted == wins
                assert check.credit == (least_credit(p) if wins else None)
                accepted[type(strategy), wins] += 1
        assert len(accepted) == 4 and min(accepted.values()) > 30


class TestVerifyP2:
    def test_fig1_left_rejected(self, fig1):
        assert not verify_p2_spoiler(fig1, MemorylessStrategy(2, {"q0": "to_q1"}))

    def test_fig1_right_rejected(self, fig1):
        assert not verify_p2_spoiler(fig1, MemorylessStrategy(2, {"q0": "to_q2"}))

    def test_clause_literal_accepted(self, clause1):
        g = encode_3sat_two_player(clause1)
        spoiler = next(iter(enumerate_p2_memoryless(g)))
        assert verify_p2_spoiler(g, spoiler)

    def test_empty_strategy_rejected_when_loop_exists(self, fig2):
        assert not verify_p2_spoiler(fig2, MemorylessStrategy(2, {}))


class TestMemorylessP1:
    def test_knapsack_yes(self, knap2):
        g = encode_knapsack(knap2)
        v = solve_memoryless_p1_energy(g)
        assert v.answer
        assert decode_knapsack_strategy(knap2, v.strategy) == {2}
        assert all(c >= 0 for c in v.credit)
        check = verify_p1_certificate(g, as_moore(g, v.strategy))
        assert check.accepted

    def test_knapsack_tight_bound_no(self, knap2):
        inst = KnapsackInstance(knap2.items, 1, 3)
        v = solve_memoryless_p1_energy(encode_knapsack(inst))
        assert not v.answer
        assert v.strategy is None

    def test_contrast_with_one_player(self):
        inst = KnapsackInstance(((3, 3),), 1, 1)
        g = encode_knapsack(inst)
        assert not solve_memoryless_p1_energy(g).answer
        one_player = GameStructure(
            g.dimension,
            tuple(State(s.id, 1) for s in g.states),
            g.init,
            g.edges,
        )
        assert solve_unknown_credit(one_player).answer

    def test_meanpayoff_satisfiable_clause(self, clause1):
        g = encode_3sat_memoryless(clause1)
        assert solve_memoryless_p1_meanpayoff(g, (0,) * g.dimension).answer

    def test_meanpayoff_unsat(self, unsat8):
        g = encode_3sat_memoryless(unsat8)
        assert not solve_memoryless_p1_meanpayoff(g, (0,) * g.dimension).answer

    def test_meanpayoff_fig2(self, fig2):
        v = solve_memoryless_p1_meanpayoff(fig2, (2, 0))
        assert v.answer
        assert v.strategy.choice["qa"] == "loopa"


def assert_first_p1_winner(g):
    """The nogood search returns what the flat enumeration returns:
    answer, strategy (in the same key order) and the n*W credit, n the
    states reachable under the strategy, which dominates the least
    credit the checker computes for it."""
    v = solve_memoryless_p1_energy(g)
    reference = first_p1_winner(g)
    assert v.answer == (reference is not None)
    if reference is None:
        assert v.strategy is None and v.credit is None
    else:
        assert list(v.strategy.choice.items()) == list(reference[0].choice.items())
        n = len(product_with_strategy(g, as_moore(g, reference[0])).vertices)
        assert v.credit == sufficient_credit(g, n)
        assert all(a >= b for a, b in zip(v.credit, reference[1]))
    return v.answer


def p1_corpus(seed, games, knapsacks, items, formulas, shifted=0):
    """rand_game games (both owners), knapsack chains of items[0] to
    items[1] items, 3SAT chains, and rand_game games with k in {2, 3}
    shifted by a random mean-payoff threshold, whose dimensions differ
    in scale, so that their sum weighs them unevenly."""
    rng = random.Random(seed)
    out = [rand_game(rng, max_states=7, max_edges=14) for _ in range(games)]
    for _ in range(knapsacks):
        inst = rand_knapsack(rng, max_items=items[1])
        while len(inst.items) < items[0]:
            inst = rand_knapsack(rng, max_items=items[1])
        out.append(encode_knapsack(inst))
    out += [encode_3sat_memoryless(rand_cnf(rng, max_vars=4, max_clauses=16)) for _ in range(formulas)]
    for _ in range(shifted):
        g = rand_game(rng, max_states=7, max_edges=14)
        while g.dimension < 2:
            g = rand_game(rng, max_states=7, max_edges=14)
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(g.dimension)]
        out.append(threshold_shifted(g, v))
    return out


def stem_choice_game(p2_start):
    """Player 1 picks at `a` between `b`, whose two loops are both
    negative, and `c`, whose loop is zero, so the first winner goes to
    `c` and keeps `b`'s first loop. The losing cycles leave only from
    `b`: a nogood without the stem state `a` would rule that winner out.
    With p2_start, play starts at a Player-2 state with two edges into
    `a`, so the search cannot just follow deterministic play."""
    states = [State("a", 1), State("b", 1), State("c", 1)]
    edges = [
        Edge("a1", "a", "b", (0,)),
        Edge("a2", "a", "c", (0,)),
        Edge("b1", "b", "b", (-1,)),
        Edge("b2", "b", "b", (-2,)),
        Edge("c0", "c", "c", (0,)),
    ]
    if p2_start:
        states.append(State("p", 2))
        edges += [Edge("p1", "p", "a", (0,)), Edge("p2", "p", "a", (1,))]
    return GameStructure(1, tuple(states), "p" if p2_start else "a", tuple(edges))


def hop_game(init, states, edges):
    """Game from (id, owner) states and (id, src, dst, weight) edges."""
    return GameStructure(
        len(edges[0][3]),
        tuple([State(*s) for s in states]),
        init,
        tuple([Edge(*e) for e in edges]),
    )


def count_search(g, monkeypatch):
    """solve_memoryless_p1_energy(g) with the vectors it settles and the
    partial vectors it offers to the prune, counted by wrapping the hooks
    its walk is given."""
    settled, offered = [], []
    walk = solvers._first_uncovered

    def counting(sizes, cubes, settle, prune):
        return walk(sizes, cubes, lambda p: settled.append(tuple(p)) or settle(p),
                    lambda p, d: offered.append(tuple(p[: d + 1])) or prune(p, d))

    monkeypatch.setattr(solvers, "_first_uncovered", counting)
    v = solve_memoryless_p1_energy(g)
    monkeypatch.undo()
    return v, settled, offered


def count_cycle_searches(g, monkeypatch):
    """solve_memoryless_p1_energy(g) with the number of Bellman-Ford runs
    made while a full vector is settled and the number made outside that,
    told apart by wrapping the settle hook its walk is given."""
    inside, outside, settling = [], [], []
    walk = solvers._first_uncovered
    search = graphs._positive_cycle

    def settle_counted(settle):
        def wrapped(pick):
            settling.append(pick)
            try:
                return settle(pick)
            finally:
                settling.pop()
        return wrapped

    def counted(*a):
        (inside if settling else outside).append(a)
        return search(*a)

    monkeypatch.setattr(solvers, "_first_uncovered", lambda sizes, cubes, settle, prune: walk(sizes, cubes, settle_counted(settle), prune))
    monkeypatch.setattr(graphs, "_positive_cycle", counted)
    v = solve_memoryless_p1_energy(g)
    monkeypatch.undo()
    return v, len(inside), len(outside)


def solve_without_graph_search(g, monkeypatch):
    """solve_memoryless_p1_energy(g), asserting that every candidate was
    settled by play alone, with no Bellman-Ford run while settling."""
    v, inside, _ = count_cycle_searches(g, monkeypatch)
    assert inside == 0
    return v


class TestMemorylessNogoods:
    @pytest.mark.parametrize("p2_start", [False, True])
    def test_nogood_keeps_the_stem_choice(self, p2_start):
        g = stem_choice_game(p2_start)
        v = solve_memoryless_p1_energy(g)
        assert v.answer
        assert v.strategy.choice == {"a": "a2", "b": "b1", "c": "c0"}
        assert_first_p1_winner(g)

    def test_matches_the_flat_enumeration(self):
        # rand_game games (both owners, so Player 2 branches in many),
        # knapsack chains, 3SAT chains, where every nogood is a full
        # assignment, and threshold-shifted games with k >= 2.
        games = p1_corpus(71, games=1000, knapsacks=200, items=(1, 7), formulas=100, shifted=300)
        answers = [assert_first_p1_winner(g) for g in games]
        assert 200 < sum(answers) < len(answers) - 200

    @pytest.mark.slow
    def test_matches_the_flat_enumeration_large(self):
        games = p1_corpus(73, games=10000, knapsacks=24, items=(10, 12), formulas=200, shifted=2000)
        answers = [assert_first_p1_winner(g) for g in games]
        assert 2000 < sum(answers) < len(answers) - 2000

    # Play steps from choice to choice over chains of single-edge states;
    # these games put such chains where a hop is easy to get wrong.

    def test_init_inside_a_single_edge_loop(self, monkeypatch):
        # a -> b -> a is negative and all that is reachable, so every
        # choice at the unreachable c loses, with no graph search.
        g = hop_game("a", [("a", 1), ("b", 2), ("c", 1)], [
            ("ab", "a", "b", (-1,)), ("ba", "b", "a", (0,)),
            ("c1", "c", "c", (0,)), ("c2", "c", "c", (1,)),
        ])
        assert not solve_without_graph_search(g, monkeypatch).answer
        assert not assert_first_p1_winner(g)

    def test_chain_into_a_single_edge_loop(self, monkeypatch):
        # a1 runs into the negative loop x -> y -> x; a2 reaches c, whose
        # first loop is negative too. Play settles the loop itself, with
        # no graph search.
        g = hop_game("a", [("a", 1), ("x", 1), ("y", 2), ("c", 1)], [
            ("a1", "a", "x", (0,)), ("a2", "a", "c", (0,)),
            ("xy", "x", "y", (1,)), ("yx", "y", "x", (-2,)),
            ("c1", "c", "c", (-1,)), ("c2", "c", "c", (0,)),
        ])
        assert solve_without_graph_search(g, monkeypatch).strategy.choice == {"a": "a2", "c": "c2", "x": "xy"}
        assert assert_first_p1_winner(g)

    def test_chains_merging_before_the_next_choice(self, monkeypatch):
        # p1 and q1 both lead into m, whose one edge goes back to p. With
        # (p2, q1) the play m p q m closes its cycle at m; hop by hop it
        # closes at p over the same edges, -1 in total. Only the first
        # edge of each hop carries the loss.
        g = hop_game("m", [("m", 2), ("p", 1), ("q", 1)], [
            ("mp", "m", "p", (1,)),
            ("p1", "p", "m", (-2,)), ("p2", "p", "q", (1,)),
            ("q1", "q", "m", (-3,)), ("q2", "q", "q", (0,)),
        ])
        assert solve_without_graph_search(g, monkeypatch).strategy.choice == {"p": "p2", "q": "q2"}
        assert assert_first_p1_winner(g)

    def test_single_edge_player2_state_inside_a_chain(self, monkeypatch):
        # a1 passes r, a Player-2 state with one edge, on the way to b.
        # Play stays deterministic, so no candidate needs a graph search.
        g = hop_game("a", [("a", 1), ("r", 2), ("b", 1)], [
            ("a1", "a", "r", (0, 1)), ("a2", "a", "b", (0, 0)),
            ("rb", "r", "b", (-1, 0)),
            ("b1", "b", "a", (1, -1)), ("b2", "b", "b", (0, -1)),
        ])
        assert solve_without_graph_search(g, monkeypatch).strategy.choice == {"a": "a1", "b": "b1"}
        assert assert_first_p1_winner(g)

    def test_play_into_a_single_edge_loop(self, monkeypatch):
        # a1 runs into the zero loop x -> y -> x, whose Player-2 state has
        # one edge, so the first candidate's play ends on a loop node and
        # wins with no graph search.
        g = hop_game("a", [("a", 1), ("x", 1), ("y", 2)], [
            ("a1", "a", "x", (0,)), ("a2", "a", "a", (-1,)),
            ("xy", "x", "y", (1,)), ("yx", "y", "x", (-1,)),
        ])
        assert solve_without_graph_search(g, monkeypatch).strategy.choice == {"a": "a1", "x": "xy"}
        assert assert_first_p1_winner(g)

    def test_full_cubes_visit_every_vector_once_in_product_order(self):
        sizes = [2, 3, 1, 2]
        seen = []

        def settle(pick):
            seen.append(tuple(pick))
            return tuple(enumerate(pick))

        assert _first_uncovered(sizes, (), settle) is None
        assert seen == list(itertools.product(*map(range, sizes)))

    def test_pruned_prefixes_are_never_settled(self):
        sizes = [2, 3, 2]
        refuted = {(0, 1), (1,), (0, 2, 1)}
        seen, offered = [], []

        def settle(pick):
            seen.append(tuple(pick))
            return tuple(enumerate(pick))

        def prune(pick, d):
            offered.append(tuple(pick[: d + 1]))
            return tuple(pick[: d + 1]) in refuted

        assert _first_uncovered(sizes, (), settle, prune) is None
        vectors = list(itertools.product(*map(range, sizes)))
        assert seen == [v for v in vectors if not any(v[: len(r)] == r for r in refuted)]
        # Every prefix is offered once, in order, unless a shorter one
        # was pruned.
        prefixes = sorted({v[:n] for v in vectors for n in (1, 2, 3)})
        assert offered == [p for p in prefixes if not any(p[: len(r)] == r for r in refuted if len(r) < len(p))]

    def test_prefixes_a_cube_contains_are_not_offered(self):
        offered = []

        def prune(pick, d):
            offered.append(tuple(pick[: d + 1]))
            return False

        first = _first_uncovered([2, 2], [((0, 0), (1, 0)), ((0, 1),)], lambda pick: None, prune)
        assert first == [0, 1]
        assert offered == [(0,), (0, 1)]

    # The relaxed graph of a prefix keeps every hop at the positions it
    # leaves open, and the prune refutes losers only.

    def test_open_positions_keep_every_option(self):
        # Option 0 loses and option 1 wins: a relaxation that kept only
        # option 0 at an open position would answer No at the root.
        g = hop_game("a", [("a", 1)], [("a1", "a", "a", (-1,)), ("a2", "a", "a", (0,))])
        assert solve_memoryless_p1_energy(g).strategy.choice == {"a": "a2"}

    def test_root_refutation_tries_no_candidate(self, monkeypatch):
        # Taking every item falls short of the target, so no dimension-1
        # cycle is nonnegative even with every hop present.
        inst = KnapsackInstance(((2, 1), (3, 1), (1, 1)), 3, 7)
        v, settled, offered = count_search(encode_knapsack(inst), monkeypatch)
        assert not v.answer and settled == [] and offered == []

    def test_sum_of_dimensions_refutes_at_the_root(self, monkeypatch):
        # Each dimension alone keeps a nonnegative cycle at the root:
        # taking every item makes the target, taking none keeps the
        # bound. But profit equals weight for every item, so every cycle
        # sums to bound - target = -1 over both dimensions.
        inst = KnapsackInstance(((3, 3), (4, 4), (5, 5)), 6, 7)
        assert sum(p for p, _ in inst.items) >= inst.target
        v, settled, offered = count_search(encode_knapsack(inst), monkeypatch)
        assert not v.answer and settled == [] and offered == []

    def test_one_dimension_adds_no_direction(self, monkeypatch):
        # Option 0 loses, so the root searches once for a2 and the prefix
        # that picks a1 is refuted by one more search. A sum direction,
        # which k = 1 makes dimension 1 itself, would search the root twice.
        g = hop_game("a", [("a", 1)], [("a1", "a", "a", (-1,)), ("a2", "a", "a", (0,))])
        v, inside, outside = count_cycle_searches(g, monkeypatch)
        assert v.strategy.choice == {"a": "a2"}
        assert inside == 0 and outside == 2

    def test_infeasible_knapsack_settles_far_fewer_than_all(self, monkeypatch):
        # 13 items of profit w + 1 and weight w in 4..8, capacity 10: two
        # items fit, and no two make the target 13.
        items = tuple((w + 1, w) for w in (4, 5, 6, 7, 8, 4, 5, 6, 7, 8, 4, 5, 6))
        v, settled, offered = count_search(encode_knapsack(KnapsackInstance(items, 10, 13)), monkeypatch)
        assert not v.answer
        assert len(settled) + len(offered) < 2**13 // 10

    def test_unsat_formula_settles_far_fewer_than_all(self, monkeypatch):
        rng = random.Random(3)
        f = random_3cnf(rng, 12, 70)
        assert truth_table_satisfiable(f) is None
        v, settled, offered = count_search(encode_3sat_memoryless(f), monkeypatch)
        assert not v.answer
        assert len(settled) + len(offered) < 2**12 // 10

    def test_a_first_winner_needs_no_cycle_search(self, monkeypatch):
        # Play from the Player-2 start taking option 0 everywhere is the
        # first candidate's, and it wins, so every dimension keeps the
        # witness that play gives at the root and the prune searches
        # nothing. Play branches at p, so settling the candidate runs
        # Bellman-Ford once per dimension and finds no negative cycle.
        g = hop_game("p", [("p", 2), ("a", 1), ("b", 1)], [
            ("pa", "p", "a", (0, 0)), ("pb", "p", "b", (0, 0)),
            ("a1", "a", "a", (0, 1)), ("a2", "a", "a", (-1, 0)),
            ("b1", "b", "p", (1, 0)), ("b2", "b", "b", (0, -1)),
        ])
        v, inside, outside = count_cycle_searches(g, monkeypatch)
        assert v.strategy.choice == {"a": "a1", "b": "b1"}
        assert outside == 0 and inside == g.dimension
        assert assert_first_p1_winner(g)


def chronological_walk(sizes, cubes, settle, prune=None):
    """Reference for _first_uncovered: every vector in product order,
    skipping those that a cube given or learnt so far contains and those
    that extend a pruned prefix. Each prefix is tested as a walk that
    backs up one position at a time tests it: against the cubes whose
    deepest position it assigns, then offered to prune, until one test
    fails. Returns the first vector settle accepts, or None."""
    learnt, pruned = list(cubes), {}
    if not all(learnt):
        return None
    for v in itertools.product(*map(range, sizes)):
        for d in range(len(v)):
            if any(c[-1][0] == d and all(v[i] == o for i, o in c) for c in learnt):
                break
            if prune is not None:
                p = v[: d + 1]
                if p not in pruned:
                    pruned[p] = prune(list(v), d)
                if pruned[p]:
                    break
        else:
            cube = settle(list(v))
            if cube is None:
                return list(v)
            if not cube:
                return None
            learnt.append(cube)
    return None


def random_walk_case(rng, tag):
    """Sizes, given cubes, and settle and prune hooks that answer each
    vector and prefix the same way on every call: settle with a random
    sub-cube of the pick, now and then with None or the empty cube;
    prune, in half the cases, True on a few random prefixes."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 6))]

    def sub_cube(r, v):
        cube = tuple([(i, o) for i, o in enumerate(v) if r.random() < 0.5])
        if cube or r.random() < 0.05:
            return cube
        i = r.randrange(len(v))
        return ((i, v[i]),)

    cubes = [sub_cube(rng, [rng.randrange(n) for n in sizes]) for _ in range(rng.randint(0, 3))]

    def settle(pick):
        r = random.Random(f"{tag} {pick}")
        return None if r.random() < 0.02 else sub_cube(r, pick)

    refuted = {tuple([rng.randrange(n) for n in sizes[: rng.randint(1, len(sizes))]]) for _ in range(rng.randint(1, 4))}
    prune = (lambda pick, d: tuple(pick[: d + 1]) in refuted) if rng.random() < 0.5 else None
    return sizes, cubes, settle, prune


class TestBackjump:
    """The walk jumps back to the deepest position whose pick took part
    in excluding every option, and learns the cube that the excluding
    cubes resolve to."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_a_chronological_walk(self, seed):
        # Same vector returned, same vectors settled in the same order.
        # The prefixes offered to prune are those the chronological
        # walk offers, less some whose every vector a cube contains.
        rng = random.Random(seed)
        fewer = 0
        for case in range(600):
            sizes, cubes, settle, prune = random_walk_case(rng, (seed, case))
            runs = []
            for walk in (chronological_walk, _first_uncovered):
                settled, offered = [], []
                counted = None if prune is None else lambda pick, d: offered.append(tuple(pick[: d + 1])) or prune(pick, d)
                first = walk(sizes, cubes, lambda pick: settled.append(tuple(pick)) or settle(pick), counted)
                runs.append((first, settled, offered))
            (expected, ref_settled, ref_offered), (first, settled, offered) = runs
            assert first == expected and settled == ref_settled
            later = iter(ref_offered)
            assert all(p in later for p in offered)
            if prune is not None:
                reached = settled + ([tuple(first)] if first is not None else [])
                assert {v[: d + 1] for v in reached for d in range(len(v))} <= set(offered)
            fewer += len(offered) < len(ref_offered)
        assert fewer > 50

    def test_jumps_past_positions_no_cube_fixes(self):
        # Both options at position 29 are excluded by cubes that fix only
        # position 0 besides, so the walk jumps from 29 straight to 0: it
        # offers positions 0 to 28 of [0, ...], then 0 to 29 of [1, 0, ...].
        # Backing up one position at a time offers about 2^28 prefixes,
        # and 87 if it learns each resolved cube on the way.
        offered = []
        cubes = [((0, 0), (29, 0)), ((0, 0), (29, 1))]
        first = _first_uncovered([2] * 30, cubes, lambda pick: None, lambda pick, d: offered.append(d) or False)
        assert first == [1] + [0] * 29
        assert offered == list(range(29)) + list(range(30))

    def test_jumps_to_the_deepest_position_that_took_part(self):
        # At position 2 option 0 is excluded by a cube that fixes position
        # 0 besides, option 1 by one that fixes position 1. The walk jumps
        # to 1, where option 1 is uncovered; a jump to 0 would skip
        # [0, 1, 1].
        cubes = [((0, 0), (2, 0)), ((1, 0), (2, 1))]
        assert _first_uncovered([2, 2, 2], cubes, lambda pick: None) == [0, 1, 1]

    def test_a_learnt_cube_is_reused(self):
        # Option 0 at position 1 is excluded by cubes that fix position 29
        # besides; option 1 there by a cube for each option at position 0
        # but the last. The walk resolves the unit cube ((1, 0),) once,
        # then refutes each later option at 0 at position 1, so it offers
        # position 0 alone for options 1 to 48: 107 offers, against 1,479
        # if it went down to position 29 each time.
        offered = []
        cubes = [((1, 0), (29, 0)), ((1, 0), (29, 1))] + [((0, o), (1, 1)) for o in range(49)]
        first = _first_uncovered([50] + [2] * 29, cubes, lambda pick: None, lambda pick, d: offered.append(d) or False)
        assert first == [49, 1] + [0] * 28
        assert offered == list(range(29)) + [0] * 48 + list(range(30))

    @pytest.mark.parametrize("full_cubes", [True, False])
    def test_cubes_fixing_every_position_are_not_kept(self, full_cubes):
        # A cube that fixes every position up to its deepest contains no
        # vector the walk reaches later. Settled cubes that fix every
        # position are of that kind, and so are cubes resolved from
        # prunes: over 2^12 vectors the walk keeps none of them.
        sizes = [2] * 12
        if full_cubes:
            settle, prune = (lambda pick: tuple(enumerate(pick))), None
        else:
            settle, prune = (lambda pick: None), (lambda pick, d: d == len(sizes) - 1)
        # A first run fills the interpreter's free lists, which the
        # traced run then draws on.
        assert _first_uncovered(sizes, (), settle, prune) is None
        tracemalloc.start()
        try:
            _first_uncovered(sizes, (), settle, prune)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 1024, peak


class TestClampedOracle:
    def test_fig1_credit_thresholds(self, fig1):
        assert not clamped_fixed_credit_oracle(fig1, (2, 0), 4)
        assert clamped_fixed_credit_oracle(fig1, (2, 1), 4)

    def test_decreasing_loop_loses(self):
        assert not clamped_fixed_credit_oracle(single_loop_game((-1,)), (3,), 3)

    def test_zero_loop_wins(self):
        assert clamped_fixed_credit_oracle(single_loop_game((0,)), (0,), 2)

    def test_cap_below_credit_rejected(self, fig1):
        with pytest.raises(ValueError):
            clamped_fixed_credit_oracle(fig1, (2, 1), 1)

    def test_negative_credit_rejected(self, fig1):
        with pytest.raises(ValueError):
            clamped_fixed_credit_oracle(fig1, (-1, 0), 4)

    def test_dimension_mismatch(self, fig1):
        with pytest.raises(DimensionError):
            clamped_fixed_credit_oracle(fig1, (2,), 4)

    def test_monotone_in_credit_and_cap(self):
        rng = random.Random(31)
        for _ in range(25):
            g = rand_game(rng, max_states=3, max_edges=5, max_k=2, lo=-1, hi=1)
            k = g.dimension
            cap = 2
            wins = {}
            for v0 in itertools.product(range(cap + 1), repeat=k):
                wins[v0] = clamped_fixed_credit_oracle(g, v0, cap)
            for v0, won in wins.items():
                if won:
                    for v1 in itertools.product(range(cap + 1), repeat=k):
                        if all(a <= b for a, b in zip(v0, v1)):
                            assert wins[v1]
                    assert clamped_fixed_credit_oracle(g, v0, cap + 1)

    def test_attractor_matches_the_fixpoint_sweep(self):
        rng = random.Random(83)
        wins = 0
        for _ in range(3000):
            g = rand_game(rng, max_states=5, max_edges=9, max_k=2, lo=-2, hi=2)
            cap = rng.randint(0, 6)
            v0 = tuple(rng.randint(0, cap) for _ in range(g.dimension))
            won = clamped_fixed_credit_oracle(g, v0, cap)
            assert won == clamped_fixpoint_reference(g, v0, cap)
            wins += won
        assert 600 < wins < 2400

    @pytest.mark.parametrize("seed, games, max_states, max_edges, lo, hi", [
        (41, 300, 5, 9, -1, 2),
        pytest.param(43, 1500, 8, 16, -2, 3, marks=pytest.mark.slow),
    ])
    def test_matches_the_fixpoint_sweep_up_to_four_dimensions(self, seed, games, max_states, max_edges, lo, hi):
        rng = random.Random(seed)
        answers = collections.Counter()
        branching_p2 = unreachable = 0
        for _ in range(games):
            g = rand_game(rng, max_states=max_states, max_edges=max_edges, max_k=4, lo=lo, hi=hi)
            cap = rng.randint(0, 10)
            v0 = tuple([rng.randint(0, cap) for _ in range(g.dimension)])
            won = clamped_fixed_credit_oracle(g, v0, cap)
            assert won == clamped_fixpoint_reference(g, v0, cap), (g, v0, cap)
            answers[g.dimension, won] += 1
            branching_p2 += any(s.owner == 2 and len(g.out_edges(s.id)) > 1 for s in g.states)
            seen = reachable_part(as_multigraph(g), g.init).vertices
            unreachable += len(seen) < len(g.states)
        assert set(answers) == set(itertools.product(range(1, 5), (False, True)))
        yes = sum([n for (_, won), n in answers.items() if won])
        assert games / 4 <= yes <= games * 3 / 4
        assert branching_p2 > games / 3 and unreachable > games / 4

    def test_clamping_loses_surplus(self):
        # The +5 is kept only up to the cap, and the -5 needs all of it.
        g = hop_game("a", [("a", 1), ("b", 1)], [("up", "a", "b", (5,)), ("down", "b", "a", (-5,))])
        assert not clamped_fixed_credit_oracle(g, (0,), 4)
        assert clamped_fixed_credit_oracle(g, (0,), 5)

    def test_a_later_gain_pays_no_earlier_debt(self):
        # The stall branch takes a few rounds to lose, so the answer at
        # credit 0 rests on the debt alone.
        g = hop_game("p", [("p", 1), ("a", 1), ("b", 1), ("d", 1)], [
            ("pay", "p", "a", (-1,)), ("gain", "a", "b", (1,)), ("stay", "b", "b", (0,)),
            ("stall", "p", "d", (0,)), ("drain", "d", "d", (-1,)),
        ])
        assert not clamped_fixed_credit_oracle(g, (0,), 3)
        assert clamped_fixed_credit_oracle(g, (1,), 3)

    @pytest.mark.parametrize("owner", [1, 2])
    def test_player2_takes_a_deadly_edge_player1_a_safe_one(self, owner):
        g = hop_game("s", [("s", owner)], [("safe", "s", "s", (0,)), ("deadly", "s", "s", (-4,))])
        assert clamped_fixed_credit_oracle(g, (3,), 3) == (owner == 1)

    def test_early_no_exit_answers_as_the_reference(self, monkeypatch):
        # s1's set shrinks for three rounds before it settles at {(0, 3)};
        # a credit with no first component is refuted by the first look at
        # s0, before then.
        g = hop_game("s0", [("s0", 2), ("s1", 1), ("s2", 1)], [
            ("a", "s0", "s1", (-1, 0)), ("b", "s0", "s2", (0, 0)),
            ("loop", "s1", "s1", (0, -1)), ("exit", "s1", "s2", (0, -3)),
            ("stay", "s2", "s2", (0, 0)),
        ])
        for v0 in itertools.product(range(7), repeat=2):
            won = v0[0] >= 1 and v0[1] >= 3
            assert clamped_fixed_credit_oracle(g, v0, 6) == clamped_fixpoint_reference(g, v0, 6) == won
        steps = []
        through = solvers._credits_through
        monkeypatch.setattr(solvers, "_credits_through", lambda *a: steps.append(a) or through(*a))
        assert not clamped_fixed_credit_oracle(g, (0, 6), 6)
        early = len(steps)
        assert clamped_fixed_credit_oracle(g, (1, 6), 6)
        assert early < len(steps) - early

    def test_cost_does_not_grow_with_the_cap(self):
        # From (0, 0) the two loops reach every energy pair up to the cap:
        # 10**12 of them, none of which the minimal credits need.
        two_loops = hop_game("s", [("s", 1)], [("x", "s", "s", (1, 0)), ("y", "s", "s", (0, 1))])
        for g in [single_loop_game((1, 1)), two_loops]:
            assert clamped_fixed_credit_oracle(g, (0, 0), 10**6)


class TestSearchFiniteMemory:
    def test_fig1_needs_two_memory_states(self, fig1):
        assert search_finite_memory_strategy(fig1, 1) is None
        found = search_finite_memory_strategy(fig1, 2)
        assert found is not None
        strategy, credit = found
        res = verify_p1_certificate(fig1, strategy)
        assert res.accepted
        assert res.credit == credit

    def test_fig2_shifted_memoryless(self, fig2):
        g = threshold_shifted(fig2, (2, 0))
        found = search_finite_memory_strategy(g, 1)
        assert found is not None
        strategy, _ = found
        assert strategy.action[(strategy.initial, "qa")] == "loopa"

    def test_bad_bound_rejected(self, fig2):
        with pytest.raises(ValueError):
            search_finite_memory_strategy(fig2, 0)


class TestSpoilerAsymmetry:
    def test_fig1_memoryless_vs_fixed_credit(self, fig1):
        # Both memoryless Player-2 strategies fail to spoil, yet Player 1
        # cannot win from (2,0) even in the clamped under-approximation.
        for lam2 in enumerate_p2_memoryless(fig1):
            assert not verify_p2_spoiler(fig1, lam2)
        assert not clamped_fixed_credit_oracle(fig1, (2, 0), 4)
        assert solve_unknown_credit(fig1).answer


class TestRandomCorpusInvariants:
    def test_certificate_closure(self):
        rng = random.Random(37)
        for _ in range(60):
            g = rand_game(rng)
            v = solve_unknown_credit(g)
            if v.answer:
                revalidate_witnesses(g, v)
                assert all(c >= 0 for c in v.credit)
            else:
                assert verify_p2_spoiler(g, v.spoiler)

    def test_inter_reduction_coherence(self):
        rng = random.Random(41)
        for _ in range(40):
            g = rand_game(rng)
            zero = (0,) * g.dimension
            assert solve_meanpayoff_threshold(g, zero).answer == solve_unknown_credit(g).answer

    def test_one_player_matches_bounded_oracle(self):
        rng = random.Random(11)
        for _ in range(80):
            g = rand_game(rng, max_states=5, max_edges=7, owners=(1,))
            v = solve_unknown_credit(g)
            sub = reachable_part(as_multigraph(g), g.init)
            witness = bounded_circulation_oracle(sub, 12, "nonnegative")
            assert v.answer == (witness is not None)
            if v.answer:
                assert len(v.cover) == 1
            else:
                assert v.spoiler.choice == {}

    def test_memoryless_yes_implies_general_yes(self):
        rng = random.Random(43)
        hits = 0
        for _ in range(50):
            g = rand_game(rng)
            if solve_memoryless_p1_energy(g).answer:
                hits += 1
                assert solve_unknown_credit(g).answer
        assert hits  # the corpus must exercise the implication

    def test_scaling_invariance(self):
        rng = random.Random(47)
        for _ in range(40):
            g = rand_game(rng)
            base = solve_unknown_credit(g).answer
            for c in (2, 3):
                assert solve_unknown_credit(scale_weights(g, c)).answer == base

    def test_scalar_games_match_value_iteration(self):
        rng = random.Random(53)
        for _ in range(60):
            g = rand_game(rng, max_k=1)
            assert solve_unknown_credit(g).answer == value_iteration_energy(g)


def test_two_player_3sat_equivalence_sample():
    # Spot sample here; the acceptance suite runs the full 200-formula corpus.
    from oracles import rand_cnf

    rng = random.Random(59)
    for _ in range(25):
        f = rand_cnf(rng)
        g = encode_3sat_two_player(f)
        answer = solve_unknown_credit(g).answer
        assert answer == (truth_table_satisfiable(f) is None)
