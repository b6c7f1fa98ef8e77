import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from mwg import (
    DimensionError,
    Edge,
    GameStructure,
    InvalidGameError,
    KnapsackInstance,
    Lasso,
    MemorylessStrategy,
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
    energy_level,
    enumerate_p2_memoryless,
    product_with_strategy,
    reachable_subgraph,
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
from mwg.solvers import _first_uncovered
from oracles import (
    bounded_circulation_oracle,
    clamped_fixpoint_reference,
    first_p1_winner,
    first_p2_spoiler,
    rand_cnf,
    rand_game,
    rand_knapsack,
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
        sub = reachable_subgraph(fixed_graph(g, lam2), g.init)
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
        assert g.edge_by_id[lasso.cycle[0]].weight == g.zero_vector()
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
        res = verify_p1_certificate(fig1, alternating_fig1_strategy())
        assert res.accepted
        assert res.credit == (12, 12)

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
    answer, strategy (in the same key order) and credit."""
    v = solve_memoryless_p1_energy(g)
    reference = first_p1_winner(g)
    assert v.answer == (reference is not None)
    if reference is None:
        assert v.strategy is None and v.credit is None
    else:
        assert list(v.strategy.choice.items()) == list(reference[0].choice.items())
        assert v.credit == reference[1]
    return v.answer


def p1_corpus(seed, games, knapsacks, items, formulas):
    """rand_game games (both owners), knapsack chains of items[0] to
    items[1] items and 3SAT chains."""
    rng = random.Random(seed)
    out = [rand_game(rng, max_states=7, max_edges=14) for _ in range(games)]
    for _ in range(knapsacks):
        inst = rand_knapsack(rng, max_items=items[1])
        while len(inst.items) < items[0]:
            inst = rand_knapsack(rng, max_items=items[1])
        out.append(encode_knapsack(inst))
    out += [encode_3sat_memoryless(rand_cnf(rng, max_vars=4, max_clauses=16)) for _ in range(formulas)]
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
        # knapsack chains and 3SAT chains, where every nogood is a full
        # assignment.
        games = p1_corpus(71, games=1000, knapsacks=200, items=(1, 7), formulas=100)
        answers = [assert_first_p1_winner(g) for g in games]
        assert 200 < sum(answers) < len(answers) - 200

    @pytest.mark.slow
    def test_matches_the_flat_enumeration_large(self):
        games = p1_corpus(73, games=10000, knapsacks=24, items=(10, 12), formulas=200)
        answers = [assert_first_p1_winner(g) for g in games]
        assert 2000 < sum(answers) < len(answers) - 2000

    def test_full_cubes_visit_every_vector_once_in_product_order(self):
        sizes = [2, 3, 1, 2]
        seen = []

        def settle(pick):
            seen.append(tuple(pick))
            return tuple(enumerate(pick))

        assert _first_uncovered(sizes, (), settle) is None
        assert seen == list(itertools.product(*map(range, sizes)))


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
            sub = reachable_subgraph(as_multigraph(g), g.init)
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
