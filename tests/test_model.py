import random
from fractions import Fraction

import pytest

from mwg import (
    DimensionError,
    Edge,
    GameStructure,
    MemorylessStrategy,
    MooreStrategy,
    State,
    StrategyError,
    WalkError,
    as_moore,
    check_strategy,
    product_with_strategy,
    scale_weights,
    shift_weights,
    validate_game,
)
from oracles import energy_level, games_equal, rand_game, random_lasso, random_walk


def alternating_fig1_strategy():
    """Two-memory Player-1 strategy alternating the parallel q2 -> q0 returns."""
    states = ("q0", "q1", "q2")
    update = {(m, s): m for m in ("ma", "mb") for s in states}
    update[("ma", "q2")] = "mb"
    update[("mb", "q2")] = "ma"
    action = {
        ("ma", "q1"): "loop",
        ("mb", "q1"): "loop",
        ("ma", "q2"): "ret_a",
        ("mb", "q2"): "ret_b",
    }
    return MooreStrategy(1, ("ma", "mb"), "ma", update, action)


def cycle_mean(g, lasso):
    """Mean weight per dimension of a lasso's cycle, from the energy
    levels at its two ends."""
    start, end = energy_level(g, lasso.stem), energy_level(g, lasso.stem + lasso.cycle)
    return tuple([Fraction(b - a, len(lasso.cycle)) for a, b in zip(start, end)])


class TestValidateGame:
    def test_fig1_is_valid(self, fig1):
        assert validate_game(fig1) == []

    def test_sink_state_reported(self):
        g = GameStructure(
            1,
            (State("a", 1), State("b", 1)),
            "a",
            (Edge("e1", "a", "b", (0,)),),
        )
        violations = validate_game(g)
        assert len(violations) == 1
        assert violations[0].subject == "b"
        assert "out" in violations[0].rule or "out" in violations[0].message

    def test_wrong_weight_length_reported(self):
        g = GameStructure(
            2,
            (State("a", 1),),
            "a",
            (Edge("e1", "a", "a", (1,)),),
        )
        violations = validate_game(g)
        assert len(violations) == 1
        assert violations[0].subject == "e1"

    def test_duplicate_edge_id(self):
        g = GameStructure(
            1,
            (State("a", 1),),
            "a",
            (Edge("e1", "a", "a", (0,)), Edge("e1", "a", "a", (1,))),
        )
        assert any(v.subject == "e1" for v in validate_game(g))

    def test_unknown_endpoint_and_init(self):
        g = GameStructure(
            1,
            (State("a", 1),),
            "nowhere",
            (Edge("e1", "a", "zzz", (0,)),),
        )
        subjects = {v.subject for v in validate_game(g)}
        assert "e1" in subjects
        assert "nowhere" in subjects

    def test_zero_dimension_rejected(self):
        g = GameStructure(0, (State("a", 1),), "a", (Edge("e1", "a", "a", ()),))
        assert validate_game(g)

    def test_bad_owner_reported(self):
        g = GameStructure(1, (State("a", 3),), "a", (Edge("e1", "a", "a", (0,)),))
        assert any(v.subject == "a" for v in validate_game(g))

    def test_parallel_edges_allowed(self, fig1):
        # ret_a and ret_b share q2 -> q0.
        assert validate_game(fig1) == []


class TestEnergyLevel:
    def test_fig1_return_prefix(self, fig1):
        assert energy_level(fig1, ["to_q2", "ret_a"]) == (-1, 1)

    def test_empty_prefix(self, fig1):
        assert energy_level(fig1, []) == (0, 0)

    def test_fig2_double_loop(self, fig2):
        assert energy_level(fig2, ["loopa", "loopa"]) == (4, 0)

    def test_disconnected_walk_rejected(self, fig1):
        with pytest.raises(WalkError):
            energy_level(fig1, ["loop"])  # loop starts at q1, not q0

    def test_unknown_edge_rejected(self, fig1):
        with pytest.raises(WalkError):
            energy_level(fig1, ["nope"])

    def test_additive_over_splits(self):
        rng = random.Random(42)
        for _ in range(40):
            g = rand_game(rng)
            walk = random_walk(g, rng, rng.randint(0, 8))
            full = energy_level(g, walk)
            for i in range(len(walk) + 1):
                head = energy_level(g, walk[:i])
                tail_sum = [0] * g.dimension
                for eid in walk[i:]:
                    tail_sum = [x + w for x, w in zip(tail_sum, g.edge_by_id[eid].weight)]
                assert tuple([x + y for x, y in zip(head, tail_sum)]) == full


class TestShiftScale:
    def test_fig2_shift(self, fig2):
        shifted = shift_weights(fig2, (1, 1))
        assert shifted.edge_by_id["loopa"].weight == (1, -1)
        assert shifted.edge_by_id["ab"].weight == (-1, -1)

    def test_zero_shift_identity(self, fig2):
        assert games_equal(shift_weights(fig2, (0, 0)), fig2)

    def test_shift_composes(self, fig1):
        a = shift_weights(shift_weights(fig1, (1, 2)), (3, -1))
        b = shift_weights(fig1, (4, 1))
        assert games_equal(a, b)

    def test_shift_dimension_mismatch(self, fig2):
        with pytest.raises(DimensionError):
            shift_weights(fig2, (1,))

    def test_mean_payoff_shifts(self):
        rng = random.Random(13)
        for _ in range(30):
            g = rand_game(rng)
            v = tuple(rng.randint(-2, 2) for _ in range(g.dimension))
            lasso = random_lasso(g, rng)
            before = cycle_mean(g, lasso)
            after = cycle_mean(shift_weights(g, v), lasso)
            assert after == tuple(x - c for x, c in zip(before, v))

    def test_scale_identity(self, fig1):
        assert games_equal(scale_weights(fig1, 1), fig1)

    def test_scale_fig1_by_two(self, fig1):
        assert scale_weights(fig1, 2).edge_by_id["to_q1"].weight == (-4, 0)

    def test_scale_rejects_nonpositive(self, fig1):
        with pytest.raises(ValueError):
            scale_weights(fig1, 0)
        with pytest.raises(ValueError):
            scale_weights(fig1, -3)


class TestStrategiesAndProduct:
    def test_fig1_left_choice_hides_q2(self, fig1):
        lam2 = MemorylessStrategy(2, {"q0": "to_q1"})
        p = product_with_strategy(fig1, lam2)
        assert all(s != "q2" for _, s in p.vertices)
        assert len(p.vertices) == 2

    def test_alternating_product_size(self, fig1):
        p = product_with_strategy(fig1, alternating_fig1_strategy())
        assert len(p.vertices) <= 6
        assert p.source == ("ma", "q0")

    def test_memoryless_product_matches_reachable(self, fig1):
        lam2 = MemorylessStrategy(2, {"q0": "to_q2"})
        p = product_with_strategy(fig1, lam2)
        assert sorted(s for _, s in p.vertices) == ["q0", "q2"]

    def test_owned_vertices_have_out_degree_one(self):
        rng = random.Random(5)
        for _ in range(25):
            g = rand_game(rng)
            for player in (1, 2):
                choice = {sid: g.out_edges(sid)[0].id for sid in g.states_of(player)}
                p = product_with_strategy(g, MemorylessStrategy(player, choice))
                outdeg = {v: 0 for v in p.vertices}
                for e in p.edges:
                    outdeg[e.src] += 1
                for m, sid in p.vertices:
                    if g.owner(sid) == player:
                        assert outdeg[(m, sid)] == 1

    def test_product_edges_project_to_game_edges(self, fig1):
        p = product_with_strategy(fig1, alternating_fig1_strategy())
        for e in p.edges:
            game_edge = fig1.edge_by_id[e.id[1]]
            assert e.weight == game_edge.weight
            assert e.src[1] == game_edge.src
            assert e.dst[1] == game_edge.dst

    def test_check_strategy_rejects_partial_domain(self, fig1):
        with pytest.raises(StrategyError):
            check_strategy(fig1, MemorylessStrategy(1, {"q1": "loop"}))

    def test_check_strategy_rejects_foreign_edge(self, fig1):
        with pytest.raises(StrategyError):
            check_strategy(fig1, MemorylessStrategy(2, {"q0": "loop"}))

    def test_check_strategy_rejects_partial_update(self, fig1):
        s = alternating_fig1_strategy()
        broken = MooreStrategy(1, s.memory, s.initial, dict(s.update), dict(s.action))
        del broken.update[("ma", "q0")]
        with pytest.raises(StrategyError):
            check_strategy(fig1, broken)

    def test_as_moore_round_trip(self, fig1):
        lam2 = MemorylessStrategy(2, {"q0": "to_q1"})
        moore = as_moore(fig1, lam2)
        assert len(moore.memory) == 1
        check_strategy(fig1, moore)
        assert lam2 == MemorylessStrategy(2, {"q0": "to_q1"})
        assert lam2 != MemorylessStrategy(2, {"q0": "to_q2"})

