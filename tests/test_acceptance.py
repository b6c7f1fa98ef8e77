"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime. Budgets are asserted, not aspirational; the random
corpora are seeded so runs are reproducible.
"""

import itertools
import random
import time

from mwg import (
    circuit_weight,
    clamped_fixed_credit_oracle,
    encode_3sat_memoryless,
    encode_3sat_two_player,
    encode_knapsack,
    nonnegative_circuit,
    scale_weights,
    solve_memoryless_p1_energy,
    solve_unknown_credit,
    validate_circuit,
    verify_p2_cover,
    verify_p2_spoiler,
    write_certificate,
    write_game,
    zero_circuit,
)
from mwg.cli import main
from conftest import FIXTURES
from test_solvers import fixed_graph
from oracles import (
    bounded_circulation_oracle,
    enumerate_p2_memoryless,
    knapsack_brute_force,
    rand_cnf,
    rand_game,
    rand_knapsack,
    rand_multigraph,
    reachable_part,
    truth_table_satisfiable,
    value_iteration_energy,
)

FIG1 = str(FIXTURES / "fig1.mwg")
FIG2 = str(FIXTURES / "fig2.mwg")


def report(n, label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {n} blew its {budget}s budget: {elapsed:.1f}s"
    print(f"criterion {n} ({label}): PASS in {elapsed:.2f}s")


def test_criterion_1_fig1_regression(capsys, fig1):
    t0 = time.perf_counter()
    assert main(["solve", "energy", FIG1]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "YES"
    spoilers = list(enumerate_p2_memoryless(fig1))
    assert len(spoilers) == 2
    for lam2 in spoilers:
        assert not verify_p2_spoiler(fig1, lam2)
    assert not clamped_fixed_credit_oracle(fig1, (2, 0), 4)
    assert clamped_fixed_credit_oracle(fig1, (2, 1), 4)
    with capsys.disabled():
        report(1, "figure 1 regression", t0, 1.0)


def test_criterion_2_fig2_regression(capsys):
    t0 = time.perf_counter()
    assert main(["solve", "mp", FIG2, "--threshold", "1,1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "NO"
    assert main(["solve", "mp", FIG2, "--threshold", "2,0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "YES"
    with capsys.disabled():
        report(2, "figure 2 regression", t0, 1.0)


def test_criterion_3_3sat_two_player_equivalence(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1003)
    for _ in range(200):
        f = rand_cnf(rng, max_vars=4, max_clauses=8)
        g = encode_3sat_two_player(f)
        verdict = solve_unknown_credit(g)
        satisfiable = truth_table_satisfiable(f) is not None
        assert verdict.answer == (not satisfiable), f
        if verdict.answer:
            assert verify_p2_cover(g, verdict.cover), f
    with capsys.disabled():
        report(3, "200 3-CNFs, two-player", t0, 120.0)


def test_criterion_4_knapsack_equivalence(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1004)
    for _ in range(200):
        inst = rand_knapsack(rng, max_items=10, max_value=10)
        verdict = solve_memoryless_p1_energy(encode_knapsack(inst))
        assert verdict.answer == (knapsack_brute_force(inst) is not None), inst
    with capsys.disabled():
        report(4, "200 knapsack instances", t0, 120.0)


def test_criterion_5_3sat_memoryless_equivalence(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1005)
    for _ in range(200):
        f = rand_cnf(rng, max_vars=4, max_clauses=8)
        verdict = solve_memoryless_p1_energy(encode_3sat_memoryless(f))
        assert verdict.answer == (truth_table_satisfiable(f) is not None), f
    with capsys.disabled():
        report(5, "200 3-CNFs, memoryless", t0, 120.0)


def test_criterion_6_circuit_oracle_suite(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1006)
    for _ in range(500):
        g = rand_multigraph(rng, max_vertices=4, max_edges=6, max_k=3, lo=-2, hi=2)
        witness = bounded_circulation_oracle(g, 12, "zero")
        found = zero_circuit(g)
        if witness is not None:
            assert found is not None, g
        if found is not None:
            validate_circuit(g, found)
            assert circuit_weight(g, found) == (0,) * g.dimension
        sub = reachable_part(g, "v0")
        witness = bounded_circulation_oracle(sub, 12, "nonnegative")
        found = nonnegative_circuit(g, "v0")
        if witness is not None:
            assert found is not None, g
        if found is not None:
            validate_circuit(g, found)
            assert all(x >= 0 for x in circuit_weight(g, found))
    with capsys.disabled():
        report(6, "500 multigraphs vs oracle", t0, 300.0)


def test_criterion_7_certificate_closure(capsys, tmp_path):
    t0 = time.perf_counter()
    rng = random.Random(1007)
    game_file = tmp_path / "game.mwg"
    cert_file = tmp_path / "spoiler.cert"
    for _ in range(200):
        g = rand_game(rng, max_states=5, max_edges=8, max_k=3)
        v = solve_unknown_credit(g)
        if v.answer:
            assert verify_p2_cover(g, v.cover), g
            for lam2, circuit in v.witnesses:
                sub = reachable_part(fixed_graph(g, lam2), g.init)
                validate_circuit(sub, circuit)
                assert all(x >= 0 for x in circuit_weight(sub, circuit))
        else:
            game_file.write_text(write_game(g))
            cert_file.write_text(write_certificate(v.spoiler))
            assert main(["check", "p2", str(game_file), str(cert_file)]) == 0
            assert capsys.readouterr().out.splitlines()[0] == "YES"
    with capsys.disabled():
        report(7, "200 games, certificate closure", t0, 300.0)


def test_criterion_8_scalar_sanity(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1008)
    for _ in range(200):
        g = rand_game(rng, max_states=5, max_edges=8, max_k=1)
        assert solve_unknown_credit(g).answer == value_iteration_energy(g), g
    with capsys.disabled():
        report(8, "200 scalar games vs value iteration", t0, 300.0)


def test_criterion_9_scaling_and_monotonicity(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1009)
    for _ in range(120):
        g = rand_game(rng, max_states=4, max_edges=7, max_k=3)
        base = solve_unknown_credit(g).answer
        for c in (2, 3):
            assert solve_unknown_credit(scale_weights(g, c)).answer == base, g
        if solve_memoryless_p1_energy(g).answer:
            assert base, g
    for _ in range(25):
        g = rand_game(rng, max_states=3, max_edges=5, max_k=2, lo=-1, hi=1)
        cap = 2
        wins = {
            v0: clamped_fixed_credit_oracle(g, v0, cap)
            for v0 in itertools.product(range(cap + 1), repeat=g.dimension)
        }
        for v0, won in wins.items():
            if not won:
                continue
            assert clamped_fixed_credit_oracle(g, v0, cap + 1), g
            for v1 in wins:
                if all(a <= b for a, b in zip(v0, v1)):
                    assert wins[v1], (g, v0, v1)
    with capsys.disabled():
        report(9, "scaling and monotonicity", t0, 300.0)
