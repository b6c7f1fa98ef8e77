
import subprocess
import sys

import pytest

from mwg import cli, graphs, model, parse_game, solvers, write_certificate
from mwg.cli import main
from conftest import FIXTURES, fixture_text
from test_model import alternating_fig1_strategy

FIG1 = str(FIXTURES / "fig1.mwg")
FIG2 = str(FIXTURES / "fig2.mwg")
CLAUSE1 = str(FIXTURES / "clause1.cnf")
UNSAT8 = str(FIXTURES / "unsat8.cnf")
KNAP2 = str(FIXTURES / "knap2.kp")
CLAUSE1_2P = str(FIXTURES / "clause1_2p.mwg")
KNAP2_GAME = str(FIXTURES / "knap2_game.mwg")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_energy_fig1_yes(self, capsys):
        code, out, err = run(capsys, "solve", "energy", FIG1)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "YES"
        assert lines[1].startswith("credit (")

    def test_mp_fig2_thresholds(self, capsys):
        code, out, _ = run(capsys, "solve", "mp", FIG2, "--threshold", "1,1")
        assert code == 0 and out.splitlines()[0] == "NO"
        code, out, _ = run(capsys, "solve", "mp", FIG2, "--threshold", "2,0")
        assert code == 0 and out.splitlines()[0] == "YES"

    def test_mp_rational_threshold(self, capsys):
        code, out, _ = run(capsys, "solve", "mp", FIG2, "--threshold", "1/2,1/2")
        assert code == 0 and out.splitlines()[0] == "YES"

    def test_memoryless_energy_prints_strategy(self, capsys):
        code, out, _ = run(capsys, "solve", "memoryless-energy", KNAP2_GAME)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "YES"
        assert any(line == "choose i2 take2" for line in lines)
        assert lines[-1].startswith("credit (")

    def test_memoryless_mp_unsat(self, capsys, tmp_path):
        encoded = tmp_path / "unsat.mwg"
        assert main(["encode", "3sat-memoryless", UNSAT8]) == 0
        encoded.write_text(capsys.readouterr().out)
        code, out, _ = run(capsys, "solve", "memoryless-mp", str(encoded), "--threshold", ",".join(["0"] * 8))
        assert code == 0 and out.splitlines()[0] == "NO"

    def test_missing_file_exits_3(self, capsys):
        code, out, err = run(capsys, "solve", "energy", "missing.mwg")
        assert code == 3
        assert out == ""
        assert "missing.mwg" in err

    def test_undecodable_game_names_the_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.mwg"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "solve", "energy", str(bad))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")

    def test_parse_error_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.mwg"
        bad.write_text("mwg 2\n")
        code, _, err = run(capsys, "solve", "energy", str(bad))
        assert code == 3
        assert "error" in err

    def test_invalid_game_exits_3(self, capsys, tmp_path):
        sink = tmp_path / "sink.mwg"
        sink.write_text("mwg 1\ndimension 1\nstate a owner=1 init\nstate b owner=1\nedge e a b w=(0)\n")
        code, _, err = run(capsys, "solve", "energy", str(sink))
        assert code == 3
        assert "invalid game" in err

    def test_invalid_game_message_is_the_same_for_every_command(self, capsys, tmp_path):
        game = tmp_path / "bad.mwg"
        game.write_text("mwg 1\ndimension 1\nstate a owner=1 init\nstate b owner=1\nedge e a b w=(0)\nedge e b a w=(0)\n")
        want = f"error: {game}: invalid game: edge-id-unique (e): duplicate edge id\n"
        for argv in (
            ["solve", "energy", str(game)],
            ["solve", "memoryless-mp", str(game), "--threshold", "0"],
            ["oracle", "fixed-credit", str(game), "--credit", "0", "--cap", "1"],
            ["check", "p2", str(game), str(game)],
            ["circuit", "zero", str(game)],
        ):
            assert run(capsys, *argv) == (3, "", want)

    def test_missing_threshold_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "mp", FIG2)
        assert code == 2
        assert "--threshold" in err

    def test_malformed_threshold_usage_error(self, capsys):
        code, _, _ = run(capsys, "solve", "mp", FIG2, "--threshold", "0.5,1")
        assert code == 2

    def test_unknown_variant_usage_error(self, capsys):
        code, _, _ = run(capsys, "solve", "parity", FIG1)
        assert code == 2

    def test_no_arguments_usage_error(self, capsys):
        assert run(capsys, )[0] == 2


class TestNoSpoilerPipeline:
    def test_no_verdict_spoiler_checks(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve", "energy", CLAUSE1_2P)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "NO"
        cert = tmp_path / "spoiler.cert"
        cert.write_text("\n".join(lines[1:]) + "\n")
        code, out, _ = run(capsys, "check", "p2", CLAUSE1_2P, str(cert))
        assert code == 0
        assert out.splitlines()[0] == "YES"


class TestCheck:
    def test_p1_accepts_alternating(self, capsys, tmp_path):
        cert = tmp_path / "alt.cert"
        cert.write_text(write_certificate(alternating_fig1_strategy()))
        code, out, _ = run(capsys, "check", "p1", FIG1, str(cert))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "YES"
        assert lines[1] == "credit (3,0)"

    @pytest.mark.parametrize("declared, verdict", [
        ("(15,15)", "YES"), ("(0,2)", "YES"), ("(0,1)", "NO"), ("(0,0)", "NO"), (None, "YES"),
    ])
    def test_p1_declared_credit_must_dominate_the_least(self, capsys, tmp_path, declared, verdict):
        # The knapsack strategy that `solve memoryless-energy` prints
        # declares the n*W credit (15,15); it needs only (0,2).
        code, out, _ = run(capsys, "solve", "memoryless-energy", KNAP2_GAME)
        body = [line for line in out.splitlines()[1:] if not line.startswith("credit")]
        assert out.splitlines()[-1] == "credit (15,15)"
        cert = tmp_path / "knap.cert"
        cert.write_text("\n".join(body + ([f"credit {declared}"] if declared else [])) + "\n")
        code, out, _ = run(capsys, "check", "p1", KNAP2_GAME, str(cert))
        assert code == 0
        assert out.splitlines() == ([verdict, "credit (0,2)"] if verdict == "YES" else [verdict])

    def test_undecodable_certificate_names_the_file(self, capsys, tmp_path):
        cert = tmp_path / "bad.cert"
        cert.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "check", "p2", FIG1, str(cert))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot read {cert}: 'utf-8' codec can't decode byte 0xff")

    def test_p1_declared_credit_of_another_dimension_exits_3(self, capsys, tmp_path):
        cert = tmp_path / "alt.cert"
        cert.write_text(write_certificate(alternating_fig1_strategy(), (3, 0, 0)))
        code, out, err = run(capsys, "check", "p1", FIG1, str(cert))
        assert (code, out) == (3, "")
        assert "credit has 3 components, expected 2" in err

    def test_p1_rejects_constant_return(self, capsys, tmp_path):
        cert = tmp_path / "bad.cert"
        cert.write_text("choose q1 loop\nchoose q2 ret_a\n")
        code, out, _ = run(capsys, "check", "p1", FIG1, str(cert))
        assert code == 0
        assert out.splitlines()[0] == "NO"

    def test_p2_rejects_left(self, capsys, tmp_path):
        cert = tmp_path / "left.cert"
        cert.write_text("choose q0 to_q1\n")
        code, out, _ = run(capsys, "check", "p2", FIG1, str(cert))
        assert code == 0
        assert out.splitlines()[0] == "NO"

    def test_p2_moore_certificate_rejected(self, capsys, tmp_path):
        cert = tmp_path / "moore.cert"
        cert.write_text(write_certificate(alternating_fig1_strategy()))
        code, _, err = run(capsys, "check", "p2", FIG1, str(cert))
        assert code == 3
        assert "memoryless" in err

    def test_missing_action_names_the_first_state(self, tmp_path):
        # Strategy checks walk states in game order, so the error names
        # the same state whatever the interpreter's hash seed.
        cert = tmp_path / "empty.cert"
        cert.write_text("")
        errors = set()
        for seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-m", "mwg", "check", "p1", FIG1, str(cert)],
                capture_output=True, text=True,
                env={"PYTHONPATH": str(FIXTURES.parent / "src"), "PYTHONHASHSEED": seed},
            )
            assert done.returncode == 3
            errors.add(done.stderr)
        assert errors == {"error: action is not total: missing ('m0', 'q1')\n"}

    def test_p1_choice_at_a_player2_state_exits_3(self, capsys, tmp_path):
        game = tmp_path / "ab.mwg"
        game.write_text(
            "mwg 1\ndimension 1\nstate a owner=1 init\nstate b owner=2\nedge s a b w=(0)\nedge t b a w=(0)\n"
        )
        cert = tmp_path / "p2choice.cert"
        cert.write_text("choose a s\nchoose b t\n")
        code, out, err = run(capsys, "check", "p1", str(game), str(cert))
        assert (code, out) == (3, "")
        assert "('m0', 'b')" in err

    def test_p1_action_at_an_unknown_state_exits_3(self, capsys, tmp_path):
        cert = tmp_path / "next.cert"
        cert.write_text(write_certificate(alternating_fig1_strategy()) + "next ma zz -> loop\n")
        code, out, err = run(capsys, "check", "p1", FIG1, str(cert))
        assert (code, out) == (3, "")
        assert "('ma', 'zz')" in err

    def test_p1_update_at_an_unknown_state_exits_3(self, capsys, tmp_path):
        cert = tmp_path / "update.cert"
        cert.write_text(write_certificate(alternating_fig1_strategy()) + "update mb ghost -> ma\n")
        code, out, err = run(capsys, "check", "p1", FIG1, str(cert))
        assert (code, out) == (3, "")
        assert "('mb', 'ghost')" in err

    def test_foreign_certificate_exits_3(self, capsys, tmp_path):
        cert = tmp_path / "foreign.cert"
        cert.write_text("choose nowhere nothing\n")
        code, _, _ = run(capsys, "check", "p2", FIG1, str(cert))
        assert code == 3


class TestEncode:
    def test_3sat_matches_fixture(self, capsys):
        code, out, _ = run(capsys, "encode", "3sat", CLAUSE1)
        assert code == 0
        assert out == fixture_text("clause1_2p.mwg")

    def test_3sat_memoryless_matches_fixture(self, capsys):
        code, out, _ = run(capsys, "encode", "3sat-memoryless", CLAUSE1)
        assert code == 0
        assert out == fixture_text("clause1_memoryless.mwg")

    def test_knapsack_matches_fixture(self, capsys):
        code, out, _ = run(capsys, "encode", "knapsack", KNAP2)
        assert code == 0
        assert out == fixture_text("knap2_game.mwg")

    def test_encoded_game_solvable(self, capsys, tmp_path):
        code, out, _ = run(capsys, "encode", "3sat", UNSAT8)
        game = tmp_path / "unsat8.mwg"
        game.write_text(out)
        code, out, _ = run(capsys, "solve", "energy", str(game))
        assert code == 0
        assert out.splitlines()[0] == "YES"

    def test_bad_dimacs_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 1 1\n1 1 0\n")
        code, _, err = run(capsys, "encode", "3sat", str(bad))
        assert code == 3


class TestCircuit:
    def test_nonneg_fig2(self, capsys):
        code, out, _ = run(capsys, "circuit", "nonneg", FIG2)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "YES"
        assert lines[1].startswith("circuit ")

    def test_zero_fig2(self, capsys):
        code, out, _ = run(capsys, "circuit", "zero", FIG2)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "YES"
        edges = lines[1].split()[1:]
        assert set(edges) <= {"ab", "ba", "loopa", "loopb"}

    def test_zero_absent(self, capsys, tmp_path):
        game = tmp_path / "neg.mwg"
        game.write_text("mwg 1\ndimension 1\nstate a owner=1 init\nedge e a a w=(-1)\n")
        code, out, _ = run(capsys, "circuit", "zero", str(game))
        assert code == 0
        assert out == "NO\n"


@pytest.mark.parametrize("mode", ["zero", "nonneg"])
@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.mwg")), ids=lambda p: p.name)
def test_circuit_witness_on_every_fixture(capsys, path, mode):
    """A printed walk is a circuit of the game weighing 0 in every
    dimension (zero), or at least 0 and reachable from init (nonneg)."""
    code, out, _ = run(capsys, "circuit", mode, str(path))
    assert code == 0
    if out == "NO\n":
        return
    verdict, line = out.splitlines()
    assert verdict == "YES" and line.startswith("circuit ")
    g = parse_game(path.read_text())
    mg = solvers.as_multigraph(g)
    c = graphs.Circuit.from_walk(line.split()[1:])
    graphs.validate_circuit(mg, c)
    weight = graphs.circuit_weight(mg, c)
    if mode == "zero":
        assert all(w == 0 for w in weight)
    else:
        assert all(w >= 0 for w in weight)
        first = g.edge_by_id[c.edges[0]].src
        assert first in graphs.reachable(g.init, lambda s: [(None, e.dst) for e in g.out_edges(s)])


class TestOracle:
    def test_fig1_credit_thresholds(self, capsys):
        code, out, _ = run(capsys, "oracle", "fixed-credit", FIG1, "--credit", "2,0", "--cap", "4")
        assert code == 0 and out == "NO\n"
        code, out, _ = run(capsys, "oracle", "fixed-credit", FIG1, "--credit", "2,1", "--cap", "4")
        assert code == 0 and out == "YES\n"

    def test_cap_too_small_exits_3(self, capsys):
        code, _, err = run(capsys, "oracle", "fixed-credit", FIG1, "--credit", "2,1", "--cap", "1")
        assert code == 3

    def test_malformed_credit_usage_error(self, capsys):
        code, _, _ = run(capsys, "oracle", "fixed-credit", FIG1, "--credit", "a,b", "--cap", "4")
        assert code == 2

    @pytest.mark.parametrize("credit", ["1_0,+2", "2,\u0661", "2,", " 2 , 1e0"])
    def test_credit_components_are_ascii_integers(self, capsys, credit):
        code, _, err = run(capsys, "oracle", "fixed-credit", FIG1, "--credit", credit, "--cap", "4")
        assert code == 2
        assert f"malformed credit {credit!r}, expected comma-separated integers" in err

    def test_credit_components_may_be_padded(self, capsys):
        code, out, _ = run(capsys, "oracle", "fixed-credit", FIG1, "--credit", " 2 , 1", "--cap", "4")
        assert code == 0 and out == "YES\n"

    def test_missing_cap_usage_error(self, capsys):
        code, _, _ = run(capsys, "oracle", "fixed-credit", FIG1, "--credit", "2,1")
        assert code == 2


def test_solve_and_oracle_validate_the_game_once(capsys, monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return model.validate_game(g)

    monkeypatch.setattr(cli, "validate_game", counted)
    monkeypatch.setattr(solvers, "validate_game", counted)
    for argv in (
        ["solve", "energy", FIG1],
        ["solve", "mp", FIG2, "--threshold", "1,1"],
        ["solve", "memoryless-energy", KNAP2_GAME],
        ["solve", "memoryless-mp", FIG2, "--threshold", "0,0"],
        ["oracle", "fixed-credit", FIG1, "--credit", "2,1", "--cap", "4"],
    ):
        calls.clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == 1, argv


def test_verdict_lines_are_exact(capsys):
    # Machine-parseable contract: first line is exactly YES or NO.
    for argv in (
        ["solve", "energy", FIG1],
        ["solve", "mp", FIG2, "--threshold", "1,1"],
        ["circuit", "zero", FIG2],
        ["oracle", "fixed-credit", FIG1, "--credit", "2,1", "--cap", "4"],
    ):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] in ("YES", "NO")
        assert out.startswith(("YES\n", "NO\n"))
