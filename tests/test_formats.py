import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwg import (
    MemorylessStrategy,
    ParseError,
    parse_certificate,
    parse_dimacs,
    parse_game,
    parse_knapsack,
    parse_threshold,
    validate_game,
    write_certificate,
    write_game,
)
from conftest import fixture_text
from oracles import games_equal, rand_game, truth_table_satisfiable
from test_model import alternating_fig1_strategy


class TestGameRoundTrip:
    def test_fig1_parses_and_validates(self, fig1):
        assert validate_game(fig1) == []
        assert len(fig1.edges) == 5
        assert fig1.edge_by_id["ret_a"].weight == (-1, 1)
        assert fig1.edge_by_id["ret_b"].weight == (1, -1)

    def test_write_parse_structural_equality(self, fig1, fig2):
        for g in (fig1, fig2):
            assert games_equal(parse_game(write_game(g)), g)

    def test_write_deterministic(self, fig2):
        assert write_game(fig2) == write_game(fig2)

    def test_canonical_fixtures_byte_stable(self):
        for name in ("clause1_2p.mwg", "clause1_memoryless.mwg", "knap2_game.mwg"):
            text = fixture_text(name)
            assert write_game(parse_game(text)) == text

    def test_non_canonical_order_normalizes(self, fig2):
        shuffled = "\n".join(
            [
                "mwg 1",
                "dimension 2",
                "state qb owner=1",
                "state qa owner=1 init",
                "edge loopb qb qb w=(0,2)",
                "edge ab qa qb w=(0,0)",
                "edge loopa qa qa w=(2,0)",
                "edge ba qb qa w=(0,0)",
                "",
            ]
        )
        g = parse_game(shuffled)
        assert games_equal(g, fig2)
        assert write_game(g) == write_game(fig2)

    def test_random_games_round_trip(self):
        rng = random.Random(89)
        for _ in range(30):
            g = rand_game(rng)
            assert games_equal(parse_game(write_game(g)), g)

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "mwg 1\n# a comment\ndimension 1\n\n"
            "state a owner=1 init # trailing comment\n"
            "edge e a a w=(0)\n"
        )
        g = parse_game(text)
        assert g.init == "a" and len(g.edges) == 1


class TestGameParseErrors:
    def check(self, text, fragment, line=None):
        with pytest.raises(ParseError) as err:
            parse_game(text)
        assert fragment in str(err.value)
        if line is not None:
            assert err.value.line == line

    def test_missing_header(self):
        self.check("dimension 1\n", "mwg 1", line=1)

    def test_bad_dimension(self):
        self.check("mwg 1\ndimension zero\n", "dimension", line=2)

    def test_no_initial_state(self):
        self.check(
            "mwg 1\ndimension 1\nstate a owner=1\nedge e a a w=(0)\n",
            "no initial state",
        )

    def test_double_init(self):
        self.check(
            "mwg 1\ndimension 1\nstate a owner=1 init\nstate b owner=2 init\n",
            "second state marked init",
            line=4,
        )

    def test_bad_owner(self):
        self.check("mwg 1\ndimension 1\nstate a owner=3 init\n", "owner", line=3)

    def test_malformed_weight(self):
        self.check(
            "mwg 1\ndimension 1\nstate a owner=1 init\nedge e a a w=(x)\n",
            "weight",
            line=4,
        )

    def test_state_after_edge(self):
        self.check(
            "mwg 1\ndimension 1\nstate a owner=1 init\nedge e a a w=(0)\nstate b owner=1\n",
            "state line after edge lines",
            line=5,
        )

    def test_unknown_directive(self):
        self.check("mwg 1\ndimension 1\nplayer a\n", "unknown directive", line=3)

    def test_arity_mismatch_is_validation_not_parse(self):
        g = parse_game("mwg 1\ndimension 2\nstate a owner=1 init\nedge e a a w=(1)\n")
        assert any(v.subject == "e" for v in validate_game(g))


class TestDimacs:
    def test_single_clause(self, clause1):
        assert clause1.variables == 3
        assert clause1.clauses == ((1, 2, 3),)

    def test_non_3sat_rejected(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 2 0\n")

    def test_unsat8_is_unsatisfiable(self, unsat8):
        assert len(unsat8.clauses) == 8
        assert truth_table_satisfiable(unsat8) is None

    def test_comments_allowed(self):
        f = parse_dimacs("c comment\np cnf 2 1\nc another\n-1 2 2 0\n")
        assert f.clauses == ((-1, 2, 2),)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("1 2 3 0\n")

    def test_out_of_range_variable(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 2 3 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 3 2\n1 2 3 0\n")

    def test_percent_line_ends_formula(self):
        # SATLIB files close with `%` and a stray `0`.
        f = parse_dimacs("p cnf 3 1\n1 -2 3 0\n%\n0\n")
        assert f.clauses == ((1, -2, 3),)


class TestKnapsackFormat:
    def test_fixture_values(self, knap2):
        assert knap2.items == ((2, 1), (3, 2))
        assert knap2.bound == 2
        assert knap2.target == 3

    def test_missing_bound(self):
        with pytest.raises(ParseError) as err:
            parse_knapsack("item 1 1\ntarget 1\n")
        assert "bound" in str(err.value)

    def test_negative_value_rejected(self):
        with pytest.raises(ParseError):
            parse_knapsack("item 1 -1\nbound 1\ntarget 1\n")

    def test_duplicate_target_rejected(self):
        with pytest.raises(ParseError):
            parse_knapsack("item 1 1\nbound 1\ntarget 1\ntarget 2\n")

    def test_no_items_rejected(self):
        with pytest.raises(ParseError):
            parse_knapsack("bound 1\ntarget 1\n")


class TestCertificates:
    def test_memoryless_round_trip(self):
        s = MemorylessStrategy(2, {"q0": "to_q1", "z9": "loop"})
        text = write_certificate(s, credit=None)
        parsed, credit = parse_certificate(text, 2)
        assert parsed == s
        assert credit is None
        assert write_certificate(parsed) == text

    def test_moore_round_trip_with_credit(self):
        s = alternating_fig1_strategy()
        text = write_certificate(s, credit=(12, 12))
        parsed, credit = parse_certificate(text, 1)
        assert parsed == s
        assert credit == (12, 12)
        assert write_certificate(parsed, credit) == text

    def test_empty_certificate_is_empty_strategy(self):
        parsed, credit = parse_certificate("", 2)
        assert isinstance(parsed, MemorylessStrategy)
        assert parsed.choice == {} and credit is None

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ParseError):
            parse_certificate("choose a e\nmemory m0\n", 1)

    def test_machine_without_initial_rejected(self):
        with pytest.raises(ParseError):
            parse_certificate("memory m0\nnext m0 a -> e\n", 1)

    def test_undeclared_memory_rejected(self):
        with pytest.raises(ParseError):
            parse_certificate("memory m0\ninitial m0\nupdate m0 a -> m1\n", 1)

    def test_bad_credit_rejected(self):
        with pytest.raises(ParseError):
            parse_certificate("choose a e\ncredit (1,)\n", 1)

    def test_duplicate_choose_rejected(self):
        with pytest.raises(ParseError):
            parse_certificate("choose a e\nchoose a f\n", 1)

    def test_unknown_directive_rejected(self):
        with pytest.raises(ParseError):
            parse_certificate("pick a e\n", 1)


class TestThreshold:
    def test_integers(self):
        assert parse_threshold("1,1") == (Fraction(1), Fraction(1))

    def test_rationals(self):
        assert parse_threshold("1/2,0,-3/4") == (
            Fraction(1, 2),
            Fraction(0),
            Fraction(-3, 4),
        )

    def test_whitespace_tolerated(self):
        assert parse_threshold(" 2 , -1 ") == (Fraction(2), Fraction(-1))

    def test_decimal_rejected(self):
        with pytest.raises(ParseError):
            parse_threshold("0.5,1")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_threshold("1/0")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_threshold("")

    def test_error_column_is_where_the_component_starts(self):
        with pytest.raises(ParseError, match="line 1, column 4"):
            parse_threshold("1, 0.5")
        with pytest.raises(ParseError, match="line 1, column 7"):
            parse_threshold(" 2 ,  x")


PARSERS = {
    "game": parse_game,
    "dimacs": parse_dimacs,
    "knapsack": parse_knapsack,
    "cert": lambda text: parse_certificate(text, 1),
}


class TestErrorPositions:
    """The exact error text, position included, of malformed inputs: tabs
    and \\x1f between tokens, `#` comments (none in DIMACS), a problem
    found only at the end of each kind of file, and digits outside ASCII,
    which no integer of the formats takes."""

    @pytest.mark.parametrize(
        "parser, text, expected",
        [
            ('game', '', "line 1, column 1: missing header 'mwg 1'"),
            ('game', 'mwg 2\n', "line 1, column 1: expected header 'mwg 1'"),
            ('game', 'mwg 1\n', "line 2, column 1: missing 'dimension <k>' line"),
            ('game', 'mwg 1\ndimension\t0\n', 'line 2, column 11: dimension must be a positive integer'),
            ('game', 'mwg 1\ndimension 1\nstate a\x1fowner=3 init\n', "line 3, column 9: malformed owner 'owner=3', expected owner=1 or owner=2"),
            ('game', 'mwg 1\ndimension 1\nstate a owner=1 init\nedge e a a w=(1,)\n', "line 4, column 12: malformed weight 'w=(1,)', expected w=(<int>,...)"),
            ('game', 'mwg 1\ndimension \u0661\n', 'line 2, column 11: dimension must be a positive integer'),
            ('game', 'mwg 1\ndimension 1\nstate a owner=1 init\nedge e a a w=(\u0663)\n', "line 4, column 12: malformed weight 'w=(\u0663)', expected w=(<int>,...)"),
            ('game', 'mwg 1\ndimension 1\nstate a owner=1 init\n  edge e a a # w=(1)\n', "line 4, column 3: expected 'edge <id> <src> <dst> w=(...)'"),
            ('game', 'mwg 1\ndimension 1\nstate a owner=1\n', 'line 4, column 1: no initial state'),
            ('game', 'mwg 1\ndimension 1\nstate a owner=1 init\nstate b owner=2 initial\n', "line 4, column 17: unexpected token 'initial'"),
            ('dimacs', 'p cnf 3 1\n1 2 3 0 # x\n', "line 2, column 9: malformed literal '#'"),
            ('dimacs', 'c only\n', "line 2, column 1: missing 'p cnf' header"),
            ('dimacs', 'p cnf 3 1\n1 2\t-4 0\n', 'line 2, column 5: variable 4 out of range 1..3'),
            ('dimacs', 'p cnf 3 1\n1 2 3\n', 'line 2, column 5: unterminated clause (missing 0)'),
            ('dimacs', 'p cnf 3 2\n1 2 3 0\n', 'line 1, column 1: header promises 2 clauses, found 1'),
            ('dimacs', '  p cnf 3 2\n1 2 3 0\n', 'line 1, column 3: header promises 2 clauses, found 1'),
            ('dimacs', 'p cnf 3 1\n1 2 \u0663 0\n', "line 2, column 5: malformed literal '\u0663'"),
            ('dimacs', 'p cnf \u0663 1\n', "line 1, column 7: malformed count '\u0663'"),
            ('dimacs', 'p cnf 3 1\n1 2 0\n', 'line 2, column 5: clause has 2 literals, expected 3'),
            ('dimacs', '  1 2 3 0\np cnf 3 1\n', "line 1, column 3: clause before 'p cnf' header"),
            ('dimacs', 'p cnf x 1\n', "line 1, column 7: malformed count 'x'"),
            ('knapsack', 'item 1\x0b2\nbound 1\ntarget 1\n', "line 1, column 1: expected 'item <profit> <weight>'"),
            ('knapsack', 'item 1 -1\n', "line 1, column 8: expected a nonnegative integer, got '-1'"),
            ('knapsack', 'item 1 \u0662\n', "line 1, column 8: expected a nonnegative integer, got '\u0662'"),
            ('knapsack', 'item 1 1\nbound 1\n', 'line 3, column 1: no target line'),
            ('knapsack', 'item 1 1\nbound 1\nbound 2 # again\ntarget 1\n', 'line 3, column 1: duplicate bound line'),
            ('cert', 'memory m0\ninitial m0\nupdate m0 a -> m1\n', "line 3, column 16: update line references undeclared memory 'm1'"),
            ('cert', 'memory m0\ninitial m1\n', "line 2, column 9: initial line references undeclared memory 'm1'"),
            ('cert', 'memory m0\ninitial m0\nnext m9 a -> e\n', "line 3, column 6: next line references undeclared memory 'm9'"),
            ('cert', 'choose a e\ncredit (1)\n  memory m0\n', 'line 3, column 3: certificate mixes memoryless and finite-memory lines'),
            ('cert', 'memory m0\ninitial m0\n\tchoose a e\n', 'line 3, column 2: certificate mixes memoryless and finite-memory lines'),
            ('cert', 'memory m0\nnext m0 a -> e\n', 'line 1, column 1: machine certificate has no initial line'),
            ('cert', 'initial m0\n', 'line 1, column 1: machine certificate has no memory lines'),
            ('cert', 'choose a e\ncredit\t(1,)\n', "line 2, column 8: malformed credit '(1,)', expected (<int>,...)"),
            ('cert', 'choose a e\nchoose  a f\n', "line 2, column 9: duplicate choose line for state 'a'"),
            ('cert', 'update m0 a => m1\n', "line 1, column 1: expected 'update <m> <state> -> <target>'"),
            ('cert', 'choose a e\ncredit (\u0661)\n', "line 2, column 8: malformed credit '(\u0661)', expected (<int>,...)"),
            ('threshold', '1,\u0661/2', "line 1, column 3: malformed rational '\u0661/2', expected a or a/b"),
            ('threshold', '1/1\u0662', "line 1, column 1: malformed rational '1/1\u0662', expected a or a/b"),
        ],
    )
    def test_error_text(self, parser, text, expected):
        with pytest.raises(ParseError) as err:
            dict(PARSERS, threshold=parse_threshold)[parser](text)
        assert str(err.value) == expected


FUZZ_TOKENS = (
    "mwg", "1", "2", "-1", "0", "dimension", "state", "edge", "owner=1", "owner=2", "init",
    "w=(0)", "w=(1,-2)", "w=(1,)", "a", "b", "e", "p", "cnf", "c", "%", "item", "bound",
    "target", "choose", "memory", "initial", "update", "next", "->", "credit", "(0)", "(1,2)",
    "m0", "m1", "#",
)
SEPARATORS = (" ", "  ", "\t", "\x0b", "\x1f")


@st.composite
def fuzz_texts(draw):
    """Lines of grammar and junk tokens, joined by assorted whitespace, some
    after a game or DIMACS header."""
    token = st.sampled_from(FUZZ_TOKENS) | st.text("ab01-,()=#>", min_size=1, max_size=4)
    separator = st.sampled_from(SEPARATORS)
    lines = []
    for toks in draw(st.lists(st.lists(token, max_size=6), max_size=8)):
        lead = draw(st.sampled_from(("",) + SEPARATORS))
        lines.append(lead + "".join(t if i == 0 else draw(separator) + t for i, t in enumerate(toks)))
    prefix = draw(st.sampled_from(("", "mwg 1\ndimension 1\n", "mwg 1\ndimension 2\nstate a owner=1 init\n", "p cnf 2 1\n")))
    return prefix + "\n".join(lines) + draw(st.sampled_from(("", "\n")))


def at_token_start(text, err):
    """Whether err points at column 1 or at the first character of a token."""
    if err.column == 1:
        return True
    line = text.splitlines()[err.line - 1]
    c = err.column - 1
    return c < len(line) and not line[c].isspace() and line[c - 1].isspace()


@given(fuzz_texts())
@settings(max_examples=300, deadline=None)
def test_parsers_fuzz(text):
    for name, parse in PARSERS.items():
        try:
            value = parse(text)
        except ParseError as err:
            assert at_token_start(text, err), (name, str(err))
            continue
        if name == "game":
            assert games_equal(parse_game(write_game(value)), value)
        elif name == "cert":
            assert parse_certificate(write_certificate(*value), 1) == value
