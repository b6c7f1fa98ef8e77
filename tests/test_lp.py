import ast
import itertools
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwg import LpError, graphs, lp, solvers
from mwg.lp import (
    Constraint,
    LinearConstraintSystem,
    integer_scale,
    lp_feasible,
    max_support_solution,
    system,
)
from oracles import cold_lp_feasible, cold_max_support, rand_dense_game, rand_multigraph, satisfies


def plus(sys_, row):
    """The system with one more constraint."""
    return LinearConstraintSystem(sys_.variables, [*sys_.constraints, row])


def support(point) -> set[int]:
    """The positions where a point is nonzero; empty for None."""
    return {j for j, x in enumerate(point or ()) if x}


def test_feasible_interval():
    sys_ = system(1, [((1,), ">=", 1), ((-1,), ">=", -2)])
    point = lp_feasible(sys_)
    assert point is not None
    assert satisfies(sys_, point)


def test_infeasible_interval():
    sys_ = system(1, [((1,), ">=", 1), ((-1,), ">=", 0)])
    assert lp_feasible(sys_) is None


def test_connector_circulation_feasible():
    # Two-edge cycle a -> b -> a with zero weights: balance at both
    # vertices, total >= 1, zero-sum rows trivial. Position 0 is the edge
    # a -> b, position 1 the edge b -> a.
    sys_ = system(
        2,
        [
            ((1, 0), ">=", 0),
            ((0, 1), ">=", 0),
            ((1, -1), "=", 0),
            ((-1, 1), "=", 0),
            ((1, 1), ">=", 1),
            ((0, 0), "=", 0),
            ((0, 0), "=", 0),
        ],
    )
    point = lp_feasible(sys_)
    assert point is not None
    assert satisfies(sys_, point)
    assert point[0] == point[1] >= Fraction(1, 2)


def test_support_probe_matches_membership():
    # Circulation polytope of two opposite self-loops: both edges can be
    # positive; a zero-forced third variable cannot.
    sys_ = system(
        3,
        [
            ((1, 0, 0), ">=", 0),
            ((0, 1, 0), ">=", 0),
            ((0, 0, 1), ">=", 0),
            ((1, -1, 0), "=", 0),  # zero-sum row for weights (1,-1) on x0,x1
            ((0, 0, 1), "=", 0),  # x2 forced to zero
            ((-1, 0, 0), ">=", -1),  # caps keep the probes bounded
            ((0, -1, 0), ">=", -1),
            ((0, 0, -1), ">=", -1),
        ],
    )
    for var, positive in ((0, True), (1, True), (2, False)):
        probe = [int(v == var) for v in sys_.variables]
        assert (lp_feasible(plus(sys_, Constraint(probe, ">=", 1))) is not None) == positive
    assert support(max_support_solution(sys_, lp_feasible(sys_))) == {0, 1}


def test_max_support_decoupled_variables():
    sys_ = system(
        2,
        [
            ((1, 0), ">=", 0),
            ((0, 1), ">=", 0),
            ((-1, 0), ">=", -1),
            ((0, -1), ">=", -1),
        ],
    )
    point = max_support_solution(sys_, lp_feasible(sys_))
    assert point is not None
    assert support(point) == {0, 1}
    assert satisfies(sys_, point)


def test_max_support_excludes_forced_zero():
    sys_ = system(
        2,
        [
            ((1, 0), ">=", 0),
            ((0, 1), ">=", 0),
            ((-1, 0), ">=", -1),
            ((0, 1), "=", 0),
        ],
    )
    point = max_support_solution(sys_, lp_feasible(sys_))
    assert point is not None
    assert support(point) == {0}
    assert point[1] == 0


def test_max_support_two_disjoint_cycles():
    # Two independent self-loop circulations; feasible points include
    # (1,0) and (0,1), so the union support is both.
    sys_ = system(
        2,
        [
            ((1, 0), ">=", 0),
            ((0, 1), ">=", 0),
            ((1, 1), ">=", 1),
            ((-1, 0), ">=", -2),
            ((0, -1), ">=", -2),
        ],
    )
    point = max_support_solution(sys_, lp_feasible(sys_))
    assert point is not None
    assert support(point) == {0, 1}
    assert all(point[v] > 0 for v in support(point))


def test_max_support_point_stays_in_a_capped_set():
    # On x + y = 1 the first point is a vertex and the wider one the
    # other vertex; their sum leaves the set, their midpoint does not.
    sys_ = system(2, [((1, 0), ">=", 0), ((0, 1), ">=", 0), ((1, 1), "=", 1)])
    point = max_support_solution(sys_, lp_feasible(sys_))
    assert support(point) == {0, 1}
    assert satisfies(sys_, point)


def test_max_support_propagates_infeasible():
    # Infeasible in phase 1, and refuted before it by a row 0 >= 1.
    for sys_ in (system(1, [((1,), ">=", 1), ((-1,), ">=", 0)]), system(2, [((0, 0), ">=", 1)])):
        assert max_support_solution(sys_, lp_feasible(sys_)) is None


def probes(monkeypatch) -> list[int]:
    """Record the tableau width (real columns) at each max-support probe."""
    widths, real = [], lp._Simplex.probe

    def probe(self, outside):
        widths.append(len(self.z) - 1)
        return real(self, outside)

    monkeypatch.setattr(lp._Simplex, "probe", probe)
    return widths


def test_probe_after_an_absorbed_fractional_bound(monkeypatch):
    # 2*x0 >= 1 becomes the bound x0 >= 1/2, which shifts x0 - x1 - x2 >= 0
    # to rhs -1/2: that row is scaled by 2 and starts on its surplus with
    # coefficient 2, not D. The probe runs on that tableau.
    sys_ = system(3, [((2, 0, 0), ">=", 1), ((1, -1, -1), ">=", 0)])
    point = lp_feasible(sys_)
    assert point == cold_lp_feasible(sys_) == [Fraction(1, 2), 0, 0]
    widths = probes(monkeypatch)
    wide = max_support_solution(sys_, point)
    assert support(wide) == support(cold_max_support(sys_, point)) == {0, 1, 2}
    assert satisfies(sys_, wide) and widths


def test_second_probe_lands_on_the_widened_tableau(monkeypatch):
    # The first probe reaches the vertex (0, 1, 0) of the total-sum cut,
    # so x2 is still outside and a second probe row goes onto a tableau
    # that already holds the first one and its surplus column.
    sys_ = system(3, [((1, 1, 1), ">=", 1)])
    point = lp_feasible(sys_)
    assert support(point) == {0}
    widths = probes(monkeypatch)
    wide = max_support_solution(sys_, point)
    assert widths == [4, 5]
    assert wide == [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    assert support(cold_max_support(sys_, point)) == {0, 1, 2}


def test_max_support_leaves_the_callers_point_and_tableau():
    sys_ = system(3, [((1, 1, 1), ">=", 1), ((1, -1, 0), ">=", 0)])
    point = lp_feasible(sys_)
    values, solved = list(point), point.simplex
    tableau = ([row[:] for row in solved.T], solved.z[:], solved.basis[:], solved.D)
    first = max_support_solution(sys_, point)
    assert support(first) == {0, 1, 2}
    assert point == values and point.simplex is solved
    assert (solved.T, solved.z, solved.basis, solved.D) == tableau
    assert max_support_solution(sys_, point) == first


def test_integer_scale_halves():
    scaled = integer_scale([Fraction(1, 2), Fraction(3, 2)])
    assert scaled == [1, 3]


def test_integer_scale_keeps_integers():
    assert integer_scale([Fraction(2), Fraction(0)]) == [2, 0]


def test_integer_scale_rejects_negative():
    with pytest.raises(LpError):
        integer_scale([Fraction(-1, 2)])


def test_integer_scale_preserves_homogeneous_rows():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        point = [Fraction(rng.randint(0, 8), rng.randint(1, 8)) for _ in range(n)]
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(3)]
        scaled = integer_scale(point)
        factors = {Fraction(s) / x for s, x in zip(scaled, point) if x != 0}
        assert len(factors) <= 1  # proportional
        for row in rows:
            lhs = sum(c * x for c, x in zip(row, point))
            lhs_scaled = sum(c * s for c, s in zip(row, scaled))
            if lhs == 0:
                assert lhs_scaled == 0


def test_malformed_system_rejected():
    with pytest.raises(LpError):
        lp_feasible(system(1, [((1, 2), ">=", 0)]))
    with pytest.raises(LpError):
        bad = system(1, [((1, 2), ">=", 0)])
        max_support_solution(bad, lp_feasible(bad))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_feasible_assignments_satisfy_exactly(data):
    n = data.draw(st.integers(1, 3))
    rows = data.draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                st.sampled_from(["=", ">="]),
                st.integers(-6, 6),
            ),
            min_size=1,
            max_size=5,
        )
    )
    sys_ = system(n, rows)
    point = lp_feasible(sys_)
    if point is not None:
        assert satisfies(sys_, point)
        assert all(x >= 0 for x in point)


def test_variables_are_nonnegative():
    # Each system is feasible only if some variable may go negative.
    for rows in (
        [((1,), "=", -1)],
        [((1, 1), "=", 1), ((1, -1), ">=", 3)],
        [((1, 1), ">=", -2), ((-1, 0), ">=", 1)],
    ):
        assert lp_feasible(system(len(rows[0][0]), rows)) is None
    # A negative lower bound is weaker than x >= 0, so it moves no point.
    sys_ = system(2, [((1, 0), ">=", -3), ((1, 1), ">=", -5)])
    assert lp_feasible(sys_) == [0, 0]


def test_many_redundant_rows_need_no_recursion():
    # Phase 1 leaves 1,499 copies of x - y = 0 redundant, each with its
    # artificial basic at zero: the pivot loop and the point read from the
    # tableau handle them with no call per row.
    rows = [((1, -1), "=", 0)] * 1500 + [((1, 1), ">=", 1), ((1, 0), ">=", 0), ((0, 1), ">=", 0)]
    sys_ = system(2, rows)
    point = lp_feasible(sys_)
    assert point is not None
    assert satisfies(sys_, point)


def test_constraint_rows_are_integers():
    # Integer and bool rows are kept as given and solved; a rational
    # entry anywhere in a row is refused, even an integral one, rather
    # than floor-divided in a pivot.
    for coeffs, rhs in (((1, -2, 0), 3), ((True, False, 2), True)):
        sys_ = system(3, [(coeffs, ">=", rhs)])
        (c,) = sys_.constraints
        assert [(type(x), x) for x in (*c.coeffs, c.rhs)] == [(type(x), x) for x in (*coeffs, rhs)]
        assert lp_feasible(sys_) is not None
    for coeffs, rhs in (((Fraction(1, 2), 1, 0), 3), ((1, 1, 0), Fraction(5, 4)), ((Fraction(4, 2), 6, 0), 2)):
        with pytest.raises(LpError):
            lp_feasible(system(3, [(coeffs, ">=", rhs)]))


def test_directly_built_rational_constraints_solve_exactly():
    # x/2 + y/3 >= 1 and x <= 1/3, multiplied through to integer rows.
    rows = [((3, 2), ">=", 6), ((-3, 0), ">=", -1), ((1, 0), ">=", 0), ((0, 1), ">=", 0)]
    sys_ = LinearConstraintSystem(range(2), [Constraint(c, rel, r) for c, rel, r in rows])
    point = lp_feasible(sys_)
    assert point is not None
    assert satisfies(sys_, point)
    # The least x + y is exactly 1/3 + 5/2 = 17/6 (x = 1/3, y = 5/2):
    # x + y <= 17/6 is feasible, x + y <= 847/300 = 1/3 + 249/100 is not.
    for row, rhs, feasible in (((-6, -6), -17, True), ((-300, -300), -847, False)):
        assert (lp_feasible(plus(sys_, Constraint(row, ">=", rhs))) is not None) == feasible


def test_bool_entries_behave_like_ints():
    rows = [((1, 1), ">=", 1), ((1, 0), ">=", 0), ((0, 1), ">=", 0), ((-1, 0), ">=", -1)]
    as_bools = [(tuple(bool(a) if a in (0, 1) else a for a in c), rel, r) for c, rel, r in rows]
    ints, bools = system(2, rows), system(2, as_bools)
    assert bools == ints
    assert lp_feasible(bools) == lp_feasible(ints)
    assert max_support_solution(bools, lp_feasible(bools)) == max_support_solution(ints, lp_feasible(ints))


_entry = st.integers(-4, 4)
_multiplier = st.integers(1, 9)


def assert_matches_cold_reference(sys_, widen: bool = True) -> None:
    """lp_feasible reaches the point the cold phase-1 reference reaches
    and, when widen, max_support_solution the same support."""
    point = lp_feasible(sys_)
    assert point == cold_lp_feasible(sys_)
    if widen and point is not None:
        wide = max_support_solution(sys_, point)
        assert support(wide) == support(cold_max_support(sys_, point))
        assert satisfies(sys_, wide)


def test_circulation_systems_match_the_cold_reference(monkeypatch):
    # The circuit search's system, in both modes, on every component of
    # seeded random multigraphs. Many first points leave positions
    # outside, so max-support loops of one probe and of several occur.
    widths = probes(monkeypatch)
    rng = random.Random(11)
    per_loop = []
    for _ in range(300):
        g = rand_multigraph(rng, max_vertices=6, max_edges=12)
        for comp in graphs._simplify([(e.src, e.dst, e.weight, (e.id,)) for e in g.edges]):
            for mode in ("zero", "nonnegative"):
                before = len(widths)
                assert_matches_cold_reference(graphs._circulation_system(comp, g.dimension, mode))
                per_loop.append(len(widths) - before)
    assert max(per_loop) >= 3 and per_loop.count(1) > 20


@pytest.mark.slow
def test_dense_game_lp_calls_match_the_cold_reference(monkeypatch):
    # Every LP call the solver makes on 300 seed-7 unplanted dense games,
    # the corpus where the max-support loop costs the most.
    calls = []
    for name in ("lp_feasible", "max_support_solution"):
        def record(sys_, *rest, name=name, real=getattr(graphs, name)):
            calls.append((name, sys_))
            return real(sys_, *rest)

        monkeypatch.setattr(graphs, name, record)
    rng = random.Random(7)
    for _ in range(300):
        solvers.solve_unknown_credit(rand_dense_game(rng))
    monkeypatch.undo()
    assert sum(name == "max_support_solution" for name, _ in calls) > 300
    for name, sys_ in calls:
        assert_matches_cold_reference(sys_, widen=name == "max_support_solution")


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_scaling_a_row_keeps_the_lp_answers(data):
    # A row and its positive multiple describe the same half-space or
    # hyperplane. Which feasible point phase 1 reaches may differ (each
    # row's scale weighs its artificial), but feasibility and the maximal
    # support may not, and every point must satisfy the unscaled system.
    n = data.draw(st.integers(1, 3))
    vector = st.lists(_entry, min_size=n, max_size=n)
    rows = data.draw(
        st.lists(st.tuples(vector, st.sampled_from(["=", ">="]), _entry), min_size=1, max_size=5)
    )
    # The shape max_support_solution requires: a homogeneous cone in the
    # nonnegative orthant, cut by one total-sum bound.
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    cone = [(c, rel, 0) for c, rel, _ in rows] + [([1] * n, ">=", 1)]
    cone += [(u, ">=", 0) for u in unit]
    for base in (rows, cone):
        i = data.draw(st.integers(0, len(base) - 1))
        q = data.draw(_multiplier)
        c, rel, r = base[i]
        scaled = base[:i] + [([q * a for a in c], rel, q * r)] + base[i + 1 :]
        sys_, sys_q = system(n, base), system(n, scaled)
        assert_matches_cold_reference(sys_, widen=base is cone)
        assert_matches_cold_reference(sys_q, widen=base is cone)
        a, b = lp_feasible(sys_), lp_feasible(sys_q)
        assert (a is None) == (b is None)
        if a is not None:
            assert satisfies(sys_, a) and satisfies(sys_, b)
        if base is cone:
            a = max_support_solution(sys_, lp_feasible(sys_))
            b = max_support_solution(sys_q, lp_feasible(sys_q))
            assert (a is None, support(a)) == (b is None, support(b))
            if a is not None:
                assert satisfies(sys_, a) and satisfies(sys_, b)
            # A cone point positive at v scales to one with x_v >= 1.
            probes = [system(n, cone + [(u, ">=", 1)]) for u in unit]
            assert support(a) == {v for v, p in enumerate(probes) if lp_feasible(p) is not None}


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so no guard may be one.
    package = Path(__file__).resolve().parent.parent / "src" / "mwg"
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert statement at line(s) {lines}"


def test_package_imports_only_the_standard_library():
    package = Path(__file__).resolve().parent.parent / "src" / "mwg"
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "mwg" or top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_package_builds_no_tuple_from_an_iterator():
    """CPython sizes a tuple built from a generator, map, filter or zip
    at ten slots and shrinks it at the end, so the tuple is freed onto the
    free list of its final size without having been taken from it. Every
    such call leaves one block behind, up to 2,000 per size, and only a
    full collection, which a solve may never trigger, gives them back: a
    long-running process grows from pass to pass. Build from a list."""
    def lazy(arg):
        if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name):
            return arg.func.id in ("map", "filter", "zip")
        return isinstance(arg, ast.GeneratorExp)

    package = Path(__file__).resolve().parent.parent / "src" / "mwg"
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            args = [a.value for a in node.args if isinstance(a, ast.Starred)]
            if isinstance(node.func, ast.Name) and node.func.id == "tuple":
                args += node.args
            bad = [arg for arg in args if lazy(arg)]
            assert not bad, f"{path.name}:{node.lineno} builds a tuple from an iterator"


def test_import_does_not_load_numpy():
    package_root = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, mwg; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": package_root},
    )
    assert out.stdout.strip() == "False"
