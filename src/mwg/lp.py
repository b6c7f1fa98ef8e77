"""Exact linear programming over rationals.

A small dictionary-form simplex with Bland's pivoting rule. The public
interface speaks `fractions.Fraction`; internally the tableau is kept as
scaled integers (fraction-free pivoting, all divisions exact), so
feasibility and optimality answers carry no floating-point tolerance at
all. Sized for the circulation systems built by the circuit-detection
code: tens of variables, not thousands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import LpError

Rational = Fraction

_RELATIONS = ("=", ">=")


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str  # "=" or ">="
    rhs: Fraction


@dataclass(frozen=True)
class LinearConstraintSystem:
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]


def constraint(coeffs: Iterable, relation: str, rhs) -> Constraint:
    """Build a constraint, coercing ints to exact fractions."""
    return Constraint(tuple(Fraction(c) for c in coeffs), relation, Fraction(rhs))


def system(variables: Iterable[str], rows: Iterable[tuple]) -> LinearConstraintSystem:
    """Build a system from (coeffs, relation, rhs) triples."""
    return LinearConstraintSystem(
        tuple(variables), tuple(constraint(c, rel, r) for c, rel, r in rows)
    )


@dataclass
class LpOutcome:
    status: str  # "feasible" | "infeasible" | "unbounded"
    assignment: dict[str, Fraction] | None = None
    objective_value: Fraction | None = None
    unbounded_var: str | None = None


def satisfies(sys_: LinearConstraintSystem, assignment: Mapping[str, Fraction]) -> bool:
    """Exact check that an assignment meets every constraint."""
    values = [Fraction(assignment[v]) for v in sys_.variables]
    for c in sys_.constraints:
        lhs = sum((a * x for a, x in zip(c.coeffs, values)), Fraction(0))
        if c.relation == "=" and lhs != c.rhs:
            return False
        if c.relation == ">=" and lhs < c.rhs:
            return False
    return True


def _validate(sys_: LinearConstraintSystem) -> None:
    if len(set(sys_.variables)) != len(sys_.variables):
        raise LpError("duplicate variable names")
    for c in sys_.constraints:
        if c.relation not in _RELATIONS:
            raise LpError(f"unknown relation {c.relation!r}")
        if len(c.coeffs) != len(sys_.variables):
            raise LpError(
                f"constraint has {len(c.coeffs)} coefficients for {len(sys_.variables)} variables"
            )


class _Simplex:
    """Two-phase simplex on an all-integer tableau.

    Invariant: the true tableau equals T / D for a single positive integer
    D (the last pivot element); fraction-free pivoting keeps every entry an
    integer, with divisions exact by Edmonds' minor identity.
    """

    def __init__(self, sys_: LinearConstraintSystem, objective: Sequence[Fraction] | None):
        self.sys = sys_
        self.n = len(sys_.variables)
        self.objective = objective
        self.infeasible_early = False
        self._presolve()

    # -- setup -------------------------------------------------------------

    def _presolve(self) -> None:
        # Absorb single-variable lower-bound rows (a*x >= r, a > 0) into a
        # bound so circulation nonnegativity costs no tableau rows.
        self.lower: list[Fraction | None] = [None] * self.n
        kept: list[tuple[list[Fraction], str, Fraction]] = []
        for c in self.sys.constraints:
            nz = [(j, a) for j, a in enumerate(c.coeffs) if a != 0]
            if not nz:
                bad_eq = c.relation == "=" and c.rhs != 0
                bad_ge = c.relation == ">=" and c.rhs > 0
                if bad_eq or bad_ge:
                    self.infeasible_early = True
                continue
            if c.relation == ">=" and len(nz) == 1 and nz[0][1] > 0:
                j, a = nz[0]
                bound = c.rhs / a
                if self.lower[j] is None or bound > self.lower[j]:
                    self.lower[j] = bound
                continue
            kept.append((list(c.coeffs), c.relation, c.rhs))
        self.rows = kept

    def _build(self) -> None:
        # Column layout: shifted/split structural columns, then surpluses,
        # then artificials, then the rhs. Free variables split x = y+ - y-.
        cols: list[tuple[str, int]] = []
        for j in range(self.n):
            if self.lower[j] is not None:
                cols.append(("shift", j))
            else:
                cols.append(("pos", j))
                cols.append(("neg", j))
        self.cols = cols
        surplus_base = len(cols)
        n_surplus = sum(1 for _, rel, _ in self.rows if rel == ">=")
        self.width = surplus_base + n_surplus  # non-artificial columns

        int_rows: list[list[int]] = []
        rels: list[str] = []
        surplus_at = surplus_base
        for coeffs, rel, rhs in self.rows:
            shift = sum(
                (coeffs[j] * self.lower[j] for j in range(self.n) if self.lower[j] is not None),
                Fraction(0),
            )
            rhs2 = rhs - shift
            entries: list[Fraction] = []
            for kind, j in cols:
                a = coeffs[j]
                entries.append(a if kind != "neg" else -a)
            scale = lcm(rhs2.denominator, *(e.denominator for e in entries)) if entries else 1
            row = [int(e * scale) for e in entries] + [0] * n_surplus + [int(rhs2 * scale)]
            if rel == ">=":
                row[surplus_at] = -scale
                surplus_at += 1
            int_rows.append(row)
            rels.append(rel)

        # Flip rows to nonnegative rhs; flipped ">=" rows start with their
        # surplus column basic, everything else gets an artificial.
        self.basis: list[int] = []
        artificial_cols: list[int] = []
        art_rows: list[int] = []
        next_col = self.width
        for i, row in enumerate(int_rows):
            if row[-1] < 0:
                int_rows[i] = row = [-x for x in row]
            basic = None
            for q in range(len(cols), self.width):
                if row[q] > 0 and all(other[q] == 0 for other in int_rows if other is not row):
                    basic = q
                    break
            if basic is None:
                basic = next_col
                next_col += 1
                artificial_cols.append(basic)
                art_rows.append(i)
            self.basis.append(basic)
        n_art = len(artificial_cols)
        for i, row in enumerate(int_rows):
            rhs_val = row.pop()
            row.extend([0] * n_art)
            row.append(rhs_val)
            if self.basis[i] >= self.width:
                row[self.basis[i]] = 1
        self.T = int_rows
        self.D = 1
        self.total_cols = self.width + n_art
        self.artificial = set(artificial_cols)

        # Phase-1 cost row: minimize the artificial sum.
        z1 = [0] * (self.total_cols + 1)
        for q in self.artificial:
            z1[q] = 1
        for i in art_rows:
            for j in range(self.total_cols + 1):
                z1[j] -= self.T[i][j]
        self.z1 = z1

        # Phase-2 cost row (minimize -objective), priced for the initial
        # basis for free: every initial basic column has zero true cost.
        z2 = [0] * (self.total_cols + 1)
        self.obj_scale = 1
        self.obj_offset = Fraction(0)
        if self.objective is not None:
            c = [Fraction(x) for x in self.objective]
            self.obj_scale = lcm(1, *(x.denominator for x in c))
            self.obj_offset = sum(
                (c[j] * self.lower[j] for j in range(self.n) if self.lower[j] is not None),
                Fraction(0),
            )
            for col, (kind, j) in enumerate(self.cols):
                coeff = -c[j] * self.obj_scale
                z2[col] = int(coeff if kind != "neg" else -coeff)
        self.z2 = z2

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, p: int, q: int) -> None:
        T = self.T
        piv = T[p][q]
        if piv <= 0:
            raise AssertionError(f"pivot element {piv} is not positive")
        rowp = T[p]
        D = self.D
        for row in (*T, self.z1, self.z2):
            if row is rowp:
                continue
            f = row[q]
            for j in range(len(row)):
                row[j] = (row[j] * piv - f * rowp[j]) // D
        self.D = piv
        self.basis[p] = q

    def _entering(self, z: list[int], allow_artificial: bool) -> int | None:
        for q in range(self.total_cols):
            if not allow_artificial and q in self.artificial:
                continue
            if z[q] < 0:
                return q  # Bland: lowest column index
        return None

    def _leaving(self, q: int) -> int | None:
        best: int | None = None
        for i, row in enumerate(self.T):
            a = row[q]
            if a <= 0:
                continue
            if best is None:
                best = i
                continue
            lhs = row[-1] * self.T[best][q]
            rhs = self.T[best][-1] * a
            if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best]):
                best = i  # Bland tie-break on the basic variable index
        return best

    def _run(self, z: list[int], allow_artificial: bool) -> str:
        while True:
            q = self._entering(z, allow_artificial)
            if q is None:
                return "optimal"
            p = self._leaving(q)
            if p is None:
                self._unbounded_col = q
                return "unbounded"
            self._pivot(p, q)

    def _drive_out_artificials(self) -> None:
        for i in list(range(len(self.T))):
            if i >= len(self.T):
                break
            if self.basis[i] not in self.artificial:
                continue
            pivot_col = None
            for j in range(self.width):
                if self.T[i][j] != 0:
                    pivot_col = j
                    break
            if pivot_col is None:
                del self.T[i]
                del self.basis[i]
                return self._drive_out_artificials()
            if self.T[i][pivot_col] < 0:
                self.T[i] = [-x for x in self.T[i]]
            self._pivot(i, pivot_col)

    # -- extraction ----------------------------------------------------------

    def _col_name(self, q: int) -> str:
        if q < len(self.cols):
            return self.sys.variables[self.cols[q][1]]
        return f"slack#{q - len(self.cols)}"

    def _assignment(self) -> dict[str, Fraction]:
        values = [
            self.lower[j] if self.lower[j] is not None else Fraction(0) for j in range(self.n)
        ]
        for i, q in enumerate(self.basis):
            if q >= len(self.cols):
                continue
            kind, j = self.cols[q]
            # Rows never pivoted keep their original scaling, so divide by
            # the basic coefficient rather than by D.
            val = Fraction(self.T[i][-1], self.T[i][q])
            if kind == "shift":
                values[j] += val
            elif kind == "pos":
                values[j] += val
            else:
                values[j] -= val
        return {v: values[j] for j, v in enumerate(self.sys.variables)}

    def solve(self) -> LpOutcome:
        if self.infeasible_early:
            return LpOutcome("infeasible")
        self._build()
        if self._run(self.z1, allow_artificial=True) != "optimal":
            raise AssertionError("phase 1 unbounded, yet its objective is bounded below by zero")
        if self.z1[-1] != 0:  # -(artificial sum) < 0
            return LpOutcome("infeasible")
        self._drive_out_artificials()
        if self.objective is None:
            return LpOutcome("feasible", self._assignment())
        status = self._run(self.z2, allow_artificial=False)
        if status == "unbounded":
            return LpOutcome("unbounded", unbounded_var=self._col_name(self._unbounded_col))
        value = Fraction(self.z2[-1], self.D * self.obj_scale) + self.obj_offset
        return LpOutcome("feasible", self._assignment(), objective_value=value)


def lp_feasible(sys_: LinearConstraintSystem) -> LpOutcome:
    """Decide feasibility; on success the outcome carries an exact point."""
    _validate(sys_)
    return _Simplex(sys_, None).solve()


def lp_maximize(sys_: LinearConstraintSystem, objective: Sequence) -> LpOutcome:
    """Maximize objective . x over the system, exactly."""
    _validate(sys_)
    if len(objective) != len(sys_.variables):
        raise LpError(
            f"objective has {len(objective)} coefficients for {len(sys_.variables)} variables"
        )
    return _Simplex(sys_, [Fraction(c) for c in objective]).solve()


def max_support_solution(
    sys_: LinearConstraintSystem,
) -> tuple[LpOutcome, frozenset[str]]:
    """Feasible point whose support is the union of supports of all feasible points.

    Precondition: every variable is constrained >= 0 in the system and all
    constraints except at most one total-sum bound are homogeneous (true
    for the circulation systems this serves). One capped indicator t_v with
    t_v <= min(x_v, 1) is added per variable; maximizing sum(t) forces
    t_v = 1 exactly for the variables positive in some feasible point, so
    the optimal x has maximal support.
    """
    _validate(sys_)
    names = set(sys_.variables)
    indicators = []
    for v in sys_.variables:
        t = v + "#t"
        while t in names:
            t += "#"
        names.add(t)
        indicators.append(t)
    n = len(sys_.variables)
    variables = tuple(sys_.variables) + tuple(indicators)
    rows: list[Constraint] = [
        Constraint(c.coeffs + (Fraction(0),) * n, c.relation, c.rhs) for c in sys_.constraints
    ]
    zero = [Fraction(0)] * (2 * n)
    for i in range(n):
        le_x = list(zero)
        le_x[i] = Fraction(1)
        le_x[n + i] = Fraction(-1)
        rows.append(Constraint(tuple(le_x), ">=", Fraction(0)))  # x_i - t_i >= 0
        nonneg = list(zero)
        nonneg[n + i] = Fraction(1)
        rows.append(Constraint(tuple(nonneg), ">=", Fraction(0)))
        cap = list(zero)
        cap[n + i] = Fraction(-1)
        rows.append(Constraint(tuple(cap), ">=", Fraction(-1)))  # t_i <= 1
    extended = LinearConstraintSystem(variables, tuple(rows))
    objective = [Fraction(0)] * n + [Fraction(1)] * n
    out = lp_maximize(extended, objective)
    if out.status != "feasible":
        return LpOutcome("infeasible"), frozenset()
    assignment = {v: out.assignment[v] for v in sys_.variables}
    support = frozenset(v for v, val in assignment.items() if val > 0)
    return LpOutcome("feasible", assignment), support


def integer_scale(assignment: Mapping[str, Fraction]) -> dict[str, int]:
    """Scale a nonnegative rational point by the lcm of its denominators."""
    values = {v: Fraction(x) for v, x in assignment.items()}
    for v, x in values.items():
        if x < 0:
            raise LpError(f"integer_scale expects nonnegative values, {v} = {x}")
    factor = lcm(1, *(x.denominator for x in values.values()))
    return {v: int(x * factor) for v, x in values.items()}
