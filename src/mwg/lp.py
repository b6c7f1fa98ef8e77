"""Exact linear programming over rationals.

A small dictionary-form simplex with Bland's pivoting rule. Rows are
integers from construction on: `constraint` multiplies a row with
rational entries by the lcm of its denominators, and the tableau is
pivoted fraction-free (all divisions exact), so feasibility and
optimality answers carry no floating-point tolerance at all. `Fraction`
appears only where a value really is rational: nonzero lower bounds, the
extracted assignment and the objective value. Sized for the circulation
systems built by the circuit-detection code: tens of variables, not
thousands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import LpError

Rational = Fraction

_RELATIONS = ("=", ">=")


def _scaled(values: Sequence) -> tuple[list[int], int]:
    """A rational vector times the lcm of its denominators, and that lcm."""
    exact = [Fraction(x) for x in values]
    scale = lcm(*[x.denominator for x in exact])
    return [x.numerator * (scale // x.denominator) for x in exact], scale


@dataclass(frozen=True)
class Constraint:
    """coeffs . x (relation) rhs, stored with integer entries: a row with
    rational entries is multiplied by the lcm of its denominators, a
    positive factor that leaves its solution set unchanged. An all-integer
    row is kept as given."""

    coeffs: tuple[int, ...]
    relation: str  # "=" or ">="
    rhs: int

    def __post_init__(self) -> None:
        if not {type(self.rhs), *map(type, self.coeffs)} <= {int}:
            *coeffs, rhs = _scaled((*self.coeffs, self.rhs))[0]
            object.__setattr__(self, "coeffs", tuple(coeffs))
            object.__setattr__(self, "rhs", rhs)


@dataclass(frozen=True)
class LinearConstraintSystem:
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]


def constraint(coeffs: Iterable, relation: str, rhs) -> Constraint:
    """Build a constraint; rational entries are scaled to integers."""
    return Constraint(tuple(coeffs), relation, rhs)


def system(variables: Iterable[str], rows: Iterable[tuple]) -> LinearConstraintSystem:
    """Build a system from (coeffs, relation, rhs) triples."""
    return LinearConstraintSystem(
        tuple(variables), tuple([constraint(c, rel, r) for c, rel, r in rows])
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
        kept: list[tuple[Sequence[int], str, int]] = []
        for c in self.sys.constraints:
            nz = [j for j, a in enumerate(c.coeffs) if a]
            if not nz:
                bad_eq = c.relation == "=" and c.rhs != 0
                bad_ge = c.relation == ">=" and c.rhs > 0
                if bad_eq or bad_ge:
                    self.infeasible_early = True
                continue
            if c.relation == ">=" and len(nz) == 1 and c.coeffs[nz[0]] > 0:
                j = nz[0]
                bound = Fraction(c.rhs, c.coeffs[j])
                if self.lower[j] is None or bound > self.lower[j]:
                    self.lower[j] = bound
                continue
            kept.append((c.coeffs, c.relation, c.rhs))
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
        n_surplus = sum(1 for _, rel, _ in self.rows if rel == ">=")
        self.width = len(cols) + n_surplus  # non-artificial columns
        shifts = [(j, b) for j, b in enumerate(self.lower) if b]

        # Scale each row by the denominator of its shifted rhs and flip it
        # to a nonnegative rhs (m < 0). A flipped ">=" row starts with its
        # surplus column basic (each surplus column is nonzero only in its
        # own row); every other row gets an artificial.
        built = []
        surplus = len(cols)
        for coeffs, rel, rhs in self.rows:
            rhs2 = rhs - sum(coeffs[j] * b for j, b in shifts)
            m = -rhs2.denominator if rhs2 < 0 else rhs2.denominator
            row = [m * coeffs[j] if kind != "neg" else -m * coeffs[j] for kind, j in cols]
            built.append((row, surplus if rel == ">=" else None, m, abs(rhs2.numerator)))
            surplus += rel == ">="
        n_art = sum(1 for _, s, m, _ in built if s is None or m > 0)
        self.total_cols = self.width + n_art
        self.T: list[list[int]] = []
        self.basis: list[int] = []
        art_rows: list[int] = []
        for row, s, m, rhs in built:
            row += [0] * (self.total_cols - len(cols))
            row.append(rhs)
            if s is not None:
                row[s] = -m
            if s is None or m > 0:
                s = self.width + len(art_rows)
                row[s] = 1
                art_rows.append(len(self.T))
            self.T.append(row)
            self.basis.append(s)
        self.D = 1
        self.artificial = set(range(self.width, self.total_cols))

        # Phase-1 cost row: minimize the artificial sum.
        z1 = [0] * self.width + [1] * n_art + [0]
        for i in art_rows:
            z1 = [z - t for z, t in zip(z1, self.T[i])]
        self.z1 = z1

        # Phase-2 cost row (minimize -objective), priced for the initial
        # basis for free: every initial basic column has zero true cost.
        z2 = [0] * (self.total_cols + 1)
        self.obj_scale = 1
        self.obj_offset = Fraction(0)
        if self.objective is not None:
            c, self.obj_scale = _scaled(self.objective)
            self.obj_offset = Fraction(sum(c[j] * b for j, b in shifts), self.obj_scale)
            for col, (kind, j) in enumerate(cols):
                z2[col] = -c[j] if kind != "neg" else c[j]
        self.z2 = z2

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, p: int, q: int) -> None:
        rowp = self.T[p]
        piv = rowp[q]
        if piv <= 0:
            raise AssertionError(f"pivot element {piv} is not positive")
        D = self.D
        for row in (*self.T, self.z1, self.z2):
            f = row[q]
            if row is rowp or (not f and piv == D):
                continue
            if f:
                row[:] = [(a * piv - f * b) // D for a, b in zip(row, rowp)]
            else:
                row[:] = [a * piv // D for a in row]
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
        # Pivot each artificial still basic (at value 0) out on any
        # structural or surplus column; a row with none is redundant.
        i = 0
        while i < len(self.T):
            row = self.T[i]
            if self.basis[i] in self.artificial:
                pivot_col = next((j for j in range(self.width) if row[j]), None)
                if pivot_col is None:
                    del self.T[i], self.basis[i]
                    continue
                if row[pivot_col] < 0:
                    row[:] = [-x for x in row]
                self._pivot(i, pivot_col)
            i += 1

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
            values[j] += val if kind != "neg" else -val
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
    return _Simplex(sys_, objective).solve()


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
    pad = (0,) * n
    rows = [Constraint(c.coeffs + pad, c.relation, c.rhs) for c in sys_.constraints]
    for i in range(n):
        le_x = [0] * (2 * n)
        le_x[i], le_x[n + i] = 1, -1
        rows.append(Constraint(tuple(le_x), ">=", 0))  # x_i - t_i >= 0
        t_only = [0] * (2 * n)
        t_only[n + i] = 1
        rows.append(Constraint(tuple(t_only), ">=", 0))  # t_i >= 0
        t_only[n + i] = -1
        rows.append(Constraint(tuple(t_only), ">=", -1))  # t_i <= 1
    extended = LinearConstraintSystem(variables, tuple(rows))
    objective = [0] * n + [1] * n
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
    factor = lcm(1, *[x.denominator for x in values.values()])
    return {v: int(x * factor) for v, x in values.items()}
