"""Exact linear feasibility over nonnegative rationals.

A small dictionary-form simplex with Bland's pivoting rule. Every
variable is nonnegative and every row is integer, which is what the
circulation systems of the circuit-detection code are: edge
multiplicities under integer balance and weight rows. Variables are
positions 0..n-1: a row lists one coefficient per position, and a
feasible point is a list of `Fraction`s in the same order. The tableau
is pivoted fraction-free (all divisions exact), so feasibility answers
carry no floating-point tolerance at all. `Fraction` appears only where
a value really is rational: positive lower bounds and the extracted
point. Sized for those systems: tens of variables, not thousands.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import LpError

_RELATIONS = ("=", ">=")


class Constraint(NamedTuple):
    """coeffs . x (relation) rhs, with integer entries."""

    coeffs: Sequence[int]
    relation: str  # "=" or ">="
    rhs: int


class LinearConstraintSystem(NamedTuple):
    """Constraints over the variables range(n), each of them >= 0."""

    variables: range
    constraints: list[Constraint]


def system(n: int, rows: Iterable[tuple]) -> LinearConstraintSystem:
    """Build a system over n variables from (coeffs, relation, rhs) triples."""
    return LinearConstraintSystem(range(n), [Constraint(*row) for row in rows])


def _validate(sys_: LinearConstraintSystem) -> None:
    for c in sys_.constraints:
        if c.relation not in _RELATIONS:
            raise LpError(f"unknown relation {c.relation!r}")
        if len(c.coeffs) != len(sys_.variables):
            raise LpError(
                f"constraint has {len(c.coeffs)} coefficients for {len(sys_.variables)} variables"
            )
        # bool is an int subclass; a Fraction would be floor-divided in
        # _pivot and give a wrong answer without any error.
        if not all([issubclass(t, int) for t in {type(c.rhs), *map(type, c.coeffs)}]):
            raise LpError(f"constraint entries must be integers: {c.coeffs} {c.relation} {c.rhs}")


class _Simplex:
    """Phase-1 simplex on an all-integer tableau: it minimizes the sum of
    the artificial variables, which reaches zero exactly when the system
    is feasible. Artificials left basic at the optimum sit at zero.

    Invariant: the true tableau equals T / D for a single positive integer
    D (the last pivot element); fraction-free pivoting keeps every entry an
    integer, with divisions exact by Edmonds' minor identity.
    """

    def __init__(self, sys_: LinearConstraintSystem):
        self.n = len(sys_.variables)
        self.infeasible_early = False
        self._presolve(sys_.constraints)

    # -- setup -------------------------------------------------------------

    def _presolve(self, constraints: list[Constraint]) -> None:
        # Absorb single-variable lower-bound rows (a*x >= r, a > 0) into a
        # bound, which costs no tableau row.
        self.lower: list[Fraction] = [Fraction(0)] * self.n
        kept: list[Constraint] = []
        for c in constraints:
            nz = [j for j, a in enumerate(c.coeffs) if a]
            if not nz:
                bad_eq = c.relation == "=" and c.rhs != 0
                bad_ge = c.relation == ">=" and c.rhs > 0
                if bad_eq or bad_ge:
                    self.infeasible_early = True
                continue
            if c.relation == ">=" and len(nz) == 1 and c.coeffs[nz[0]] > 0:
                j = nz[0]
                self.lower[j] = max(self.lower[j], Fraction(c.rhs, c.coeffs[j]))
                continue
            kept.append(c)
        self.rows = kept

    def _build(self) -> None:
        # Column layout: the structural columns, each variable shifted by
        # its lower bound, then surpluses, then artificials, then the rhs.
        n_surplus = sum(1 for _, rel, _ in self.rows if rel == ">=")
        width = self.n + n_surplus  # non-artificial columns
        shifts = [(j, b) for j, b in enumerate(self.lower) if b]

        # Scale each row by the denominator of its shifted rhs and flip it
        # to a nonnegative rhs (m < 0). A flipped ">=" row starts with its
        # surplus column basic (each surplus column is nonzero only in its
        # own row); every other row gets an artificial.
        built = []
        surplus = self.n
        for coeffs, rel, rhs in self.rows:
            rhs2 = rhs - sum(coeffs[j] * b for j, b in shifts)
            m = -rhs2.denominator if rhs2 < 0 else rhs2.denominator
            row = [m * a for a in coeffs]
            built.append((row, surplus if rel == ">=" else None, m, abs(rhs2.numerator)))
            surplus += rel == ">="
        n_art = sum(1 for _, s, m, _ in built if s is None or m > 0)
        self.total_cols = width + n_art
        self.T: list[list[int]] = []
        self.basis: list[int] = []
        art_rows: list[int] = []
        for row, s, m, rhs in built:
            row += [0] * (self.total_cols - self.n)
            row.append(rhs)
            if s is not None:
                row[s] = -m
            if s is None or m > 0:
                s = width + len(art_rows)
                row[s] = 1
                art_rows.append(len(self.T))
            self.T.append(row)
            self.basis.append(s)
        self.D = 1

        # Cost row: minimize the artificial sum.
        z = [0] * width + [1] * n_art + [0]
        for i in art_rows:
            z = [a - t for a, t in zip(z, self.T[i])]
        self.z = z

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, p: int, q: int) -> None:
        rowp = self.T[p]
        piv = rowp[q]
        if piv <= 0:
            raise AssertionError(f"pivot element {piv} is not positive")
        D = self.D
        for row in (*self.T, self.z):
            f = row[q]
            if row is rowp or (not f and piv == D):
                continue
            if f:
                row[:] = [(a * piv - f * b) // D for a, b in zip(row, rowp)]
            else:
                row[:] = [a * piv // D for a in row]
        self.D = piv
        self.basis[p] = q

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

    def _run(self) -> None:
        z = self.z
        while True:
            # Bland: the lowest column index with a negative reduced cost.
            q = next((j for j in range(self.total_cols) if z[j] < 0), None)
            if q is None:
                return
            p = self._leaving(q)
            if p is None:
                raise AssertionError("phase 1 unbounded, yet its objective is bounded below by zero")
            self._pivot(p, q)

    # -- extraction ----------------------------------------------------------

    def _point(self) -> list[Fraction]:
        values = list(self.lower)
        for i, q in enumerate(self.basis):
            if q >= self.n:
                continue  # a surplus, or an artificial at zero
            # Rows never pivoted keep their original scaling, so divide by
            # the basic coefficient rather than by D.
            values[q] += Fraction(self.T[i][-1], self.T[i][q])
        return values

    def solve(self) -> list[Fraction] | None:
        if self.infeasible_early:
            return None
        self._build()
        self._run()
        if self.z[-1] != 0:  # -(artificial sum) < 0
            return None
        return self._point()


def lp_feasible(sys_: LinearConstraintSystem) -> list[Fraction] | None:
    """An exact feasible point, one value per variable, or None."""
    _validate(sys_)
    return _Simplex(sys_).solve()


def max_support_solution(
    sys_: LinearConstraintSystem, point: list[Fraction] | None
) -> list[Fraction] | None:
    """Feasible point whose support (its nonzero positions) is the union
    of supports of all feasible points.

    Precondition: all constraints except at most one lower bound on the
    total sum are homogeneous (true for the circulation systems this
    serves). Then a feasible point positive at v scales up to one with
    x_v >= 1, so the system plus sum(x_v for v outside the current
    support) >= 1 is feasible exactly when some feasible point leaves
    that support. While it is, the midpoint of the current point and the
    new one is feasible (the feasible set is convex) and positive on both
    supports, so the support grows; at most one solve per variable.
    `point` is `lp_feasible(sys_)`, which the caller already holds; None
    (infeasible) comes back as it is.
    """
    while point is not None and 0 in point:
        outside = Constraint([int(x == 0) for x in point], ">=", 1)
        wider = lp_feasible(LinearConstraintSystem(sys_.variables, [*sys_.constraints, outside]))
        if wider is None:
            break
        point = [(x + y) / 2 for x, y in zip(point, wider)]
    return point


def integer_scale(point: Sequence[Fraction]) -> list[int]:
    """Scale a nonnegative rational point by the lcm of its denominators."""
    for j, x in enumerate(point):
        if x < 0:
            raise LpError(f"integer_scale expects nonnegative values, x{j} = {x}")
    factor = lcm(1, *[x.denominator for x in point])
    return [int(x * factor) for x in point]
