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

from copy import copy
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


class _Point(list):
    """A feasible point that keeps the solved simplex it was read from."""

    __slots__ = ("simplex",)


class _Simplex:
    """Phase-1 simplex on an all-integer tableau: it minimizes the sum of
    the artificial variables, which reaches zero exactly when the system
    is feasible. Artificials left basic at the optimum sit at zero.

    Pivoting is fraction-free (Bareiss): every entry is a minor of the
    starting tableau, so each `// D` is exact, D being the last pivot
    element. A structural basic variable has coefficient exactly D in its
    row; a row never pivoted keeps its starting basic coefficient times D.
    z holds D times the reduced costs, and -D times the artificial sum.

    Artificial columns are not stored. Each artificial has only a virtual
    basis index past every real column, in row order, for the Bland
    tie-break in _leaving. Phase 1 stops once no structural or surplus
    column has a negative reduced cost, and that decides it (Farkas): the
    row duals y then give yA <= 0 on every real column while yb is the
    artificial sum, so a positive sum leaves no x >= 0 with Ax = b.
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
        # its lower bound, then surpluses, then the rhs.
        n_surplus = sum(1 for _, rel, _ in self.rows if rel == ">=")
        width = self.n + n_surplus
        shifts = [(j, b) for j, b in enumerate(self.lower) if b]

        # Scale each row by the denominator of its shifted rhs and flip it
        # to a nonnegative rhs (m < 0). A flipped ">=" row starts with its
        # surplus column basic (each surplus column is nonzero only in its
        # own row); every other row starts with its artificial, and the
        # cost row, which minimizes the artificial sum, subtracts it.
        self.T: list[list[int]] = []
        self.basis: list[int] = []
        z = [0] * (width + 1)
        surplus = self.n
        for coeffs, rel, rhs in self.rows:
            rhs2 = rhs - sum(coeffs[j] * b for j, b in shifts)
            m = -rhs2.denominator if rhs2 < 0 else rhs2.denominator
            row = [m * a for a in coeffs] + [0] * n_surplus + [abs(rhs2.numerator)]
            basic = width + len(self.T)
            if rel == ">=":
                row[surplus] = -m
                basic = surplus if m < 0 else basic
                surplus += 1
            if basic >= width:
                z = [a - t for a, t in zip(z, row)]
            self.T.append(row)
            self.basis.append(basic)
        self.z = z
        self.D = 1

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

    def _run(self) -> _Point | None:
        z = self.z
        while True:
            # Bland: the lowest column index with a negative reduced cost.
            q = next((j for j in range(len(z) - 1) if z[j] < 0), None)
            if q is None:
                return None if z[-1] else self._point()  # z[-1] = -D * (artificial sum)
            p = self._leaving(q)
            if p is None:
                raise AssertionError("phase 1 unbounded, yet its objective is bounded below by zero")
            self._pivot(p, q)

    # -- extraction ----------------------------------------------------------

    def _point(self) -> _Point:
        values = _Point(self.lower)
        values.simplex = self
        for i, q in enumerate(self.basis):
            if q >= self.n:
                continue  # a surplus, or an artificial at zero
            # Rows never pivoted keep their original scaling, so divide by
            # the basic coefficient rather than by D.
            values[q] += Fraction(self.T[i][-1], self.T[i][q])
        return values

    def solve(self) -> _Point | None:
        if self.infeasible_early:
            return None
        self._build()
        return self._run()

    def probe(self, outside: list[int]) -> _Point | None:
        """Resume phase 1 with sum(x_j where outside[j]) >= 1 added; those
        x_j are 0 and unshifted. The row is reduced without a division by
        subtracting the row of each structural basic, whose coefficient is
        D. Widening builds new lists, so a copy leaves the original as is."""
        w = len(self.z) - 1  # real columns; the new surplus goes here
        *self.T, self.z = [[*row[:w], 0, row[w]] for row in (*self.T, self.z)]
        self.basis = [q + (q >= w) for q in self.basis]  # artificials stay last
        new = [self.D * a for a in outside] + [0] * (w - self.n) + [-self.D, self.D]
        for i, q in enumerate(self.basis):
            if q < self.n and outside[q]:
                new = [a - b for a, b in zip(new, self.T[i])]
        self.z = [a - t for a, t in zip(self.z, new)]
        self.T.append(new)
        self.basis.append(w + len(self.T))
        return self._run()


def lp_feasible(sys_: LinearConstraintSystem) -> list[Fraction] | None:
    """An exact feasible point, one value per variable, or None. The point
    is a list that also keeps its solved simplex, for max_support_solution."""
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
    supports, so the support grows; at most one probe per variable.
    `point` is `lp_feasible(sys_)`, which the caller already holds; None
    (infeasible) comes back as it is. Each probe row is added to a copy
    of the tableau that solved `point`, and phase 1 resumes there, so
    `sys_` is not solved again. An earlier probe row stays, implied by
    the later one: the positions outside the support only shrink.
    """
    simplex = None if point is None else copy(point.simplex)
    while point is not None and 0 in point:
        wider = simplex.probe([int(x == 0) for x in point])
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
