"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` and returns the text of one input
file in a format the program parses: DIMACS CNF, the `.mwg` game format
or the `.kp` knapsack format. The generators use the standard library
only and share no code with `mwg`, so the program sees nothing but text.

Solve times on these families are heavy-tailed: a satisfiable formula or
a feasible knapsack costs as many strategies as the solver enumerates
before the first winning one. Drawing instances at random would make a
run's figures depend mostly on the seed. So the generators also compute
that depth from the input, in the order the enumeration visits
strategies (states and edges sorted by id), and draw until it falls in a
requested window. For formulas the number of circuit searches the
solver's shape cache leaves (`spoiler_shapes`) can be windowed as well,
where a group of equal cost is wanted. Random dense games instead get a
planted verdict.
"""

from __future__ import annotations

import random
from itertools import islice, product

UNSAT8 = [tuple(s * v for s, v in zip(signs, (1, 2, 3))) for signs in product((1, -1), repeat=3)]
NVARS = 5  # variables of every formula
MAX_ITEM_VALUE = 30  # item profits and weights are drawn from [1, MAX_ITEM_VALUE]
OUT_DEGREE = 3  # edges per state of a random game
WEIGHT_LO, WEIGHT_HI = -3, 2  # weights of a random game before planting


def _dimacs(clauses: list[tuple[int, ...]], comment: str) -> str:
    lines = [f"c {comment}", f"p cnf {NVARS} {len(clauses)}"]
    lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def _random_clause(rng: random.Random) -> tuple[int, int, int]:
    return tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, NVARS + 1), 3))


def parse_cnf(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Read back the DIMACS text this module writes."""
    nvars, clauses = 0, []
    for line in text.splitlines():
        if line.startswith("p cnf"):
            nvars = int(line.split()[2])
        elif line and not line.startswith("c"):
            clauses.append(tuple(int(t) for t in line.split()[:-1]))
    return nvars, clauses


def first_spoiler_depth(clauses: list[tuple[int, ...]]) -> int | None:
    """Number of Player-2 strategies of the two-player 3SAT encoding that
    a lexicographic enumeration visits up to and including the first
    spoiler, i.e. the first choice of one literal per clause with no
    variable chosen in both polarities; None if there is none
    (unsatisfiable). Clause states are visited in id order (c1, c10, c2,
    ...), the last one varying fastest, literals in clause order."""
    order = sorted(range(len(clauses)), key=lambda j: f"c{j + 1}")
    m = len(order)

    def walk(i: int, chosen: frozenset[int]) -> tuple[bool, int]:
        if i == m:
            return True, 0
        skipped = 0
        for lit in clauses[order[i]]:
            if -lit in chosen:
                skipped += 3 ** (m - i - 1)
                continue
            found, below = walk(i + 1, chosen | {lit})
            if found:
                return True, skipped + below
            skipped += below
        return False, skipped

    found, before = walk(0, frozenset())
    return before + 1 if found else None


def spoiler_shapes(clauses: list[tuple[int, ...]], depth: int) -> int:
    """Distinct sets of chosen literals among the first `depth`
    strategies of the same enumeration. Strategies that choose the same
    set share one fixed-graph shape, so this is the number of circuit
    searches the solver's shape cache leaves; with the depth it predicts
    a solve's cost."""
    order = sorted(range(len(clauses)), key=lambda j: f"c{j + 1}")
    return len({frozenset(choice) for choice in islice(product(*(clauses[j] for j in order)), depth)})


def unsat_cnf(rng: random.Random, extra: int) -> str:
    """The eight sign patterns over three variables (unsatisfiable), with
    variables renamed at random among NVARS, plus `extra` random clauses,
    in shuffled order."""
    core_vars = rng.sample(range(1, NVARS + 1), 3)
    flips = [rng.choice((1, -1)) for _ in range(3)]
    clauses = [
        tuple(core_vars[abs(lit) - 1] * flips[abs(lit) - 1] * (1 if lit > 0 else -1) for lit in c)
        for c in UNSAT8
    ]
    clauses += [_random_clause(rng) for _ in range(extra)]
    rng.shuffle(clauses)
    return _dimacs(clauses, f"unsatisfiable core plus {extra} random clauses")


def sat_cnf(
    rng: random.Random, nclauses: int, depth: tuple[int, int], shapes: tuple[int, int] | None = None
) -> str:
    """A random 3-CNF whose first spoiler lies at a depth in [lo, hi),
    and, if `shapes` is given, whose spoiler_shapes lie in that window."""
    lo, hi = depth
    while True:
        clauses = [_random_clause(rng) for _ in range(nclauses)]
        d = first_spoiler_depth(clauses)
        if d is None or not lo <= d < hi:
            continue
        if shapes is None or shapes[0] <= spoiler_shapes(clauses, d) < shapes[1]:
            return _dimacs(clauses, f"satisfiable 3-CNF, first spoiler at strategy {d}")


def parse_kp(text: str) -> tuple[list[tuple[int, int]], int, int]:
    """Read back the knapsack text this module writes: items, bound, target."""
    items, bound, target = [], 0, 0
    for line in text.splitlines():
        toks = line.split()
        if toks[0] == "item":
            items.append((int(toks[1]), int(toks[2])))
        elif toks[0] == "bound":
            bound = int(toks[1])
        elif toks[0] == "target":
            target = int(toks[1])
    return items, bound, target


def first_feasible_depth(items: list[tuple[int, int]], bound: int, target: int) -> int | None:
    """Number of Player-1 strategies of the knapsack chain that a
    lexicographic enumeration visits up to and including the first
    feasible subset; None if no subset is feasible. Item states are
    visited in id order (i1, i10, i11, ..., i2, ...), skip before take."""
    n = len(items)
    order = sorted(range(n), key=lambda j: f"i{j + 1}")
    rest_profit = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        rest_profit[i] = rest_profit[i + 1] + items[order[i]][0]

    def walk(i: int, weight: int, profit: int) -> tuple[bool, int]:
        if weight > bound or profit + rest_profit[i] < target:
            return False, 2 ** (n - i)
        if i == n:
            return True, 0
        p, w = items[order[i]]
        found, skipped = walk(i + 1, weight, profit)
        if found:
            return True, skipped
        found, below = walk(i + 1, weight + w, profit + p)
        return found, skipped + below

    found, before = walk(0, 0, 0)
    return before + 1 if found else None


def knapsack(rng: random.Random, items: int, depth: tuple[int, int] | None) -> str:
    """Random knapsack instance. With depth None it is infeasible (the
    solver scans all 2^items subsets); otherwise its first feasible
    subset lies at a depth in [lo, hi)."""
    lo, hi = (45, 70) if depth else (75, 95)
    while True:
        pairs = [(rng.randint(1, MAX_ITEM_VALUE), rng.randint(1, MAX_ITEM_VALUE)) for _ in range(items)]
        bound = sum(w for _, w in pairs) * rng.randint(30, 50) // 100
        target = sum(p for p, _ in pairs) * rng.randint(lo, hi) // 100
        d = first_feasible_depth(pairs, bound, target)
        if (d is None) if depth is None else (d is not None and depth[0] <= d < depth[1]):
            lines = [f"item {p} {w}" for p, w in pairs] + [f"bound {bound}", f"target {target}"]
            return "\n".join(lines) + "\n"


def dense_game(rng: random.Random, states: int, p2_states: int, dimension: int, plant: str) -> str:
    """Random game in `.mwg` text. Every state has OUT_DEGREE edges (ids
    e<i>_<j>) with weights uniform in [WEIGHT_LO, WEIGHT_HI]; edge j of
    each state leads along the j-th of OUT_DEGREE random permutations of
    the states, so that every state also has OUT_DEGREE incoming edges
    before planting (such regular graphs vary less in solve cost than
    uniform targets: coefficient of variation 0.13 against 0.22 on the
    YES games of p2-dense). State s0 is initial and owned by Player 1,
    s1..s<p2_states> by Player 2, the rest by Player 1. Targets are
    redrawn until every state is reachable from s0 along Player-1 edges,
    so every Player-2 strategy leaves the whole game reachable. Weights
    along a random 0/1 potential are then planted on some edges so that
    the verdict is known (a = p2_states + 1 is the first Player-1 state
    after s0):

    - "p1-cycle": a Player-1 cycle s0 -> s<a> -> s0 with weights in
      [0, WEIGHT_HI] and potential steps in dimension 1, where every other
      edge steps down by one more. The planted cycle is then the only
      nonnegative circuit under every Player-2 strategy (energy YES);
    - "p2-first": dimension 1 steps down on every edge of Player 1 and on
      the first edge of each Player-2 state, so the first Player-2
      strategy spoils (energy NO);
    - "p2-decoy": as "p2-first", except for two vertex-disjoint Player-1
      cycles s<a> <-> s<a+1> and s<a+2> <-> s<a+3>. The other edges of
      these four states stay among them, so they form one strongly
      connected component of fixed size, and targets are redrawn instead
      until it is reachable under the first Player-2 strategy. The cycles step
      by 0 in every dimension but 2 and 3, where the first sums to (+1, -1)
      and the second to (-1, +1). Each alone is negative and any circuit
      joining them is negative in dimension 1, so the first Player-2
      strategy still spoils (energy NO), but the circulation LP is
      feasible only on the two cycles together: its support is
      disconnected and the circuit search calls `max_support_solution`
      once per search of that strategy. Needs dimension >= 3 and
      states >= p2_states + 5;
    - "p1-all": dimension 1 steps down on every edge, so every cycle has
      mean at most -1 there (memoryless NO);
    - "p1-first": every dimension steps up on the first edge of each
      Player-1 state and on all Player-2 edges, so the first Player-1
      strategy keeps every cycle mean at least 1 (memoryless YES).

    Each planted step is the potential difference plus -1, 0 or +1, so
    planted weights lie in [-2, 2]; the other weights keep their range.
    """
    ids = [f"s{i}" for i in range(states)]
    owner = [2 if 1 <= i <= p2_states else 1 for i in range(states)]
    a = p2_states + 1
    if plant == "p1-cycle":
        forced = {(0, 0): a, (a, 0): 0}
    elif plant == "p2-decoy":
        forced = {(a, 0): a + 1, (a + 1, 0): a, (a + 2, 0): a + 3, (a + 3, 0): a + 2}
    else:
        forced = {}
    while True:
        perms = [rng.sample(range(states), states) for _ in range(OUT_DEGREE)]
        dst = {(i, j): perms[j][i] for i in range(states) for j in range(OUT_DEGREE)}
        dst.update(forced)
        if plant == "p2-decoy":
            # The decoy states' other edges stay among them; only the first
            # Player-2 strategy matters, and it must reach them.
            dst.update({(i, j): a + rng.randrange(4) for i in range(a, a + 4) for j in range(1, OUT_DEGREE)})
            first = {i: [dst[(i, j)] for j in range(OUT_DEGREE if owner[i] == 1 else 1)] for i in range(states)}
            if a in _reach(first, 0) and a + 2 in _reach(first, a) and a in _reach(first, a + 2):
                break
        else:
            p1_moves = {i: [dst[(i, j)] for j in range(OUT_DEGREE)] if owner[i] == 1 else [] for i in range(states)}
            if len(_reach(p1_moves, 0)) == states:
                break
    weight = {key: [rng.randint(WEIGHT_LO, WEIGHT_HI) for _ in range(dimension)] for key in dst}
    potential = [[rng.randint(0, 1) for _ in range(states)] for _ in range(dimension)]

    def along(i: int, j: int, d: int, step: int) -> int:
        return potential[d][dst[(i, j)]] - potential[d][i] + step

    if plant == "p1-cycle":
        for key in dst:
            if key in forced:
                weight[key] = [rng.randint(0, WEIGHT_HI) for _ in range(dimension)]
            weight[key][0] = along(*key, 0, 0 if key in forced else -1)
    elif plant in ("p2-first", "p2-decoy", "p1-all"):
        for (i, j) in dst:
            if plant == "p1-all" or owner[i] == 1 or j == 0:
                weight[(i, j)][0] = along(i, j, 0, -1)
        decoy_steps = {(a, 0): (1, -1), (a + 2, 0): (-1, 1), (a + 1, 0): (0, 0), (a + 3, 0): (0, 0)}
        for key in forced:
            steps = (0, *decoy_steps[key]) + (0,) * (dimension - 3)
            weight[key] = [along(*key, d, steps[d]) for d in range(dimension)]
    elif plant == "p1-first":
        for (i, j) in dst:
            if owner[i] == 2 or j == 0:
                weight[(i, j)] = [along(i, j, d, 1) for d in range(dimension)]
    else:
        raise ValueError(f"unknown plant {plant!r}")
    lines = ["mwg 1", f"dimension {dimension}"]
    for i, sid in enumerate(ids):
        lines.append(f"state {sid} owner={owner[i]}" + (" init" if i == 0 else ""))
    for (i, j), t in sorted(dst.items()):
        w = ",".join(str(c) for c in weight[(i, j)])
        lines.append(f"edge e{i}_{j} {ids[i]} {ids[t]} w=({w})")
    return "\n".join(lines) + "\n"


def _reach(succ: dict[int, list[int]], start: int) -> set[int]:
    seen, todo = {start}, [start]
    while todo:
        for w in succ[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def threshold(rng: random.Random, dimension: int, denominators: tuple[int, ...], zeros: int = 0) -> str:
    """Comma-separated rational threshold: `zeros` leading components 0,
    the rest a/b in (-1, 0] with b drawn from `denominators`. Planted
    verdicts survive such a threshold: planted YES cycles have mean >= 0
    and planted NO cycles mean <= -1. A "p1-cycle" game keeps its nonnegative
    circuit unique only if dimension 1 is not shifted, so it takes
    zeros=1."""
    parts = ["0"] * zeros
    for _ in range(dimension - zeros):
        b = rng.choice(denominators)
        parts.append(f"{-rng.randrange(b)}/{b}")
    return ",".join(parts)
