"""Text formats: game files, strategy certificates, DIMACS CNF, and the
knapsack instance format.

Game grammar (line oriented, `#` starts a comment, blank lines ignored):

    mwg 1
    dimension <k>
    state <id> owner=<1|2> [init]      # exactly one state marked init
    edge <id> <src> <dst> w=(<c1>,...,<ck>)

State lines precede edge lines. Weight arity is not checked here; that is
a validation concern (validate_game) reported separately from parse
errors. write_game emits the canonical form: states sorted by id, then
edges sorted by id; canonical files round-trip byte-identically.

Certificates are either memoryless

    choose <state> <edge id>

or finite-memory machines

    memory <id>            # one line per memory state, order = machine order
    initial <id>
    update <m> <state> -> <m'>
    next <m> <state> -> <edge id>

optionally followed by `credit (<c1>,...,<ck>)`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Union

from .errors import ParseError
from .model import Edge, GameStructure, MemorylessStrategy, MooreStrategy, State
from .reductions import CnfFormula, KnapsackInstance

_TOKEN = re.compile(r"\S+")
_WEIGHT = re.compile(r"^w=\((-?\d+)(?:,(-?\d+))*\)$")
_INT = re.compile(r"^-?\d+$")


def _tokenize(text: str):
    """Per line: list of (token, 1-based column), comments stripped."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]
        if toks:
            out.append((lineno, toks))
    return out


def _fail(lineno: int, column: int, reason: str):
    raise ParseError(lineno, column, reason)


def _parse_weight(tok: str, lineno: int, column: int) -> tuple[int, ...]:
    if _WEIGHT.match(tok) is None:
        _fail(lineno, column, f"malformed weight {tok!r}, expected w=(<int>,...)")
    return tuple([int(x) for x in tok[3:-1].split(",")])


def parse_game(text: str) -> GameStructure:
    """Parse a game file. Raises ParseError with line and column on
    grammar violations; structural problems (duplicate ids, weight arity,
    out-degrees) are left to validate_game."""
    lines = _tokenize(text)
    last_line = text.count("\n") + 1
    if not lines:
        _fail(1, 1, "missing header 'mwg 1'")
    lineno, toks = lines[0]
    if [t for t, _ in toks] != ["mwg", "1"]:
        _fail(lineno, toks[0][1], "expected header 'mwg 1'")
    if len(lines) < 2:
        _fail(last_line, 1, "missing 'dimension <k>' line")
    lineno, toks = lines[1]
    if len(toks) != 2 or toks[0][0] != "dimension":
        _fail(lineno, toks[0][1], "expected 'dimension <k>'")
    if not _INT.match(toks[1][0]) or int(toks[1][0]) < 1:
        _fail(lineno, toks[1][1], "dimension must be a positive integer")
    dimension = int(toks[1][0])
    states: list[State] = []
    edges: list[Edge] = []
    init: Optional[str] = None
    for lineno, toks in lines[2:]:
        kind = toks[0][0]
        if kind == "state":
            if edges:
                _fail(lineno, toks[0][1], "state line after edge lines")
            if len(toks) not in (3, 4):
                _fail(lineno, toks[0][1], "expected 'state <id> owner=<1|2> [init]'")
            sid = toks[1][0]
            owner_tok, owner_col = toks[2]
            if owner_tok not in ("owner=1", "owner=2"):
                _fail(lineno, owner_col, f"malformed owner {owner_tok!r}, expected owner=1 or owner=2")
            if len(toks) == 4:
                if toks[3][0] != "init":
                    _fail(lineno, toks[3][1], f"unexpected token {toks[3][0]!r}")
                if init is not None:
                    _fail(lineno, toks[3][1], "second state marked init")
                init = sid
            states.append(State(sid, int(owner_tok[-1])))
        elif kind == "edge":
            if len(toks) != 5:
                _fail(lineno, toks[0][1], "expected 'edge <id> <src> <dst> w=(...)'")
            weight = _parse_weight(toks[4][0], lineno, toks[4][1])
            edges.append(Edge(toks[1][0], toks[2][0], toks[3][0], weight))
        else:
            _fail(lineno, toks[0][1], f"unknown directive {kind!r}")
    if init is None:
        _fail(last_line, 1, "no initial state")
    return GameStructure(dimension, tuple(states), init, tuple(edges))


def _vector_text(v) -> str:
    return "(" + ",".join(str(int(c)) for c in v) + ")"


def write_game(g: GameStructure) -> str:
    """Canonical serialization: header, dimension, states by id, edges by
    id. Deterministic; parsing it back yields an equal structure."""
    out = ["mwg 1", f"dimension {g.dimension}"]
    for s in sorted(g.states, key=lambda s: s.id):
        marker = " init" if s.id == g.init else ""
        out.append(f"state {s.id} owner={s.owner}{marker}")
    for e in sorted(g.edges, key=lambda e: e.id):
        out.append(f"edge {e.id} {e.src} {e.dst} w={_vector_text(e.weight)}")
    return "\n".join(out) + "\n"


def parse_dimacs(text: str) -> CnfFormula:
    """DIMACS CNF restricted to exactly three literals per clause.
    Comment lines start with `c`; the header is `p cnf <vars> <clauses>`;
    clauses are 0-terminated literal runs, free-form across lines. A line
    starting with `%` ends the formula, as in SATLIB files, which follow
    it with a stray `0`."""
    header = None
    literals: list[tuple[int, int, int]] = []  # (value, line, column)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("%"):
            break
        if raw.startswith("c"):
            continue
        toks = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(raw)]
        if not toks:
            continue
        if toks[0][0] == "p":
            if header is not None:
                _fail(lineno, toks[0][1], "duplicate header")
            if len(toks) != 4 or toks[1][0] != "cnf":
                _fail(lineno, toks[0][1], "expected 'p cnf <vars> <clauses>'")
            for tok, col in toks[2:]:
                if not _INT.match(tok) or int(tok) < 0:
                    _fail(lineno, col, f"malformed count {tok!r}")
            header = (int(toks[2][0]), int(toks[3][0]), lineno)
            continue
        if header is None:
            _fail(lineno, toks[0][1], "clause before 'p cnf' header")
        for tok, col in toks:
            if not _INT.match(tok):
                _fail(lineno, col, f"malformed literal {tok!r}")
            literals.append((int(tok), lineno, col))
    if header is None:
        last_line = text.count("\n") + 1
        _fail(last_line, 1, "missing 'p cnf' header")
    nvars, nclauses, header_line = header
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    for value, lineno, col in literals:
        if value == 0:
            if len(current) != 3:
                _fail(lineno, col, f"clause has {len(current)} literals, expected 3")
            clauses.append(tuple(current))
            current = []
            continue
        if abs(value) > nvars:
            _fail(lineno, col, f"variable {abs(value)} out of range 1..{nvars}")
        current.append(value)
    if current:
        lineno, col = literals[-1][1], literals[-1][2]
        _fail(lineno, col, "unterminated clause (missing 0)")
    if len(clauses) != nclauses:
        _fail(header_line, 1, f"header promises {nclauses} clauses, found {len(clauses)}")
    return CnfFormula(nvars, tuple(clauses))


def parse_knapsack(text: str) -> KnapsackInstance:
    """Knapsack format: `item <profit> <weight>` lines (at least one),
    plus exactly one `bound <B>` and one `target <P>` line; `#` comments."""
    items: list[tuple[int, int]] = []
    bound: Optional[int] = None
    target: Optional[int] = None

    def nonneg(tok: str, lineno: int, col: int) -> int:
        if not _INT.match(tok) or int(tok) < 0:
            _fail(lineno, col, f"expected a nonnegative integer, got {tok!r}")
        return int(tok)

    for lineno, toks in _tokenize(text):
        kind, col = toks[0]
        if kind == "item":
            if len(toks) != 3:
                _fail(lineno, col, "expected 'item <profit> <weight>'")
            profit = nonneg(toks[1][0], lineno, toks[1][1])
            weight = nonneg(toks[2][0], lineno, toks[2][1])
            items.append((profit, weight))
        elif kind == "bound":
            if len(toks) != 2:
                _fail(lineno, col, "expected 'bound <B>'")
            if bound is not None:
                _fail(lineno, col, "duplicate bound line")
            bound = nonneg(toks[1][0], lineno, toks[1][1])
        elif kind == "target":
            if len(toks) != 2:
                _fail(lineno, col, "expected 'target <P>'")
            if target is not None:
                _fail(lineno, col, "duplicate target line")
            target = nonneg(toks[1][0], lineno, toks[1][1])
        else:
            _fail(lineno, col, f"unknown directive {kind!r}")
    last_line = text.count("\n") + 1
    if not items:
        _fail(last_line, 1, "no item lines")
    if bound is None:
        _fail(last_line, 1, "no bound line")
    if target is None:
        _fail(last_line, 1, "no target line")
    return KnapsackInstance(tuple(items), bound, target)


_CREDIT = re.compile(r"^\((-?\d+)(?:,(-?\d+))*\)$")


def _parse_credit(tok: str, lineno: int, col: int) -> tuple[int, ...]:
    if _CREDIT.match(tok) is None:
        _fail(lineno, col, f"malformed credit {tok!r}, expected (<int>,...)")
    return tuple([int(x) for x in tok[1:-1].split(",")])


def parse_certificate(
    text: str, player: int
) -> tuple[Union[MemorylessStrategy, MooreStrategy], Optional[tuple[int, ...]]]:
    """Parse a certificate for the given player. The kind is inferred
    from the lines present: `choose` lines make a memoryless strategy,
    machine lines (`memory`/`initial`/`update`/`next`) a finite-memory
    one; mixing the two is an error. A file with no strategy lines is the
    empty memoryless strategy (games where the player owns no state)."""
    choose: dict[str, str] = {}
    memory: list[str] = []
    initial: Optional[str] = None
    update: dict[tuple[str, str], str] = {}
    action: dict[tuple[str, str], str] = {}
    credit: Optional[tuple[int, ...]] = None
    saw_choose = False
    saw_machine = False
    for lineno, toks in _tokenize(text):
        kind, col = toks[0]
        if kind == "choose":
            saw_choose = True
            if len(toks) != 3:
                _fail(lineno, col, "expected 'choose <state> <edge>'")
            if toks[1][0] in choose:
                _fail(lineno, toks[1][1], f"duplicate choose line for state {toks[1][0]!r}")
            choose[toks[1][0]] = toks[2][0]
        elif kind == "memory":
            saw_machine = True
            if len(toks) != 2:
                _fail(lineno, col, "expected 'memory <id>'")
            if toks[1][0] in memory:
                _fail(lineno, toks[1][1], f"duplicate memory state {toks[1][0]!r}")
            memory.append(toks[1][0])
        elif kind == "initial":
            saw_machine = True
            if len(toks) != 2:
                _fail(lineno, col, "expected 'initial <id>'")
            if initial is not None:
                _fail(lineno, col, "duplicate initial line")
            initial = toks[1][0]
        elif kind in ("update", "next"):
            saw_machine = True
            if len(toks) != 5 or toks[3][0] != "->":
                _fail(lineno, col, f"expected '{kind} <m> <state> -> <target>'")
            key = (toks[1][0], toks[2][0])
            table = update if kind == "update" else action
            if key in table:
                _fail(lineno, col, f"duplicate {kind} line for {key}")
            table[key] = toks[4][0]
        elif kind == "credit":
            if len(toks) != 2:
                _fail(lineno, col, "expected 'credit (<int>,...)'")
            if credit is not None:
                _fail(lineno, col, "duplicate credit line")
            credit = _parse_credit(toks[1][0], lineno, toks[1][1])
        else:
            _fail(lineno, col, f"unknown directive {kind!r}")
    if saw_choose and saw_machine:
        _fail(1, 1, "certificate mixes memoryless and finite-memory lines")
    if saw_machine:
        if not memory:
            _fail(1, 1, "machine certificate has no memory lines")
        if initial is None:
            _fail(1, 1, "machine certificate has no initial line")
        if initial not in memory:
            _fail(1, 1, f"initial memory {initial!r} is not declared")
        for (m, _s), m2 in update.items():
            if m not in memory or m2 not in memory:
                _fail(1, 1, f"update line references undeclared memory {m!r} or {m2!r}")
        for (m, _s) in action:
            if m not in memory:
                _fail(1, 1, f"next line references undeclared memory {m!r}")
        return MooreStrategy(player, tuple(memory), initial, update, action), credit
    return MemorylessStrategy(player, choose), credit


def write_certificate(
    s: Union[MemorylessStrategy, MooreStrategy], credit: Optional[tuple[int, ...]] = None
) -> str:
    """Serialize a strategy (and optional credit) in certificate syntax;
    deterministic ordering throughout."""
    out: list[str] = []
    if isinstance(s, MemorylessStrategy):
        for state in sorted(s.choice):
            out.append(f"choose {state} {s.choice[state]}")
    else:
        for m in s.memory:
            out.append(f"memory {m}")
        out.append(f"initial {s.initial}")
        for m, state in sorted(s.update):
            out.append(f"update {m} {state} -> {s.update[(m, state)]}")
        for m, state in sorted(s.action):
            out.append(f"next {m} {state} -> {s.action[(m, state)]}")
    if credit is not None:
        out.append(f"credit {_vector_text(credit)}")
    return "\n".join(out) + "\n" if out else ""


def parse_threshold(text: str) -> tuple[Fraction, ...]:
    """Comma-separated exact rationals: `a` or `a/b` per component."""
    values, start = [], 1  # start: the 1-based column of part
    for part in text.split(","):
        tok = part.strip()
        if not re.match(r"^-?\d+(/[1-9]\d*)?$", tok):
            column = start + len(part) - len(part.lstrip())
            raise ParseError(1, column, f"malformed rational {tok!r}, expected a or a/b")
        values.append(Fraction(tok))
        start += len(part) + 1
    return tuple(values)
