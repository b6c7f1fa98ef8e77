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

Every parse error names the line and column of the offending token. A
problem found only at the end of the file points to the last line,
column 1; a certificate with no memory or initial line, to line 1,
column 1. DIMACS files have no `#` comments.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Union

from .errors import ParseError
from .model import Edge, GameStructure, MemorylessStrategy, MooreStrategy, State
from .reductions import CnfFormula, KnapsackInstance

_TOKEN = re.compile(r"\S+")  # the tokens of str.split(), with their positions
_VECTOR = re.compile(r"\(-?[0-9]+(?:,-?[0-9]+)*\)")
_INT = re.compile(r"^-?[0-9]+$")


def _lines(text: str):
    """(line number, line without its # comment, line.split()) for each
    line that has a token."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        toks = line.split()
        if toks:
            out.append((lineno, line, toks))
    return out


def _fail(lineno: int, line: str, i: int, reason: str):
    """Raise a ParseError at the column of token i of line."""
    column = [m.start() for m in _TOKEN.finditer(line)][i] + 1
    raise ParseError(lineno, column, reason)


def _expect(ok: bool, lineno: int, line: str, usage: str) -> None:
    """Fail at the line's first token, quoting usage, unless ok."""
    if not ok:
        _fail(lineno, line, 0, f"expected '{usage}'")


def _vector(lineno: int, line: str, toks: list[str], i: int, what: str, prefix: str) -> tuple[int, ...]:
    """The integers of token i, written `<prefix>(<int>,...)`."""
    tok = toks[i]
    if not tok.startswith(prefix) or _VECTOR.fullmatch(tok, len(prefix)) is None:
        _fail(lineno, line, i, f"malformed {what} {tok!r}, expected {prefix}(<int>,...)")
    return tuple([int(x) for x in tok[len(prefix) + 1 : -1].split(",")])


def parse_game(text: str) -> GameStructure:
    """Parse a game file. Raises ParseError with line and column on
    grammar violations; structural problems (duplicate ids, weight arity,
    out-degrees) are left to validate_game."""
    lines = _lines(text)
    last_line = text.count("\n") + 1
    if not lines:
        raise ParseError(1, 1, "missing header 'mwg 1'")
    lineno, line, toks = lines[0]
    if toks != ["mwg", "1"]:
        _fail(lineno, line, 0, "expected header 'mwg 1'")
    if len(lines) < 2:
        raise ParseError(last_line, 1, "missing 'dimension <k>' line")
    lineno, line, toks = lines[1]
    _expect(len(toks) == 2 and toks[0] == "dimension", lineno, line, "dimension <k>")
    if not _INT.match(toks[1]) or int(toks[1]) < 1:
        _fail(lineno, line, 1, "dimension must be a positive integer")
    dimension = int(toks[1])
    states: list[State] = []
    edges: list[Edge] = []
    init: Optional[str] = None
    for lineno, line, toks in lines[2:]:
        kind = toks[0]
        if kind == "state":
            if edges:
                _fail(lineno, line, 0, "state line after edge lines")
            _expect(len(toks) in (3, 4), lineno, line, "state <id> owner=<1|2> [init]")
            if toks[2] not in ("owner=1", "owner=2"):
                _fail(lineno, line, 2, f"malformed owner {toks[2]!r}, expected owner=1 or owner=2")
            if len(toks) == 4:
                if toks[3] != "init":
                    _fail(lineno, line, 3, f"unexpected token {toks[3]!r}")
                if init is not None:
                    _fail(lineno, line, 3, "second state marked init")
                init = toks[1]
            states.append(State(toks[1], int(toks[2][-1])))
        elif kind == "edge":
            _expect(len(toks) == 5, lineno, line, "edge <id> <src> <dst> w=(...)")
            edges.append(Edge(toks[1], toks[2], toks[3], _vector(lineno, line, toks, 4, "weight", "w=")))
        else:
            _fail(lineno, line, 0, f"unknown directive {kind!r}")
    if init is None:
        raise ParseError(last_line, 1, "no initial state")
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
    it with a stray `0`. There are no `#` comments."""
    header = None
    rows: list[tuple[int, str, list[int]]] = []  # (line number, line, literals)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("%"):
            break
        toks = [] if line.startswith("c") else line.split()
        if not toks:
            continue
        if toks[0] == "p":
            if header is not None:
                _fail(lineno, line, 0, "duplicate header")
            _expect(len(toks) == 4 and toks[1] == "cnf", lineno, line, "p cnf <vars> <clauses>")
            for i in (2, 3):
                if not _INT.match(toks[i]) or int(toks[i]) < 0:
                    _fail(lineno, line, i, f"malformed count {toks[i]!r}")
            header = (int(toks[2]), int(toks[3]), lineno, line)
            continue
        if header is None:
            _fail(lineno, line, 0, "clause before 'p cnf' header")
        for i, tok in enumerate(toks):
            if not _INT.match(tok):
                _fail(lineno, line, i, f"malformed literal {tok!r}")
        rows.append((lineno, line, [int(tok) for tok in toks]))
    if header is None:
        raise ParseError(text.count("\n") + 1, 1, "missing 'p cnf' header")
    nvars, nclauses, header_line, header_text = header
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    for lineno, line, values in rows:
        for i, value in enumerate(values):
            if value == 0:
                if len(current) != 3:
                    _fail(lineno, line, i, f"clause has {len(current)} literals, expected 3")
                clauses.append(tuple(current))
                current = []
                continue
            if abs(value) > nvars:
                _fail(lineno, line, i, f"variable {abs(value)} out of range 1..{nvars}")
            current.append(value)
    if current:
        lineno, line, values = rows[-1]
        _fail(lineno, line, len(values) - 1, "unterminated clause (missing 0)")
    if len(clauses) != nclauses:
        _fail(header_line, header_text, 0, f"header promises {nclauses} clauses, found {len(clauses)}")
    return CnfFormula(nvars, tuple(clauses))


def parse_knapsack(text: str) -> KnapsackInstance:
    """Knapsack format: `item <profit> <weight>` lines (at least one),
    plus exactly one `bound <B>` and one `target <P>` line; `#` comments."""
    items: list[tuple[int, int]] = []
    scalars: dict[str, int] = {}  # the bound and the target

    def nonneg(i: int) -> int:
        if not _INT.match(toks[i]) or int(toks[i]) < 0:
            _fail(lineno, line, i, f"expected a nonnegative integer, got {toks[i]!r}")
        return int(toks[i])

    for lineno, line, toks in _lines(text):
        kind = toks[0]
        if kind == "item":
            _expect(len(toks) == 3, lineno, line, "item <profit> <weight>")
            items.append((nonneg(1), nonneg(2)))
        elif kind in ("bound", "target"):
            _expect(len(toks) == 2, lineno, line, "bound <B>" if kind == "bound" else "target <P>")
            if kind in scalars:
                _fail(lineno, line, 0, f"duplicate {kind} line")
            scalars[kind] = nonneg(1)
        else:
            _fail(lineno, line, 0, f"unknown directive {kind!r}")
    last_line = text.count("\n") + 1
    if not items:
        raise ParseError(last_line, 1, "no item lines")
    for kind in ("bound", "target"):
        if kind not in scalars:
            raise ParseError(last_line, 1, f"no {kind} line")
    return KnapsackInstance(tuple(items), scalars["bound"], scalars["target"])


def parse_certificate(
    text: str, player: int
) -> tuple[Union[MemorylessStrategy, MooreStrategy], Optional[tuple[int, ...]]]:
    """Parse a certificate for the given player. The kind is inferred
    from the lines present: `choose` lines make a memoryless strategy,
    machine lines (`memory`/`initial`/`update`/`next`) a finite-memory
    one; mixing the two is an error. A file with no strategy lines is the
    empty memoryless strategy (games where the player owns no state)."""
    lines = _lines(text)
    choose: dict[str, str] = {}
    memory: list[str] = []
    initial: Optional[str] = None
    update: dict[tuple[str, str], str] = {}
    action: dict[tuple[str, str], str] = {}
    credit: Optional[tuple[int, ...]] = None
    for lineno, line, toks in lines:
        kind = toks[0]
        if kind == "choose":
            _expect(len(toks) == 3, lineno, line, "choose <state> <edge>")
            if toks[1] in choose:
                _fail(lineno, line, 1, f"duplicate choose line for state {toks[1]!r}")
            choose[toks[1]] = toks[2]
        elif kind == "memory":
            _expect(len(toks) == 2, lineno, line, "memory <id>")
            if toks[1] in memory:
                _fail(lineno, line, 1, f"duplicate memory state {toks[1]!r}")
            memory.append(toks[1])
        elif kind == "initial":
            _expect(len(toks) == 2, lineno, line, "initial <id>")
            if initial is not None:
                _fail(lineno, line, 0, "duplicate initial line")
            initial = toks[1]
        elif kind in ("update", "next"):
            _expect(len(toks) == 5 and toks[3] == "->", lineno, line, f"{kind} <m> <state> -> <target>")
            key = (toks[1], toks[2])
            table = update if kind == "update" else action
            if key in table:
                _fail(lineno, line, 0, f"duplicate {kind} line for {key}")
            table[key] = toks[4]
        elif kind == "credit":
            _expect(len(toks) == 2, lineno, line, "credit (<int>,...)")
            if credit is not None:
                _fail(lineno, line, 0, "duplicate credit line")
            credit = _vector(lineno, line, toks, 1, "credit", "")
        else:
            _fail(lineno, line, 0, f"unknown directive {kind!r}")
    if not (memory or initial is not None or update or action):
        return MemorylessStrategy(player, choose), credit
    if choose:
        kinds = [(toks[0] == "choose", lineno, line) for lineno, line, toks in lines if toks[0] != "credit"]
        _, lineno, line = next(k for k in kinds if k[0] != kinds[0][0])  # the second kind's first line
        _fail(lineno, line, 0, "certificate mixes memoryless and finite-memory lines")
    if not memory:
        raise ParseError(1, 1, "machine certificate has no memory lines")
    if initial is None:
        raise ParseError(1, 1, "machine certificate has no initial line")
    refs = {"initial": (1,), "update": (1, 4), "next": (1,)}  # the memory ids each line names
    for lineno, line, toks in lines:
        for i in refs.get(toks[0], ()):
            if toks[i] not in memory:
                _fail(lineno, line, i, f"{toks[0]} line references undeclared memory {toks[i]!r}")
    return MooreStrategy(player, tuple(memory), initial, update, action), credit


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
        if not re.match(r"^-?[0-9]+(/[1-9][0-9]*)?$", tok):
            column = start + len(part) - len(part.lstrip())
            raise ParseError(1, column, f"malformed rational {tok!r}, expected a or a/b")
        values.append(Fraction(tok))
        start += len(part) + 1
    return tuple(values)
