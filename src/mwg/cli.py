"""Command line driver.

Verdict-producing commands print exactly `YES` or `NO` as the first
stdout line, followed by certificate material in certificate syntax
where applicable. Exit codes: 0 verdict computed (either way), 2 usage
errors, 3 parse or validation errors. All diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import graphs, solvers
from .errors import InvalidGameError, MwgError, ParseError
from .formats import (
    _INT,
    _vector_text,
    parse_certificate,
    parse_dimacs,
    parse_game,
    parse_knapsack,
    parse_threshold,
    write_certificate,
    write_game,
)
from .model import GameStructure, MemorylessStrategy, validate_game
from .reductions import encode_3sat_memoryless, encode_3sat_two_player, encode_knapsack


class _InputError(Exception):
    """File-level problem: unreadable input or parse error."""


def _threshold_arg(text: str):
    try:
        return parse_threshold(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _credit_arg(text: str):
    parts = [p.strip() for p in text.split(",")]
    if not all([_INT.match(p) for p in parts]):
        raise argparse.ArgumentTypeError(f"malformed credit {text!r}, expected comma-separated integers")
    return tuple([int(p) for p in parts])


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _parse_game(path: str) -> GameStructure:
    """The game in path, parsed but not validated: for commands whose
    solver validates it and raises InvalidGameError."""
    try:
        return parse_game(_read(path))
    except ParseError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _load_game(path: str) -> GameStructure:
    g = _parse_game(path)
    violations = validate_game(g)
    if violations:
        raise InvalidGameError(violations)
    return g


def _emit(verdict: bool, payload: str = "") -> int:
    sys.stdout.write(("YES\n" if verdict else "NO\n") + payload)
    return 0


def _cmd_solve(args) -> int:
    g = _parse_game(args.game)
    if args.variant == "energy":
        v = solvers.solve_unknown_credit(g)
    elif args.variant == "mp":
        v = solvers.solve_meanpayoff_threshold(g, args.threshold)
    elif args.variant == "memoryless-energy":
        v = solvers.solve_memoryless_p1_energy(g)
    else:
        v = solvers.solve_memoryless_p1_meanpayoff(g, args.threshold)
    if args.variant.startswith("memoryless"):
        return _emit(v.answer, write_certificate(v.strategy, v.credit) if v.answer else "")
    if v.answer:
        return _emit(True, f"credit {_vector_text(v.credit)}\n")
    return _emit(False, write_certificate(v.spoiler))


def _cmd_check(args) -> int:
    g = _load_game(args.game)
    try:
        strategy, declared = parse_certificate(_read(args.certificate), 1 if args.who == "p1" else 2)
    except ParseError as exc:
        raise _InputError(f"{args.certificate}: {exc}") from exc
    if args.who == "p1":
        if declared is not None and len(declared) != g.dimension:
            raise _InputError(f"{args.certificate}: credit has {len(declared)} components, expected {g.dimension}")
        result = solvers.verify_p1_certificate(g, strategy)
        # A declared credit must dominate the least one the strategy needs.
        accepted = result.accepted and (declared is None or all([a >= b for a, b in zip(declared, result.credit)]))
        return _emit(accepted, f"credit {_vector_text(result.credit)}\n" if accepted else "")
    if not isinstance(strategy, MemorylessStrategy):
        raise _InputError(f"{args.certificate}: Player-2 certificates must be memoryless")
    return _emit(solvers.verify_p2_spoiler(g, strategy))


def _cmd_encode(args) -> int:
    text = _read(args.input)
    try:
        if args.kind == "knapsack":
            game = encode_knapsack(parse_knapsack(text))
        elif args.kind == "3sat":
            game = encode_3sat_two_player(parse_dimacs(text))
        else:
            game = encode_3sat_memoryless(parse_dimacs(text))
    except (ParseError, ValueError) as exc:
        raise _InputError(f"{args.input}: {exc}") from exc
    sys.stdout.write(write_game(game))
    return 0


def _cmd_circuit(args) -> int:
    g = _load_game(args.game)
    mg = solvers.as_multigraph(g)
    if args.mode == "zero":
        c = graphs.zero_circuit(mg)
    else:
        c = graphs.nonnegative_circuit(mg, g.init)
    if c is None:
        return _emit(False)
    return _emit(True, "circuit " + " ".join(str(e) for e in c.edges) + "\n")


def _cmd_oracle(args) -> int:
    return _emit(solvers.clamped_fixed_credit_oracle(_parse_game(args.game), args.credit, args.cap))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mwg", description="Solvers for multi-weighted energy and mean-payoff games.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide a game")
    p_solve.add_argument("variant", choices=["energy", "mp", "memoryless-energy", "memoryless-mp"])
    p_solve.add_argument("game", help="game file")
    p_solve.add_argument("--threshold", type=_threshold_arg, help="mean-payoff threshold, rationals a/b comma-separated")
    p_solve.set_defaults(func=_cmd_solve)

    p_check = sub.add_parser("check", help="verify a certificate")
    p_check.add_argument("who", choices=["p1", "p2"])
    p_check.add_argument("game")
    p_check.add_argument("certificate")
    p_check.set_defaults(func=_cmd_check)

    p_encode = sub.add_parser("encode", help="encode a source problem as a game")
    p_encode.add_argument("kind", choices=["3sat", "3sat-memoryless", "knapsack"])
    p_encode.add_argument("input")
    p_encode.set_defaults(func=_cmd_encode)

    p_circuit = sub.add_parser("circuit", help="search for a zero or nonnegative circuit")
    p_circuit.add_argument("mode", choices=["zero", "nonneg"])
    p_circuit.add_argument("game")
    p_circuit.set_defaults(func=_cmd_circuit)

    p_oracle = sub.add_parser("oracle", help="clamped fixed-credit safety oracle")
    p_oracle.add_argument("kind", choices=["fixed-credit"])
    p_oracle.add_argument("game")
    p_oracle.add_argument("--credit", type=_credit_arg, required=True)
    p_oracle.add_argument("--cap", type=int, required=True)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "variant", None) in ("mp", "memoryless-mp") and args.threshold is None:
        sys.stderr.write("mwg solve: --threshold is required for mean-payoff variants\n")
        return 2
    try:
        return args.func(args)
    except InvalidGameError as exc:
        sys.stderr.write(f"error: {args.game}: {exc}\n")
        return 3
    except (_InputError, MwgError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
