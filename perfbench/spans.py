"""Span recorder for the traced benchmark run.

`SpanRecorder.install()` replaces, in the module that looks them up, the
functions through which one `mwg` module calls into another, and the
public entry points the benchmark calls. Each call then records a span
(name, parent span, start and end in nanoseconds) in flat in-memory
arrays; nothing is written until the run ends. `uninstall()` puts every
original function back, so untraced runs measure unwrapped code.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter_ns

# (module that looks the name up, name, span label). The two underscore
# names are the only routes from `solvers` into the circuit search, and
# `graphs` calls them through its own globals, so one replacement covers
# the per-strategy call in `solvers` and the calls inside the search.
BOUNDARIES = [
    ("mwg.formats", "parse_game", "formats.parse"),
    ("mwg.formats", "parse_dimacs", "formats.parse"),
    ("mwg.formats", "parse_knapsack", "formats.parse"),
    ("mwg.formats", "parse_threshold", "formats.parse"),
    ("mwg.formats", "parse_certificate", "formats.cert"),
    ("mwg.formats", "write_certificate", "formats.cert"),
    ("mwg.reductions", "encode_3sat_two_player", "reductions.encode"),
    ("mwg.reductions", "encode_knapsack", "reductions.encode"),
    ("mwg.solvers", "solve_unknown_credit", "solvers.solve"),
    ("mwg.solvers", "solve_meanpayoff_threshold", "solvers.solve"),
    ("mwg.solvers", "solve_memoryless_p1_energy", "solvers.solve"),
    ("mwg.solvers", "solve_memoryless_p1_meanpayoff", "solvers.solve"),
    ("mwg.solvers", "verify_p2_spoiler", "solvers.check"),
    ("mwg.solvers", "verify_p1_certificate", "solvers.check"),
    ("mwg.solvers", "clamped_fixed_credit_oracle", "solvers.oracle"),
    ("mwg.solvers", "validate_game", "model.validate"),
    ("mwg.solvers", "product_with_strategy", "model.product"),
    ("mwg.solvers", "negative_cycle_in_dimension", "graphs.negative_cycle"),
    ("mwg.graphs", "_simplify", "graphs.simplify"),
    ("mwg.graphs", "_search_circuit", "graphs.search_circuit"),
    ("mwg.graphs", "nonnegative_circuit", "graphs.nonneg_circuit"),
    ("mwg.graphs", "lp_feasible", "lp.feasible"),
    ("mwg.graphs", "max_support_solution", "lp.max_support"),
]


def lp_size(sys_) -> tuple[int, int, int]:
    """Variables, rows and the largest bit length of any coefficient or
    right-hand side (numerator or denominator) of a linear system."""
    bits = 0
    for c in sys_.constraints:
        for x in (*c.coeffs, c.rhs):
            x = Fraction(x)
            bits = max(bits, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return len(sys_.variables), len(sys_.constraints), bits


class SpanRecorder:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.label_index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.lp_systems: list = []  # systems passed to the LP, sized after the run
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _label(self, label: str) -> int:
        if label not in self.label_index:
            self.label_index[label] = len(self.labels)
            self.labels.append(label)
        return self.label_index[label]

    def _open(self, label_id: int) -> int:
        idx = len(self.name)
        self.name.append(label_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, label: str):
        label_id = self._label(label)
        observe_lp = label.startswith("lp.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe_lp:
                self.lp_systems.append(args[0])
            idx = self._open(label_id)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self.start[idx] = t0
                self._stack.pop()

        return traced

    @contextmanager
    def span(self, label: str):
        """Record one span opened by the benchmark itself (the root span
        of one operation)."""
        idx = self._open(self._label(label))
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self.end[idx] = perf_counter_ns()
            self.start[idx] = t0
            self._stack.pop()

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("recorder already installed")
        for modname, attr, label in BOUNDARIES:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, label))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def __len__(self) -> int:
        return len(self.name)

    def write_tsv(self, path) -> None:
        """One span per line: index, parent index, label, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.labels[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\n")

    def totals(self) -> tuple[dict[str, dict[str, float]], int, int]:
        """Per label: span count, total seconds and self seconds (duration
        minus the durations of direct child spans). Also the number of
        `_simplify` spans and of `_search_circuit` spans whose parent is a
        solve: strategies enumerated and searches the shape cache missed."""
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {lab: {"calls": 0, "s": 0.0, "self_s": 0.0} for lab in self.labels}
        solve_id = self.label_index.get("solvers.solve")
        simplify_id = self.label_index.get("graphs.simplify")
        search_id = self.label_index.get("graphs.search_circuit")
        strategies = searches = 0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            rec = out[self.labels[self.name[i]]]
            rec["calls"] += 1
            rec["s"] += dur / 1e9
            rec["self_s"] += (dur - child[i]) / 1e9
            p = self.parent[i]
            if p >= 0 and self.name[p] == solve_id:
                strategies += self.name[i] == simplify_id
                searches += self.name[i] == search_id
        return out, strategies, searches
