"""Benchmark for mwg: a closed loop of solve and check operations.

    python3 perfbench/run.py --workload p2-3sat --seed 1 --seconds 20 --trace 0

One client, one process, one thread, one operation at a time. The run
builds the workload's instance set from the seed, then repeats whole
passes over it while another fits in `--seconds` of wall time (at least
one pass), checks every output outside the timed region, and prints a
readable summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured without
tracing. With `--trace 1` half the time runs untraced and half with the
span recorder installed; the metrics are then per-layer figures per
pass, from the traced half, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MODULES = ("cli", "formats", "reductions", "model", "solvers", "graphs", "lp")
SETUP_LAUNCHES = 21
PROBE_REF = 0.001  # seconds the probe takes at the reference speed
WALL_CPU_LIMIT = 2.0  # a pass whose operations take this many times their CPU time in wall time fails


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mwg" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no mwg package under {SRC}; run from a checkout of the repository\n")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    setup = None if args.trace else measure_setup()
    insts = workloads.instances(args.workload, args.seed)
    bench = Bench(insts)
    if args.trace:
        from spans import SpanRecorder

        bench.run(args.seconds / 2)
        untraced_rate = bench.solves / bench.busy
        traced = Bench(insts, reference=bench.reference)
        rec = SpanRecorder()
        rec.install()
        try:
            traced.run(args.seconds / 2, rec)
        finally:
            rec.uninstall()
        OUT.mkdir(exist_ok=True)
        rec.write_tsv(OUT / f"spans-{args.workload}-{args.seed}.tsv")
        metrics, notes = layer_metrics(rec, traced)
        traced_rate = traced.solves / traced.busy
        metrics["trace.solves_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_pct"] = (100 * (1 - traced_rate / untraced_rate), "%")
        notes["trace.overhead_pct"] = f"{bench.passes} untraced and {traced.passes} traced pass(es)"
        bench.merge_counts(traced)
    else:
        bench.run(args.seconds)
        metrics, notes = end_to_end(bench, setup)
    report(args, bench, metrics, notes)
    return 0


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall seconds from launching a fresh interpreter until `import mwg`
    returns, once per launch, raw and scaled like operation times (by the
    probes just before and after the launch). The first launch, which may
    compile bytecode, is not counted."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import mwg, time; print(time.perf_counter_ns())"
    raw, scaled = [], []
    before = probe()
    for i in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter_ns()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        t1 = int(done.stdout.strip())
        if not t0 < t1 < time.perf_counter_ns():
            raise RuntimeError("child clock is not comparable with the parent's")
        after = probe()
        if i:
            raw.append((t1 - t0) / 1e9)
            scaled.append(raw[-1] * PROBE_REF * 2 / (before + after))
        before = after
    return raw, scaled


class Bench:
    """Runs passes over an instance set and keeps latencies, failures and
    each instance's first output (verdict and certificate text), which
    later passes must reproduce exactly."""

    def __init__(self, insts, reference=None):
        self.insts = insts
        self.reference = reference if reference is not None else {}
        self.solve_lat: list[float] = []
        self.check_lat: list[float] = []
        self.busy = 0.0
        self.passes = 0
        self.solves = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.space = {1: 0, 2: 0}
        self.by_kind: dict[str, list[float]] = {}
        self.wall_cpu: list[float] = []  # per pass: operations' wall over CPU seconds
        self.clock = Clock()

    def run(self, seconds: float, rec=None) -> None:
        """Whole passes while another one still fits in `seconds` of wall
        time; at least one."""
        start = time.perf_counter()
        while True:
            before = time.perf_counter()
            self.one_pass(rec)
            now = time.perf_counter()
            if now - start + (now - before) > seconds:
                return

    def one_pass(self, rec) -> None:
        import workloads

        self.passes += 1
        cpu, wall = self.clock.raw, self.clock.wall
        for i, inst in enumerate(self.insts):
            out = game = None  # the previous output must not add to this solve's peak memory
            out, dt, err = self.clock.time(lambda: workloads.solve(inst), rec, "op.solve")
            self.busy += dt
            self.solves += 1
            self.solve_lat.append(dt)
            self.by_kind.setdefault(inst.kind, []).append(dt)
            if err is None and self.passes == 1:
                if inst.solve != "oracle":
                    self.count_space(out.game)
                if i not in self.reference:
                    err = problems(inst, out)
                    # Not on the clock of the next operation: the garbage of
                    # this one, and the copy-on-write faults the fork left.
                    gc.collect()
                    self.clock.last = probe()
            key = None if out is None else (out.answer, out.cert)
            if err is None and self.reference.setdefault(i, key) != key:
                err = "output differs from the first pass"
            self.record(inst, err)
            if out is None or out.cert is None:
                continue
            game = workloads.evidence_game(out)
            player = workloads.cert_player(inst)
            ok, dt, err = self.clock.time(lambda: workloads.check(out.cert, player, game), rec, "op.check")
            self.busy += dt
            self.check_lat.append(dt)
            if err is None and ok is not True:
                err = "checker rejected the certificate"
            self.record(inst, err)
        self.wall_cpu.append((self.clock.wall - wall) / (self.clock.raw - cpu))
        if self.wall_cpu[-1] > WALL_CPU_LIMIT:
            self.failed += 1
            self.problems.append(f"pass {self.passes}: operations took {self.wall_cpu[-1]:.2f} times their CPU time in wall time")

    def count_space(self, g) -> None:
        for player in (1, 2):
            n = 1
            for sid in g.states_of(player):
                n *= len(g.out_edges(sid))
            self.space[player] += n

    def record(self, inst, err) -> None:
        self.attempted += 1
        if err is not None:
            self.failed += 1
            self.problems.append(f"{inst.kind}: {err}")

    def merge_counts(self, other: "Bench") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.wall_cpu += other.wall_cpu


def probe() -> float:
    """CPU seconds of a fixed pure-Python routine (dictionary updates on
    tuples, a keyed sort), about 1 ms on the machine this was tuned on:
    the fastest of three runs, so that caches left cold by the previous
    operation do not count."""
    best = math.inf
    for _ in range(3):
        t0 = time.thread_time()
        d: dict = {}
        for i in range(4000):
            key = (i % 97, i % 13)
            d[key] = d.get(key, 0) + i
        sorted(d.items(), key=lambda kv: kv[1] % 101)
        best = min(best, time.thread_time() - t0)
    return best


class Clock:
    """Times operations in CPU seconds scaled to a reference machine speed.

    Operations are single-threaded, CPU-bound and never wait, so their
    thread CPU time is their wall time minus what a shared host takes
    away. What remains still moves with the host's speed, by tens of per
    cent over seconds, and the probe moves with it. So each operation's
    CPU time is multiplied by PROBE_REF over the mean of the probes just
    before and just after it; the probes run outside the timed region.
    Wall time is kept beside CPU time, so that `Bench` can fail a pass
    whose operations waited, or worked on other threads, beyond
    WALL_CPU_LIMIT.
    """

    def __init__(self) -> None:
        self.last = probe()
        self.probes: list[float] = []
        self.raw = 0.0  # unscaled CPU seconds of the operations
        self.wall = 0.0  # their wall seconds

    def time(self, fn, rec=None, label=""):
        """Run one operation; returns (result, scaled seconds, error text)."""
        w0 = time.perf_counter()
        t0 = time.thread_time()
        try:
            if rec is None:
                result = fn()
            else:
                with rec.span(label):
                    result = fn()
            err = None
        except Exception:  # an operation that raises counts as failed
            result, err = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        raw = time.thread_time() - t0
        self.wall += time.perf_counter() - w0
        self.raw += raw
        before, self.last = self.last, probe()
        self.probes.append(self.last)
        return result, raw * PROBE_REF * 2 / (before + self.last), err


def problems(inst, out):
    """Check one solve's output; None if correct. A check that cannot even
    read the output counts that output as wrong. The check runs in a
    forked child, so that the checker's memory, and any evidence it
    expands, does not count towards this process's peak RSS."""
    import checks

    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: report through the pipe, then leave without cleanup
        status = 1
        try:
            os.close(r)
            try:
                text = "; ".join(checks.verdict_problems(inst, out))
            except Exception:
                text = "unreadable output: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            with os.fdopen(w, "w", encoding="utf-8") as pipe:
                pipe.write(text)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r, encoding="utf-8") as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        return f"checker process ended with status {status}"
    return text or None


def tail(samples: list[float], per_pass: int) -> tuple[int, float]:
    """The highest whole percentile that leaves at least ten samples of
    one pass beyond it, and its nearest-rank value over all samples (0 if
    there are none: then every operation failed)."""
    if not samples:
        return 0, 0.0
    p = max(0, 100 * (per_pass - 10) // per_pass)
    ordered = sorted(samples)
    return p, ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(b: Bench, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    solves_per_pass = len(b.solve_lat) // b.passes
    checks_per_pass = len(b.check_lat) // b.passes
    sp, st = tail(b.solve_lat, solves_per_pass)
    cp, ct = tail(b.check_lat, checks_per_pass)
    notes = {
        "setup_s": f"median of {len(setup[1])} launches (raw {statistics.median(setup[0]):.4f} s)",
        "solves_per_s": f"{b.solves} solves in {b.busy:.3f} s of operations ({b.clock.raw:.3f} s raw, median probe {1000 * statistics.median(b.clock.probes):.3f} ms)",
        "solve_p50_ms": f"{len(b.solve_lat)} samples",
        "solve_tail_ms": f"p{sp} of {len(b.solve_lat)} samples",
        "check_p50_ms": f"{len(b.check_lat)} samples",
        "check_tail_ms": f"p{cp} of {len(b.check_lat)} samples",
    }
    return {
        "setup_s": (statistics.median(setup[1]), "s"),
        "solves_per_s": (b.solves / b.busy, "1/s"),
        "solve_p50_ms": (1000 * statistics.median(b.solve_lat), "ms"),
        "solve_tail_ms": (1000 * st, "ms"),
        "check_p50_ms": (1000 * statistics.median(b.check_lat or [0.0]), "ms"),
        "check_tail_ms": (1000 * ct, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, notes


def layer_metrics(rec, b: Bench) -> tuple[dict, dict]:
    """Per-layer figures per traced pass. Every "s" figure is self time:
    span durations minus the durations of their child spans."""
    from spans import lp_size

    per_label, strategies, top_searches = rec.totals()

    def get(label, key):
        return per_label.get(label, {}).get(key, 0) / b.passes

    m = {}
    for label, calls, secs in (
        ("formats.parse", True, "s"),
        ("formats.cert", False, "s"),
        ("reductions.encode", True, "s"),
        ("model.validate", True, "s"),
        ("model.product", True, "s"),
        ("solvers.solve", False, "self_s"),
        ("solvers.check", False, "self_s"),
        ("solvers.oracle", False, "s"),
        ("graphs.simplify", True, "s"),
        ("graphs.search_circuit", True, "self_s"),
        ("graphs.nonneg_circuit", True, "s"),
        ("graphs.negative_cycle", True, "s"),
        ("lp.feasible", True, "s"),
        ("lp.max_support", True, "s"),
    ):
        if calls:
            m[f"{label}.calls"] = (get(label, "calls"), "count")
        m[f"{label}.{secs}"] = (get(label, "self_s"), "s")
    m["solvers.p2_space"] = (b.space[2], "strategies")
    m["solvers.p1_space"] = (b.space[1], "strategies")
    m["solvers.p2_strategies"] = (strategies / b.passes, "count")
    m["solvers.shape_cache.hit_ratio"] = (1 - top_searches / strategies if strategies else 0.0, "ratio")
    feasible = per_label.get("lp.feasible", {}).get("calls", 0)
    m["lp.max_support.ratio"] = (per_label.get("lp.max_support", {}).get("calls", 0) / feasible if feasible else 0.0, "ratio")
    sizes = [lp_size(sys_) for sys_ in rec.lp_systems]
    m["lp.vars.mean"] = (statistics.mean(s[0] for s in sizes) if sizes else 0.0, "count")
    m["lp.rows.mean"] = (statistics.mean(s[1] for s in sizes) if sizes else 0.0, "count")
    m["lp.coeff_bits.max"] = (max((s[2] for s in sizes), default=0), "bits")
    m["trace.spans"] = (len(rec) / b.passes, "count")
    for mod in MODULES:
        m[f"{mod}.loc"] = (len((SRC / "mwg" / f"{mod}.py").read_text(encoding="utf-8").splitlines()), "lines")
    return m, {"solvers.shape_cache.hit_ratio": f"base {strategies / b.passes:g} strategies per pass"}


def report(args, b: Bench, metrics: dict, notes: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(b.insts)} instances  {b.passes} pass(es)")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:34} {value:14.6g} {unit:10} {note}")
    print(f"  {'failed_frac':34} {b.failed / b.attempted:14.6g} {'ratio':10} {b.failed} of {b.attempted} operations")
    print(f"  {'wall/cpu':34} {max(b.wall_cpu):14.6g} {'ratio':10} largest of {len(b.wall_cpu)} pass(es)")
    print("  solve latency by instance kind:")
    for kind, lat in sorted(b.by_kind.items()):
        q = statistics.quantiles(lat, n=10) if len(lat) > 1 else lat * 9
        print(f"    {kind:28} {len(lat):5} ops  p10/p50/p90 {1000 * q[0]:9.3f} {1000 * q[4]:9.3f} {1000 * q[8]:9.3f} ms  total {sum(lat):7.3f} s")
    for p in b.problems[:10]:
        sys.stderr.write(f"perfbench: failed: {p}\n")
    result = {
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
