"""ramseylb benchmark: end-to-end timings of the certify and witness
pipelines, and per-layer numbers from a separate traced run.

    python3 perfbench/run.py --workload certify-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/selftest.py        (a few seconds; checks the harness)

Workloads: certify-ladder, refute-mix, witness-search, or all (each in turn,
in this one process). The program is imported from src/ next to this
directory and driven only through `ramseylb.cli.main` and public module
functions; whichever kernel backend `ramseylb.kernels` imports is used, and
none is built. Runs are closed-loop, one item at a time, on one thread.

Each run sets up several times (import plus input generation) and reports
the median as setup_s, then repeats passes over the workload's items until
--seconds have elapsed; times are reported at a reference speed (see
REF_LOOP_S). Every item is checked after its pass by `checks`, which shares
no code with the program. With --trace 0 the end-to-end metrics are
printed; with --trace 1 passes run for half the time untraced and then the
same number traced, and the per-layer metrics and the tracing overhead are
printed.
The last line of standard output is one JSON object; a record with the run
metadata (and the spans, when traced) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import checks
from tracer import KERNEL_KINDS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7

# Times are reported at a fixed reference speed. The speed of a shared VM
# drifts by 20% or more over a minute, for short and long operations alike,
# which is wider than any usable bound. Each timed operation is bracketed
# by runs of a fixed pure-Python loop, and its measured time is scaled by
# REF_LOOP_S / (the mean loop time around it). On a 2-core Xeon VM this cut
# the run-to-run spread of a ladder pass from about 20% to under 5%.
REF_LOOP_S = 0.0006
MODULES = ("cli", "certify", "coloring", "constructions", "graph", "kernels",
           "matching", "patterns", "witnesses")


def import_ramseylb() -> dict:
    """Import the package afresh from src/ (dropping any earlier import, so
    each set-up pays the import again) and return its modules by name."""
    for name in [m for m in sys.modules if m == "ramseylb" or m.startswith("ramseylb.")]:
        del sys.modules[name]
    rl = {name: importlib.import_module(f"ramseylb.{name}") for name in MODULES}
    origin = Path(rl["cli"].__file__).resolve()
    checks.require(SRC in origin.parents, f"ramseylb imported from {origin}, not {SRC}")
    return rl


def make_cli(rl, tracer: Tracer | None):
    """cli.main with its output captured; traced calls are spans named
    after the subcommand."""

    def cli(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if tracer is None:
                code = rl["cli"].main(argv)
            else:
                code = tracer.call(f"cli.{argv[0]}", rl["cli"].main, argv)
        return code, out.getvalue()

    return cli


def src_lines() -> int:
    """Lines of hand-written source under src/ (the generated C is left out)."""
    return sum(
        len(p.read_text().splitlines())
        for p in sorted(SRC.rglob("*"))
        if p.suffix in (".py", ".pyx") and p.is_file()
    )


def git_commit() -> str:
    """HEAD read from .git without running git; benchmark checkouts that
    are not git repositories report "unavailable"."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable"


def compiled_kernels():
    try:
        return importlib.import_module("ramseylb._ckernels")
    except ImportError:
        return None


# ---------------------------------------------------------------------------
# passes


def reference_loop() -> int:
    """Integer and bit operations in an interpreted loop, like the
    program's own bitmask code."""
    total, mask = 0, 0x5555
    for i in range(3000):
        mask = (mask * 3 + i) & 0xFFFFFFFFFFFF
        total += (mask & -mask).bit_length()
    return total


def loop_time() -> float:
    """Mean time of three runs of the reference loop, in seconds."""
    t0 = time.perf_counter()
    for _ in range(3):
        reference_loop()
    return (time.perf_counter() - t0) / 3


class Clock:
    """Times operations at the reference speed (see REF_LOOP_S)."""

    def __init__(self):
        self.before = loop_time()

    def scale(self, elapsed: float) -> float:
        after = loop_time()
        scaled = elapsed * REF_LOOP_S * 2 / (self.before + after)
        self.before = after
        return scaled


class Tally:
    """Every item run: its times at reference speed, pass totals, raw
    pass wall times, and outcomes."""

    def __init__(self):
        self.samples: list[float] = []
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.attempted = self.ok = self.errors = 0
        self.checks: Counter = Counter()
        self.failures: list[str] = []


def run_pass(workload, cli, tally: Tally) -> None:
    """Time every item one after another, then check them all."""
    items = workload.items
    results, scaled, raw = [], [], 0.0
    clock = Clock()
    for item in items:
        t0 = time.perf_counter()
        try:
            outcome = [cli(call) for call in item.calls]
        except Exception as exc:  # a crash of the program is a failed item
            outcome = exc
        elapsed = time.perf_counter() - t0
        raw += elapsed
        scaled.append(clock.scale(elapsed))
        results.append(outcome)
    tally.samples += scaled
    tally.walls.append(sum(scaled))
    tally.raw_walls.append(raw)
    for item, outcome in zip(items, results):
        tally.attempted += 1
        if isinstance(outcome, Exception):
            tally.errors += 1
            tally.failures.append(f"{item.label}: raised {outcome!r}")
            continue
        codes = [code for code, _ in outcome]
        if codes != item.codes:
            tally.errors += 1
            tally.failures.append(f"{item.label}: exit codes {codes}, expected {item.codes}")
            continue
        try:
            tally.checks.update(workload.check(item, [text for _, text in outcome]))
        except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
            tally.failures.append(f"{item.label}: {exc}")
            continue
        tally.ok += 1


def run_passes(workload, cli, seconds: float, tally: Tally) -> int:
    """Whole passes until `seconds` have elapsed, at least one."""
    start = time.perf_counter()
    passes = 0
    while True:
        run_pass(workload, cli, tally)
        passes += 1
        if time.perf_counter() - start >= seconds:
            return passes



# ---------------------------------------------------------------------------
# metrics


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the nearest-rank p90 when at least ten samples
    lie beyond it, otherwise the highest percentile that has ten beyond; the
    median when even that falls below the median, as it does for fewer than
    twenty samples."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(0.9 * n) if n >= 100 else n - 10
    if 2 * rank <= n:
        return 50.0, statistics.median(ordered)
    return 100.0 * rank / n, ordered[rank - 1]


def end_to_end(tally: Tally, setup_s: float) -> tuple[dict, dict]:
    """All times at reference speed; a pass runs every item once."""
    n = len(tally.samples)
    pct, p_tail = tail(tally.samples)
    metrics = {
        "wall_s": (statistics.median(tally.walls), "s"),
        "items_per_s": (n / sum(tally.samples), "1/s"),
        "verdict_p50_ms": (statistics.median(tally.samples) * 1e3, "ms"),
        "verdict_p90_ms": (p_tail * 1e3, "ms"),
        "verdict_ok_frac": (tally.ok / tally.attempted, "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "wall_s": f"median of {len(tally.walls)} passes; measured "
                  f"{statistics.median(tally.raw_walls):.4f} s",
        "verdict_p50_ms": f"n={n}",
        "verdict_p90_ms": f"nearest-rank p{pct:.1f} of n={n}",
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
    }
    return metrics, notes


def per_layer(tracer: Tracer, passes: int, untraced: Tally, traced: Tally) -> dict:
    """Per traced pass: inclusive ms and call counts by layer, self ms where
    named so, and counts from the wrappers. Layer times are as measured; the
    trace.* pass times are at reference speed, like the end-to-end ones."""
    inclusive, own, calls = tracer.totals()
    counts = tracer.counts

    def ms(name):
        return (inclusive.get(name, 0.0) * 1e3 / passes, "ms")

    def n(value):
        return (value / passes, "count")

    m = {
        "patterns.find_red_ms": ms("patterns.find_red"),
        "patterns.find_blue_ms": ms("patterns.find_blue"),
        "patterns.hubs_tried": n(counts["patterns.hubs_tried"]),
        "patterns.hub_useful_ratio": (
            counts["patterns.hubs_useful"] / max(counts["patterns.hubs_tried"], 1), "ratio"),
        "graph.induced_ms": ms("graph.induced"),
        "graph.induced_calls": n(calls["graph.induced"]),
        "matching.calls": n(calls["matching"]),
        "matching.ms": ms("matching"),
    }
    for kind in KERNEL_KINDS:
        m[f"kernels.{kind}.calls"] = n(calls[f"kernels.{kind}"])
        m[f"kernels.{kind}.ms"] = ms(f"kernels.{kind}")
    m.update({
        "kernels.calls_over_64": n(counts["kernels.calls_over_64"]),
        "coloring.from_rbc_ms": ms("coloring.from_rbc"),
        "coloring.to_rbc_ms": ms("coloring.to_rbc"),
        "coloring.sha_ms": ms("coloring.sha"),
        "coloring.rbc_bytes": (counts["coloring.rbc_bytes"] / passes, "bytes"),
        "graph.complement_ms": ms("graph.complement"),
        "constructions.build_ms": ms("constructions.build"),
        "cli.construct_ms": ms("cli.construct"),
        "cli.verify_ms": ms("cli.verify"),
        "cli.search_ms": ms("cli.search"),
        "certify.verify_self_ms": (own.get("certify.verify", 0.0) * 1e3 / passes, "ms"),
        "patterns.check_embedding_ms": ms("patterns.check_embedding"),
        "witnesses.search_ms": ms("witnesses.search"),
        "witnesses.flip_delta_calls": n(counts["witnesses.flip_delta_calls"]),
        "witnesses.certify_ms": ms("witnesses.certify"),
        "trace.untraced_wall_s": (statistics.median(untraced.walls), "s"),
        "trace.traced_wall_s": (statistics.median(traced.walls), "s"),
        "trace.overhead_s": (
            statistics.median(traced.walls) - statistics.median(untraced.walls), "s"),
    })
    return m


# ---------------------------------------------------------------------------
# kernel mix: random graphs through both kernel backends


def kernel_mix(rl, seed: int, tally: Tally) -> dict:
    """Clique, cycle, path and K4-e searches on random G(n, 1/2) graphs and
    on two kipas blue sides, through the pure kernels and, when it imports,
    the compiled twin, whose results must be identical. Its checks add to
    the tally's failures, not to its items."""
    rng = random.Random(f"kernel-mix:{seed}")
    work = []
    for _ in range(30):
        n = rng.randrange(18, 30)
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        work += [("clique", n, adj, n // 3), ("cycle", n, adj, n - 2),
                 ("path", n, adj, n), ("k4me", n, adj, None)]
    for m in (7, 11):
        blue = rl["constructions"].kipas_3mod4_construction(m).coloring.blue
        work += [("path", blue.n, list(blue.masks()), 2 * m),
                 ("clique", blue.n, list(blue.masks()), m + 1)]

    def run(impl):
        out = []
        for kind, n, adj, arg in work:
            fn = getattr(impl, f"find_{kind}")
            out.append(fn(n, adj) if arg is None else fn(n, adj, arg))
        return out

    def timed(impl):
        times, result = [], None
        for _ in range(3):
            t0 = time.perf_counter()
            result = run(impl)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3, result

    pure_ms, pure = timed(importlib.import_module("ramseylb._pykernels"))
    for (kind, n, adj, arg), found in zip(work, pure):
        if found is None:
            continue
        sets = [{v for v in range(n) if row >> v & 1} for row in adj]
        pattern = "k4me" if kind == "k4me" else f"{kind}:{arg}"
        tally.checks["kernel_witness"] += 1
        if not checks.embedding_holds(sets, pattern, found):
            tally.failures.append(f"kernel mix: {pattern} witness {found} is wrong")
    compiled_ms = 0.0
    compiled = compiled_kernels()
    if compiled is not None:
        compiled_ms, other = timed(compiled)
        tally.checks["backend_equality"] += 1
        if other != pure:
            tally.failures.append("kernel mix: compiled and pure kernels differ")
    return {"kernmix.pure_ms": (pure_ms, "ms"), "kernmix.compiled_ms": (compiled_ms, "ms")}


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, **shape) -> dict:
    """Set up, run and check one workload. `shape` overrides the workload's
    inputs (a smaller ladder or fewer searches, for the self-test)."""
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spans = None
    try:
        setups = []
        clock = Clock()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            rl = import_ramseylb()
            workload = WORKLOADS[name](make_cli(rl, None), seed, work, **shape)
            setups.append(clock.scale(time.perf_counter() - t0))
        setup_s = statistics.median(setups)

        untraced = Tally()
        budget = seconds / 2 if trace else seconds
        passes = run_passes(workload, make_cli(rl, None), budget, untraced)
        tallies = [untraced]
        if trace:
            tracer = Tracer()
            tracer.install(rl)
            traced = Tally()
            tallies.append(traced)
            try:
                for _ in range(passes):
                    run_pass(workload, make_cli(rl, tracer), traced)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, passes, untraced, traced)
            metrics.update(kernel_mix(rl, seed, traced))
            metrics["kernels.compiled"] = (float(rl["kernels"].BACKEND != "python"), "flag")
            metrics["repo.src_lines"] = (src_lines(), "lines")
            notes = {"trace": f"{passes} passes untraced, then the same {passes} traced; "
                              "per-layer values are per traced pass",
                     "missing": ", ".join(tracer.missing) or "none"}
            spans = tracer.spans
        else:
            metrics, notes = end_to_end(untraced, setup_s)
    finally:
        for path in sorted(work.iterdir()):
            path.unlink()
        work.rmdir()

    attempted = sum(t.attempted for t in tallies)
    ok = sum(t.ok for t in tallies)
    errors = sum(t.errors for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "backend": rl["kernels"].BACKEND,
        "compiled_kernels_import": compiled_kernels() is not None,
        "compiled_order_ceiling": "kernel calls on graphs above 64 vertices run the pure "
                                  "kernels whatever the backend (kernels.calls_over_64)",
        "ramseylb_pure_env": os.environ.get("RAMSEYLB_PURE", ""),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "repo.src_lines": src_lines(),
        "error_frac": errors / attempted,
        "checks": dict(sorted(sum((t.checks for t in tallies), Counter()).items())),
        "failures": failures[:20],
        "notes": notes,
    }
    return {
        "correct": ok == attempted and not failures,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": metrics,
        "meta": meta,
        "spans": spans,
    }


def report(result: dict, prefix: str = "") -> None:
    meta, notes = result["meta"], result["meta"]["notes"]
    print(f"# {meta['workload']} seed {meta['seed']} trace {meta['trace']}: "
          f"backend {meta['backend']} ({meta['compiled_order_ceiling']}), "
          f"python {meta['python']}, nproc {meta['nproc']}, commit {meta['git_commit']}, "
          f"src lines {meta['repo.src_lines']}")
    print(f"# checks {meta['checks']}")
    for failure in meta["failures"]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{prefix}{name:32s} {value:14.6f} {unit}{note}")
    # not a gated metric: it is 0 on a correct run; `failed` carries it
    print(f"{prefix}{'error_frac':32s} {meta['error_frac']:14.6f} frac  "
          f"({result['failed']} failed of {result['attempted']})")
    for key in ("trace", "missing"):
        if key in notes:
            print(f"# {key}: {notes[key]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ramseylb" / "__init__.py").is_file():
        print(f"error: no ramseylb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]

    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        OUT.mkdir(exist_ok=True)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        record = {k: result[k] for k in ("correct", "attempted", "failed", "meta", "spans")}
        record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
        (OUT / f"{stem}.json").write_text(json.dumps(record))
        results[name] = result
        report(result, prefix=f"{name}." if len(names) > 1 else "")

    metrics = {
        (f"{name}.{metric}" if len(names) > 1 else metric): {"value": value, "unit": unit}
        for name, result in results.items()
        for metric, (value, unit) in result["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
