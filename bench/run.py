"""Benchmark for trskit: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload join|overlap|cli|all --seed N --seconds S --trace 0|1

Run from anywhere; it benchmarks the trskit source in ``src/`` next to this
directory, and writes only under ``bench/out/``.  Each run builds its inputs
from the seed, then repeats whole rounds of the workload's operations until
``--seconds`` of operation time have passed and at least `MIN_OPS`
operations have completed.  Every output is checked (see workloads.py).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

With ``--trace 0`` the metrics are the end-to-end ones.  ``setup_s`` is the
median over this run and `SETUP_PROBES` fresh processes that only set up.
With ``--trace 1`` untraced and traced rounds alternate; the per-layer
metrics are per round, and ``trace.overhead_s`` is the traced minus the
untraced wall time of a round.  Spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("join", "overlap", "cli")
MIN_OPS = 100
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "trskit", "__init__.py")):
        print(f"bench: no trskit source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"inputs-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print(f"{name}: {lines[-1] if lines else '(no result)'}", flush=True)
        worst = max(worst, done.returncode)
    return worst


def set_up(args, workdir, tracer_factory=None):
    """Import trskit and build the round; returns (ops, seconds, tracer)."""
    sys.path.insert(0, SRC)
    import workloads

    start = time.perf_counter()
    tk = importlib.import_module("trskit")  # its modules are its attributes
    importlib.import_module("trskit.cli")
    tracer = tracer_factory(tk) if tracer_factory else None
    if tracer:
        tracer.install()
    ops = workloads.WORKLOADS[args.workload](tk, args.seed, ROOT, workdir)
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    if not os.path.abspath(tk.analysis.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported trskit from {tk.analysis.__file__}, not from {SRC}")
    return ops, elapsed, tracer


class Runner:
    """Runs rounds of operations, times each call, and checks each result."""

    def __init__(self, ops):
        self.ops = ops
        self.durations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.digests: dict = {}

    def round(self, tracer=None) -> float:
        """One pass over every operation; returns its operation time in seconds."""
        total = 0.0
        for k, op in enumerate(self.ops):
            if tracer:
                tracer.begin_op(op.name)
            start = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as e:  # noqa: BLE001 - every failure is counted and reported
                result, error = None, e
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end_op()
            total += elapsed
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if not (op.known_failure and isinstance(error, op.known_failure)):
                    self.fail(op, "".join(traceback.format_exception_only(type(error), error)).strip())
                continue
            self.durations.append(elapsed)
            self.check(k, op, result)
        return total

    def check(self, k, op, result) -> None:
        try:
            if k not in self.digests:
                op.verify(result)
                self.digests[k] = op.digest(result)
            elif op.digest(result) != self.digests[k]:
                self.fail(op, "result differs from the verified result of an earlier round")
        except Exception as e:  # noqa: BLE001 - a failed check is reported, not raised
            self.fail(op, f"{type(e).__name__}: {e}")

    def fail(self, op, message: str) -> None:
        self.correct = False
        print(f"bench: {op.name}: {message[:2000]}", file=sys.stderr)


def run(args, workdir: str) -> int:
    if args.setup_only:
        _, setup_s, _ = set_up(args, workdir)
        print(repr(setup_s))
        return 0
    if args.trace:
        return run_traced(args, workdir)

    ops, setup_s, _ = set_up(args, workdir)
    runner = Runner(ops)
    gc.collect()
    timed = 0.0
    while timed < args.seconds or len(runner.durations) < MIN_OPS:
        timed += runner.round()
    setups = [setup_s] + probe_setups(args)
    done = len(runner.durations)
    ms = sorted(d * 1000 for d in runner.durations)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (done / timed, "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{args.workload}: {runner.attempted // len(ops)} rounds of {len(ops)} operations, "
          f"{done} completed in {timed:.2f} s; set-up samples {[round(s, 4) for s in setups]}")
    return report(args, runner, metrics)


def run_traced(args, workdir: str) -> int:
    from tracing import Tracer, layer_metrics

    ops, _, tracer = set_up(args, workdir, Tracer)
    tracer.measure_terms()
    setup_stats = dict(tracer.stats)
    tracer.stats.clear()
    runner = Runner(ops)
    gc.collect()
    plain = traced = 0.0
    rounds = 0
    while plain + traced < args.seconds or rounds == 0:
        plain += runner.round()
        tracer.install()
        try:
            traced += runner.round(tracer)
        finally:
            tracer.uninstall()
        tracer.measure_terms()
        rounds += 1
    metrics = layer_metrics(tracer.stats, rounds, setup_stats)
    metrics["trace.overhead_s"] = ((traced - plain) / rounds, "s")
    tracer.write_spans(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    print(f"{args.workload}: {rounds} untraced and {rounds} traced rounds of {len(ops)} operations; "
          f"{len(tracer.spans)} spans")
    return report(args, runner, metrics)


def probe_setups(args) -> list[float]:
    """Set-up times of fresh processes that import trskit and build the same inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


def report(args, runner: Runner, metrics: dict) -> int:
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        handle.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
