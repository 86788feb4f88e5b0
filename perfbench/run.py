"""finitetop benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload iso --seed 1 --seconds 25 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory, and its working files go to ``.perfbench/`` there.  Load is a
closed loop with one client: the next operation starts when the previous
one has returned.  The loop repeats whole rounds of the workload (see
``workloads.py``) until ``--seconds`` have passed, times each call, and
checks every answer outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the loop
untraced for half the time, then for the other half with every public
layer function wrapped (``tracing.py``), and prints the per-layer metrics
plus the tracing overhead.  Human-readable lines come first; the last
line of standard output is one JSON object.  The exit code is 0 when the
run completed, whether or not every answer was right (see ``correct``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Set-up is repeated at least this many times, and for at least this
#: long, per run; its mean is reported.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0

#: Import-only subprocesses timed per traced run for ``cli.import_s``.
IMPORT_REPEATS = 5

#: The p90 is reported only with at least this many samples, so that ten
#: or more lie beyond it.
P90_MIN_SAMPLES = 100


def forget_library() -> None:
    """Drop finitetop from the module cache, so the next import is from scratch."""
    for name in [m for m in sys.modules if m == "finitetop" or m.startswith("finitetop.")]:
        del sys.modules[name]
    # Free the previous copy now, outside the timed set-up, so peak memory
    # does not depend on how many set-ups fitted in SETUP_SECONDS.
    gc.collect()


def setup(workload, seed, workdir, inprocess, ft=None):
    """Import (unless ``ft`` is given), build the inputs; returns the time taken."""
    if ft is None:
        forget_library()
    t0 = time.perf_counter()
    if ft is None:
        ft = importlib.import_module("finitetop")
    ops = workloads.WORKLOADS[workload](ft, seed, str(workdir), inprocess)
    return ft, ops, time.perf_counter() - t0


@dataclass
class Run:
    """What one closed-loop pass measured."""

    per_op: list[list[float]]  # latencies of ops[i], one per round it succeeded in
    busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)

    @property
    def samples(self) -> int:
        return sum(len(lat) for lat in self.per_op)

    @property
    def ops_per_s(self) -> float:
        return self.samples / self.busy

    def latency_quantile(self, q: int) -> float:
        """The q-th percentile over the round's operations of their mean latency.

        Each operation's latency is averaged over the rounds of the run
        first.  The host this was built on switches between two speeds
        every few seconds; a median taken over raw samples jumps between
        them, while the mean moves only in proportion to the time spent in
        each.
        """
        means = sorted(statistics.fmean(lat) for lat in self.per_op if lat)
        if q == 50:
            return statistics.median(means)
        return statistics.quantiles(means, n=100, method="inclusive")[q - 1]


def measure(ops, seconds, expected, tracer=None) -> Run:
    """Closed loop over whole rounds, one operation at a time.

    A new round starts only while it is expected to end no later than half
    a round past ``seconds``, so the run length stays close to ``seconds``.
    Answers are checked outside the timed region, and with tracing paused.
    """
    run = Run(per_op=[[] for _ in ops])
    rounds = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if rounds and elapsed + elapsed / rounds / 2 > seconds:
            return run
        rounds += 1
        for i, op in enumerate(ops):
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = op.call()
                else:
                    with tracer.span(tracing.ROOT):
                        result = op.call()
            except Exception as err:  # a refusal or crash is a failed operation
                run.busy += time.perf_counter() - t0
                what = f"{op.key}: {type(err).__name__}"
                if not run.failures[what]:
                    traceback.print_exc(file=sys.stderr)
                run.failed += 1
                run.failures[what] += 1
                continue
            dt = time.perf_counter() - t0
            run.busy += dt
            if tracer is not None:
                tracer.active = False
            try:
                got = op.digest(result)
                if got != expected.get(op.key):
                    raise check.Mismatch(f"digest {got}, expected {expected.get(op.key)}")
            except Exception as err:
                run.failed += 1
                run.failures[f"{op.key}: {err}"] += 1
                continue
            finally:
                if tracer is not None:
                    tracer.active = True
            run.per_op[i].append(dt)


def end_to_end(run: Run, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "ops_per_s": {"value": run.ops_per_s, "unit": "1/s"},
        "p50_ms": {"value": run.latency_quantile(50) * 1000, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def import_seconds():
    """Median wall time of a subprocess that only imports the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import finitetop.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def summary(workload, seed, run: Run, metrics) -> str:
    n = run.samples
    lines = [
        f"workload {workload} seed {seed}: {run.attempted} attempted, "
        f"{run.failed} failed, {n} timed samples"
    ]
    for name, m in metrics.items():
        lines.append(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    if n >= P90_MIN_SAMPLES:
        lines.append(f"  {'p90_ms':44s} {run.latency_quantile(90) * 1000:.6g} ms")
    else:
        lines.append(f"  {'p90_ms':44s} not reported: {n} samples < {P90_MIN_SAMPLES}")
    lines.append(f"  {'error_rate':44s} {run.failed / run.attempted:.6g} ratio")
    for what, count in sorted(run.failures.items()):
        lines.append(f"  failed x{count}: {what}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "finitetop" / "__init__.py").is_file():
        print(f"perfbench: no finitetop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    inprocess = bool(args.trace)

    setups: list[float] = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        ft, ops, took = setup(args.workload, args.seed, workdir, inprocess)
        setups.append(took)

    # A traced run splits its time between an untraced and a traced pass.
    seconds = args.seconds / 2 if args.trace else args.seconds
    run = measure(ops, seconds, expected)
    if not run.samples:
        print(summary(args.workload, args.seed, run, {}))
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1

    if not args.trace:
        # The mean, not the median, for the reason given in Run.latency_quantile.
        metrics = end_to_end(run, statistics.fmean(setups), peak_rss_mb(args.workload))
    else:
        tracer = tracing.Tracer()
        tracer.install()
        # The traced set-up does not re-import: that would drop the patches.
        _, ops, _ = setup(args.workload, args.seed, workdir, inprocess, ft=ft)
        traced = measure(ops, seconds, expected, tracer)
        tracer.uninstall()
        tracer.write(workdir / "spans.txt.gz")
        metrics = tracer.metrics()
        slow = traced.ops_per_s if traced.samples else 0.0
        metrics["trace.untraced_ops_per_s"] = {"value": run.ops_per_s, "unit": "1/s"}
        metrics["trace.traced_ops_per_s"] = {"value": slow, "unit": "1/s"}
        metrics["trace.overhead_ratio"] = {
            "value": run.ops_per_s / slow if slow else 0.0, "unit": "ratio"
        }
        metrics["cli.import_s"] = {"value": import_seconds(), "unit": "s"}
        if tracer.absent:
            print(f"absent (not found, not reported): {', '.join(tracer.absent)}")
        run.attempted += traced.attempted
        run.failed += traced.failed
        run.failures.update(traced.failures)

    print(summary(args.workload, args.seed, run, metrics))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
