#!/usr/bin/env python3
"""Time one benchmark round in process under two source trees, in alternated pairs.

Each side runs in its own subprocess with its ``src`` first on
``sys.path``.  It builds the round of one workload of
``perfbench/workloads.py`` at seed 11, in process (the ``cli`` commands
call ``finitetop.cli.run`` instead of starting interpreters) and in a
temporary directory.  It runs every operation once and checks the
answer with the operation's own digest against ``perfbench/expected.json``,
then prints the best of K timed rounds.  A pair times both sides, and
the side that runs first alternates from pair to pair.  At the end the
script prints every pair, each side's median and quartiles, how many
pairs SRC_B won (ties count for neither) and SRC_A's quartile distance::

    PYTHONDONTWRITEBYTECODE=1 python scripts/round_timing.py WORKLOAD PAIRS K SRC_A SRC_B

It exits 1 when an answer fails its check (``check.Mismatch``).  It
reads ``perfbench/`` and writes nothing there.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
PERFBENCH = SCRIPTS.parent / "perfbench"
SEED = 11


def side(workload: str, k: int, src: str) -> int:
    """Print the best of k in-process rounds in milliseconds, or return 1 on a mismatch."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/ or src
    sys.path[:0] = [src, str(PERFBENCH)]
    import check
    import workloads

    import finitetop

    expected = json.loads((PERFBENCH / "expected.json").read_text())[workload]
    with tempfile.TemporaryDirectory() as workdir:
        ops = workloads.WORKLOADS[workload](finitetop, SEED, workdir, True)
        try:
            for op in ops:
                got = op.digest(op.call())
                if got != expected.get(op.key):
                    raise check.Mismatch(f"{op.key}: digest {got}, expected {expected.get(op.key)}")
        except check.Mismatch as err:
            print(f"round_timing: {src}: {err}", file=sys.stderr)
            return 1
        best = float("inf")
        for _ in range(k):
            start = time.perf_counter()
            for op in ops:
                op.call()
            best = min(best, time.perf_counter() - start)
    print(best * 1e3)
    return 0


def time_side(workload: str, k: int, src: str) -> float:
    code = f"import round_timing, sys; sys.exit(round_timing.side({workload!r}, {k}, {src!r}))"
    env = dict(os.environ, PYTHONPATH=str(SCRIPTS))
    env.pop("FINITETOP_VERBOSE", None)
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True
        )
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        sys.exit(1)
    return float(proc.stdout)


def quartiles(xs: list) -> str:
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return f"median {q2:.3f} ms, quartiles {q1:.3f}–{q3:.3f} ms"


def main(argv: list) -> int:
    if len(argv) != 5 or int(argv[1]) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    workload, pairs, k = argv[0], int(argv[1]), int(argv[2])
    srcs = [str(Path(s).resolve()) for s in argv[3:]]
    times: list[list[float]] = [[], []]
    for i in range(pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for s in order:
            times[s].append(time_side(workload, k, srcs[s]))
        a, b = times[0][-1], times[1][-1]
        print(f"pair {i + 1} ({'AB'[order[0]]} first): A {a:.3f} ms, B {b:.3f} ms, "
              f"B/A {b / a - 1:+.1%}", flush=True)
    a, b = times
    q1, _, q3 = statistics.quantiles(a, n=4)
    wins = sum(y < x for x, y in zip(a, b))
    print(f"A {srcs[0]}: {quartiles(a)}")
    print(f"B {srcs[1]}: {quartiles(b)}")
    print(f"B won {wins} of {pairs} pairs; medians differ by "
          f"{statistics.median(b) - statistics.median(a):+.3f} ms; "
          f"A's quartile distance {q3 - q1:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
