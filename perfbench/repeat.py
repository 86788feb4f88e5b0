"""Run the benchmark several times per workload and summarise the spread.

    python3 perfbench/repeat.py --runs 10 --out perfbench/baseline.json

Each run uses another seed (``--first-seed``, ``--first-seed + 1`` ...).
For every metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which
is the distance between the quartiles as a share of the median.  With
``--heldout SEED`` one more run per workload is made on that seed and
recorded on its own, so that a later claim can be checked on a seed it
was not tuned on.  ``--traced N`` adds N runs with ``--trace 1`` per
workload, summarised apart from the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of the benchmark; the result line plus the printed-only lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    # p90_ms and error_rate are printed, not part of the result line.
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] in ("p90_ms", "error_rate"):
            result["metrics"][parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
    return result


def summarise(results: list[dict]) -> dict:
    names = sorted({m for r in results for m in r["metrics"]})
    out = {}
    for name in names:
        found = [r["metrics"][name] for r in results if name in r["metrics"]]
        values = [m["value"] for m in found]
        med = statistics.median(values)
        entry = {"unit": found[0]["unit"], "median": med, "runs": len(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
        entry["values"] = values
        out[name] = entry
    return out


def runs(workload: str, first_seed: int, count: int, seconds: int, trace: int) -> dict:
    seeds = [first_seed + i for i in range(count)]
    results = [bench(workload, s, seconds, trace) for s in seeds]
    return {
        "seeds": seeds,
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "metrics": summarise(results),
    }


def hardware() -> str:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    return f"{model or platform.processor()}, {os.cpu_count()} CPUs, Python {platform.python_version()}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--heldout", type=int)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    report = {"hardware": hardware(), "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        entry = runs(workload, args.first_seed, args.runs, args.seconds, 0)
        if args.heldout is not None:
            held = bench(workload, args.heldout, args.seconds, 0)
            entry["heldout"] = {"seed": args.heldout, "attempted": held["attempted"],
                                "failed": held["failed"], "metrics": held["metrics"]}
        if args.traced:
            entry["traced"] = runs(workload, args.first_seed, args.traced, args.seconds, 1)
        report["workloads"][workload] = entry
        for name, m in entry["metrics"].items():
            spread = f"spread {m['spread']:.3f}" if "spread" in m else ""
            print(f"{workload:10s} {name:44s} median {m['median']:.6g} {m['unit']} {spread}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
