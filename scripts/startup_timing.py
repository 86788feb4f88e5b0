#!/usr/bin/env python3
"""Time how long a ``finitetop`` command takes to start, in fresh interpreters.

Three commands run as subprocesses, alternated round by round:
``python -c pass`` (a bare interpreter), ``python -c "import
finitetop.cli"`` and ``finitetop validate`` on a generated 64-point
document (started as ``from finitetop.cli import main; main()``, as the
benchmark's ``cli`` workload starts it).  For each the script prints the
min, quartiles and median wall-clock time in milliseconds.  It then runs
``python -X importtime -c "import finitetop.cli"`` a few times and prints
the median self and cumulative import time of every ``finitetop`` module
and of ``dataclasses``, ``argparse`` and ``traceback`` (``-`` when a
module is not imported).  Run with::

    PYTHONDONTWRITEBYTECODE=1 python scripts/startup_timing.py [runs] [src ...]

The defaults are 20 runs and this checkout's ``src``; given several
``src`` directories, every round times each of them, in an order that
alternates from round to round.  The environment is passed through to
every child, ``PYTHONDONTWRITEBYTECODE`` included.  The benchmark runs
with ``PYTHONDONTWRITEBYTECODE=1`` in a fresh checkout, so every command
compiles the package from source; to time the same, each ``src`` is
copied without its ``__pycache__`` directories into a temporary
directory, which is the ``PYTHONPATH`` of the children.  Without that
variable the first run writes bytecode there and later runs read it.
"""

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WATCHED = ("dataclasses", "argparse", "traceback")


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("FINITETOP_VERBOSE", None)
    return env


def write_document(src: str, env: dict, path: str) -> None:
    make = (
        "import sys\n"
        "from finitetop.cli import serialize, space_to_document\n"
        "from finitetop.generators import random_space\n"
        "sys.stdout.write(serialize(space_to_document(random_space(64, 3), 'r64')))\n"
    )
    text = subprocess.run(
        [sys.executable, "-c", make], env=env, capture_output=True, text=True, check=True
    ).stdout
    Path(path).write_text(text, encoding="utf-8")


def wall_ms(argv: list, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
    return (time.perf_counter() - start) * 1e3


def import_times(env: dict) -> dict:
    """{module: (self_us, cumulative_us)} from one ``-X importtime`` run."""
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import finitetop.cli"],
        env=env, capture_output=True, text=True, check=True,
    ).stderr
    out = {}
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = (part.strip() for part in line[12:].split("|"))
        if self_us.isdigit():
            out[name] = (int(self_us), int(cum_us))
    return out


def summary(xs: list) -> str:
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return f"min {min(xs):7.1f}  q1 {q1:7.1f}  median {med:7.1f}  q3 {q3:7.1f}"


def main() -> None:
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    srcs = [str(Path(s).resolve()) for s in sys.argv[2:]] or [str(ROOT / "src")]
    with tempfile.TemporaryDirectory() as tmp:
        envs, docs = {}, {}
        for i, src in enumerate(srcs):
            copy = os.path.join(tmp, f"src{i}")
            shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
            envs[src] = child_env(copy)
            docs[src] = os.path.join(tmp, f"r64-{i}.space")
            write_document(src, envs[src], docs[src])
        commands = {
            "python -c pass": lambda src: [sys.executable, "-c", "pass"],
            "import finitetop.cli": lambda src: [sys.executable, "-c", "import finitetop.cli"],
            "finitetop validate r64": lambda src: [
                sys.executable, "-c", "from finitetop.cli import main; main()",
                "validate", docs[src],
            ],
        }
        times = {(src, name): [] for src in srcs for name in commands}
        for r in range(runs):
            for src in srcs if r % 2 == 0 else srcs[::-1]:
                for name, argv in commands.items():
                    times[src, name].append(wall_ms(argv(src), envs[src]))
        imports = {src: [import_times(envs[src]) for _ in range(5)] for src in srcs}
    print(f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}, "
          f"{runs} runs, wall-clock ms")
    for src in srcs:
        print(f"\n{src}")
        for name in commands:
            print(f"  {name:24s} {summary(times[src, name])}")
        names = sorted({m for run in imports[src] for m in run if m.startswith("finitetop")})
        print("  -X importtime, median of 5 (us):      self  cumulative")
        for m in names + list(WATCHED):
            got = [run[m] for run in imports[src] if m in run]
            if not got:
                print(f"  {m:36s} {'-':>6s}  {'-':>10s}")
                continue
            self_us = statistics.median(s for s, _ in got)
            cum_us = statistics.median(c for _, c in got)
            print(f"  {m:36s} {self_us:6.0f}  {cum_us:10.0f}")


if __name__ == "__main__":
    main()
