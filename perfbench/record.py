"""Record the answer digests of every workload operation into expected.json.

    python3 perfbench/record.py

Run at a commit whose answers are trusted.  Each workload is set up under
two seeds (and the CLI workload both as subprocesses and in-process); the
digests must agree across all of them, since the seed only relabels.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    expected: dict[str, dict[str, str]] = {}
    for name in workloads.WORKLOADS:
        digests: dict[str, str] = {}
        for seed in (0, 1):
            for inprocess in (False, True) if name == "cli" else (False,):
                workdir = run.ROOT / ".perfbench" / f"record-{name}-{seed}"
                _, ops, _ = run.setup(name, seed, workdir, inprocess)
                for op in ops:
                    got = op.digest(op.call())
                    if digests.setdefault(op.key, got) != got:
                        print(f"{name}/{op.key}: digest depends on the seed", file=sys.stderr)
                        return 1
        expected[name] = dict(sorted(digests.items()))
        print(f"{name}: {len(digests)} digests")
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
