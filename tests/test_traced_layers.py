"""Every layer the benchmark's tracer wraps exists right after ``import finitetop``.

``perfbench/tracing.py`` patches the names in its ``LAYERS`` list only in
modules already imported, and reports a missing name as absent.  This
test reads that list (it does not import or edit the file) and resolves
each ``(module, attribute path)`` in a fresh interpreter that has run
only ``import finitetop``, so a renamed function or a module the package
no longer imports eagerly fails here rather than in a traced run.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import finitetop

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"

RESOLVE = """
import json, sys
import finitetop
missing = []
for name, modname, path in json.loads(sys.argv[1]):
    owner = sys.modules.get(modname)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    if not callable(owner):
        missing.append(name)
print(json.dumps(missing))
"""


def traced_layers() -> list:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return [list(entry) for entry in ast.literal_eval(node.value)]
    raise LookupError("no LAYERS list in perfbench/tracing.py")


def test_every_traced_layer_resolves_after_importing_the_package():
    layers = traced_layers()
    assert len(layers) > 20
    src = str(Path(finitetop.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", RESOLVE, json.dumps(layers)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
