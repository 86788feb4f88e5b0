"""What ``import finitetop.cli`` loads, which every ``finitetop`` command pays for.

A fresh interpreter records ``sys.modules``, imports ``finitetop.cli`` and
reports the modules that import added.  The command path must not pull in
the heavy standard-library modules that ``dataclasses`` and ``traceback``
bring (``inspect``, ``ast``, ``dis``, ``tokenize``, ``linecache``), and it
must still load every module ``finitetop/__init__.py`` imports, so that
the package stays eagerly imported.  A source scan keeps ``dataclasses``
out of the package for good.

An interpreter started with ``-S -I`` runs no site hook, which on some
installations loads ``typing`` and ``random`` before any user code.  There
``finitetop.cli`` must load neither: annotations come from
``collections.abc``, and ``random`` is imported inside ``random_space``.
A second source scan keeps ``typing`` out of the package, and a third
keeps ``random`` out of every module but ``generators``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import finitetop

PACKAGE = Path(finitetop.__file__).resolve().parent
SRC = PACKAGE.parent

ADDED = """
import sys
before = set(sys.modules)
import finitetop.cli
added = sorted(set(sys.modules) - before)
import json
print(json.dumps(added))
"""

NOT_ON_THE_COMMAND_PATH = (
    "dataclasses", "inspect", "traceback", "ast", "dis", "tokenize", "linecache",
)


BARE = """
import sys
sys.path.insert(0, sys.argv[1])
import finitetop.cli
loaded = sorted(sys.modules)
import json
print(json.dumps(loaded))
"""


def modules_added_by_importing_the_cli() -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", ADDED], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def modules_named_in_init() -> set:
    names = set()
    for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module)
    return {f"finitetop.{name}" for name in names}


def test_importing_the_cli_skips_heavy_stdlib_modules_and_loads_the_package():
    added = modules_added_by_importing_the_cli()
    assert "finitetop.cli" in added
    assert sorted(set(NOT_ON_THE_COMMAND_PATH) & added) == []
    eager = modules_named_in_init()
    assert {"finitetop.core", "finitetop.cli", "finitetop.maps"} <= eager
    assert sorted(eager - added) == []


def test_a_bare_interpreter_imports_the_cli_without_typing_or_random():
    done = subprocess.run(
        [sys.executable, "-S", "-I", "-c", BARE, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "finitetop.cli" in loaded
    assert sorted({"typing", "random"} & loaded) == []


def _imports(node: ast.AST, module: str) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == module for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == module
    return False


def _offenders(module: str) -> list[str]:
    files = sorted(SRC.rglob("*.py"))
    assert any(p.name == "core.py" for p in files)
    return [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _imports(node, module)
    ]


def test_no_source_file_imports_dataclasses():
    assert _offenders("dataclasses") == []


def test_no_source_file_imports_typing():
    assert _offenders("typing") == []


def test_only_generators_imports_random():
    # random_space is the one user of random; the least map is deterministic.
    assert [o for o in _offenders("random") if not o.startswith("finitetop/generators.py:")] == []
