"""What ``import finitetop.cli`` loads, which every ``finitetop`` command pays for.

A fresh interpreter records ``sys.modules``, imports ``finitetop.cli`` and
reports the modules that import added.  The command path must not pull in
the heavy standard-library modules that ``dataclasses`` and ``traceback``
bring (``inspect``, ``ast``, ``dis``, ``tokenize``, ``linecache``), and it
must still load every module ``finitetop/__init__.py`` imports, so that
the package stays eagerly imported.  A source scan keeps ``dataclasses``
out of the package for good.
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


def _imports_dataclasses(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "dataclasses" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "dataclasses"
    return False


def test_no_source_file_imports_dataclasses():
    files = sorted(SRC.rglob("*.py"))
    assert any(p.name == "core.py" for p in files)
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _imports_dataclasses(node)
    ]
    assert offenders == []
