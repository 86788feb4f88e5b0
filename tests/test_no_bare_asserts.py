"""Self-checks in the package raise typed errors, never bare ``assert``.

``python -O`` strips ``assert`` statements, and an ``AssertionError``
escaping the CLI would not map to its internal-error exit code, so both
forms are rejected in every module under ``src/finitetop``.
"""

import ast
from pathlib import Path

import finitetop

MODULES = sorted(Path(finitetop.__file__).resolve().parent.rglob("*.py"))


def _raises_assertion_error(node: ast.Raise) -> bool:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_or_assertion_errors():
    assert any(p.name == "invariants.py" for p in MODULES)
    offenders = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and _raises_assertion_error(node)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
