"""No function in the package calls itself, by name or as a method of self/cls.

Deep inputs must never hit the interpreter's recursion limit, so every
search keeps an explicit stack; this check keeps direct recursion out of
every module under ``src/finitetop``.
"""

import ast
from pathlib import Path

import finitetop

MODULES = sorted(Path(finitetop.__file__).resolve().parent.rglob("*.py"))


def _self_calls(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[int]:
    lines = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            callee = node.func
            direct = isinstance(callee, ast.Name) and callee.id == func.name
            method = (
                isinstance(callee, ast.Attribute)
                and callee.attr == func.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("self", "cls")
            )
            if direct or method:
                lines.append(node.lineno)
    return lines


def test_no_function_calls_itself():
    assert any(p.name == "_refine.py" for p in MODULES)
    offenders = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [f"{path.name}:{line} {node.name}" for line in _self_calls(node)]
    assert offenders == []
