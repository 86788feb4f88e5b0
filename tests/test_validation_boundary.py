"""The CLI reads outside input, so it never uses the unchecked constructor.

``Space._of`` skips validation and is meant only for output that is valid
by construction.  Every space the CLI builds from a document must pass
through ``Space(...)`` or ``from_neighborhoods``, and no ``__all__`` may
offer ``_of`` to users of the package.  Conversely, the generators build
their output, valid by construction, only through ``Space._of``.
"""

import ast
from pathlib import Path

import finitetop
from finitetop.core import Space

PRIVATE = "_of"
PACKAGE = Path(finitetop.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.alias):
            yield node.asname or node.name, node.lineno


def test_private_constructor_exists():
    assert callable(getattr(Space, PRIVATE))


def test_cli_never_skips_validation():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert [line for name, line in _names(tree) if name == PRIVATE] == []


def test_all_does_not_export_private_constructor():
    assert any(p.name == "__init__.py" for p in MODULES)
    offenders = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                continue
            for elt in getattr(node.value, "elts", []):
                if isinstance(elt, ast.Constant) and PRIVATE in str(elt.value).split("."):
                    offenders.append(f"{path.name}:{elt.lineno}")
    assert offenders == []


VALIDATING = {"from_preorder", "from_neighborhoods", "from_basis", "from_open_family"}


def test_generators_never_revalidate():
    tree = ast.parse((PACKAGE / "generators.py").read_text(encoding="utf-8"))
    named = [(name, line) for name, line in _names(tree) if name in VALIDATING]
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Space"
    ]
    assert named == [] and calls == []
