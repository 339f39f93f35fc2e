"""No module of ``src/`` imports a name it never uses.

No linter ships with the project, so this scan (stdlib ``ast`` only)
stands in for one.  A name counts as used when it is read anywhere in
the module, appears in an annotation (string annotations included), or
is listed in the module's ``__all__``.  Package ``__init__`` modules are
skipped: their imports are the package's public re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _annotation_names(node: ast.AST) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of every import (``__future__`` aside)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {
                element.value
                for element in getattr(node.value, "elts", ())
                if isinstance(element, ast.Constant)
            }
    return used


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    return sorted(
        (line, name) for name, line in _imported(tree).items() if name not in used
    )


def test_scanner_flags_only_unused_names(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, json\n"
        "from typing import List, Optional\n"
        "from .things import Exported, Hidden as Alias\n"
        "__all__ = ['Exported']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(module) == [(2, "json"), (3, "List"), (4, "Alias")]


def test_no_unused_imports_in_src():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert offenders == [], "unused imports:\n" + "\n".join(offenders)
