"""No function or class in ``src/`` is defined and never named.

A dead definition is one whose name occurs, as a whole word, only on
its own ``def``/``class`` lines across ``src/``, ``tests/``,
``benchmarks/``, ``examples/`` and ``perfbench/`` -- code, strings and
docstrings alike, so a name that a test looks up with ``getattr`` or a
benchmark patches by string still counts as used.  Like
``test_imports.py`` this uses the stdlib ``ast`` only.  Exempt are
dunders (the interpreter calls them), definitions under a decorator
other than the plain builtins (a registry decorator is the use), and
the Python bridge's ``convert_*`` methods, which it dispatches by
building the name.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples", "perfbench")

#: Decorators that do not register a definition anywhere.
PLAIN_DECORATORS = {
    "property",
    "setter",
    "staticmethod",
    "classmethod",
    "dataclass",
    "contextmanager",
}

#: Modules whose methods of the given prefix are found by name at runtime.
DISPATCHED = {"repro/lang/python_lang/bridge.py": "convert_"}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", "")


def _exempt(node: ast.AST, module: str) -> bool:
    name = node.name
    if name.startswith("__") and name.endswith("__"):
        return True
    if any(_decorator_name(d) not in PLAIN_DECORATORS for d in node.decorator_list):
        return True
    prefix = DISPATCHED.get(module)
    return prefix is not None and name.startswith(prefix)


def _definitions():
    """(name, "module:line") of every non-exempt def and class in src/."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = path.relative_to(ROOT / "src").as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not _exempt(node, module):
                    found.append((node.name, f"{module}:{node.lineno}"))
    return found


def _word_counts() -> Counter:
    counts: Counter = Counter()
    for tree in TREES:
        for path in (ROOT / tree).rglob("*.py"):
            counts.update(_WORD.findall(path.read_text(encoding="utf-8")))
    return counts


def test_the_bridge_dispatch_prefix_exists():
    source = (ROOT / "src" / "repro/lang/python_lang/bridge.py").read_text(encoding="utf-8")
    assert 'getattr(self, f"convert_' in source


def test_every_definition_is_named_somewhere_else():
    definitions = _definitions()
    defined = Counter(name for name, _ in definitions)
    counts = _word_counts()
    dead = [
        f"{where}: {name}"
        for name, where in definitions
        if counts[name] <= defined[name]
    ]
    assert dead == [], "defined but never named:\n  " + "\n  ".join(dead)
