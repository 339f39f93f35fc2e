"""Unit and round-trip tests for the source printers."""

import pytest

from repro.lang.base import parse_source
from repro.lang.printing import (
    PrintError,
    apply_renaming,
    print_javascript,
    print_python,
    print_source,
)

from fixtures import FIG1_JS, SH3_PYTHON


def structure_of(ast):
    """Kind+value skeleton, for structural round-trip comparison."""
    return [(n.kind, n.value) for n in ast.root.walk()]


class TestJavaScriptPrinter:
    def test_fig1_round_trip(self, fig1_ast):
        printed = print_javascript(fig1_ast)
        reparsed = parse_source("javascript", printed)
        assert structure_of(reparsed) == structure_of(fig1_ast)

    @pytest.mark.parametrize(
        "source",
        [
            "var x = 1, y;",
            "function f(a, b) { return a + b; }",
            "if (x) { f(); } else { g(); }",
            "for (var i = 0; i < n; i++) { use(i); }",
            "for (var k of items) { use(k); }",
            "do { f(); } while (x);",
            "try { f(); } catch (e) { g(e); } finally { h(); }",
            "x = a ? b : c;",
            "var o = { a: 1, b: 2 };",
            "var arr = [1, 2, 3];",
            "obj.m(1)[i] = new Thing(2);",
            "throw new Error('bad');",
            "x += y * 2;",
            "t = typeof x;",
            "while (x) { if (a) break; else continue; }",
            "var f = function (x) { return x; };",
        ],
    )
    def test_round_trip_structures(self, source):
        ast = parse_source("javascript", source)
        printed = print_javascript(ast)
        reparsed = parse_source("javascript", printed)
        assert structure_of(reparsed) == structure_of(ast)

    def test_corpus_round_trip(self, js_corpus):
        for file in js_corpus[:20]:
            ast = parse_source("javascript", file.source)
            printed = print_javascript(ast)
            reparsed = parse_source("javascript", printed)
            assert structure_of(reparsed) == structure_of(ast), file.path


class TestPythonPrinter:
    def test_sh3_round_trip(self, sh3_python_ast):
        printed = print_python(sh3_python_ast)
        reparsed = parse_source("python", printed)
        assert structure_of(reparsed) == structure_of(sh3_python_ast)

    @pytest.mark.parametrize(
        "source",
        [
            "x = 1",
            "def f(a, b):\n    return a + b",
            "if x:\n    f()\nelse:\n    g()",
            "for i in range(10):\n    use(i)",
            "while not done:\n    step()",
            "x += 1",
            "a, b = p()",
            "r = x in xs",
            "raise ValueError(\"bad\")",
            "def f(xs):\n    for v in xs:\n        if v:\n            break\n    return xs",
        ],
    )
    def test_round_trip_structures(self, source):
        ast = parse_source("python", source)
        printed = print_python(ast)
        reparsed = parse_source("python", printed)
        assert structure_of(reparsed) == structure_of(ast)

    def test_corpus_round_trip(self, python_corpus):
        for file in python_corpus[:20]:
            ast = parse_source("python", file.source)
            printed = print_python(ast)
            reparsed = parse_source("python", printed)
            assert structure_of(reparsed) == structure_of(ast), file.path


class TestRenaming:
    def test_apply_renaming_all_occurrences(self, fig1_ast):
        ast = parse_source("javascript", FIG1_JS)
        binding = next(
            l.meta["binding"] for l in ast.leaves if l.value == "d"
        )
        apply_renaming(ast, {binding: "done"})
        printed = print_javascript(ast)
        assert "done" in printed
        reparsed = parse_source("javascript", printed)
        assert not any(l.value == "d" for l in reparsed.leaves)

    def test_rename_preserves_structure(self):
        ast = parse_source("javascript", FIG1_JS)
        binding = next(l.meta["binding"] for l in ast.leaves if l.value == "d")
        original = [n.kind for n in ast.root.walk()]
        apply_renaming(ast, {binding: "done"})
        reparsed = parse_source("javascript", print_javascript(ast))
        assert [n.kind for n in reparsed.root.walk()] == original


class TestDispatch:
    def test_print_source_javascript(self, fig1_ast):
        assert "while" in print_source(fig1_ast)

    def test_unsupported_language(self, count_java_ast):
        with pytest.raises(PrintError):
            print_source(count_java_ast)


class TestPigeonRename:
    def test_end_to_end_deobfuscation(self):
        from repro.api import Pipeline

        train = [
            """
function wait() {
  var done = false;
  while (!done) {
    if (someCondition()) {
      done = true;
    }
  }
}
"""
        ] * 8
        pipeline = Pipeline(language="javascript", training={"epochs": 3})
        pipeline.train(train)
        stripped = """
function f() {
  var d = false;
  while (!d) {
    if (someCondition()) {
      d = true;
    }
  }
}
"""
        renamed = pipeline.rename(stripped)
        assert "done" in renamed
        reparsed = parse_source("javascript", renamed)
        assert any(l.value == "done" for l in reparsed.leaves)

    def test_rename_requires_variable_task(self):
        from repro.api import Pipeline

        pipeline = Pipeline(language="java", task="method_naming")
        with pytest.raises((ValueError, RuntimeError)):
            pipeline.rename("class T {}")
