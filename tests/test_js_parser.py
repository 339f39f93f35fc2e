"""Unit tests for the JavaScript frontend (UglifyJS-style ASTs)."""

import pytest

from repro.lang.base import ParseError
from repro.lang.javascript import parse_js


def kinds_of(source):
    return [n.kind for n in parse_js(source).root.walk()]


class TestStatements:
    def test_var_statement(self):
        ast = parse_js("var x = 1, y;")
        var = ast.root.children[0]
        assert var.kind == "Var"
        assert [c.kind for c in var.children] == ["VarDef", "VarDef"]
        assert var.children[0].children[0].value == "x"

    def test_function_declaration(self):
        ast = parse_js("function f(a, b) { return a; }")
        fn = ast.root.children[0]
        assert fn.kind == "Defun"
        assert [c.kind for c in fn.children] == [
            "SymbolDefun",
            "SymbolFunarg",
            "SymbolFunarg",
            "Return",
        ]

    def test_unnamed_function_declaration_rejected(self):
        with pytest.raises(ParseError):
            parse_js("function (a) { }")

    def test_if_else_flattening(self):
        ast = parse_js("if (x) { a(); b(); } else { c(); }")
        node = ast.root.children[0]
        assert node.kind == "If"
        assert [c.kind for c in node.children] == ["SymbolRef", "Call", "Call", "Else"]

    def test_while_flattening(self):
        """Statement bodies attach directly (the paper's While↓If path)."""
        ast = parse_js("while (x) { if (y) { z(); } }")
        while_node = ast.root.children[0]
        assert [c.kind for c in while_node.children] == ["SymbolRef", "If"]

    def test_for_classic(self):
        ast = parse_js("for (var i = 0; i < n; i++) { f(i); }")
        node = ast.root.children[0]
        assert node.kind == "For"
        assert node.children[0].kind == "Var"
        assert node.children[1].kind == "Binary<"
        assert node.children[2].kind == "UnaryPostfix++"

    def test_for_in_and_of(self):
        for kw in ("in", "of"):
            ast = parse_js(f"for (var k {kw} obj) {{ f(k); }}")
            node = ast.root.children[0]
            assert node.kind == "ForIn"
            assert node.children[0].kind == "SymbolVar"

    def test_for_in_without_declaration(self):
        ast = parse_js("for (k in obj) { f(k); } for (o.p in obj || {}) g();")
        bare, member = ast.root.children
        assert bare.kind == "ForIn"
        assert [c.kind for c in bare.children[:2]] == ["SymbolRef", "SymbolRef"]
        assert bare.children[0].value == "k"
        assert member.kind == "ForIn"
        assert [c.kind for c in member.children[:2]] == ["Dot", "Binary||"]

    def test_for_header_keeps_in_inside_clauses(self):
        ast = parse_js("for (i = 0; k in obj; i++) x(); for (var j = 0, n = 2; j < n; j++) y();")
        three, declared = ast.root.children
        assert three.kind == "For"
        assert [c.kind for c in three.children[:3]] == ["Assign=", "Binaryin", "UnaryPostfix++"]
        assert declared.kind == "For"
        assert declared.children[0].kind == "Var" and len(declared.children[0].children) == 2

    def test_do_while(self):
        ast = parse_js("do { f(); } while (x);")
        node = ast.root.children[0]
        assert node.kind == "Do"

    def test_try_catch_finally(self):
        ast = parse_js("try { f(); } catch (e) { g(e); } finally { h(); }")
        node = ast.root.children[0]
        assert [c.kind for c in node.children] == ["TryBody", "Catch", "Finally"]

    def test_break_continue_throw_return(self):
        ast = parse_js("while (x) { if (a) break; if (b) continue; } ")
        kinds = kinds_of("while (x) { if (a) break; if (b) continue; }")
        assert "Break" in kinds and "Continue" in kinds
        ast = parse_js("function f() { throw new Error('x'); }")
        assert "Throw" in [n.kind for n in ast.root.walk()]


class TestExpressions:
    def test_operator_bearing_kinds(self):
        kinds = kinds_of("x = !a && b === c + 1;")
        assert "Assign=" in kinds
        assert "UnaryPrefix!" in kinds
        assert "Binary&&" in kinds
        assert "Binary===" in kinds
        assert "Binary+" in kinds

    def test_compound_assignment(self):
        assert "Assign+=" in kinds_of("x += 2;")

    def test_precedence(self):
        ast = parse_js("r = a + b * c;")
        assign = ast.root.children[0]
        add = assign.children[1]
        assert add.kind == "Binary+"
        assert add.children[1].kind == "Binary*"

    def test_member_access(self):
        kinds = kinds_of("a.b.c;")
        assert kinds.count("Dot") == 2
        ast = parse_js("a.b.c;")
        outer = ast.root.children[0]
        assert outer.children[1].kind == "Property"
        assert outer.children[1].value == "c"

    def test_computed_access(self):
        kinds = kinds_of("a[i];")
        assert "Sub" in kinds

    def test_call_with_args(self):
        ast = parse_js("f(a, 1, 'x');")
        call = ast.root.children[0]
        assert call.kind == "Call"
        assert [c.kind for c in call.children] == ["SymbolRef", "SymbolRef", "Number", "String"]

    def test_new_expression(self):
        ast = parse_js("var e = new Error('x');")
        new_node = ast.root.children[0].children[0].children[1]
        assert new_node.kind == "New"

    def test_conditional(self):
        assert "Conditional" in kinds_of("r = a ? b : c;")

    def test_literals(self):
        kinds = kinds_of("x = [1, 'a', true, false, null, undefined];")
        for expected in ("Array", "Number", "String", "True", "False", "Null", "Undefined"):
            assert expected in kinds

    def test_object_literal(self):
        ast = parse_js("var o = { a: 1, 'b': 2 };")
        obj = ast.root.children[0].children[0].children[1]
        assert obj.kind == "Object"
        assert [c.kind for c in obj.children] == ["ObjectKeyVal", "ObjectKeyVal"]
        assert obj.children[0].children[0].value == "a"

    def test_function_expression(self):
        ast = parse_js("var f = function (x) { return x; };")
        fn = ast.root.children[0].children[0].children[1]
        assert fn.kind == "Function"

    def test_sequence_expression(self):
        assert "Seq" in kinds_of("a = 1, b = 2;")

    def test_typeof(self):
        assert "UnaryPrefixtypeof" in kinds_of("t = typeof x;")


class TestScopes:
    def test_local_binding_groups_occurrences(self):
        ast = parse_js("function f() { var d = 1; d = d + 1; }")
        ds = [l for l in ast.leaves if l.value == "d"]
        bindings = {l.meta["binding"] for l in ds}
        assert len(bindings) == 1
        assert all(l.meta["id_kind"] == "local" for l in ds)

    def test_param_binding(self):
        ast = parse_js("function f(x) { return x; }")
        xs = [l for l in ast.leaves if l.value == "x"]
        assert all(l.meta["id_kind"] == "param" for l in xs)
        assert len({l.meta["binding"] for l in xs}) == 1

    def test_global_reference(self):
        ast = parse_js("function f() { g(); }")
        g = next(l for l in ast.leaves if l.value == "g")
        assert g.meta["id_kind"] == "global"
        assert g.meta["binding"] == "g:g"

    def test_shadowing_distinct_bindings(self):
        ast = parse_js(
            "function f() { var x = 1; use(x); }\nfunction g() { var x = 2; use(x); }"
        )
        xs = [l for l in ast.leaves if l.value == "x"]
        assert len({l.meta["binding"] for l in xs}) == 2

    def test_nested_function_sees_outer_local(self):
        ast = parse_js("function f() { var y = 1; function g() { return y; } }")
        ys = [l for l in ast.leaves if l.value == "y"]
        assert len({l.meta["binding"] for l in ys}) == 1

    def test_property_not_renameable(self):
        ast = parse_js("function f(a) { return a.length; }")
        prop = next(l for l in ast.leaves if l.kind == "Property")
        assert prop.meta["id_kind"] == "property"

    def test_catch_variable_is_local(self):
        ast = parse_js("try { f(); } catch (e) { g(e); }")
        es = [l for l in ast.leaves if l.value == "e"]
        assert all(l.meta["id_kind"] == "local" for l in es)
        assert len({l.meta["binding"] for l in es}) == 1


class TestErrors:
    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_js("f(a;")

    def test_unterminated_block(self):
        with pytest.raises(ParseError):
            parse_js("function f() { var x = 1;")

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_js("var = = 1;")
