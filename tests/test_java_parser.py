"""Unit tests for the Java frontend (JavaParser-style ASTs)."""

import pytest

from repro.lang.base import ParseError
from repro.lang.java import parse_java


def wrap(body, params="", return_type="void"):
    return f"""
    public class T {{
        public {return_type} m({params}) {{
            {body}
        }}
    }}
    """


def kinds_of(source):
    return [n.kind for n in parse_java(source).root.walk()]


class TestStructure:
    def test_package_and_imports(self):
        ast = parse_java(
            "package com.a.b;\nimport java.util.List;\nimport java.io.*;\npublic class C {}"
        )
        kinds = [c.kind for c in ast.root.children]
        assert kinds == [
            "PackageDeclaration",
            "ImportDeclaration",
            "ImportDeclaration",
            "ClassDeclaration",
        ]
        assert ast.root.children[0].children[0].value == "com.a.b"
        assert ast.root.children[2].children[0].value == "java.io.*"

    def test_class_with_extends_implements(self):
        ast = parse_java("class C extends Base implements A, B {}")
        class_node = ast.root.children[0]
        kinds = [c.kind for c in class_node.children]
        assert "ExtendedType" in kinds and "ImplementedTypes" in kinds

    def test_interface(self):
        ast = parse_java("public interface I { int f(); }")
        node = ast.root.children[0]
        assert node.kind == "InterfaceDeclaration"
        method = node.children[1]
        assert method.kind == "MethodDeclaration"

    def test_field_declaration(self):
        ast = parse_java("class C { private int a = 1, b; }")
        field = ast.root.children[0].children[1]
        assert field.kind == "FieldDeclaration"
        assert sum(1 for c in field.children if c.kind == "VariableDeclarator") == 2

    def test_constructor(self):
        ast = parse_java("class C { public C(int x) { this.a = x; } }")
        ctor = ast.root.children[0].children[1]
        assert ctor.kind == "ConstructorDeclaration"

    def test_method_with_throws(self):
        ast = parse_java("class C { void m() throws Exception, Error { } }")
        assert "MethodDeclaration" in [n.kind for n in ast.root.walk()]


class TestTypes:
    def test_primitive_and_class_types(self):
        ast = parse_java(wrap("int x = 0; String s = null;"))
        kinds = [n.kind for n in ast.root.walk()]
        assert "PrimitiveType" in kinds and "ClassType" in kinds

    def test_generic_type(self):
        ast = parse_java(wrap("", params="List<Integer> xs"))
        generic = next(n for n in ast.root.walk() if n.kind == "GenericType")
        assert generic.children[0].value == "List"
        assert generic.children[1].value == "Integer"

    def test_nested_generics(self):
        ast = parse_java(wrap("", params="Map<String, List<Integer>> m"))
        assert any(n.kind == "GenericType" for n in ast.root.walk())

    @pytest.mark.parametrize(
        "source",
        [
            wrap("Map<String, Map<String, List<Integer>>> m = null;"),
            "class C { Map<String, Map<String, List<Integer>>> m; }",
            wrap("", params="Map<String, Map<String, List<Integer>>> m"),
        ],
        ids=["local", "field", "parameter"],
    )
    def test_three_deep_generics(self, source):
        ast = parse_java(source)
        outer = next(n for n in ast.root.walk() if n.kind == "GenericType")
        assert [n.value for n in outer.walk() if n.kind == "ClassType"] == [
            "Map", "String", "Map", "String", "List", "Integer",
        ]
        assert outer.parent.kind in ("VariableDeclarationExpr", "FieldDeclaration", "Parameter")

    def test_nested_generic_for_header_declares(self):
        ast = parse_java(wrap("for (List<List<X>> a = b; a != null; ) { use(a); }"))
        loop = next(n for n in ast.root.walk() if n.kind == "ForStmt")
        assert loop.children[0].kind == "VariableDeclarationExpr"
        assert loop.children[0].children[0].kind == "GenericType"

    @pytest.mark.parametrize(
        "source, bound, bound_type",
        [
            (wrap("", params="List<? extends Number> xs"), "ExtendedType", "Number"),
            (wrap("", params="Comparator<? super T> c"), "SuperType", "T"),
            (wrap("List<?> xs = null;"), None, None),
            ("class C { List<?> f; }", None, None),
            ("class C { Map<String, ? extends List<?>> f() { return null; } }", "ExtendedType", "List"),
        ],
        ids=["extends-parameter", "super-parameter", "local", "field", "nested-return"],
    )
    def test_wildcards(self, source, bound, bound_type):
        ast = parse_java(source)
        wildcard = next(n for n in ast.root.walk() if n.kind == "WildcardType")
        assert wildcard.parent.kind == "GenericType"
        if bound is None:
            assert wildcard.value == "?" and not wildcard.children
        else:
            assert [c.kind for c in wildcard.children] == [bound]
            assert bound_type in [n.value for n in wildcard.walk()]

    def test_conditional_is_not_a_wildcard(self):
        ast = parse_java(wrap("x = a ? b : c; y = a < b ? c : d;"))
        kinds = [n.kind for n in ast.root.walk()]
        assert kinds.count("ConditionalExpr") == 2 and "WildcardType" not in kinds

    def test_array_type(self):
        ast = parse_java(wrap("", params="int[] xs"))
        assert any(n.kind == "ArrayType" for n in ast.root.walk())

    def test_generic_vs_less_than(self):
        ast = parse_java(wrap("boolean b = a < c;"))
        assert "BinaryExpr<" in [n.kind for n in ast.root.walk()]


class TestStatements:
    def test_foreach(self):
        ast = parse_java(wrap("for (int v : xs) { use(v); }", params="List<Integer> xs"))
        node = next(n for n in ast.root.walk() if n.kind == "ForeachStmt")
        assert node.children[0].kind == "VariableDeclarationExpr"

    def test_classic_for(self):
        ast = parse_java(wrap("for (int i = 0; i < 3; i++) { use(i); }"))
        assert any(n.kind == "ForStmt" for n in ast.root.walk())

    def test_if_else(self):
        kinds = kinds_of(wrap("if (a) { f(); } else { g(); }"))
        assert "IfStmt" in kinds and "ElseStmt" in kinds

    def test_while_do(self):
        kinds = kinds_of(wrap("while (a) { f(); } do { g(); } while (b);"))
        assert "WhileStmt" in kinds and "DoStmt" in kinds

    def test_try_catch_finally(self):
        source = wrap(
            "try { f(); } catch (Exception e) { g(e); } finally { h(); }"
        )
        kinds = kinds_of(source)
        assert "TryStmt" in kinds and "CatchClause" in kinds and "FinallyBlock" in kinds

    def test_return_break_continue_throw(self):
        kinds = kinds_of(
            wrap("while (a) { if (b) break; if (c) continue; } throw new Error();")
        )
        assert {"BreakStmt", "ContinueStmt", "ThrowStmt"} <= set(kinds)


class TestExpressions:
    def test_operator_kinds(self):
        kinds = kinds_of(wrap("x = !a && b == c + 1;", params="boolean a, boolean b, int c, boolean x"))
        assert "AssignExpr=" in kinds
        assert "UnaryExpr!" in kinds
        assert "BinaryExpr&&" in kinds
        assert "BinaryExpr==" in kinds

    def test_method_call_scoped_and_unscoped(self):
        ast = parse_java(wrap("f(); obj.g(1);"))
        calls = [n for n in ast.root.walk() if n.kind == "MethodCallExpr"]
        assert len(calls) == 2
        assert calls[0].children[0].kind == "SimpleName"
        assert calls[1].children[0].kind == "NameExpr"

    def test_field_access_and_array_access(self):
        kinds = kinds_of(wrap("int n = a.b; int m = xs[0];", params="int[] xs"))
        assert "FieldAccessExpr" in kinds and "ArrayAccessExpr" in kinds

    def test_object_and_array_creation(self):
        kinds = kinds_of(wrap("Object o = new Object(); int[] a = new int[3];"))
        assert "ObjectCreationExpr" in kinds and "ArrayCreationExpr" in kinds

    def test_cast(self):
        kinds = kinds_of(wrap("int x = (int) y;"))
        assert "CastExpr" in kinds

    def test_instanceof(self):
        kinds = kinds_of(wrap("boolean b = o instanceof String;"))
        assert "InstanceOfExpr" in kinds

    def test_conditional(self):
        kinds = kinds_of(wrap("int x = a ? 1 : 2;"))
        assert "ConditionalExpr" in kinds

    def test_postfix_prefix(self):
        kinds = kinds_of(wrap("i++; --j;"))
        assert "PostfixExpr++" in kinds and "UnaryExpr--" in kinds

    def test_literals(self):
        kinds = kinds_of(wrap('x = 1; y = 2.5; s = "a"; c = \'z\'; b = true; o = null;'))
        for expected in (
            "IntegerLiteral",
            "DoubleLiteral",
            "StringLiteral",
            "CharLiteral",
            "BooleanLiteral",
            "NullLiteral",
        ):
            assert expected in kinds


class TestBindings:
    def test_local_grouping(self, count_java_ast):
        cs = [l for l in count_java_ast.leaves if l.value == "c"]
        assert len(cs) == 3
        assert len({l.meta["binding"] for l in cs}) == 1
        assert all(l.meta["id_kind"] == "local" for l in cs)

    def test_param_grouping(self, count_java_ast):
        values = [l for l in count_java_ast.leaves if l.value == "values"]
        assert len({l.meta["binding"] for l in values}) == 1
        assert all(l.meta["id_kind"] == "param" for l in values)

    def test_field_binding(self, count_java_ast):
        total = next(l for l in count_java_ast.leaves if l.value == "total")
        assert total.meta["id_kind"] == "field"

    def test_same_name_in_two_methods_distinct(self):
        ast = parse_java(
            "class C { void a() { int x = 1; use(x); } void b() { int x = 2; use(x); } }"
        )
        xs = [l for l in ast.leaves if l.value == "x"]
        assert len({l.meta["binding"] for l in xs}) == 2


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_java(wrap("int x = 1"))

    def test_unterminated_class(self):
        with pytest.raises(ParseError):
            parse_java("class C { void m() { }")
