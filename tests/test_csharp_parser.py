"""Unit tests for the C# frontend (Roslyn-style ASTs)."""

import pytest

from repro.lang.base import ParseError
from repro.lang.csharp import parse_csharp


def wrap(body, params=""):
    return f"""
    namespace N {{
        public class T {{
            public void M({params}) {{
                {body}
            }}
        }}
    }}
    """


def kinds_of(source):
    return [n.kind for n in parse_csharp(source).root.walk()]


class TestStructure:
    def test_usings_and_namespace(self):
        ast = parse_csharp("using System;\nnamespace A.B { class C { } }")
        kinds = [c.kind for c in ast.root.children]
        assert kinds == ["UsingDirective", "NamespaceDeclaration"]

    def test_class_without_namespace(self):
        ast = parse_csharp("class C { }")
        assert ast.root.children[0].kind == "ClassDeclaration"

    def test_struct_and_interface(self):
        assert "StructDeclaration" in kinds_of("struct S { }")
        assert "InterfaceDeclaration" in kinds_of("interface I { void M(); }")

    def test_base_list(self):
        ast = parse_csharp("class C : Base, IThing { }")
        class_node = ast.root.children[0]
        assert any(c.kind == "BaseList" for c in class_node.children)

    def test_field_and_property(self):
        source = "class C { private int total; public string Name { get; set; } }"
        kinds = kinds_of(source)
        assert "FieldDeclaration" in kinds
        assert "PropertyDeclaration" in kinds
        assert "GetAccessor" in kinds and "SetAccessor" in kinds

    def test_constructor(self):
        kinds = kinds_of("class C { public C(int x) { } }")
        assert "ConstructorDeclaration" in kinds

    def test_blocks_are_kept(self):
        """The C# tree keeps Block wrappers (more elaborate AST)."""
        kinds = kinds_of(wrap("if (a) { F(); }"))
        assert "Block" in kinds

    def test_expression_statements_wrapped(self):
        kinds = kinds_of(wrap("F();"))
        assert "ExpressionStatement" in kinds


class TestStatements:
    def test_foreach(self):
        ast = parse_csharp(wrap("foreach (int v in xs) { Use(v); }", params="List<int> xs"))
        node = next(n for n in ast.root.walk() if n.kind == "ForEachStatement")
        assert node.children[1].value == "v"

    def test_for(self):
        kinds = kinds_of(wrap("for (int i = 0; i < 3; i++) { Use(i); }"))
        assert "ForStatement" in kinds

    def test_local_declaration(self):
        ast = parse_csharp(wrap("int c = 0;"))
        stmt = next(n for n in ast.root.walk() if n.kind == "LocalDeclarationStatement")
        decl = stmt.children[0]
        assert decl.kind == "VariableDeclaration"
        assert decl.children[1].kind == "VariableDeclarator"

    @pytest.mark.parametrize(
        "source",
        [
            wrap("Dictionary<string, Dictionary<string, List<int>>> m = null;"),
            "class C { Dictionary<string, Dictionary<string, List<int>>> m; }",
            wrap("", params="Dictionary<string, Dictionary<string, List<int>>> m"),
        ],
        ids=["local", "field", "parameter"],
    )
    def test_three_deep_generics(self, source):
        ast = parse_csharp(source)
        outer = next(n for n in ast.root.walk() if n.kind == "GenericName")
        assert [n.value for n in outer.walk() if not n.children] == [
            "Dictionary", "string", "Dictionary", "string", "List", "int",
        ]
        assert outer.parent.kind in ("VariableDeclaration", "FieldDeclaration", "Parameter")

    @pytest.mark.parametrize(
        "source, holder",
        [
            (wrap("int? x = null;"), "VariableDeclaration"),
            (wrap("Foo? x = y;"), "VariableDeclaration"),
            ("class C { int? f; }", "FieldDeclaration"),
            (wrap("", params="int? p"), "Parameter"),
            ("class C { int? F() { return null; } }", "MethodDeclaration"),
            (wrap("foreach (int? v in vs) { }"), "ForEachStatement"),
        ],
        ids=["local", "named-local", "field", "parameter", "return", "foreach"],
    )
    def test_nullable_types(self, source, holder):
        ast = parse_csharp(source)
        nullable = next(n for n in ast.root.walk() if n.kind == "NullableType")
        assert nullable.parent.kind == holder
        assert nullable.parent.children[0] is nullable
        assert [c.kind for c in nullable.children] in (["PredefinedType"], ["IdentifierName"])

    @pytest.mark.parametrize(
        "body, holder",
        [
            ("List<int?> xs;", "GenericName"),
            ("int?[] xs;", "ArrayType"),
            ("object y = (int?)x;", "CastExpression"),
            ("var y = new int?[3];", "ArrayCreationExpression"),
        ],
        ids=["type-argument", "array-element", "cast", "array-creation"],
    )
    def test_nullable_types_inside_other_types_and_expressions(self, body, holder):
        ast = parse_csharp(wrap(body))
        nullable = next(n for n in ast.root.walk() if n.kind == "NullableType")
        assert nullable.parent.kind == holder
        assert nullable.parent.parent.kind in ("VariableDeclaration", "EqualsValueClause")
        assert [c.kind for c in nullable.children] == ["PredefinedType"]

    @pytest.mark.parametrize(
        "body",
        [
            "x = a ? b : c;",
            "a ? b : c;",
            "var y = a ? b : c;",
            "var y = x is int ? a : b;",
            "var y = x is int ? F(x) : G();",
        ],
    )
    def test_conditional_is_not_a_nullable_type(self, body):
        kinds = kinds_of(wrap(body))
        assert "ConditionalExpression" in kinds and "NullableType" not in kinds

    def test_var_keyword(self):
        kinds = kinds_of(wrap("var x = 1;"))
        assert "VarKeyword" in kinds

    def test_if_else_while_do(self):
        kinds = kinds_of(wrap("if (a) { } else { } while (b) { } do { } while (c);"))
        assert {"IfStatement", "ElseClause", "WhileStatement", "DoStatement"} <= set(kinds)

    def test_try_catch_finally(self):
        kinds = kinds_of(wrap("try { F(); } catch (Exception e) { G(e); } finally { H(); }"))
        assert {"TryStatement", "CatchClause", "FinallyClause"} <= set(kinds)

    def test_return_break_continue_throw(self):
        kinds = kinds_of(
            wrap("while (a) { if (b) break; if (c) continue; } throw new Exception();")
        )
        assert {"BreakStatement", "ContinueStatement", "ThrowStatement"} <= set(kinds)


class TestExpressions:
    def test_roslyn_operator_kinds(self):
        kinds = kinds_of(wrap("x = !a && b == c + 1;"))
        assert "SimpleAssignmentExpression" in kinds
        assert "LogicalNotExpression" in kinds
        assert "LogicalAndExpression" in kinds
        assert "EqualsExpression" in kinds
        assert "AddExpression" in kinds

    def test_invocation_with_argument_list(self):
        ast = parse_csharp(wrap("obj.F(1, 2);"))
        invocation = next(n for n in ast.root.walk() if n.kind == "InvocationExpression")
        assert invocation.children[0].kind == "SimpleMemberAccessExpression"
        args = invocation.children[1]
        assert args.kind == "ArgumentList"
        assert all(c.kind == "Argument" for c in args.children)

    def test_element_access(self):
        kinds = kinds_of(wrap("int x = xs[0];", params="List<int> xs"))
        assert "ElementAccessExpression" in kinds

    def test_object_creation(self):
        kinds = kinds_of(wrap("var d = new Dictionary<string, int>();"))
        assert "ObjectCreationExpression" in kinds

    def test_post_increment(self):
        kinds = kinds_of(wrap("i++;"))
        assert "PostIncrementExpression" in kinds

    def test_literals(self):
        kinds = kinds_of(wrap('x = 1; s = "a"; b = true; o = null;'))
        for expected in (
            "NumericLiteralExpression",
            "StringLiteralExpression",
            "TrueLiteralExpression",
            "NullLiteralExpression",
        ):
            assert expected in kinds

    def test_is_as(self):
        kinds = kinds_of(wrap("bool b = o is Exception; var e = o as Exception;"))
        assert "IsExpression" in kinds and "AsExpression" in kinds


class TestBindings:
    def test_local_grouping(self, count_csharp_ast):
        cs = [l for l in count_csharp_ast.leaves if l.value == "c"]
        assert len({l.meta["binding"] for l in cs}) == 1
        assert all(l.meta["id_kind"] == "local" for l in cs)

    def test_param_grouping(self, count_csharp_ast):
        values = [l for l in count_csharp_ast.leaves if l.value == "values"]
        assert all(l.meta["id_kind"] == "param" for l in values)

    def test_member_access_name_not_bound_as_variable(self):
        ast = parse_csharp(wrap("int n = xs.Count;", params="List<int> xs"))
        count_node = next(
            l for l in ast.leaves if l.value == "Count" and l.kind == "IdentifierName"
        )
        assert count_node.meta.get("id_kind") == "property"

    def test_foreach_variable_local(self):
        ast = parse_csharp(wrap("foreach (int v in xs) { Use(v); }", params="List<int> xs"))
        vs = [l for l in ast.leaves if l.value == "v"]
        assert len({l.meta["binding"] for l in vs}) == 1


class TestErrors:
    def test_unterminated_class(self):
        with pytest.raises(ParseError):
            parse_csharp("class C { void M() {")

    def test_bad_accessor(self):
        with pytest.raises(ParseError):
            parse_csharp("class C { int X { bogus; } }")
