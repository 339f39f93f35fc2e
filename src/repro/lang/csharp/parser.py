"""Recursive-descent parser for a C# subset.

Node kinds follow Roslyn's syntax-kind vocabulary
(``SimpleAssignmentExpression``, ``AddExpression``, ``EqualsExpression``,
``InvocationExpression``, ``SimpleMemberAccessExpression``, ...).

Unlike the Java frontend, this tree keeps ``Block`` and
``ExpressionStatement`` wrapper nodes: the paper notes that "the C# AST
is slightly more elaborate than the one we used for Java", which is why
its tuned path parameters differ (7/4 vs 6/3).  We reproduce that
elaborateness deliberately.

Expressions, casts, comma lists, types and the generic-argument lookahead
come from the shared C-family core, :class:`repro.lang.cfamily.CFamilyParser`,
filled with this module's Roslyn-kind tables; after parsing,
:func:`repro.lang.cfamily.resolve_bindings` (shared with Java) groups the
occurrences of fields, parameters and locals.
"""

from __future__ import annotations

from typing import List

from ...core.ast_model import Ast, Node
from ..cfamily import CFamilyParser, binary_table, resolve_bindings
from ..lexing import CHAR, IDENT, KEYWORD, NUMBER, STRING

_KEYWORDS = frozenset(
    """
    using namespace public private protected internal static readonly const
    class interface struct void int long double float bool char byte string
    object var new return if else while do for foreach in break continue
    throw try catch finally this base true false null is as switch case
    default get set override virtual abstract sealed out ref
    """.split()
)

_MODIFIERS = (
    "public",
    "private",
    "protected",
    "internal",
    "static",
    "readonly",
    "const",
    "override",
    "virtual",
    "abstract",
    "sealed",
)
#: Member access operator -> Roslyn node kind.
_MEMBER_ACCESS = {".": "SimpleMemberAccessExpression", "?.": "ConditionalAccessExpression"}
_PREDEFINED_TYPES = ("int", "long", "double", "float", "bool", "char", "byte", "string", "object", "void")


class _CSharpParser(CFamilyParser):
    LANGUAGE = "csharp"
    KEYWORDS = _KEYWORDS
    ASSIGN = {
        "=": "SimpleAssignmentExpression",
        "+=": "AddAssignmentExpression",
        "-=": "SubtractAssignmentExpression",
        "*=": "MultiplyAssignmentExpression",
        "/=": "DivideAssignmentExpression",
        "%=": "ModuloAssignmentExpression",
    }
    CONDITIONAL = "ConditionalExpression"
    BINARY = binary_table(
        {
            "??": "CoalesceExpression",
            "||": "LogicalOrExpression",
            "&&": "LogicalAndExpression",
            "|": "BitwiseOrExpression",
            "^": "ExclusiveOrExpression",
            "&": "BitwiseAndExpression",
            "==": "EqualsExpression",
            "!=": "NotEqualsExpression",
            "<": "LessThanExpression",
            ">": "GreaterThanExpression",
            "<=": "LessThanOrEqualExpression",
            ">=": "GreaterThanOrEqualExpression",
            "is": "IsExpression",
            "as": "AsExpression",
            "<<": "LeftShiftExpression",
            ">>": "RightShiftExpression",
            "+": "AddExpression",
            "-": "SubtractExpression",
            "*": "MultiplyExpression",
            "/": "DivideExpression",
            "%": "ModuloExpression",
        }
    )
    TYPE_OPERAND = frozenset({"is", "as"})
    PREFIX = {
        "!": "LogicalNotExpression",
        "-": "UnaryMinusExpression",
        "+": "UnaryPlusExpression",
        "~": "BitwiseNotExpression",
        "++": "PreIncrementExpression",
        "--": "PreDecrementExpression",
    }
    POSTFIX = {"++": "PostIncrementExpression", "--": "PostDecrementExpression"}
    TYPE_KEYWORDS = {**{name: "PredefinedType" for name in _PREDEFINED_TYPES}, "var": "VarKeyword"}
    NAMED_TYPE = "IdentifierName"
    GENERIC_TYPE = "GenericName"
    NULLABLE_TYPE = "NullableType"
    TYPE_ARG_PUNCT = (",", ".", "[", "]", "?")
    CAST = "CastExpression"

    # ------------------------------------------------------------------
    # Compilation unit
    # ------------------------------------------------------------------
    def parse_compilation_unit(self) -> Node:
        ts = self.ts
        unit = Node("CompilationUnit")
        while ts.current.is_keyword("using"):
            ts.advance()
            name = self.parse_qualified_name()
            ts.expect_op(";")
            unit.add_child(Node("UsingDirective", children=[Node("Name", value=name)]))
        while not ts.at_end():
            if ts.current.is_keyword("namespace"):
                ts.advance()
                name = self.parse_qualified_name()
                ns = Node("NamespaceDeclaration", children=[Node("Name", value=name)])
                ts.expect_op("{")
                while not ts.current.is_op("}"):
                    if ts.at_end():
                        raise ts.error("unterminated namespace")
                    ns.add_child(self.parse_type_declaration())
                ts.expect_op("}")
                unit.add_child(ns)
            else:
                unit.add_child(self.parse_type_declaration())
        return unit

    def parse_qualified_name(self) -> str:
        ts = self.ts
        parts = [ts.expect_ident().text]
        while ts.current.is_op("."):
            ts.advance()
            parts.append(ts.expect_ident().text)
        return ".".join(parts)

    def parse_modifiers(self) -> List[str]:
        mods = []
        while self.ts.current.is_keyword(*_MODIFIERS):
            mods.append(self.ts.advance().text)
        return mods

    def parse_type_declaration(self) -> Node:
        ts = self.ts
        self.parse_modifiers()
        if ts.match_keyword("interface"):
            kind = "InterfaceDeclaration"
        elif ts.match_keyword("struct"):
            kind = "StructDeclaration"
        else:
            ts.expect_keyword("class")
            kind = "ClassDeclaration"
        name = ts.expect_ident().text
        node = Node(kind, children=[Node("IdentifierToken", value=name, meta={"id_kind": "class"})])
        if ts.match_op(":"):
            node.add_child(Node("BaseList", children=self.comma_list(None, self.parse_type)))
        ts.expect_op("{")
        while not ts.current.is_op("}"):
            if ts.at_end():
                raise ts.error("unterminated class body")
            node.add_child(self.parse_member(class_name=name))
        ts.expect_op("}")
        return node

    def parse_member(self, class_name: str) -> Node:
        ts = self.ts
        self.parse_modifiers()
        # Constructor.
        if ts.current.kind == IDENT and ts.current.text == class_name and ts.peek().is_op("("):
            name_tok = ts.advance()
            node = Node(
                "ConstructorDeclaration",
                children=[Node("IdentifierToken", value=name_tok.text, meta={"id_kind": "method"})],
            )
            node.add_child(self.parse_parameter_list())
            node.add_child(self.parse_block())
            return node
        type_node = self.parse_type()
        if ts.current.kind == IDENT and ts.peek().is_op("("):
            name_tok = ts.advance()
            node = Node(
                "MethodDeclaration",
                children=[
                    type_node,
                    Node("IdentifierToken", value=name_tok.text, meta={"id_kind": "method"}),
                ],
            )
            node.add_child(self.parse_parameter_list())
            if ts.match_op(";"):
                return node
            node.add_child(self.parse_block())
            return node
        if ts.current.kind == IDENT and ts.peek().is_op("{"):
            # Auto-property: Type Name { get; set; }
            name_tok = ts.advance()
            node = Node(
                "PropertyDeclaration",
                children=[
                    type_node,
                    Node("IdentifierToken", value=name_tok.text, meta={"id_kind": "property"}),
                ],
            )
            ts.expect_op("{")
            accessors = Node("AccessorList")
            while not ts.current.is_op("}"):
                if ts.match_keyword("get"):
                    accessors.add_child(Node("GetAccessor"))
                elif ts.match_keyword("set"):
                    accessors.add_child(Node("SetAccessor"))
                else:
                    raise ts.error("expected accessor")
                ts.expect_op(";")
            ts.expect_op("}")
            node.add_child(accessors)
            return node
        # Field declaration.
        declarators = self.comma_list(None, lambda: self.parse_declarator("field"))
        ts.expect_op(";")
        return Node("FieldDeclaration", children=[type_node, *declarators])

    def parse_parameter_list(self) -> Node:
        self.ts.expect_op("(")
        return Node("ParameterList", children=self.comma_list(")", self.parse_parameter))

    def parse_parameter(self) -> Node:
        ts = self.ts
        ts.match_keyword("out", "ref")
        param_type = self.parse_type()
        name = ts.expect_ident()
        return Node(
            "Parameter",
            children=[param_type, Node("IdentifierToken", value=name.text, meta={"id_kind": "param"})],
        )

    # ------------------------------------------------------------------
    # Statements (Block nodes are kept, unlike the Java frontend)
    # ------------------------------------------------------------------
    def parse_block(self) -> Node:
        ts = self.ts
        node = Node("Block")
        ts.expect_op("{")
        while not ts.current.is_op("}"):
            if ts.at_end():
                raise ts.error("unterminated block")
            node.add_child(self.parse_statement())
        ts.expect_op("}")
        return node

    def parse_embedded(self) -> Node:
        """A statement in a loop/if body; blocks stay explicit."""
        if self.ts.current.is_op("{"):
            return self.parse_block()
        return self.parse_statement()

    def parse_statement(self) -> Node:
        ts = self.ts
        tok = ts.current
        if tok.is_keyword("if"):
            ts.advance()
            ts.expect_op("(")
            node = Node("IfStatement", children=[self.parse_expression()])
            ts.expect_op(")")
            node.add_child(self.parse_embedded())
            if ts.match_keyword("else"):
                node.add_child(Node("ElseClause", children=[self.parse_embedded()]))
            return node
        if tok.is_keyword("while"):
            ts.advance()
            ts.expect_op("(")
            node = Node("WhileStatement", children=[self.parse_expression()])
            ts.expect_op(")")
            node.add_child(self.parse_embedded())
            return node
        if tok.is_keyword("do"):
            ts.advance()
            node = Node("DoStatement", children=[self.parse_embedded()])
            ts.expect_keyword("while")
            ts.expect_op("(")
            node.add_child(self.parse_expression())
            ts.expect_op(")")
            ts.expect_op(";")
            return node
        if tok.is_keyword("for"):
            return self.parse_for()
        if tok.is_keyword("foreach"):
            ts.advance()
            ts.expect_op("(")
            var_type = self.parse_type()
            name = ts.expect_ident()
            ts.expect_keyword("in")
            node = Node(
                "ForEachStatement",
                children=[
                    var_type,
                    Node("IdentifierToken", value=name.text, meta={"id_kind": "local"}),
                    self.parse_expression(),
                ],
            )
            ts.expect_op(")")
            node.add_child(self.parse_embedded())
            return node
        if tok.is_keyword("return"):
            ts.advance()
            node = Node("ReturnStatement")
            if not ts.current.is_op(";"):
                node.add_child(self.parse_expression())
            ts.expect_op(";")
            return node
        if tok.is_keyword("break"):
            ts.advance()
            ts.expect_op(";")
            return Node("BreakStatement")
        if tok.is_keyword("continue"):
            ts.advance()
            ts.expect_op(";")
            return Node("ContinueStatement")
        if tok.is_keyword("throw"):
            ts.advance()
            node = Node("ThrowStatement", children=[self.parse_expression()])
            ts.expect_op(";")
            return node
        if tok.is_keyword("try"):
            ts.advance()
            node = Node("TryStatement", children=[self.parse_block()])
            while ts.match_keyword("catch"):
                clause = Node("CatchClause")
                if ts.match_op("("):
                    ex_type = self.parse_type()
                    decl = Node("CatchDeclaration", children=[ex_type])
                    if ts.current.kind == IDENT:
                        name = ts.advance()
                        decl.add_child(
                            Node("IdentifierToken", value=name.text, meta={"id_kind": "local"})
                        )
                    ts.expect_op(")")
                    clause.add_child(decl)
                clause.add_child(self.parse_block())
                node.add_child(clause)
            if ts.match_keyword("finally"):
                node.add_child(Node("FinallyClause", children=[self.parse_block()]))
            return node
        if tok.is_op("{"):
            return self.parse_block()
        if tok.is_op(";"):
            ts.advance()
            return Node("EmptyStatement")
        if self.looks_like_local_declaration():
            node = self.parse_local_declaration()
            ts.expect_op(";")
            return node
        expr = self.parse_expression()
        ts.expect_op(";")
        return Node("ExpressionStatement", children=[expr])

    def parse_for(self) -> Node:
        ts = self.ts
        ts.expect_keyword("for")
        ts.expect_op("(")
        node = Node("ForStatement")
        if self.looks_like_local_declaration():
            node.add_child(self.parse_local_declaration())
        elif not ts.current.is_op(";"):
            node.add_child(self.parse_expression())
        ts.expect_op(";")
        if not ts.current.is_op(";"):
            node.add_child(self.parse_expression())
        ts.expect_op(";")
        if not ts.current.is_op(")"):
            node.add_child(self.parse_expression())
        ts.expect_op(")")
        node.add_child(self.parse_embedded())
        return node

    def parse_local_declaration(self) -> Node:
        type_node = self.parse_type()
        declarators = self.comma_list(None, lambda: self.parse_declarator("local"))
        decl = Node("VariableDeclaration", children=[type_node, *declarators])
        return Node("LocalDeclarationStatement", children=[decl])

    def parse_declarator(self, id_kind: str) -> Node:
        ts = self.ts
        name = ts.expect_ident()
        declarator = Node(
            "VariableDeclarator",
            children=[Node("IdentifierToken", value=name.text, meta={"id_kind": id_kind})],
        )
        if ts.match_op("="):
            declarator.add_child(Node("EqualsValueClause", children=[self.parse_expression()]))
        return declarator

    # ------------------------------------------------------------------
    # Expressions (assignment, ``?:`` and operators: see CFamilyParser)
    # ------------------------------------------------------------------
    def parse_new(self) -> Node:
        ts = self.ts
        type_node = self.parse_type()
        if ts.current.is_op("?") and ts.peek().is_op("("):
            # ``new T?()``: no conditional can follow the bare type of a
            # ``new``, so this ``?`` is the nullable suffix.
            ts.advance()
            type_node = Node(self.NULLABLE_TYPE, children=[type_node])
        if ts.current.is_op("["):
            node = Node("ArrayCreationExpression", children=[type_node])
            while ts.match_op("["):
                if not ts.current.is_op("]"):
                    node.add_child(self.parse_expression())
                ts.expect_op("]")
            return node
        node = Node("ObjectCreationExpression", children=[type_node])
        if ts.match_op("("):
            node.add_child(self.parse_argument_list())
        return self.parse_access_tail(node)

    def parse_argument_list(self) -> Node:
        """``arg, ...)`` after the opening parenthesis."""
        return Node(
            "ArgumentList",
            children=self.comma_list(")", lambda: Node("Argument", children=[self.parse_expression()])),
        )

    def parse_access_tail(self, node: Node) -> Node:
        ts = self.ts
        while True:
            if ts.current.is_op(".", "?.") and ts.peek().kind in (IDENT, KEYWORD):
                # ``a?.b`` reads ``b`` only when ``a`` is not null.
                access = _MEMBER_ACCESS[ts.advance().text]
                name_tok = ts.advance()
                node = Node(
                    access,
                    children=[
                        node,
                        Node("IdentifierName", value=name_tok.text, meta={"id_kind": "property"}),
                    ],
                )
                if ts.match_op("("):
                    node = Node("InvocationExpression", children=[node, self.parse_argument_list()])
            elif ts.current.is_op("["):
                ts.advance()
                index = self.parse_expression()
                ts.expect_op("]")
                node = Node("ElementAccessExpression", children=[node, index])
            elif ts.current.is_op("("):
                ts.advance()
                node = Node("InvocationExpression", children=[node, self.parse_argument_list()])
            else:
                return node

    def parse_primary(self) -> Node:
        ts = self.ts
        tok = ts.current
        if tok.kind == IDENT:
            ts.advance()
            return Node("IdentifierName", value=tok.text)
        if tok.kind == NUMBER:
            ts.advance()
            return Node("NumericLiteralExpression", value=tok.text)
        if tok.kind == STRING:
            ts.advance()
            return Node("StringLiteralExpression", value=tok.text)
        if tok.kind == CHAR:
            ts.advance()
            return Node("CharacterLiteralExpression", value=tok.text)
        if tok.is_keyword("true"):
            ts.advance()
            return Node("TrueLiteralExpression", value="true")
        if tok.is_keyword("false"):
            ts.advance()
            return Node("FalseLiteralExpression", value="false")
        if tok.is_keyword("null"):
            ts.advance()
            return Node("NullLiteralExpression", value="null")
        if tok.is_keyword("this"):
            ts.advance()
            return Node("ThisExpression", value="this")
        if tok.is_keyword("base"):
            ts.advance()
            return Node("BaseExpression", value="base")
        if tok.is_keyword(*_PREDEFINED_TYPES):
            # e.g. int.Parse(...)
            ts.advance()
            return Node("PredefinedType", value=tok.text)
        if tok.is_op("("):
            ts.advance()
            expr = self.parse_expression()
            ts.expect_op(")")
            return expr
        raise ts.error(f"unexpected token {tok}")


class CSharpFrontend:
    """PIGEON's C# module."""

    name = "csharp"

    def parse(self, source: str) -> Ast:
        root = _CSharpParser(source).parse_compilation_unit()
        resolve_bindings(root)
        return Ast(root, language="csharp")


def parse_csharp(source: str) -> Ast:
    """Parse C# source into a generic AST."""
    return CSharpFrontend().parse(source)
