"""Recursive-descent parser for a C# subset.

Node kinds follow Roslyn's syntax-kind vocabulary
(``SimpleAssignmentExpression``, ``AddExpression``, ``EqualsExpression``,
``InvocationExpression``, ``SimpleMemberAccessExpression``, ...).

Unlike the Java frontend, this tree keeps ``Block`` and
``ExpressionStatement`` wrapper nodes: the paper notes that "the C# AST
is slightly more elaborate than the one we used for Java", which is why
its tuned path parameters differ (7/4 vs 6/3).  We reproduce that
elaborateness deliberately.
"""

from __future__ import annotations

from typing import Dict, List

from ...core.ast_model import Ast, Node
from ..lexing import CHAR, EOF, IDENT, KEYWORD, NUMBER, OP, STRING, Lexer, TokenStream, expect_close_angle

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
_PREDEFINED_TYPES = ("int", "long", "double", "float", "bool", "char", "byte", "string", "object", "void")
_ASSIGN_KINDS = {
    "=": "SimpleAssignmentExpression",
    "+=": "AddAssignmentExpression",
    "-=": "SubtractAssignmentExpression",
    "*=": "MultiplyAssignmentExpression",
    "/=": "DivideAssignmentExpression",
    "%=": "ModuloAssignmentExpression",
}
_BINARY_KINDS = {
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
    "<<": "LeftShiftExpression",
    ">>": "RightShiftExpression",
    "+": "AddExpression",
    "-": "SubtractExpression",
    "*": "MultiplyExpression",
    "/": "DivideExpression",
    "%": "ModuloExpression",
}
_UNARY_KINDS = {
    "!": "LogicalNotExpression",
    "-": "UnaryMinusExpression",
    "+": "UnaryPlusExpression",
    "~": "BitwiseNotExpression",
    "++": "PreIncrementExpression",
    "--": "PreDecrementExpression",
}


class _CSharpParser:
    def __init__(self, source: str) -> None:
        tokens = Lexer(source, _KEYWORDS, "csharp").tokenize()
        self.ts = TokenStream(tokens, "csharp")

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
            bases = Node("BaseList")
            while True:
                bases.add_child(self.parse_type())
                if not ts.match_op(","):
                    break
            node.add_child(bases)
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
        name_tok = ts.expect_ident()
        if ts.current.is_op("("):
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
        if ts.current.is_op("{"):
            # Auto-property: Type Name { get; set; }
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
        node = Node("FieldDeclaration", children=[type_node])
        declarator = Node(
            "VariableDeclarator",
            children=[Node("IdentifierToken", value=name_tok.text, meta={"id_kind": "field"})],
        )
        if ts.match_op("="):
            declarator.add_child(Node("EqualsValueClause", children=[self.parse_expression()]))
        node.add_child(declarator)
        while ts.match_op(","):
            more = ts.expect_ident()
            declarator = Node(
                "VariableDeclarator",
                children=[Node("IdentifierToken", value=more.text, meta={"id_kind": "field"})],
            )
            if ts.match_op("="):
                declarator.add_child(Node("EqualsValueClause", children=[self.parse_expression()]))
            node.add_child(declarator)
        ts.expect_op(";")
        return node

    def parse_parameter_list(self) -> Node:
        ts = self.ts
        node = Node("ParameterList")
        ts.expect_op("(")
        while not ts.current.is_op(")"):
            ts.match_keyword("out", "ref")
            param_type = self.parse_type()
            name = ts.expect_ident()
            node.add_child(
                Node(
                    "Parameter",
                    children=[
                        param_type,
                        Node("IdentifierToken", value=name.text, meta={"id_kind": "param"}),
                    ],
                )
            )
            if not ts.match_op(","):
                break
        ts.expect_op(")")
        return node

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------
    def parse_type(self) -> Node:
        ts = self.ts
        tok = ts.current
        if tok.is_keyword(*_PREDEFINED_TYPES):
            ts.advance()
            node: Node = Node("PredefinedType", value=tok.text)
        elif tok.is_keyword("var"):
            ts.advance()
            node = Node("VarKeyword", value="var")
        else:
            name = ts.expect_ident().text
            while ts.current.is_op(".") and ts.peek().kind == IDENT:
                ts.advance()
                name += "." + ts.expect_ident().text
            base = Node("IdentifierName", value=name)
            if ts.current.is_op("<") and self._looks_like_type_args():
                ts.advance()
                generic = Node("GenericName", children=[base])
                while not ts.current.is_op(">", ">>", ">>>"):
                    generic.add_child(self.parse_type())
                    if not ts.match_op(","):
                        break
                expect_close_angle(ts)
                node = generic
            else:
                node = base
        while ts.current.is_op("[") and ts.peek().is_op("]"):
            ts.advance()
            ts.advance()
            node = Node("ArrayType", children=[node])
        return node

    def _looks_like_type_args(self) -> bool:
        ts = self.ts
        tokens = ts.tokens
        depth = 0
        i = ts.pos
        while i < len(tokens):
            tok = tokens[i]
            if tok.kind == EOF:
                return False
            if tok.is_op("<"):
                depth += 1
            elif tok.is_op(">"):
                depth -= 1
                if depth == 0:
                    return True
            elif tok.is_op(">>"):
                depth -= 2
                if depth <= 0:
                    return True
            elif tok.kind in (IDENT, KEYWORD) or tok.is_op(",", ".", "[", "]"):
                pass
            else:
                return False
            i += 1
        return False

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
        if self._looks_like_local_declaration():
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
        if not ts.current.is_op(";"):
            if self._looks_like_local_declaration():
                node.add_child(self.parse_local_declaration())
            else:
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

    def _looks_like_local_declaration(self) -> bool:
        ts = self.ts
        tok = ts.current
        if tok.is_keyword(*_PREDEFINED_TYPES) or tok.is_keyword("var"):
            return True
        if tok.kind != IDENT:
            return False
        tokens = ts.tokens
        i = ts.pos + 1
        while tokens[i].is_op(".") and tokens[i + 1].kind == IDENT:
            i += 2
        if tokens[i].is_op("<"):
            depth = 0
            while i < len(tokens):
                if tokens[i].is_op("<"):
                    depth += 1
                elif tokens[i].is_op(">"):
                    depth -= 1
                    if depth == 0:
                        i += 1
                        break
                elif tokens[i].is_op(">>"):
                    depth -= 2
                    if depth <= 0:
                        i += 1
                        break
                elif tokens[i].kind in (IDENT, KEYWORD) or tokens[i].is_op(",", ".", "[", "]"):
                    pass
                else:
                    return False
                i += 1
        while tokens[i].is_op("[") and tokens[i + 1].is_op("]"):
            i += 2
        return tokens[i].kind == IDENT

    def parse_local_declaration(self) -> Node:
        ts = self.ts
        type_node = self.parse_type()
        decl = Node("VariableDeclaration", children=[type_node])
        while True:
            name = ts.expect_ident()
            declarator = Node(
                "VariableDeclarator",
                children=[Node("IdentifierToken", value=name.text, meta={"id_kind": "local"})],
            )
            if ts.match_op("="):
                declarator.add_child(Node("EqualsValueClause", children=[self.parse_expression()]))
            decl.add_child(declarator)
            if not ts.match_op(","):
                break
        return Node("LocalDeclarationStatement", children=[decl])

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def parse_expression(self) -> Node:
        left = self.parse_conditional()
        tok = self.ts.current
        if tok.kind == OP and tok.text in _ASSIGN_KINDS:
            kind = _ASSIGN_KINDS[self.ts.advance().text]
            right = self.parse_expression()
            return Node(kind, children=[left, right])
        return left

    def parse_conditional(self) -> Node:
        cond = self.parse_binary(0)
        if self.ts.match_op("?"):
            then = self.parse_expression()
            self.ts.expect_op(":")
            other = self.parse_expression()
            return Node("ConditionalExpression", children=[cond, then, other])
        return cond

    _BINARY_LEVELS = (
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">=", "is", "as"),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    )

    def parse_binary(self, level: int) -> Node:
        if level >= len(self._BINARY_LEVELS):
            return self.parse_unary()
        ops = self._BINARY_LEVELS[level]
        left = self.parse_binary(level + 1)
        while True:
            tok = self.ts.current
            if tok.is_keyword("is") and "is" in ops:
                self.ts.advance()
                left = Node("IsExpression", children=[left, self.parse_type()])
                continue
            if tok.is_keyword("as") and "as" in ops:
                self.ts.advance()
                left = Node("AsExpression", children=[left, self.parse_type()])
                continue
            if tok.kind == OP and tok.text in ops:
                op = self.ts.advance().text
                right = self.parse_binary(level + 1)
                left = Node(_BINARY_KINDS[op], children=[left, right])
            else:
                return left

    def parse_unary(self) -> Node:
        ts = self.ts
        tok = ts.current
        if tok.kind == OP and tok.text in _UNARY_KINDS:
            kind = _UNARY_KINDS[ts.advance().text]
            return Node(kind, children=[self.parse_unary()])
        if tok.is_keyword("new"):
            ts.advance()
            type_node = self.parse_type()
            if ts.current.is_op("["):
                node = Node("ArrayCreationExpression", children=[type_node])
                while ts.match_op("["):
                    if not ts.current.is_op("]"):
                        node.add_child(self.parse_expression())
                    ts.expect_op("]")
                return node
            node = Node("ObjectCreationExpression", children=[type_node])
            if ts.match_op("("):
                args = Node("ArgumentList")
                while not ts.current.is_op(")"):
                    args.add_child(Node("Argument", children=[self.parse_expression()]))
                    if not ts.match_op(","):
                        break
                ts.expect_op(")")
                node.add_child(args)
            return self.parse_access_tail(node)
        return self.parse_postfix()

    def parse_postfix(self) -> Node:
        node = self.parse_access_tail(self.parse_primary())
        tok = self.ts.current
        if tok.kind == OP and tok.text == "++":
            self.ts.advance()
            return Node("PostIncrementExpression", children=[node])
        if tok.kind == OP and tok.text == "--":
            self.ts.advance()
            return Node("PostDecrementExpression", children=[node])
        return node

    def parse_access_tail(self, node: Node) -> Node:
        ts = self.ts
        while True:
            if ts.current.is_op(".") and ts.peek().kind in (IDENT, KEYWORD):
                ts.advance()
                name_tok = ts.advance()
                member = Node(
                    "SimpleMemberAccessExpression",
                    children=[
                        node,
                        Node("IdentifierName", value=name_tok.text, meta={"id_kind": "property"}),
                    ],
                )
                if ts.current.is_op("("):
                    ts.advance()
                    call = Node("InvocationExpression", children=[member])
                    args = Node("ArgumentList")
                    while not ts.current.is_op(")"):
                        args.add_child(Node("Argument", children=[self.parse_expression()]))
                        if not ts.match_op(","):
                            break
                    ts.expect_op(")")
                    call.add_child(args)
                    node = call
                else:
                    node = member
            elif ts.current.is_op("["):
                ts.advance()
                index = self.parse_expression()
                ts.expect_op("]")
                node = Node("ElementAccessExpression", children=[node, index])
            elif ts.current.is_op("("):
                ts.advance()
                call = Node("InvocationExpression", children=[node])
                args = Node("ArgumentList")
                while not ts.current.is_op(")"):
                    args.add_child(Node("Argument", children=[self.parse_expression()]))
                    if not ts.match_op(","):
                        break
                ts.expect_op(")")
                call.add_child(args)
                node = call
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


# ----------------------------------------------------------------------
# Binding resolution
# ----------------------------------------------------------------------


def resolve_csharp_bindings(root: Node) -> None:
    """Attach occurrence-grouping bindings, mirroring the Java frontend."""
    class_counter = [0]
    method_counter = [0]

    def classes(node: Node):
        for child in node.children:
            if child.kind in ("ClassDeclaration", "StructDeclaration", "InterfaceDeclaration"):
                yield child
            elif child.kind == "NamespaceDeclaration":
                yield from classes(child)

    def visit_class(class_node: Node) -> None:
        class_counter[0] += 1
        cid = class_counter[0]
        fields: Dict[str, str] = {}
        for member in class_node.children:
            if member.kind == "FieldDeclaration":
                for declarator in member.find("VariableDeclarator"):
                    name_node = declarator.children[0]
                    key = f"c{cid}:{name_node.value}"
                    fields[name_node.value or ""] = key
                    name_node.meta["binding"] = key
            elif member.kind == "PropertyDeclaration":
                name_node = member.children[1]
                key = f"c{cid}:{name_node.value}"
                fields[name_node.value or ""] = key
                name_node.meta["binding"] = key
        for member in class_node.children:
            if member.kind in ("MethodDeclaration", "ConstructorDeclaration"):
                visit_method(member, fields)

    def visit_method(method: Node, fields: Dict[str, str]) -> None:
        method_counter[0] += 1
        mid = method_counter[0]
        local_bindings: Dict[str, tuple] = {}

        def declare(name_node: Node, id_kind: str) -> None:
            key = f"m{mid}:{name_node.value}"
            local_bindings[name_node.value or ""] = (key, id_kind)
            name_node.meta["binding"] = key
            name_node.meta["id_kind"] = id_kind

        def visit(node: Node) -> None:
            if node.kind == "Parameter":
                declare(node.children[1], "param")
            elif node.kind == "VariableDeclaration":
                for declarator in node.children[1:]:
                    if declarator.kind == "VariableDeclarator":
                        declare(declarator.children[0], "local")
            elif node.kind == "ForEachStatement":
                declare(node.children[1], "local")
            elif node.kind == "CatchDeclaration" and len(node.children) > 1:
                declare(node.children[1], "local")
            elif node.kind == "IdentifierName" and "binding" not in node.meta:
                # Skip member names (the right side of a member access).
                parent = node.parent
                is_member_name = (
                    parent is not None
                    and parent.kind == "SimpleMemberAccessExpression"
                    and parent.children[1] is node
                )
                if not is_member_name:
                    name = node.value or ""
                    if name in local_bindings:
                        key, kind = local_bindings[name]
                        node.meta["binding"] = key
                        node.meta["id_kind"] = kind
                    elif name in fields:
                        node.meta["binding"] = fields[name]
                        node.meta["id_kind"] = "field"
                    else:
                        node.meta["binding"] = f"g:{name}"
                        node.meta["id_kind"] = "global"
            for child in node.children:
                if node.kind == "ForEachStatement" and child is node.children[1]:
                    continue  # already declared
                visit(child)

        visit(method)

    for class_node in classes(root):
        visit_class(class_node)


class CSharpFrontend:
    """PIGEON's C# module."""

    name = "csharp"

    def parse(self, source: str) -> Ast:
        root = _CSharpParser(source).parse_compilation_unit()
        resolve_csharp_bindings(root)
        return Ast(root, language="csharp")


def parse_csharp(source: str) -> Ast:
    """Parse C# source into a generic AST."""
    return CSharpFrontend().parse(source)
