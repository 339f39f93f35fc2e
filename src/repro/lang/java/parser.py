"""Recursive-descent parser for a Java subset.

Node kinds mirror JavaParser (the parser the paper used for Java):
``CompilationUnit``, ``ClassDeclaration``, ``MethodDeclaration``,
``VariableDeclarator``, ``MethodCallExpr``, ``NameExpr`` and so on.
Operator-bearing nodes embed the operator in the kind (``BinaryExpr==``,
``AssignExpr=``, ``UnaryExpr!``) so paths stay discriminative, exactly as
the UglifyJS-style kinds do for JavaScript.

Statement bodies are flattened into their parent construct (no
``BlockStmt`` wrapper), keeping path lengths comparable to the paper's
tuned ``max_length`` of 6 for Java.

Expressions, casts, comma lists, types and the generic-argument lookahead
come from the shared C-family core, :class:`repro.lang.cfamily.CFamilyParser`,
filled with this module's operator and type tables.  After parsing,
:func:`repro.lang.cfamily.resolve_bindings` marks identifier terminals
with occurrence-grouping bindings, and :func:`repro.lang.java.types
.infer_types` annotates expressions with their inferred full types (the
ground-truth oracle for the full-type prediction task of Sec. 5.3.3).
"""

from __future__ import annotations

from typing import List

from ...core.ast_model import Ast, Node
from ..cfamily import CFamilyParser, binary_table, resolve_bindings
from ..lexing import CHAR, IDENT, KEYWORD, NUMBER, STRING

_KEYWORDS = frozenset(
    """
    package import public private protected static final abstract class
    interface extends implements void int long double float boolean char byte
    short new return if else while do for break continue throw throws try
    catch finally this super true false null instanceof switch case default
    """.split()
)

_MODIFIERS = ("public", "private", "protected", "static", "final", "abstract")
_PRIMITIVES = ("int", "long", "double", "float", "boolean", "char", "byte", "short", "void")


class _JavaParser(CFamilyParser):
    LANGUAGE = "java"
    KEYWORDS = _KEYWORDS
    ASSIGN = {op: f"AssignExpr{op}" for op in ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")}
    CONDITIONAL = "ConditionalExpr"
    BINARY = binary_table(
        {
            **{
                op: f"BinaryExpr{op}"
                for op in (
                    "||", "&&", "|", "^", "&", "==", "!=", "<", ">", "<=", ">=",
                    "<<", ">>", ">>>", "+", "-", "*", "/", "%",
                )
            },
            "instanceof": "InstanceOfExpr",
        }
    )
    TYPE_OPERAND = frozenset({"instanceof"})
    PREFIX = {op: f"UnaryExpr{op}" for op in ("!", "-", "+", "~", "++", "--")}
    POSTFIX = {op: f"PostfixExpr{op}" for op in ("++", "--")}
    TYPE_KEYWORDS = {name: "PrimitiveType" for name in _PRIMITIVES}
    NAMED_TYPE = "ClassType"
    GENERIC_TYPE = "GenericType"
    TYPE_ARG_PUNCT = (",", ".", "[", "]", "?")
    CAST = "CastExpr"

    # ------------------------------------------------------------------
    # Compilation unit
    # ------------------------------------------------------------------
    def parse_compilation_unit(self) -> Node:
        ts = self.ts
        unit = Node("CompilationUnit")
        if ts.current.is_keyword("package"):
            ts.advance()
            name = self.parse_qualified_name()
            ts.expect_op(";")
            unit.add_child(Node("PackageDeclaration", children=[Node("Name", value=name)]))
        while ts.current.is_keyword("import"):
            ts.advance()
            name = self.parse_qualified_name(allow_star=True)
            ts.expect_op(";")
            unit.add_child(Node("ImportDeclaration", children=[Node("Name", value=name)]))
        while not ts.at_end():
            unit.add_child(self.parse_type_declaration())
        return unit

    def parse_qualified_name(self, allow_star: bool = False) -> str:
        ts = self.ts
        parts = [ts.expect_ident().text]
        while ts.current.is_op("."):
            ts.advance()
            if allow_star and ts.current.is_op("*"):
                ts.advance()
                parts.append("*")
                break
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
        is_interface = False
        if ts.match_keyword("interface"):
            is_interface = True
        else:
            ts.expect_keyword("class")
        name = ts.expect_ident().text
        kind = "InterfaceDeclaration" if is_interface else "ClassDeclaration"
        node = Node(kind, children=[Node("SimpleName", value=name, meta={"id_kind": "class"})])
        if ts.match_keyword("extends"):
            node.add_child(Node("ExtendedType", children=[self.parse_type()]))
        if ts.match_keyword("implements"):
            node.add_child(Node("ImplementedTypes", children=self.comma_list(None, self.parse_type)))
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
        # Constructor: ClassName '('.
        if ts.current.kind == IDENT and ts.current.text == class_name and ts.peek().is_op("("):
            name_tok = ts.advance()
            node = Node(
                "ConstructorDeclaration",
                children=[Node("SimpleName", value=name_tok.text, meta={"id_kind": "method"})],
            )
            self.parse_parameters_into(node)
            self.skip_throws()
            self.parse_body_into(node)
            return node
        type_node = self.parse_type()
        if ts.current.kind == IDENT and ts.peek().is_op("("):
            name_tok = ts.advance()
            node = Node(
                "MethodDeclaration",
                children=[
                    type_node,
                    Node("SimpleName", value=name_tok.text, meta={"id_kind": "method"}),
                ],
            )
            self.parse_parameters_into(node)
            self.skip_throws()
            if ts.match_op(";"):  # abstract / interface method
                return node
            self.parse_body_into(node)
            return node
        # Field declaration (possibly multiple declarators).
        declarators = self.comma_list(None, lambda: self.parse_declarator("field"))
        ts.expect_op(";")
        return Node("FieldDeclaration", children=[type_node, *declarators])

    def parse_type_argument(self) -> Node:
        """A generic argument: a type, or a wildcard ``?``, ``? extends T``
        or ``? super T``."""
        ts = self.ts
        if not ts.match_op("?"):
            return self.parse_type()
        for keyword, kind in (("extends", "ExtendedType"), ("super", "SuperType")):
            if ts.match_keyword(keyword):
                return Node("WildcardType", children=[Node(kind, children=[self.parse_type()])])
        return Node("WildcardType", value="?")

    def parse_parameters_into(self, node: Node) -> None:
        self.ts.expect_op("(")
        for param in self.comma_list(")", self.parse_parameter):
            node.add_child(param)

    def parse_parameter(self) -> Node:
        """``Type name`` of a method or constructor parameter."""
        param_type = self.parse_type()
        param_name = self.ts.expect_ident()
        return Node(
            "Parameter",
            children=[param_type, Node("SimpleName", value=param_name.text, meta={"id_kind": "param"})],
        )

    def skip_throws(self) -> None:
        if self.ts.match_keyword("throws"):
            self.comma_list(None, self.parse_qualified_name)

    def parse_body_into(self, parent: Node) -> None:
        ts = self.ts
        ts.expect_op("{")
        while not ts.current.is_op("}"):
            if ts.at_end():
                raise ts.error("unterminated body")
            parent.add_child(self.parse_statement())
        ts.expect_op("}")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> Node:
        ts = self.ts
        tok = ts.current
        if tok.is_keyword("if"):
            return self.parse_if()
        if tok.is_keyword("while"):
            return self.parse_while()
        if tok.is_keyword("do"):
            return self.parse_do()
        if tok.is_keyword("for"):
            return self.parse_for()
        if tok.is_keyword("return"):
            ts.advance()
            node = Node("ReturnStmt")
            if not ts.current.is_op(";"):
                node.add_child(self.parse_expression())
            ts.expect_op(";")
            return node
        if tok.is_keyword("break"):
            ts.advance()
            ts.expect_op(";")
            return Node("BreakStmt")
        if tok.is_keyword("continue"):
            ts.advance()
            ts.expect_op(";")
            return Node("ContinueStmt")
        if tok.is_keyword("throw"):
            ts.advance()
            node = Node("ThrowStmt", children=[self.parse_expression()])
            ts.expect_op(";")
            return node
        if tok.is_keyword("try"):
            return self.parse_try()
        if tok.is_op("{"):
            block = Node("BlockStmt")
            self.parse_block_into(block)
            return block
        if tok.is_op(";"):
            ts.advance()
            return Node("EmptyStmt")
        # Local variable declaration vs expression statement.
        if self.looks_like_local_declaration():
            node = self.parse_local_declaration(self.parse_type())
            ts.expect_op(";")
            return node
        expr = self.parse_expression()
        ts.expect_op(";")
        return expr

    def parse_local_declaration(self, type_node: Node) -> Node:
        declarators = self.comma_list(None, lambda: self.parse_declarator("local"))
        return Node("VariableDeclarationExpr", children=[type_node, *declarators])

    def parse_declarator(self, id_kind: str) -> Node:
        ts = self.ts
        name = ts.expect_ident()
        declarator = Node(
            "VariableDeclarator",
            children=[Node("SimpleName", value=name.text, meta={"id_kind": id_kind})],
        )
        if ts.match_op("="):
            declarator.add_child(self.parse_expression())
        return declarator

    def parse_block_into(self, parent: Node) -> None:
        ts = self.ts
        if ts.match_op("{"):
            while not ts.current.is_op("}"):
                if ts.at_end():
                    raise ts.error("unterminated block")
                parent.add_child(self.parse_statement())
            ts.expect_op("}")
        else:
            parent.add_child(self.parse_statement())

    def parse_if(self) -> Node:
        ts = self.ts
        ts.expect_keyword("if")
        ts.expect_op("(")
        node = Node("IfStmt", children=[self.parse_expression()])
        ts.expect_op(")")
        self.parse_block_into(node)
        if ts.match_keyword("else"):
            else_node = Node("ElseStmt")
            self.parse_block_into(else_node)
            node.add_child(else_node)
        return node

    def parse_while(self) -> Node:
        ts = self.ts
        ts.expect_keyword("while")
        ts.expect_op("(")
        node = Node("WhileStmt", children=[self.parse_expression()])
        ts.expect_op(")")
        self.parse_block_into(node)
        return node

    def parse_do(self) -> Node:
        ts = self.ts
        ts.expect_keyword("do")
        node = Node("DoStmt")
        self.parse_block_into(node)
        ts.expect_keyword("while")
        ts.expect_op("(")
        node.add_child(self.parse_expression())
        ts.expect_op(")")
        ts.expect_op(";")
        return node

    def parse_for(self) -> Node:
        ts = self.ts
        ts.expect_keyword("for")
        ts.expect_op("(")
        node = Node("ForStmt")
        if self.looks_like_local_declaration():
            type_node = self.parse_type()
            if ts.peek().is_op(":"):  # for-each: Type name : expr
                var = self.parse_local_declaration(type_node)
                ts.expect_op(":")
                node = Node("ForeachStmt", children=[var, self.parse_expression()])
                ts.expect_op(")")
                self.parse_block_into(node)
                return node
            node.add_child(self.parse_local_declaration(type_node))
        elif not ts.current.is_op(";"):
            node.add_child(self.parse_expression())
        ts.expect_op(";")
        if not ts.current.is_op(";"):
            node.add_child(self.parse_expression())
        ts.expect_op(";")
        if not ts.current.is_op(")"):
            node.add_child(self.parse_expression())
        ts.expect_op(")")
        self.parse_block_into(node)
        return node

    def parse_try(self) -> Node:
        ts = self.ts
        ts.expect_keyword("try")
        node = Node("TryStmt")
        body = Node("TryBody")
        self.parse_block_into(body)
        node.add_child(body)
        while ts.match_keyword("catch"):
            clause = Node("CatchClause")
            ts.expect_op("(")
            ex_type = self.parse_type()
            ex_name = ts.expect_ident()
            clause.add_child(
                Node(
                    "Parameter",
                    children=[
                        ex_type,
                        Node("SimpleName", value=ex_name.text, meta={"id_kind": "local"}),
                    ],
                )
            )
            ts.expect_op(")")
            self.parse_block_into(clause)
            node.add_child(clause)
        if ts.match_keyword("finally"):
            fin = Node("FinallyBlock")
            self.parse_block_into(fin)
            node.add_child(fin)
        return node

    # ------------------------------------------------------------------
    # Expressions (assignment, ``?:`` and operators: see CFamilyParser)
    # ------------------------------------------------------------------
    def parse_new(self) -> Node:
        ts = self.ts
        type_node = self.parse_type()
        if ts.current.is_op("["):
            node = Node("ArrayCreationExpr", children=[type_node])
            while ts.match_op("["):
                if not ts.current.is_op("]"):
                    node.add_child(self.parse_expression())
                ts.expect_op("]")
            return node
        ts.expect_op("(")
        args = self.comma_list(")", self.parse_expression)
        node = Node("ObjectCreationExpr", children=[type_node, *args])
        return self.parse_access_tail(node)

    def parse_access_tail(self, node: Node) -> Node:
        ts = self.ts
        while True:
            if ts.current.is_op(".") and ts.peek().kind in (IDENT, KEYWORD):
                ts.advance()
                name_tok = ts.advance()
                if ts.match_op("("):
                    node = Node(
                        "MethodCallExpr",
                        children=[
                            node,
                            Node("SimpleName", value=name_tok.text, meta={"id_kind": "method"}),
                            *self.comma_list(")", self.parse_expression),
                        ],
                    )
                else:
                    node = Node(
                        "FieldAccessExpr",
                        children=[
                            node,
                            Node("SimpleName", value=name_tok.text, meta={"id_kind": "property"}),
                        ],
                    )
            elif ts.current.is_op("["):
                ts.advance()
                index = self.parse_expression()
                ts.expect_op("]")
                node = Node("ArrayAccessExpr", children=[node, index])
            else:
                return node

    def parse_primary(self) -> Node:
        ts = self.ts
        tok = ts.current
        if tok.kind == IDENT:
            ts.advance()
            if ts.match_op("("):
                # Unscoped method call: name(args).
                return Node(
                    "MethodCallExpr",
                    children=[
                        Node("SimpleName", value=tok.text, meta={"id_kind": "method"}),
                        *self.comma_list(")", self.parse_expression),
                    ],
                )
            return Node("NameExpr", value=tok.text)
        if tok.kind == NUMBER:
            ts.advance()
            is_float = "." in tok.text or tok.text.rstrip("fFdD") != tok.text
            kind = "DoubleLiteral" if is_float else "IntegerLiteral"
            return Node(kind, value=tok.text)
        if tok.kind == STRING:
            ts.advance()
            return Node("StringLiteral", value=tok.text)
        if tok.kind == CHAR:
            ts.advance()
            return Node("CharLiteral", value=tok.text)
        if tok.is_keyword("true", "false"):
            ts.advance()
            return Node("BooleanLiteral", value=tok.text)
        if tok.is_keyword("null"):
            ts.advance()
            return Node("NullLiteral", value="null")
        if tok.is_keyword("this"):
            ts.advance()
            return Node("ThisExpr", value="this")
        if tok.is_op("("):
            ts.advance()
            expr = self.parse_expression()
            ts.expect_op(")")
            return expr
        raise ts.error(f"unexpected token {tok}")


class JavaFrontend:
    """PIGEON's Java module."""

    name = "java"

    def parse(self, source: str) -> Ast:
        root = _JavaParser(source).parse_compilation_unit()
        resolve_bindings(root)
        from .types import infer_types

        infer_types(root)
        return Ast(root, language="java")


def parse_java(source: str) -> Ast:
    """Parse Java source into a generic AST."""
    return JavaFrontend().parse(source)
