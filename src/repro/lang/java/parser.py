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

After parsing, :func:`resolve_java_bindings` marks identifier terminals
with occurrence-grouping bindings, and :func:`repro.lang.java.types
.infer_types` annotates expressions with their inferred full types (the
ground-truth oracle for the full-type prediction task of Sec. 5.3.3).
"""

from __future__ import annotations

from typing import Dict, List

from ...core.ast_model import Ast, Node
from ..lexing import CHAR, EOF, IDENT, KEYWORD, NUMBER, OP, STRING, Lexer, TokenStream, expect_close_angle

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
_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")


class _JavaParser:
    def __init__(self, source: str) -> None:
        tokens = Lexer(source, _KEYWORDS, "java").tokenize()
        self.ts = TokenStream(tokens, "java")

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
            impl = Node("ImplementedTypes")
            while True:
                impl.add_child(self.parse_type())
                if not ts.match_op(","):
                    break
            node.add_child(impl)
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
        name_tok = ts.expect_ident()
        if ts.current.is_op("("):
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
        node = Node("FieldDeclaration", children=[type_node])
        declarator = Node(
            "VariableDeclarator",
            children=[Node("SimpleName", value=name_tok.text, meta={"id_kind": "field"})],
        )
        if ts.match_op("="):
            declarator.add_child(self.parse_expression())
        node.add_child(declarator)
        while ts.match_op(","):
            more = ts.expect_ident()
            declarator = Node(
                "VariableDeclarator",
                children=[Node("SimpleName", value=more.text, meta={"id_kind": "field"})],
            )
            if ts.match_op("="):
                declarator.add_child(self.parse_expression())
            node.add_child(declarator)
        ts.expect_op(";")
        return node

    def parse_parameters_into(self, node: Node) -> None:
        ts = self.ts
        ts.expect_op("(")
        while not ts.current.is_op(")"):
            param_type = self.parse_type()
            param_name = ts.expect_ident()
            node.add_child(
                Node(
                    "Parameter",
                    children=[
                        param_type,
                        Node("SimpleName", value=param_name.text, meta={"id_kind": "param"}),
                    ],
                )
            )
            if not ts.match_op(","):
                break
        ts.expect_op(")")

    def skip_throws(self) -> None:
        ts = self.ts
        if ts.match_keyword("throws"):
            while True:
                self.parse_qualified_name()
                if not ts.match_op(","):
                    break

    def parse_body_into(self, parent: Node) -> None:
        ts = self.ts
        ts.expect_op("{")
        while not ts.current.is_op("}"):
            if ts.at_end():
                raise ts.error("unterminated body")
            parent.add_child(self.parse_statement())
        ts.expect_op("}")

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------
    def parse_type(self) -> Node:
        ts = self.ts
        tok = ts.current
        if tok.is_keyword(*_PRIMITIVES):
            ts.advance()
            node: Node = Node("PrimitiveType", value=tok.text)
        else:
            name = ts.expect_ident().text
            while ts.current.is_op(".") and ts.peek().kind == IDENT and self._dot_is_type_qualifier():
                ts.advance()
                name += "." + ts.expect_ident().text
            base = Node("ClassType", value=name)
            if ts.current.is_op("<") and self._looks_like_type_args():
                ts.advance()
                generic = Node("GenericType", children=[base])
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

    def _dot_is_type_qualifier(self) -> bool:
        """Heuristic: ``a.b`` inside a type position is a qualified type."""
        # Only used from parse_type, where a dot always qualifies the name.
        return True

    def _looks_like_type_args(self) -> bool:
        """Lookahead to distinguish ``List<Integer>`` from ``a < b``."""
        ts = self.ts
        depth = 0
        i = ts.pos
        tokens = ts.tokens
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
            elif tok.kind in (IDENT, KEYWORD) or tok.is_op(",", ".", "[", "]", "?"):
                pass
            else:
                return False
            i += 1
        return False

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
        if self._looks_like_local_declaration():
            node = self.parse_local_declaration()
            ts.expect_op(";")
            return node
        expr = self.parse_expression()
        ts.expect_op(";")
        return expr

    def _looks_like_local_declaration(self) -> bool:
        ts = self.ts
        tok = ts.current
        if tok.is_keyword(*_PRIMITIVES):
            return True
        if tok.kind != IDENT:
            return False
        # IDENT (generic-args)? (array-brackets)? IDENT ...
        i = ts.pos + 1
        tokens = ts.tokens
        # Qualified type name.
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
                elif tokens[i].kind in (IDENT, KEYWORD) or tokens[i].is_op(",", ".", "[", "]", "?"):
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
        node = Node("VariableDeclarationExpr", children=[type_node])
        while True:
            name = ts.expect_ident()
            declarator = Node(
                "VariableDeclarator",
                children=[Node("SimpleName", value=name.text, meta={"id_kind": "local"})],
            )
            if ts.match_op("="):
                declarator.add_child(self.parse_expression())
            node.add_child(declarator)
            if not ts.match_op(","):
                break
        return node

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
        # For-each: Type name : expr
        save = ts.pos
        if self._looks_like_local_declaration():
            type_node = self.parse_type()
            name = ts.expect_ident()
            if ts.match_op(":"):
                var = Node(
                    "VariableDeclarationExpr",
                    children=[
                        type_node,
                        Node(
                            "VariableDeclarator",
                            children=[Node("SimpleName", value=name.text, meta={"id_kind": "local"})],
                        ),
                    ],
                )
                node = Node("ForeachStmt", children=[var, self.parse_expression()])
                ts.expect_op(")")
                self.parse_block_into(node)
                return node
            ts.pos = save
        node = Node("ForStmt")
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
    # Expressions
    # ------------------------------------------------------------------
    def parse_expression(self) -> Node:
        left = self.parse_conditional()
        tok = self.ts.current
        if tok.kind == OP and tok.text in _ASSIGN_OPS:
            op = self.ts.advance().text
            right = self.parse_expression()
            return Node(f"AssignExpr{op}", children=[left, right])
        return left

    def parse_conditional(self) -> Node:
        cond = self.parse_binary(0)
        if self.ts.match_op("?"):
            then = self.parse_expression()
            self.ts.expect_op(":")
            other = self.parse_expression()
            return Node("ConditionalExpr", children=[cond, then, other])
        return cond

    _BINARY_LEVELS = (
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">=", "instanceof"),
        ("<<", ">>", ">>>"),
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
            if tok.is_keyword("instanceof") and "instanceof" in ops:
                self.ts.advance()
                right = self.parse_type()
                left = Node("InstanceOfExpr", children=[left, right])
                continue
            if tok.kind == OP and tok.text in ops:
                # ``>`` may close generic type args; callers in type context
                # never reach here, so it is safe to treat it as an operator.
                op = self.ts.advance().text
                right = self.parse_binary(level + 1)
                left = Node(f"BinaryExpr{op}", children=[left, right])
            else:
                return left

    def parse_unary(self) -> Node:
        ts = self.ts
        tok = ts.current
        if tok.kind == OP and tok.text in ("!", "-", "+", "~", "++", "--"):
            op = ts.advance().text
            return Node(f"UnaryExpr{op}", children=[self.parse_unary()])
        if tok.is_keyword("new"):
            return self.parse_new()
        # Cast: '(' Type ')' unary -- conservative lookahead.
        if tok.is_op("(") and self._looks_like_cast():
            ts.advance()
            type_node = self.parse_type()
            ts.expect_op(")")
            return Node("CastExpr", children=[type_node, self.parse_unary()])
        return self.parse_postfix()

    def _looks_like_cast(self) -> bool:
        ts = self.ts
        tokens = ts.tokens
        i = ts.pos + 1
        if tokens[i].is_keyword(*_PRIMITIVES):
            return tokens[i + 1].is_op(")")
        if tokens[i].kind != IDENT:
            return False
        j = i + 1
        while tokens[j].is_op(".") and tokens[j + 1].kind == IDENT:
            j += 2
        if not tokens[j].is_op(")"):
            return False
        nxt = tokens[j + 1]
        return nxt.kind in (IDENT, NUMBER, STRING, CHAR) or nxt.is_op("(") or nxt.is_keyword(
            "new", "this"
        )

    def parse_new(self) -> Node:
        ts = self.ts
        ts.expect_keyword("new")
        type_node = self.parse_type()
        if ts.current.is_op("["):
            node = Node("ArrayCreationExpr", children=[type_node])
            while ts.match_op("["):
                if not ts.current.is_op("]"):
                    node.add_child(self.parse_expression())
                ts.expect_op("]")
            return node
        node = Node("ObjectCreationExpr", children=[type_node])
        ts.expect_op("(")
        while not ts.current.is_op(")"):
            node.add_child(self.parse_expression())
            if not ts.match_op(","):
                break
        ts.expect_op(")")
        return self.parse_access_tail(node)

    def parse_postfix(self) -> Node:
        node = self.parse_access_tail(self.parse_primary())
        tok = self.ts.current
        if tok.kind == OP and tok.text in ("++", "--"):
            op = self.ts.advance().text
            return Node(f"PostfixExpr{op}", children=[node])
        return node

    def parse_access_tail(self, node: Node) -> Node:
        ts = self.ts
        while True:
            if ts.current.is_op(".") and ts.peek().kind in (IDENT, KEYWORD):
                ts.advance()
                name_tok = ts.advance()
                if ts.current.is_op("("):
                    call = Node(
                        "MethodCallExpr",
                        children=[
                            node,
                            Node("SimpleName", value=name_tok.text, meta={"id_kind": "method"}),
                        ],
                    )
                    ts.advance()
                    while not ts.current.is_op(")"):
                        call.add_child(self.parse_expression())
                        if not ts.match_op(","):
                            break
                    ts.expect_op(")")
                    node = call
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
            if ts.current.is_op("("):
                # Unscoped method call: name(args).
                call = Node(
                    "MethodCallExpr",
                    children=[Node("SimpleName", value=tok.text, meta={"id_kind": "method"})],
                )
                ts.advance()
                while not ts.current.is_op(")"):
                    call.add_child(self.parse_expression())
                    if not ts.match_op(","):
                        break
                ts.expect_op(")")
                return call
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


# ----------------------------------------------------------------------
# Binding resolution
# ----------------------------------------------------------------------


def resolve_java_bindings(root: Node) -> None:
    """Group occurrences of locals/params/fields under shared binding keys.

    Locals and params are scoped per method (constructor); fields per
    class.  ``NameExpr`` terminals are resolved innermost-first; unresolved
    names are marked ``global``.
    """
    class_counter = [0]
    method_counter = [0]

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
                    name_node.meta["id_kind"] = "field"
        for member in class_node.children:
            if member.kind in ("MethodDeclaration", "ConstructorDeclaration"):
                visit_method(member, fields)
            elif member.kind in ("ClassDeclaration", "InterfaceDeclaration"):
                visit_class(member)

    def visit_method(method: Node, fields: Dict[str, str]) -> None:
        method_counter[0] += 1
        mid = method_counter[0]
        # name -> (binding key, id_kind at declaration site)
        local_bindings: Dict[str, tuple] = {}

        def declare(name_node: Node, id_kind: str) -> None:
            key = f"m{mid}:{name_node.value}"
            local_bindings[name_node.value or ""] = (key, id_kind)
            name_node.meta["binding"] = key
            name_node.meta["id_kind"] = id_kind

        def visit(node: Node) -> None:
            if node.kind == "Parameter":
                declare(node.children[1], "param")
            elif node.kind == "VariableDeclarationExpr":
                for declarator in node.children:
                    if declarator.kind == "VariableDeclarator":
                        declare(declarator.children[0], "local")
            elif node.kind == "NameExpr":
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
                visit(child)

        visit(method)

    for node in root.children:
        if node.kind in ("ClassDeclaration", "InterfaceDeclaration"):
            visit_class(node)


class JavaFrontend:
    """PIGEON's Java module."""

    name = "java"

    def parse(self, source: str) -> Ast:
        root = _JavaParser(source).parse_compilation_unit()
        resolve_java_bindings(root)
        from .types import infer_types

        infer_types(root)
        return Ast(root, language="java")


def parse_java(source: str) -> Ast:
    """Parse Java source into a generic AST."""
    return JavaFrontend().parse(source)
