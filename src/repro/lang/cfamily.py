"""The parser core shared by the C-family frontends (JavaScript, Java, C#).

The three hand-written parsers build different node kinds and keep their
own statements, declarations, ``new``, access tails and primaries,
but they read expressions with one grammar: right-associative assignment,
``?:``, ten levels of left-associative binary operators, and prefix and
postfix operators.  :class:`CFamilyParser` parses that grammar once, from
per-language tables that map an operator to the node kind it builds, so
the shared code never asks which language it is reading.  Binary
operators go through one precedence-climbing loop: one Python frame per
operand instead of one per precedence level, which is what lets deeply
parenthesised code parse.

The class also holds the one comma-separated-list loop, and, for the typed
languages (Java, C#), the type parser with its generic-argument lookahead,
C#'s nullable ``T?`` suffix and the cast ``(T) x``.
:func:`resolve_bindings` groups the identifier occurrences of a Java or C#
tree into program elements.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..core.ast_model import Node
from .lexing import CHAR, IDENT, KEYWORD, NUMBER, OP, STRING, Lexer, Token, TokenStream

#: The C family's binary precedence, loosest first; each language's table
#: takes the levels of the operators it has.
_PRECEDENCE: Dict[str, int] = {
    op: level
    for level, ops in enumerate(
        (
            ("??",),
            ("||",),
            ("&&",),
            ("|",),
            ("^",),
            ("&",),
            ("==", "!=", "===", "!=="),
            ("<", ">", "<=", ">=", "instanceof", "in", "is", "as"),
            ("<<", ">>", ">>>"),
            ("+", "-"),
            ("*", "/", "%"),
        ),
        start=1,
    )
    for op in ops
}
_TIGHTEST = max(_PRECEDENCE.values())
#: The binary operators that group to the right: ``a ?? b ?? c`` is
#: ``a ?? (b ?? c)``.
_RIGHT_ASSOCIATIVE = frozenset({"??"})

#: How much one closing-angle token lowers the generic-argument depth:
#: ``Map<K, List<V>>`` lexes its tail as one ``>>``.
_ANGLE_DEPTH = {"<": 1, ">": -1, ">>": -2, ">>>": -3}
_CLOSE_ANGLES = (">", ">>", ">>>")


def binary_table(kinds: Mapping[str, str]) -> Dict[str, Tuple[int, str, int]]:
    """``op -> (precedence, node kind, right operand's lowest precedence)``
    for a language's ``op -> kind`` map."""
    return {
        op: (_PRECEDENCE[op], kind, _PRECEDENCE[op] + (op not in _RIGHT_ASSOCIATIVE))
        for op, kind in kinds.items()
    }


class CFamilyParser:
    """Expression grammar, comma lists and types shared by the C family.

    A subclass names its lexer (``LANGUAGE``, ``KEYWORDS``), fills the
    operator tables and implements ``parse_new`` (after the ``new``
    keyword), ``parse_access_tail`` and ``parse_primary``.  A typed
    language also fills the type tables.
    """

    LANGUAGE = ""
    KEYWORDS: FrozenSet[str] = frozenset()

    #: ``a op b`` assignment: op -> node kind (right-associative).
    ASSIGN: Mapping[str, str] = {}
    #: Node kind of ``c ? a : b``.
    CONDITIONAL = ""
    #: Binary operators: op -> (precedence, node kind, right operand's
    #: lowest precedence), from :func:`binary_table`.
    BINARY: Mapping[str, Tuple[int, str, int]] = {}
    #: Binary operators whose right operand is a type (``x instanceof T``).
    TYPE_OPERAND: FrozenSet[str] = frozenset()
    #: Prefix operators (symbols or keywords): op -> node kind.
    PREFIX: Mapping[str, str] = {}
    #: Postfix operators: op -> node kind.
    POSTFIX: Mapping[str, str] = {}

    #: Typed languages: type keyword -> node kind of that type.
    TYPE_KEYWORDS: Mapping[str, str] = {}
    #: Node kinds of a (qualified) type name and of a generic type.
    NAMED_TYPE = ""
    GENERIC_TYPE = ""
    #: Punctuation a generic-argument list may contain besides angles.
    TYPE_ARG_PUNCT: Tuple[str, ...] = (",", ".", "[", "]")
    #: C#: the node kind of a type with a trailing ``?``.
    NULLABLE_TYPE = ""
    #: Node kind of a cast ``(T) x``.
    CAST = ""

    def __init__(self, source: str) -> None:
        tokens = Lexer(source, self.KEYWORDS, self.LANGUAGE).tokenize()
        self.ts = TokenStream(tokens, self.LANGUAGE)

    # ------------------------------------------------------------------
    # Lists
    # ------------------------------------------------------------------
    def comma_list(self, close: Optional[str], item: Callable[[], Node]) -> List[Node]:
        """Parse ``item (',' item)*`` and return the items.

        With a ``close`` token the list may be empty and the closer is
        consumed (``">"`` also closes on the first angle of ``>>`` and
        ``>>>``).  Without one the list has at least one item and stops
        at the first token that is not a comma.
        """
        ts = self.ts
        stops = () if close is None else _CLOSE_ANGLES if close == ">" else (close,)
        items = []
        while not ts.current.is_op(*stops):
            items.append(item())
            if not ts.match_op(","):
                break
        if close == ">":
            self.expect_close_angle()
        elif close is not None:
            ts.expect_op(close)
        return items

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def parse_assignment(self, left: Optional[Node] = None) -> Node:
        """Assignment, with ``?:`` and the binary operators beneath it.

        ``left``, if given, is the expression's first operand, already
        parsed (see :meth:`parse_binary`).
        """
        ts = self.ts
        node = self.parse_binary(left=left)
        if ts.match_op("?"):
            then = self.parse_assignment()
            ts.expect_op(":")
            node = Node(self.CONDITIONAL, children=[node, then, self.parse_assignment()])
        tok = ts.current
        kind = self.ASSIGN.get(tok.text) if tok.kind == OP else None
        if kind is None:
            return node
        ts.advance()
        return Node(kind, children=[node, self.parse_assignment()])

    #: Java and C# have no comma expression.
    parse_expression = parse_assignment

    def parse_binary(self, min_level: int = 1, left: Optional[Node] = None) -> Node:
        """Precedence climbing over ``BINARY``.

        Every level is left-associative except ``??``, whose right operand
        takes the further ``??`` of the chain.

        ``left`` is the first operand when the caller has parsed it
        already (with :meth:`parse_unary`), so that a look at the token
        after it never costs a second parse.

        After an operator of level ``p`` only operators of level at most
        ``p`` extend the tree here: a right operand has already taken the
        tighter ones, and a type operand (``x instanceof T``) takes none,
        so ``x instanceof T + 1`` stays an error as in a one-rule-per-level
        grammar.
        """
        ts = self.ts
        if left is None:
            left = self.parse_unary()
        ceiling = _TIGHTEST
        while True:
            tok = ts.current
            entry = self.BINARY.get(tok.text) if tok.kind == OP or tok.kind == KEYWORD else None
            if entry is None or not min_level <= entry[0] <= ceiling:
                return left
            level, kind, right_level = entry
            ts.advance()
            if tok.text in self.TYPE_OPERAND:
                right = self.parse_type()
            else:
                right = self.parse_binary(right_level)
            left = Node(kind, children=[left, right])
            ceiling = level

    def parse_unary(self) -> Node:
        ts = self.ts
        tok = ts.current
        if self.CAST and tok.is_op("(") and self.looks_like_cast():
            ts.advance()
            type_node = self.parse_type()
            ts.expect_op(")")
            return Node(self.CAST, children=[type_node, self.parse_unary()])
        kind = self.PREFIX.get(tok.text) if tok.kind == OP or tok.kind == KEYWORD else None
        if kind is not None:
            ts.advance()
            return Node(kind, children=[self.parse_unary()])
        if tok.is_keyword("new"):
            ts.advance()
            return self.parse_new()
        return self.parse_postfix()

    def parse_postfix(self) -> Node:
        node = self.parse_access_tail(self.parse_primary())
        tok = self.ts.current
        kind = self.POSTFIX.get(tok.text) if tok.kind == OP else None
        if kind is None:
            return node
        self.ts.advance()
        return Node(kind, children=[node])

    def parse_new(self) -> Node:  # pragma: no cover - abstract
        raise NotImplementedError

    def parse_access_tail(self, node: Node) -> Node:  # pragma: no cover - abstract
        raise NotImplementedError

    def parse_primary(self) -> Node:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Types (Java, C#)
    # ------------------------------------------------------------------
    def parse_type(self) -> Node:
        ts = self.ts
        tok = ts.current
        kind = self.TYPE_KEYWORDS.get(tok.text) if tok.kind == KEYWORD else None
        if kind is not None:
            ts.advance()
            node = Node(kind, value=tok.text)
        else:
            name = ts.expect_ident().text
            while ts.current.is_op(".") and ts.peek().kind == IDENT:
                ts.advance()
                name += "." + ts.expect_ident().text
            node = Node(self.NAMED_TYPE, value=name)
            if ts.current.is_op("<") and self.type_args_end(ts.pos) > 0:
                ts.advance()
                args = self.comma_list(">", self.parse_type_argument)
                node = Node(self.GENERIC_TYPE, children=[node, *args])
        while True:
            if ts.current.is_op("[") and ts.peek().is_op("]"):
                ts.advance()
                ts.advance()
                node = Node("ArrayType", children=[node])
            elif self.NULLABLE_TYPE and ts.current.is_op("?") and self.nullable_at(ts.pos):
                ts.advance()
                node = Node(self.NULLABLE_TYPE, children=[node])
            else:
                return node

    def nullable_at(self, i: int) -> bool:
        """Whether the ``?`` at token ``i`` ends a nullable type ``T?``
        rather than opening a conditional (``x is T ? a : b``): no operand
        follows it, or the one that does is a declared name (``T? name =``,
        a parameter, a ``foreach`` variable, a property, or a method:
        ``T? Name(...)`` then ``{`` or ``;``, where ``T ? f(x) : y`` calls)."""
        tokens = self.ts.tokens
        nxt = tokens[i + 1]
        if nxt.kind != IDENT:
            return nxt.kind == OP and nxt.text != "(" and nxt.text not in self.PREFIX
        after = tokens[i + 2]
        if not after.is_op("("):
            return after.is_op("=", ";", ",", ")", "{") or after.is_keyword("in")
        depth = 0
        for j in range(i + 2, len(tokens)):
            if tokens[j].is_op("("):
                depth += 1
            elif tokens[j].is_op(")"):
                depth -= 1
                if depth == 0:
                    return tokens[j + 1].is_op("{", ";")
        return False

    def parse_type_argument(self) -> Node:
        """One generic argument (Java adds wildcards)."""
        return self.parse_type()

    def type_args_end(self, i: int) -> int:
        """Index just past the generic-argument list opening at token ``i``.

        The one lookahead telling ``List<Integer>`` from ``a < b``: it
        returns -1 when a token no type can contain comes before the
        angles balance.  ``>>`` and ``>>>`` close two and three lists.
        """
        tokens = self.ts.tokens
        depth = 0
        while True:
            tok = tokens[i]
            i += 1
            step = _ANGLE_DEPTH.get(tok.text) if tok.kind == OP else None
            if step is not None:
                depth += step
                if depth <= 0:
                    return i
            elif tok.kind != IDENT and tok.kind != KEYWORD and not tok.is_op(*self.TYPE_ARG_PUNCT):
                return -1

    def expect_close_angle(self) -> None:
        """Consume one ``>`` closing a generic-argument list.

        A ``>>`` or ``>>>`` token is split, leaving the rest in place for
        the enclosing lists: the same trick javac and Roslyn use.
        """
        ts = self.ts
        tok = ts.current
        if tok.is_op(">"):
            ts.advance()
        elif tok.is_op(">>", ">>>"):
            ts.tokens[ts.pos] = Token(OP, tok.text[1:], tok.line, tok.column + 1)
        else:
            raise ts.error(f"expected '>', found {tok}")

    def looks_like_local_declaration(self) -> bool:
        """Whether a statement starts ``Type name``: a type keyword, or a
        (qualified, generic, array, C# nullable) type name followed by an
        identifier."""
        ts = self.ts
        tok = ts.current
        if tok.kind == KEYWORD:
            return tok.text in self.TYPE_KEYWORDS
        if tok.kind != IDENT:
            return False
        tokens = ts.tokens
        i = ts.pos + 1
        while tokens[i].is_op(".") and tokens[i + 1].kind == IDENT:
            i += 2
        if tokens[i].is_op("<"):
            i = self.type_args_end(i)
            if i < 0:
                return False
        while True:
            if tokens[i].is_op("[") and tokens[i + 1].is_op("]"):
                i += 2
            elif self.NULLABLE_TYPE and tokens[i].is_op("?"):
                # ``T? name`` ends where the conditional ``a ? b : c`` goes on.
                if not (tokens[i + 1].is_op("[") and tokens[i + 2].is_op("]")):
                    return tokens[i + 1].kind == IDENT and tokens[i + 2].is_op("=", ";", ",")
                i += 1
            else:
                return tokens[i].kind == IDENT

    def looks_like_cast(self) -> bool:
        """Whether the ``(`` at the current token opens a cast: a type
        keyword or a C# nullable ``T?`` closed by ``)``, or a qualified
        name closed by ``)`` and followed by an operand."""
        tokens = self.ts.tokens
        i = self.ts.pos + 1
        tok = tokens[i]
        if tok.kind == KEYWORD:
            if tok.text not in self.TYPE_KEYWORDS:
                return False
            i += 1
        elif tok.kind == IDENT:
            i += 1
            while tokens[i].is_op(".") and tokens[i + 1].kind == IDENT:
                i += 2
        else:
            return False
        if self.NULLABLE_TYPE and tokens[i].is_op("?") and tokens[i + 1].is_op(")"):
            return True
        if not tokens[i].is_op(")"):
            return False
        nxt = tokens[i + 1]
        return (
            tok.kind == KEYWORD
            or nxt.kind in (IDENT, NUMBER, STRING, CHAR)
            or nxt.is_op("(")
            or nxt.is_keyword("new", "this")
        )


# ----------------------------------------------------------------------
# Binding resolution (Java, C#)
# ----------------------------------------------------------------------

# The union of both languages' kinds; each parser produces only its own.
_TYPE_DECLARATIONS = ("ClassDeclaration", "InterfaceDeclaration", "StructDeclaration")
_METHODS = ("MethodDeclaration", "ConstructorDeclaration")
_LOCAL_DECLARATIONS = ("VariableDeclarationExpr", "VariableDeclaration")
_NAMED_LOCALS = ("ForEachStatement", "CatchDeclaration")  # the name is child 1
_REFERENCES = ("NameExpr", "IdentifierName")


def _type_declarations(node: Node):
    for child in node.children:
        if child.kind in _TYPE_DECLARATIONS:
            yield child
        elif child.kind == "NamespaceDeclaration":
            yield from _type_declarations(child)


def resolve_bindings(root: Node) -> None:
    """Group occurrences of fields, parameters and locals under binding keys.

    Fields (and C# properties) are scoped per class, parameters and locals
    per method or constructor.  A name reference resolves to a local or
    parameter of its method first, then to a field of its class; any other
    name is marked ``global``.  The member name of ``a.b`` is not a
    reference.
    """
    methods = 0
    for index, class_node in enumerate(_type_declarations(root), start=1):
        fields: Dict[str, str] = {}
        for member in class_node.children:
            if member.kind == "FieldDeclaration":
                names = [declarator.children[0] for declarator in member.find("VariableDeclarator")]
            elif member.kind == "PropertyDeclaration":
                names = [member.children[1]]
            else:
                continue
            for name_node in names:
                key = f"c{index}:{name_node.value}"
                fields[name_node.value or ""] = key
                name_node.meta["binding"] = key
        for member in class_node.children:
            if member.kind in _METHODS:
                methods += 1
                _resolve_method(member, f"m{methods}", fields)


def _resolve_method(method: Node, scope: str, fields: Dict[str, str]) -> None:
    # name -> (binding key, id_kind at the declaration site)
    declared: Dict[str, Tuple[str, str]] = {}

    def declare(name_node: Node, id_kind: str) -> None:
        key = f"{scope}:{name_node.value}"
        declared[name_node.value or ""] = (key, id_kind)
        name_node.meta["binding"] = key
        name_node.meta["id_kind"] = id_kind

    stack = [method]
    while stack:  # pre-order: a declaration precedes the uses after it
        node = stack.pop()
        kind = node.kind
        if kind == "Parameter":
            declare(node.children[1], "param")
        elif kind in _LOCAL_DECLARATIONS:
            for declarator in node.children:
                if declarator.kind == "VariableDeclarator":
                    declare(declarator.children[0], "local")
        elif kind in _NAMED_LOCALS and len(node.children) > 1:
            declare(node.children[1], "local")
        elif kind in _REFERENCES:
            parent = node.parent
            member_name = (
                parent is not None
                and parent.kind == "SimpleMemberAccessExpression"
                and parent.children[1] is node
            )
            if not member_name:
                name = node.value or ""
                if name in declared:
                    node.meta["binding"], node.meta["id_kind"] = declared[name]
                elif name in fields:
                    node.meta["binding"] = fields[name]
                    node.meta["id_kind"] = "field"
                else:
                    node.meta["binding"] = f"g:{name}"
                    node.meta["id_kind"] = "global"
        stack.extend(reversed(node.children))
