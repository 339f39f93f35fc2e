"""Recursive-descent parser for a JavaScript subset.

Node kinds mirror UglifyJS (the parser the paper used for JavaScript), so
the paths extracted here match the paper's examples literally.  The
running example of Fig. 1a::

    while (!d) { if (someCondition()) { d = true; } }

parses to a tree in which the path between the two occurrences of ``d`` is
``SymbolRef↑UnaryPrefix!↑While↓If↓Assign=↓SymbolRef``, exactly as printed
in the paper.  Two UglifyJS conventions matter for that:

* statement blocks are flattened into their parent construct (no
  ``Block``/``SimpleStatement`` wrapper between ``While`` and ``If`` or
  between ``If`` and the assignment expression);
* operator-bearing nodes embed the operator in the kind (``Assign=``,
  ``Binary==``, ``UnaryPrefix!``).

Expressions (assignment, ``?:``, the binary operators by precedence
climbing, prefix and postfix operators) and comma lists come from the
shared C-family core, :class:`repro.lang.cfamily.CFamilyParser`, filled
with this module's operator -> node kind tables.

After parsing, a scope resolver marks every identifier terminal with
``meta["id_kind"]`` and, for local variables and parameters, a
``meta["binding"]`` key that groups the occurrences of one program
element (the CRF merges them into a single node, Sec. 5.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ...core.ast_model import Ast, Node
from ..cfamily import CFamilyParser, binary_table
from ..lexing import CHAR, EOF, IDENT, KEYWORD, NUMBER, STRING

_KEYWORDS = frozenset(
    """
    var let const function return if else while do for in of new delete typeof
    instanceof this true false null undefined break continue throw try catch
    finally switch case default void
    """.split()
)


class _JsParser(CFamilyParser):
    LANGUAGE = "javascript"
    KEYWORDS = _KEYWORDS
    ASSIGN = {
        op: f"Assign{op}" for op in ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")
    }
    CONDITIONAL = "Conditional"
    BINARY = binary_table(
        {
            op: f"Binary{op}"
            for op in (
                "||", "&&", "|", "^", "&", "==", "!=", "===", "!==", "<", ">", "<=", ">=",
                "instanceof", "in", "<<", ">>", ">>>", "+", "-", "*", "/", "%",
            )
        }
    )
    PREFIX = {
        op: f"UnaryPrefix{op}" for op in ("!", "-", "+", "~", "++", "--", "typeof", "delete", "void")
    }
    POSTFIX = {op: f"UnaryPostfix{op}" for op in ("++", "--")}

    # ------------------------------------------------------------------
    # Program structure
    # ------------------------------------------------------------------
    def parse_program(self) -> Node:
        top = Node("Toplevel")
        while not self.ts.at_end():
            top.add_child(self.parse_statement())
        return top

    def parse_statement(self) -> Node:
        ts = self.ts
        tok = ts.current
        if tok.is_keyword("function"):
            return self.parse_function(declaration=True)
        if tok.is_keyword("var", "let", "const"):
            node = self.parse_var()
            ts.match_op(";")
            return node
        if tok.is_keyword("if"):
            return self.parse_if()
        if tok.is_keyword("while"):
            return self.parse_while()
        if tok.is_keyword("do"):
            return self.parse_do_while()
        if tok.is_keyword("for"):
            return self.parse_for()
        if tok.is_keyword("return"):
            ts.advance()
            node = Node("Return")
            if not ts.current.is_op(";") and not ts.current.is_op("}") and ts.current.kind != EOF:
                node.add_child(self.parse_expression())
            ts.match_op(";")
            return node
        if tok.is_keyword("break"):
            ts.advance()
            ts.match_op(";")
            return Node("Break")
        if tok.is_keyword("continue"):
            ts.advance()
            ts.match_op(";")
            return Node("Continue")
        if tok.is_keyword("throw"):
            ts.advance()
            node = Node("Throw", children=[self.parse_expression()])
            ts.match_op(";")
            return node
        if tok.is_keyword("try"):
            return self.parse_try()
        if tok.is_op("{"):
            block = Node("Block")
            self.parse_block_into(block)
            return block
        if tok.is_op(";"):
            ts.advance()
            return Node("EmptyStatement")
        expr = self.parse_expression()
        ts.match_op(";")
        return expr

    def parse_block_into(self, parent: Node) -> None:
        """Parse ``{ stmt* }`` or a single statement into ``parent``.

        This is the UglifyJS-style flattening that keeps the paper's
        ``While↓If`` paths one edge long.
        """
        ts = self.ts
        if ts.match_op("{"):
            while not ts.current.is_op("}"):
                if ts.at_end():
                    raise ts.error("unterminated block")
                parent.add_child(self.parse_statement())
            ts.expect_op("}")
        else:
            parent.add_child(self.parse_statement())

    def parse_function(self, declaration: bool) -> Node:
        ts = self.ts
        ts.expect_keyword("function")
        kind = "Defun" if declaration else "Function"
        node = Node(kind)
        if ts.current.kind == IDENT:
            name = ts.advance().text
            sym_kind = "SymbolDefun" if declaration else "SymbolLambda"
            node.add_child(Node(sym_kind, value=name))
        elif declaration:
            raise ts.error("function declaration requires a name")
        ts.expect_op("(")
        for param in self.comma_list(")", lambda: Node("SymbolFunarg", value=ts.expect_ident().text)):
            node.add_child(param)
        self.parse_block_into(node)
        return node

    def parse_var(self) -> Node:
        """``var``/``let``/``const`` and its declarators, without the ``;``."""
        self.ts.advance()
        return Node("Var", children=self.comma_list(None, self.parse_var_def))

    def parse_var_def(self) -> Node:
        ts = self.ts
        vardef = Node("VarDef", children=[Node("SymbolVar", value=ts.expect_ident().text)])
        if ts.match_op("="):
            vardef.add_child(self.parse_assignment())
        return vardef

    def parse_if(self) -> Node:
        ts = self.ts
        ts.expect_keyword("if")
        ts.expect_op("(")
        node = Node("If", children=[self.parse_expression()])
        ts.expect_op(")")
        self.parse_block_into(node)
        if ts.match_keyword("else"):
            else_node = Node("Else")
            self.parse_block_into(else_node)
            node.add_child(else_node)
        return node

    def parse_while(self) -> Node:
        ts = self.ts
        ts.expect_keyword("while")
        ts.expect_op("(")
        node = Node("While", children=[self.parse_expression()])
        ts.expect_op(")")
        self.parse_block_into(node)
        return node

    def parse_do_while(self) -> Node:
        ts = self.ts
        ts.expect_keyword("do")
        node = Node("Do")
        self.parse_block_into(node)
        ts.expect_keyword("while")
        ts.expect_op("(")
        node.add_child(self.parse_expression())
        ts.expect_op(")")
        ts.match_op(";")
        return node

    def parse_for(self) -> Node:
        ts = self.ts
        ts.expect_keyword("for")
        ts.expect_op("(")
        node = Node("For")
        if ts.current.is_keyword("var", "let", "const"):
            if ts.peek().kind == IDENT and ts.peek(2).is_keyword("in", "of"):
                ts.advance()
                target = Node("SymbolVar", value=ts.advance().text)
                ts.advance()
                return self.parse_for_in(target)
            node.add_child(self.parse_var())
        elif not ts.current.is_op(";"):
            # The first operand is read alone: read as part of a whole
            # expression, ``k in obj`` would be one binary ``in``.  The
            # rest of the header continues from it, so nothing is parsed
            # twice.
            first = self.parse_unary()
            if ts.match_keyword("in", "of"):
                return self.parse_for_in(first)
            init = self.parse_expression(first)
            if ts.match_keyword("in", "of"):
                return self.parse_for_in(init)
            node.add_child(init)
        ts.expect_op(";")
        if not ts.current.is_op(";"):
            node.add_child(self.parse_expression())
        ts.expect_op(";")
        if not ts.current.is_op(")"):
            node.add_child(self.parse_expression())
        ts.expect_op(")")
        self.parse_block_into(node)
        return node

    def parse_for_in(self, target: Node) -> Node:
        """The rest of ``for (target in|of expr) body``."""
        node = Node("ForIn", children=[target, self.parse_expression()])
        self.ts.expect_op(")")
        self.parse_block_into(node)
        return node

    def parse_try(self) -> Node:
        ts = self.ts
        ts.expect_keyword("try")
        node = Node("Try")
        body = Node("TryBody")
        self.parse_block_into(body)
        node.add_child(body)
        if ts.match_keyword("catch"):
            catch = Node("Catch")
            if ts.match_op("("):
                name = ts.expect_ident()
                catch.add_child(Node("SymbolCatch", value=name.text))
                ts.expect_op(")")
            self.parse_block_into(catch)
            node.add_child(catch)
        if ts.match_keyword("finally"):
            fin = Node("Finally")
            self.parse_block_into(fin)
            node.add_child(fin)
        return node

    # ------------------------------------------------------------------
    # Expressions (assignment, ``?:`` and operators: see CFamilyParser)
    # ------------------------------------------------------------------
    def parse_expression(self, left: Optional[Node] = None) -> Node:
        """A comma expression; ``left`` as in :meth:`parse_assignment`."""
        items = [self.parse_assignment(left)]
        if self.ts.match_op(","):
            items += self.comma_list(None, self.parse_assignment)
        return items[0] if len(items) == 1 else Node("Seq", children=items)

    def parse_new(self) -> Node:
        node = Node("New", children=[self.parse_callee_for_new()])
        if self.ts.match_op("("):
            for arg in self.comma_list(")", self.parse_assignment):
                node.add_child(arg)
        return self.parse_access_tail(node)

    def parse_callee_for_new(self) -> Node:
        """Member chain of a ``new`` expression, without call parentheses."""
        node = self.parse_primary()
        while True:
            if self.ts.current.is_op("."):
                self.ts.advance()
                prop = self.ts.expect_ident()
                node = Node("Dot", children=[node, Node("Property", value=prop.text)])
            else:
                return node

    def parse_access_tail(self, node: Node) -> Node:
        ts = self.ts
        while True:
            if ts.current.is_op("."):
                ts.advance()
                prop_tok = ts.current
                if prop_tok.kind not in (IDENT, KEYWORD):
                    raise ts.error("expected property name after '.'")
                ts.advance()
                node = Node("Dot", children=[node, Node("Property", value=prop_tok.text)])
            elif ts.current.is_op("["):
                ts.advance()
                index = self.parse_expression()
                ts.expect_op("]")
                node = Node("Sub", children=[node, index])
            elif ts.current.is_op("("):
                ts.advance()
                node = Node("Call", children=[node, *self.comma_list(")", self.parse_assignment)])
            else:
                return node

    def parse_primary(self) -> Node:
        ts = self.ts
        tok = ts.current
        if tok.kind == IDENT:
            ts.advance()
            return Node("SymbolRef", value=tok.text)
        if tok.kind == NUMBER:
            ts.advance()
            return Node("Number", value=tok.text)
        if tok.kind in (STRING, CHAR):
            ts.advance()
            return Node("String", value=tok.text)
        if tok.is_keyword("true"):
            ts.advance()
            return Node("True", value="true")
        if tok.is_keyword("false"):
            ts.advance()
            return Node("False", value="false")
        if tok.is_keyword("null"):
            ts.advance()
            return Node("Null", value="null")
        if tok.is_keyword("undefined"):
            ts.advance()
            return Node("Undefined", value="undefined")
        if tok.is_keyword("this"):
            ts.advance()
            return Node("This", value="this")
        if tok.is_keyword("function"):
            return self.parse_function(declaration=False)
        if tok.is_op("("):
            ts.advance()
            expr = self.parse_expression()
            ts.expect_op(")")
            return expr
        if tok.is_op("["):
            ts.advance()
            return Node("Array", children=self.comma_list("]", self.parse_assignment))
        if tok.is_op("{"):
            ts.advance()
            return Node("Object", children=self.comma_list("}", self.parse_object_entry))
        raise ts.error(f"unexpected token {tok}")

    def parse_object_entry(self) -> Node:
        ts = self.ts
        key_tok = ts.current
        if key_tok.kind not in (IDENT, STRING, NUMBER, KEYWORD):
            raise ts.error("expected object key")
        ts.advance()
        kv = Node("ObjectKeyVal", children=[Node("Key", value=key_tok.text)])
        ts.expect_op(":")
        kv.add_child(self.parse_assignment())
        return kv


# ----------------------------------------------------------------------
# Scope resolution
# ----------------------------------------------------------------------

_FUNCTION_KINDS = ("Defun", "Function")


class _Scope:
    __slots__ = ("scope_id", "parent", "declarations")

    def __init__(self, scope_id: int, parent: Optional["_Scope"]) -> None:
        self.scope_id = scope_id
        self.parent = parent
        # name -> id_kind at declaration site
        self.declarations: Dict[str, str] = {}

    def resolve(self, name: str) -> Optional["_Scope"]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.declarations:
                return scope
            scope = scope.parent
        return None


def _collect_declarations(fn_node: Node, scope: _Scope) -> None:
    """Hoist declarations of one function scope (not nested functions).

    A pre-order walk with an explicit stack, so a tree as deep as a long
    operator chain needs no Python frame per level.
    """
    stack = fn_node.children[::-1]
    while stack:
        child = stack.pop()
        at_function_root = child.parent is fn_node
        if child.kind in _FUNCTION_KINDS and not at_function_root:
            # Nested function: its params/vars belong to its own scope,
            # but a Defun name is declared in *this* scope.
            for sub in child.children:
                if sub.kind == "SymbolDefun":
                    scope.declarations.setdefault(sub.value or "", "function")
            continue
        if child.kind == "SymbolFunarg" and at_function_root:
            scope.declarations[child.value or ""] = "param"
        elif child.kind == "SymbolVar":
            scope.declarations.setdefault(child.value or "", "local")
        elif child.kind == "SymbolCatch":
            scope.declarations.setdefault(child.value or "", "local")
        elif child.kind == "SymbolDefun":
            scope.declarations.setdefault(child.value or "", "function")
        if child.kind in _FUNCTION_KINDS:
            continue  # do not descend into nested function bodies
        if child.children:
            stack.extend(reversed(child.children))
    # Also catch Defun/Function children's names declared directly above.
    for child in fn_node.children:
        if child.kind in _FUNCTION_KINDS:
            for sub in child.children:
                if sub.kind == "SymbolDefun":
                    scope.declarations.setdefault(sub.value or "", "function")


def resolve_scopes(root: Node) -> None:
    """Attach ``meta["binding"]`` / ``meta["id_kind"]`` to identifiers."""
    counter = [0]

    def new_scope(parent: Optional[_Scope]) -> _Scope:
        counter[0] += 1
        return _Scope(counter[0], parent)

    def mark(node: Node, scope: _Scope) -> None:
        if node.kind in ("SymbolRef", "SymbolVar", "SymbolFunarg", "SymbolCatch"):
            name = node.value or ""
            decl_scope = scope.resolve(name)
            if decl_scope is None:
                node.meta["id_kind"] = "global"
                node.meta["binding"] = f"g:{name}"
            else:
                node.meta["id_kind"] = decl_scope.declarations[name]
                node.meta["binding"] = f"s{decl_scope.scope_id}:{name}"
        elif node.kind in ("SymbolDefun", "SymbolLambda"):
            name = node.value or ""
            node.meta["id_kind"] = "function"
            decl_scope = scope.resolve(name) or scope
            node.meta["binding"] = f"s{decl_scope.scope_id}:{name}"
        elif node.kind in ("Property", "Key"):
            node.meta["id_kind"] = "property"
            node.meta["binding"] = f"p:{node.value}"

    scope = new_scope(None)
    _collect_declarations(root, scope)
    # Pre-order with an explicit stack.  A function opens its scope when
    # it is reached, so scope ids follow source order, and leaves the
    # enclosing scope on the stack, under its subtree, to return to.
    stack: List[Union[Node, _Scope]] = [root]
    while stack:
        node = stack.pop()
        if type(node) is _Scope:
            scope = node
            continue
        if node.kind in _FUNCTION_KINDS and node is not root:
            stack.append(scope)
            scope = new_scope(scope)
            _collect_declarations(node, scope)
        mark(node, scope)
        if node.children:
            stack.extend(reversed(node.children))


class JavaScriptFrontend:
    """PIGEON's JavaScript module."""

    name = "javascript"

    def parse(self, source: str) -> Ast:
        root = _JsParser(source).parse_program()
        resolve_scopes(root)
        return Ast(root, language="javascript")


def parse_js(source: str) -> Ast:
    """Parse JavaScript source into a generic AST."""
    return JavaScriptFrontend().parse(source)
