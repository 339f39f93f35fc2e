"""Python frontend: CPython ``ast`` → generic AST.

The paper's Python module used "the Python internal parser and AST
visitor" (Sec. 5.1); we do the same.  CPython AST class names become node
kinds, with operator-bearing nodes specialised the same way as the other
frontends (``BinOp+``, ``Compare==``, ``UnaryOpnot``) so the paths stay
discriminative.

A scope resolver marks parameters and assigned names as renameable
program elements with occurrence-grouping bindings, mirroring the other
frontends.
"""

from __future__ import annotations

import ast as pyast
from typing import List, Set

from ...core.ast_model import Ast, Node
from ..base import ParseError

_OP_SYMBOLS = {
    pyast.Add: "+",
    pyast.Sub: "-",
    pyast.Mult: "*",
    pyast.Div: "/",
    pyast.FloorDiv: "//",
    pyast.Mod: "%",
    pyast.Pow: "**",
    pyast.LShift: "<<",
    pyast.RShift: ">>",
    pyast.BitOr: "|",
    pyast.BitXor: "^",
    pyast.BitAnd: "&",
    pyast.MatMult: "@",
    pyast.Eq: "==",
    pyast.NotEq: "!=",
    pyast.Lt: "<",
    pyast.LtE: "<=",
    pyast.Gt: ">",
    pyast.GtE: ">=",
    pyast.Is: "is",
    pyast.IsNot: "isnot",
    pyast.In: "in",
    pyast.NotIn: "notin",
    pyast.And: "and",
    pyast.Or: "or",
    pyast.Not: "not",
    pyast.USub: "-",
    pyast.UAdd: "+",
    pyast.Invert: "~",
}


def _op_symbol(op: pyast.AST) -> str:
    return _OP_SYMBOLS.get(type(op), type(op).__name__)


class _Converter:
    """Convert a CPython AST into our generic tree."""

    def convert_module(self, module: pyast.Module) -> Node:
        root = Node("Module")
        for stmt in module.body:
            root.add_child(self.convert(stmt))
        return root

    # ------------------------------------------------------------------
    def convert(self, node: pyast.AST) -> Node:
        method = getattr(self, f"convert_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        return self._generic(node)

    def _generic(self, node: pyast.AST) -> Node:
        out = Node(type(node).__name__)
        for field, value in pyast.iter_fields(node):
            self._add_field(out, value)
        return out

    def _add_field(self, parent: Node, value) -> None:
        if isinstance(value, pyast.AST):
            if isinstance(value, pyast.expr_context):
                return
            parent.add_child(self.convert(value))
        elif isinstance(value, list):
            for item in value:
                self._add_field(parent, item)
        # Bare strings/ints (identifier fields) are handled by the
        # specialised converters; the generic path drops them.

    # -- statements -----------------------------------------------------
    def convert_FunctionDef(self, node: pyast.FunctionDef) -> Node:
        out = Node("FunctionDef")
        out.add_child(Node("FunctionName", value=node.name, meta={"id_kind": "function"}))
        for arg in node.args.args:
            if arg.arg in ("self", "cls"):
                out.add_child(Node("SelfArg", value=arg.arg, meta={"id_kind": "self"}))
            else:
                out.add_child(Node("arg", value=arg.arg, meta={"id_kind": "param"}))
        for default in node.args.defaults:
            out.add_child(Node("Default", children=[self.convert(default)]))
        for stmt in node.body:
            out.add_child(self.convert(stmt))
        return out

    convert_AsyncFunctionDef = convert_FunctionDef  # type: ignore[assignment]

    def convert_ClassDef(self, node: pyast.ClassDef) -> Node:
        out = Node("ClassDef")
        out.add_child(Node("ClassName", value=node.name, meta={"id_kind": "class"}))
        for base in node.bases:
            out.add_child(self.convert(base))
        for stmt in node.body:
            out.add_child(self.convert(stmt))
        return out

    def convert_Name(self, node: pyast.Name) -> Node:
        return Node("Name", value=node.id)

    def convert_arg(self, node: pyast.arg) -> Node:
        return Node("arg", value=node.arg, meta={"id_kind": "param"})

    def convert_Attribute(self, node: pyast.Attribute) -> Node:
        return Node(
            "Attribute",
            children=[
                self.convert(node.value),
                Node("Attr", value=node.attr, meta={"id_kind": "property"}),
            ],
        )

    def convert_Constant(self, node: pyast.Constant) -> Node:
        value = node.value
        if isinstance(value, bool):
            return Node("NameConstant", value=str(value))
        if value is None:
            return Node("NameConstant", value="None")
        if isinstance(value, (int, float)):
            return Node("Num", value=repr(value))
        if isinstance(value, str):
            return Node("Str", value=value)
        return Node("Constant", value=repr(value))

    def convert_BinOp(self, node: pyast.BinOp) -> Node:
        return Node(
            f"BinOp{_op_symbol(node.op)}",
            children=[self.convert(node.left), self.convert(node.right)],
        )

    def convert_BoolOp(self, node: pyast.BoolOp) -> Node:
        return Node(
            f"BoolOp{_op_symbol(node.op)}",
            children=[self.convert(v) for v in node.values],
        )

    def convert_UnaryOp(self, node: pyast.UnaryOp) -> Node:
        return Node(f"UnaryOp{_op_symbol(node.op)}", children=[self.convert(node.operand)])

    def convert_Compare(self, node: pyast.Compare) -> Node:
        # Single comparisons embed the operator; chains use a neutral kind.
        if len(node.ops) == 1:
            return Node(
                f"Compare{_op_symbol(node.ops[0])}",
                children=[self.convert(node.left), self.convert(node.comparators[0])],
            )
        out = Node("CompareChain", children=[self.convert(node.left)])
        for op, comparator in zip(node.ops, node.comparators):
            out.add_child(Node(f"Op{_op_symbol(op)}"))
            out.add_child(self.convert(comparator))
        return out

    def convert_AugAssign(self, node: pyast.AugAssign) -> Node:
        return Node(
            f"AugAssign{_op_symbol(node.op)}",
            children=[self.convert(node.target), self.convert(node.value)],
        )

    def convert_Call(self, node: pyast.Call) -> Node:
        out = Node("Call", children=[self.convert(node.func)])
        for arg in node.args:
            out.add_child(self.convert(arg))
        for kw in node.keywords:
            kw_node = Node("keyword")
            if kw.arg:
                kw_node.add_child(Node("KeywordName", value=kw.arg, meta={"id_kind": "property"}))
            kw_node.add_child(self.convert(kw.value))
            out.add_child(kw_node)
        return out

    def convert_Assign(self, node: pyast.Assign) -> Node:
        out = Node("Assign")
        for target in node.targets:
            out.add_child(self.convert(target))
        out.add_child(self.convert(node.value))
        return out

    def convert_If(self, node: pyast.If) -> Node:
        out = Node("If", children=[self.convert(node.test)])
        for stmt in node.body:
            out.add_child(self.convert(stmt))
        if node.orelse:
            else_node = Node("Else")
            for stmt in node.orelse:
                else_node.add_child(self.convert(stmt))
            out.add_child(else_node)
        return out

    def convert_While(self, node: pyast.While) -> Node:
        out = Node("While", children=[self.convert(node.test)])
        for stmt in node.body:
            out.add_child(self.convert(stmt))
        return out

    def convert_For(self, node: pyast.For) -> Node:
        out = Node("For", children=[self.convert(node.target), self.convert(node.iter)])
        for stmt in node.body:
            out.add_child(self.convert(stmt))
        if node.orelse:
            else_node = Node("Else")
            for stmt in node.orelse:
                else_node.add_child(self.convert(stmt))
            out.add_child(else_node)
        return out

    def convert_Expr(self, node: pyast.Expr) -> Node:
        # Expression statements are flattened (no Expr wrapper), mirroring
        # the other frontends.
        return self.convert(node.value)

    def convert_Subscript(self, node: pyast.Subscript) -> Node:
        return Node(
            "Subscript", children=[self.convert(node.value), self.convert(node.slice)]
        )


def parse_source_to_tree(source: str) -> Node:
    try:
        module = pyast.parse(source)
    except SyntaxError as exc:  # normalise to the shared error type
        raise ParseError(f"[python] {exc.msg}", exc.lineno or 0, exc.offset or 0) from exc
    return _Converter().convert_module(module)


# ----------------------------------------------------------------------
# Scope resolution
# ----------------------------------------------------------------------

_SCOPE_KINDS = ("Module", "FunctionDef", "Lambda")


def _collect_assigned_names(scope_node: Node) -> Set[str]:
    """Names bound in a scope: params plus assignment/for/with targets."""
    bound: Set[str] = set()

    # Params.
    for child in scope_node.children:
        if child.kind == "arg":
            bound.add(child.value or "")

    # Assignment targets, for-targets anywhere in the scope body (not in
    # nested functions).
    def targets(node: Node) -> None:
        for child in node.children:
            if child.kind in _SCOPE_KINDS:
                continue
            if node.kind == "Assign" and child is not node.children[-1] and child.kind == "Name":
                bound.add(child.value or "")
            if node.kind == "Assign" and child.kind == "Tuple":
                for el in child.children:
                    if el.kind == "Name":
                        bound.add(el.value or "")
            if node.kind.startswith("AugAssign") and child is node.children[0] and child.kind == "Name":
                bound.add(child.value or "")
            if node.kind == "For" and child is node.children[0]:
                if child.kind == "Name":
                    bound.add(child.value or "")
                for el in child.find("Name"):
                    bound.add(el.value or "")
            if node.kind == "withitem" and child.kind == "Name":
                bound.add(child.value or "")
            if node.kind == "ExceptHandler" and child.kind == "ExceptName":
                bound.add(child.value or "")
            targets(child)

    targets(scope_node)
    return bound


def resolve_python_scopes(root: Node) -> None:
    """Attach bindings/id_kinds to ``Name``/``arg`` terminals."""
    counter = [0]

    def visit(scope_node: Node, outer: List) -> None:
        counter[0] += 1
        scope_id = counter[0]
        bound = _collect_assigned_names(scope_node)
        chain = outer + [(scope_id, bound, scope_node.kind)]

        def mark(node: Node) -> None:
            if node.kind == "Name" and "binding" not in node.meta:
                name = node.value or ""
                for sid, names, scope_kind in reversed(chain):
                    if name in names:
                        node.meta["binding"] = f"s{sid}:{name}"
                        node.meta["id_kind"] = (
                            "global" if scope_kind == "Module" else "local"
                        )
                        break
                else:
                    node.meta["binding"] = f"g:{name}"
                    node.meta["id_kind"] = "global"
            elif node.kind == "arg" and "binding" not in node.meta:
                node.meta["binding"] = f"s{scope_id}:{node.value}"
                node.meta["id_kind"] = "param"
            elif node.kind in ("Attr", "KeywordName") and "binding" not in node.meta:
                node.meta["binding"] = f"p:{node.value}"
                node.meta["id_kind"] = "property"
            for child in node.children:
                if child.kind in ("FunctionDef", "Lambda"):
                    visit(child, chain)
                else:
                    mark(child)

        mark(scope_node)

    visit(root, [])


class PythonFrontend:
    """PIGEON's Python module."""

    name = "python"

    def parse(self, source: str) -> Ast:
        root = parse_source_to_tree(source)
        resolve_python_scopes(root)
        return Ast(root, language="python")


def parse_python(source: str) -> Ast:
    """Parse Python source into a generic AST."""
    return PythonFrontend().parse(source)
