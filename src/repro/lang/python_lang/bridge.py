"""Python frontend: CPython ``ast`` → generic AST.

The paper's Python module used "the Python internal parser and AST
visitor" (Sec. 5.1); we do the same.  CPython AST class names become node
kinds, with operator-bearing nodes specialised the same way as the other
frontends (``BinOp+``, ``Compare==``, ``UnaryOpnot``) so the paths stay
discriminative.

A scope resolver marks parameters and assigned names as renameable
program elements with occurrence-grouping bindings, mirroring the other
frontends.

The conversion and the scope walks use explicit stacks, so a long
operator chain (a left-deep ``BinOp`` tree) costs no Python recursion;
a chain too long for CPython's own parser, which raises
``RecursionError``, is a :class:`~repro.lang.base.ParseError`.
"""

from __future__ import annotations

import ast as pyast
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

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


#: What a converted node's children come from, in order: a CPython node
#: to convert, or a ready node paired with the items of its own children.
_Item = Union[pyast.AST, Tuple[Node, Sequence["_Item"]]]


def _leaf(kind: str, value: Optional[str] = None, **meta: str) -> Tuple[Node, Sequence[_Item]]:
    return Node(kind, value=value, meta=meta), ()


class _Converter:
    """Convert a CPython AST into our generic tree.

    Each ``convert_<Class>`` method returns the node for one CPython node
    and the items its children come from; :meth:`convert` fills the tree
    in with an explicit stack, so a long operator chain (a left-deep
    ``BinOp`` tree) costs no Python recursion.
    """

    def convert(self, node: pyast.AST) -> Node:
        root, items = self.shell(node)
        stack = [(root, iter(items))]
        while stack:
            parent, pending = stack[-1]
            for item in pending:
                child, items = item if isinstance(item, tuple) else self.shell(item)
                parent.add_child(child)
                if items:
                    stack.append((child, iter(items)))
                    break
            else:
                stack.pop()
        return root

    def shell(self, node: pyast.AST) -> Tuple[Node, Sequence[_Item]]:
        method = getattr(self, f"convert_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        fields = (value for _name, value in pyast.iter_fields(node))
        return Node(type(node).__name__), list(self._field_items(fields))

    def _field_items(self, values: Iterable) -> Iterator[pyast.AST]:
        for value in values:
            if isinstance(value, pyast.AST):
                if not isinstance(value, pyast.expr_context):
                    yield value
            elif isinstance(value, list):
                yield from self._field_items(value)
            # Bare strings/ints (identifier fields) are handled by the
            # specialised converters; the generic path drops them.

    # -- statements -----------------------------------------------------
    def convert_Module(self, node: pyast.Module):
        return Node("Module"), node.body

    def convert_FunctionDef(self, node: pyast.FunctionDef):
        items: List[_Item] = [_leaf("FunctionName", node.name, id_kind="function")]
        for arg in node.args.args:
            if arg.arg in ("self", "cls"):
                items.append(_leaf("SelfArg", arg.arg, id_kind="self"))
            else:
                items.append(_leaf("arg", arg.arg, id_kind="param"))
        items.extend((Node("Default"), [default]) for default in node.args.defaults)
        return Node("FunctionDef"), items + node.body

    convert_AsyncFunctionDef = convert_FunctionDef  # type: ignore[assignment]

    def convert_ClassDef(self, node: pyast.ClassDef):
        return Node("ClassDef"), [
            _leaf("ClassName", node.name, id_kind="class"), *node.bases, *node.body
        ]

    def convert_Name(self, node: pyast.Name):
        return _leaf("Name", node.id)

    def convert_arg(self, node: pyast.arg):
        return _leaf("arg", node.arg, id_kind="param")

    def convert_Attribute(self, node: pyast.Attribute):
        return Node("Attribute"), [node.value, _leaf("Attr", node.attr, id_kind="property")]

    def convert_Constant(self, node: pyast.Constant):
        value = node.value
        if isinstance(value, bool):
            return _leaf("NameConstant", str(value))
        if value is None:
            return _leaf("NameConstant", "None")
        if isinstance(value, (int, float)):
            return _leaf("Num", repr(value))
        if isinstance(value, str):
            return _leaf("Str", value)
        return _leaf("Constant", repr(value))

    def convert_BinOp(self, node: pyast.BinOp):
        return Node(f"BinOp{_op_symbol(node.op)}"), (node.left, node.right)

    def convert_BoolOp(self, node: pyast.BoolOp):
        return Node(f"BoolOp{_op_symbol(node.op)}"), node.values

    def convert_UnaryOp(self, node: pyast.UnaryOp):
        return Node(f"UnaryOp{_op_symbol(node.op)}"), (node.operand,)

    def convert_Compare(self, node: pyast.Compare):
        # Single comparisons embed the operator; chains use a neutral kind.
        if len(node.ops) == 1:
            return Node(f"Compare{_op_symbol(node.ops[0])}"), (node.left, node.comparators[0])
        items: List[_Item] = [node.left]
        for op, comparator in zip(node.ops, node.comparators):
            items += (_leaf(f"Op{_op_symbol(op)}"), comparator)
        return Node("CompareChain"), items

    def convert_AugAssign(self, node: pyast.AugAssign):
        return Node(f"AugAssign{_op_symbol(node.op)}"), (node.target, node.value)

    def convert_Call(self, node: pyast.Call):
        items: List[_Item] = [node.func, *node.args]
        for kw in node.keywords:
            name = [_leaf("KeywordName", kw.arg, id_kind="property")] if kw.arg else []
            items.append((Node("keyword"), [*name, kw.value]))
        return Node("Call"), items

    def convert_Assign(self, node: pyast.Assign):
        return Node("Assign"), [*node.targets, node.value]

    def convert_If(self, node: pyast.If):
        return Node("If"), [node.test, *node.body, *self._orelse(node)]

    def convert_While(self, node: pyast.While):
        return Node("While"), [node.test, *node.body]

    def convert_For(self, node: pyast.For):
        return Node("For"), [node.target, node.iter, *node.body, *self._orelse(node)]

    def _orelse(self, node: Union[pyast.If, pyast.For]) -> List[_Item]:
        return [(Node("Else"), node.orelse)] if node.orelse else []

    def convert_Expr(self, node: pyast.Expr):
        # Expression statements are flattened (no Expr wrapper), mirroring
        # the other frontends.
        return self.shell(node.value)

    def convert_Subscript(self, node: pyast.Subscript):
        return Node("Subscript"), (node.value, node.slice)


def parse_source_to_tree(source: str) -> Node:
    try:
        module = pyast.parse(source)
    except SyntaxError as exc:  # normalise to the shared error type
        raise ParseError(f"[python] {exc.msg}", exc.lineno or 0, exc.offset or 0) from exc
    except RecursionError as exc:  # CPython's own parser nests too deep
        raise ParseError("[python] expression nested too deeply") from exc
    return _Converter().convert(module)


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
    stack = [scope_node]
    while stack:
        node = stack.pop()
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
            stack.append(child)
    return bound


def resolve_python_scopes(root: Node) -> None:
    """Attach bindings/id_kinds to ``Name``/``arg`` terminals.

    One pre-order walk: the root and every function or lambda open a
    scope, numbered in the order the walk meets them.
    """
    scopes = 0
    chain: List[Tuple[int, Set[str], str]] = []
    # ``None`` under a scope's subtree marks where the walk leaves it.
    stack: List[Optional[Node]] = [root]
    while stack:
        node = stack.pop()
        if node is None:
            chain.pop()
            continue
        kind = node.kind
        if node is root or kind == "FunctionDef" or kind == "Lambda":
            scopes += 1
            chain.append((scopes, _collect_assigned_names(node), kind))
            stack.append(None)
        elif kind == "Name":
            if "binding" not in node.meta:
                name = node.value or ""
                for sid, names, scope_kind in reversed(chain):
                    if name in names:
                        node.meta["binding"] = f"s{sid}:{name}"
                        node.meta["id_kind"] = "global" if scope_kind == "Module" else "local"
                        break
                else:
                    node.meta["binding"] = f"g:{name}"
                    node.meta["id_kind"] = "global"
        elif kind == "arg":
            if "binding" not in node.meta:
                node.meta["binding"] = f"s{chain[-1][0]}:{node.value}"
                node.meta["id_kind"] = "param"
        elif kind in ("Attr", "KeywordName") and "binding" not in node.meta:
            node.meta["binding"] = f"p:{node.value}"
            node.meta["id_kind"] = "property"
        stack.extend(reversed(node.children))


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
