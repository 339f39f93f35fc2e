"""Method-name prediction (Sec. 5.3.2).

For each method we use the *internal* paths from the leaf that represents
the method name to the other leaves within the method (capturing the
implementation), and -- when available in the same file -- the *external*
paths from invocations of the method to their surrounding leaves
(capturing usage).  The paper found external paths worth about one
accuracy point; ``use_external=False`` reproduces that ablation.

All other names in the method are assumed given (the task definition of
Allamanis et al. [6] the paper follows), so neighbour labels are the real
identifier values.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.ast_model import Ast, Node
from ..core.extraction import PathExtractor, PathTable
from ..learning.crf.graph import CrfGraph

#: Per-language: node kind of a method *declaration* name terminal, and a
#: predicate for the declaration node kind that owns the method body.
_DECL_NAME_KINDS = {
    "javascript": ("SymbolDefun",),
    "java": ("SimpleName",),
    "python": ("FunctionName",),
    "csharp": ("IdentifierToken",),
}

_METHOD_OWNER_KINDS = {
    "javascript": ("Defun",),
    "java": ("MethodDeclaration",),
    "python": ("FunctionDef",),
    "csharp": ("MethodDeclaration",),
}

#: Per-language: (invocation node kind, kind of its first child when that
#: child names the callee).
_CALL_KINDS = {
    "javascript": ("Call", "SymbolRef"),
    "java": ("MethodCallExpr", "SimpleName"),
    "python": ("Call", "Name"),
    "csharp": ("InvocationExpression", "IdentifierName"),
}


def _declaration_names(ast: Ast) -> List[Node]:
    """Declaration-site name terminals of the file's methods."""
    name_kinds = _DECL_NAME_KINDS.get(ast.language, ("SymbolDefun",))
    owner_kinds = _METHOD_OWNER_KINDS.get(ast.language, ("Defun",))
    out = []
    for node in ast.root.walk():
        if node.kind in owner_kinds:
            for child in node.children:
                if child.kind in name_kinds:
                    out.append(child)
                    break
    return out


def _invocation_names(ast: Ast) -> Dict[str, List[Node]]:
    """Callee name -> same-file invocation-site name nodes, in walk order."""
    calls: Dict[str, List[Node]] = {}
    kinds = _CALL_KINDS.get(ast.language)
    if kinds is None:
        return calls
    call_kind, callee_kind = kinds
    for node in ast.root.walk():
        if node.kind == call_kind and node.children:
            callee = node.children[0]
            if callee.kind == callee_kind:
                calls.setdefault(callee.value, []).append(callee)
    return calls


def method_elements(ast: Ast) -> Dict[str, Dict[str, object]]:
    """key -> {gold, decl_node, occurrences, body_root} for each method."""
    calls = _invocation_names(ast)
    out: Dict[str, Dict[str, object]] = {}
    for i, decl in enumerate(_declaration_names(ast)):
        gold = decl.value or ""
        out[f"method:{i}:{gold}"] = {
            "gold": gold,
            "decl_node": decl,
            "occurrences": [decl] + calls.get(gold, []),
            "body_root": decl.parent,
        }
    return out


def build_method_graph(
    ast: Ast,
    extractor: PathExtractor,
    name: str = "",
    use_external: bool = True,
) -> CrfGraph:
    """CRF graph whose unknowns are the file's method names."""
    graph = CrfGraph(name=name, space=extractor.space)
    elements = method_elements(ast)
    for key, info in elements.items():
        graph.add_unknown(key, gold=str(info["gold"]))

    # Nodes that are method-name occurrences must never appear as "known"
    # neighbours of another method (their labels are being predicted).
    occupied = {id(n) for info in elements.values() for n in info["occurrences"]}

    def add_known(index: int, table: PathTable) -> None:
        nodes = table.nodes
        for _, s, e, up, down, top in table.rows:
            if id(nodes[e]) not in occupied:
                graph.add_known_factor(index, table.rel_id(s, e, up, down, top), table.value_id(e))

    for key, info in elements.items():
        index = graph.index_of(key)
        assert index is not None
        decl = info["decl_node"]
        body_root = info["body_root"]
        occurrences: List[Node] = list(info["occurrences"])  # type: ignore[arg-type]

        # Internal paths: declaration name -> leaves of the method body.
        internal_targets = [
            leaf for leaf in body_root.leaves() if leaf is not decl
        ] if body_root is not None else []
        add_known(index, extractor.extract_between([decl], internal_targets))

        if use_external:
            for call_site in occurrences[1:]:
                # External paths: invocation name -> surrounding leaves of
                # the *calling* context (outside the method body).
                surrounding = _surrounding_leaves(ast, call_site)
                add_known(index, extractor.extract_between([call_site], surrounding))
                # Unary factors between occurrences of the method name.
                unary = extractor.extract_between([decl], [call_site], enforce_limits=False)
                for _, s, e, up, down, top in unary.rows:
                    graph.add_unary_factor(index, unary.rel_id(s, e, up, down, top))
    graph.columnar()  # group the factor rows per node while building
    return graph


def _surrounding_leaves(ast: Ast, node: Node, window: int = 12) -> List[Node]:
    """Leaves near an invocation site, by leaf order."""
    try:
        center = ast.leaf_index(node)
    except ValueError:
        return []
    lo = max(0, center - window)
    hi = min(len(ast.leaves), center + window + 1)
    return [leaf for leaf in ast.leaves[lo:hi] if leaf is not node]
