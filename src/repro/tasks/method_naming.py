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

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.ast_model import Ast, Node
from ..core.extraction import PathExtractor
from ..core.path_context import endpoint_value
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


def _invocation_names(ast: Ast, method_name: str) -> List[Node]:
    """Same-file invocation-site name nodes matching a method name."""
    language = ast.language
    matches: List[Node] = []
    for node in ast.root.walk():
        if language == "javascript":
            if node.kind == "Call" and node.children:
                callee = node.children[0]
                if callee.kind == "SymbolRef" and callee.value == method_name:
                    matches.append(callee)
        elif language == "java":
            if node.kind == "MethodCallExpr" and node.children:
                first = node.children[0]
                if first.kind == "SimpleName" and first.value == method_name:
                    matches.append(first)
        elif language == "python":
            if node.kind == "Call" and node.children:
                callee = node.children[0]
                if callee.kind == "Name" and callee.value == method_name:
                    matches.append(callee)
        elif language == "csharp":
            if node.kind == "InvocationExpression" and node.children:
                callee = node.children[0]
                if callee.kind == "IdentifierName" and callee.value == method_name:
                    matches.append(callee)
    return matches


def method_elements(ast: Ast) -> Dict[str, Dict[str, object]]:
    """key -> {gold, decl_node, occurrences, body_root} for each method."""
    out: Dict[str, Dict[str, object]] = {}
    for i, decl in enumerate(_declaration_names(ast)):
        gold = decl.value or ""
        occurrences = [decl] + _invocation_names(ast, gold)
        out[f"method:{i}:{gold}"] = {
            "gold": gold,
            "decl_node": decl,
            "occurrences": occurrences,
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
    add_method_factors(graph, ast, extractor, elements, use_external=use_external)
    return graph


def add_method_factors(
    graph: CrfGraph,
    ast: Ast,
    extractor: PathExtractor,
    elements: Dict[str, Dict[str, object]],
    use_external: bool = True,
) -> None:
    """Attach the method-naming factors for ``elements`` to ``graph``.

    Called by :func:`build_method_graph`; a separate function so the
    reference view builder in the test oracles can attach the same
    factors through its own extractor.
    """
    # Nodes that are method-name occurrences must never appear as "known"
    # neighbours of another method (their labels are being predicted).
    occupied = {id(n) for info in elements.values() for n in info["occurrences"]}

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
        for extracted in extractor.paths_from([decl], internal_targets):
            if id(extracted.end) in occupied:
                continue
            graph.add_known_factor(index, extracted.rel_id, extracted.end_value_id)

        if use_external:
            for call_site in occurrences[1:]:
                # External paths: invocation name -> surrounding leaves of
                # the *calling* context (outside the method body).
                surrounding = _surrounding_leaves(ast, call_site, extractor)
                for extracted in extractor.paths_from([call_site], surrounding):
                    if id(extracted.end) in occupied:
                        continue
                    graph.add_known_factor(
                        index, extracted.rel_id, extracted.end_value_id
                    )
                # Unary factors between occurrences of the method name.
                for extracted in extractor.paths_from(
                    [decl], [call_site], enforce_limits=False
                ):
                    graph.add_unary_factor(index, extracted.rel_id)


def _surrounding_leaves(
    ast: Ast, node: Node, extractor: PathExtractor, window: int = 12
) -> List[Node]:
    """Leaves near an invocation site, by leaf order."""
    try:
        center = ast.leaf_index(node)
    except ValueError:
        return []
    lo = max(0, center - window)
    hi = min(len(ast.leaves), center + window + 1)
    return [leaf for leaf in ast.leaves[lo:hi] if leaf is not node]
