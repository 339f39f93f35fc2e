"""Full-type prediction for Java (Sec. 5.3.3).

Targets are expressions whose fully-qualified type the frontend's local
inference oracle could determine (``meta["type"]``) -- the paper likewise
evaluates "only those that could be solved by a global type inference
engine".  Targets include nonterminals (method calls, binary expressions,
conditionals), so this task exercises paths between terminals and
*nonterminal* path ends.

Occurrences of one variable (same binding) share a type and merge into a
single element; other expressions are one element per occurrence.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from ..core.ast_model import Ast, Node
from ..core.extraction import PathExtractor
from ..learning.crf.graph import CrfGraph

#: Literal node kinds are excluded: their types are lexically trivial.
_EXCLUDED_KINDS = frozenset(
    {
        "IntegerLiteral",
        "DoubleLiteral",
        "BooleanLiteral",
        "CharLiteral",
        "NullLiteral",
        "ThisExpr",
        "StringLiteral",
        "SimpleName",
        "Parameter",
        "VariableDeclarator",
        "VariableDeclarationExpr",
    }
)

#: Primitive types are excluded from the task: the paper predicts *full*
#: (package-qualified) types, which only reference types have.
_PRIMITIVE_TYPES = frozenset(
    {"int", "long", "double", "float", "boolean", "char", "byte", "short", "void"}
)


def typed_targets(ast: Ast) -> List[Node]:
    """Expression nodes participating in the type task.

    Reference-typed expressions whose full type the oracle determined;
    primitives are out of scope (they have no package-qualified form).
    """
    targets = []
    for node in ast.root.walk():
        node_type = node.meta.get("type")
        if node_type is None or node_type in _PRIMITIVE_TYPES:
            continue
        if node.kind in _EXCLUDED_KINDS:
            continue
        targets.append(node)
    return targets


def _element_key(node: Node, counter: Dict[str, int]) -> str:
    """Merge variable occurrences by binding; others are per-occurrence."""
    binding = node.meta.get("binding")
    if node.kind == "NameExpr" and binding:
        return f"var:{binding}"
    counter["n"] += 1
    return f"expr:{counter['n']}:{node.kind}"


def build_type_graph(
    ast: Ast, extractor: PathExtractor, name: str = ""
) -> CrfGraph:
    """CRF graph whose unknowns are typed expressions; gold = full type."""
    graph = CrfGraph(name=name, space=extractor.space)
    counter = {"n": 0}
    occurrences: Dict[str, List[Node]] = defaultdict(list)
    golds: Dict[str, str] = {}

    for node in typed_targets(ast):
        key = _element_key(node, counter)
        occurrences[key].append(node)
        golds[key] = str(node.meta["type"])

    for key, nodes in occurrences.items():
        graph.add_unknown(key, gold=golds[key])

    for key, nodes in occurrences.items():
        index = graph.index_of(key)
        assert index is not None
        for node in nodes:
            table = extractor.extract_between([node], _nearby_leaves(ast, node))
            for _, s, e, up, down, top in table.rows:
                graph.add_known_factor(index, table.rel_id(s, e, up, down, top), table.value_id(e))
        # Unary factors between occurrences of the same variable.
        if len(nodes) > 1:
            unary = extractor.extract_between(nodes[:1], nodes[1:], enforce_limits=False)
            for _, s, e, up, down, top in unary.rows:
                graph.add_unary_factor(index, unary.rel_id(s, e, up, down, top))
    graph.columnar()  # group the factor rows per node while building
    return graph


def _nearby_leaves(ast: Ast, node: Node, window: int = 16) -> List[Node]:
    """Candidate far-endpoints for one expression node.

    For a terminal target we use the leaf-order window; for a nonterminal
    we use the leaves around (and inside) its own span.
    """
    if node.is_terminal:
        try:
            center = ast.leaf_index(node)
        except ValueError:
            return []
        lo = max(0, center - window)
        hi = min(len(ast.leaves), center + window + 1)
        return [leaf for leaf in ast.leaves[lo:hi] if leaf is not node]
    inner = list(node.leaves())
    if not inner:
        return []
    try:
        first = ast.leaf_index(inner[0])
        last = ast.leaf_index(inner[-1])
    except ValueError:
        return inner
    lo = max(0, first - window // 2)
    hi = min(len(ast.leaves), last + window // 2 + 1)
    return [leaf for leaf in ast.leaves[lo:hi]]
