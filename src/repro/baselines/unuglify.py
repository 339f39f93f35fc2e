"""UnuglifyJS-style hand-crafted relations (Raychev et al. [40]).

The original system derives relations between identifiers from an
explicit grammar; crucially, "the possible relationships span only a
single statement, and do not include relationships that involve
conditional statements or loops" (Sec. 6 of the paper).  We reproduce
exactly that: identifiers related within one statement's expression
subtree, with the relation being the syntactic path *inside that
statement*; nothing crosses a control-flow boundary.

This reproduces the paper's Fig. 3: the flag-loop program and its
straight-line shuffling produce identical relation sets here, while AST
paths distinguish them.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..core.ast_model import Ast, Node
from ..core.paths import path_between
from ..core.abstractions import alpha_id
from ..core.interning import FeatureSpace
from ..learning.crf.graph import CrfGraph
from ..tasks.variable_naming import RENAMEABLE_KINDS, element_groups

#: Node kinds that delimit statements / control flow.  Relations never
#: cross these boundaries.
_CONTROL_KINDS = frozenset(
    {
        # JavaScript
        "Toplevel", "Defun", "Function", "While", "Do", "For", "ForIn", "If",
        "Else", "Block", "Try", "TryBody", "Catch", "Finally",
        # Java
        "CompilationUnit", "ClassDeclaration", "InterfaceDeclaration",
        "MethodDeclaration", "ConstructorDeclaration", "WhileStmt", "DoStmt",
        "ForStmt", "ForeachStmt", "IfStmt", "ElseStmt", "BlockStmt", "TryStmt",
        "TryBody", "CatchClause", "FinallyBlock",
        # Python
        "Module", "FunctionDef", "ClassDef", "While2", "If2",
        # C#
        "NamespaceDeclaration", "Block", "WhileStatement", "DoStatement",
        "ForStatement", "ForEachStatement", "IfStatement", "ElseClause",
        "TryStatement",
    }
)


def _statement_roots(root: Node) -> Iterator[Node]:
    """Maximal expression subtrees that do not contain control flow.

    These are the "single statements" whose internal structure the
    hand-crafted grammar can see.
    """
    for node in root.walk():
        if node.kind in _CONTROL_KINDS:
            continue
        parent = node.parent
        if parent is None or parent.kind in _CONTROL_KINDS:
            yield node


def _identifier_leaves(statement: Node) -> List[Node]:
    out = []
    stack = [statement]
    while stack:
        node = stack.pop()
        if node.kind in _CONTROL_KINDS and node is not statement:
            continue  # nested control flow (e.g. a function expression)
        if node.is_terminal and node.value is not None:
            out.append(node)
        stack.extend(reversed(node.children))
    return out


def _binding_of(node: Node) -> Optional[str]:
    if node.meta.get("id_kind") in RENAMEABLE_KINDS:
        return node.meta.get("binding")
    return None


def build_unuglify_graph(
    ast: Ast, name: str = "", space: Optional[FeatureSpace] = None
) -> CrfGraph:
    """CRF graph over hand-crafted single-statement relations.

    Relations and labels intern into ``space`` (a private one if None);
    to train or score with a pipeline, pass its ``pipeline.space``.
    """
    graph = CrfGraph(name=name, space=space)
    for binding, occurrences in element_groups(ast).items():
        graph.add_unknown(binding, gold=occurrences[0].value or "")

    for statement in _statement_roots(ast.root):
        leaves = _identifier_leaves(statement)
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                a, b = leaves[i], leaves[j]
                binding_a, binding_b = _binding_of(a), _binding_of(b)
                if binding_a is None and binding_b is None:
                    continue
                path = path_between(a, b)
                rel = "stmt:" + alpha_id(path)
                rel_back = "stmt:" + alpha_id(path.reversed())
                if binding_a is not None and binding_a == binding_b:
                    index = graph.index_of(binding_a)
                    if index is not None:
                        graph.add_unary_factor(index, rel)
                elif binding_a is not None and binding_b is not None:
                    ia, ib = graph.index_of(binding_a), graph.index_of(binding_b)
                    if ia is not None and ib is not None:
                        graph.add_unknown_factor(ia, ib, rel, rel_back)
                elif binding_a is not None:
                    index = graph.index_of(binding_a)
                    if index is not None:
                        graph.add_known_factor(index, rel, b.value or b.kind)
                else:
                    index = graph.index_of(binding_b)  # type: ignore[arg-type]
                    if index is not None:
                        graph.add_known_factor(index, rel_back, a.value or a.kind)
    return graph
