"""Variable-name prediction (Sec. 5.3.1).

The renameable program elements are local variables and parameters --
the names that minification strips in JavaScript and obfuscation strips
elsewhere.  All AST occurrences of one element (one frontend ``binding``)
merge into a single CRF node; paths between occurrences of the *same*
element become unary factors, paths to fixed-label neighbours become
pairwise factors, and paths between two renameable elements become
unknown-unknown factors.

Both views read the extractor's :class:`~repro.core.extraction.PathTable`
directly.  A row with no renameable element at either end is skipped
before any id is resolved; the rows kept resolve their relation id (and,
where a factor needs it, the reversed relation) from the chain-keyed
shape cache, and the far endpoint's value id once per node.  No path
string and no path object is built on this route, except on a
shape-cache miss.  So a model's path vocab holds only relations seen
next to an element.

The same extraction drives word2vec: each (element, path-context) pair
becomes an SGNS training pair whose context token is the id pair
``(rel_id, other-endpoint value id)``.  Endpoints that are themselves
renameable elements are replaced by a placeholder so gold names never
leak into contexts.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from ..core.ast_model import Ast, Node
from ..core.extraction import PathExtractor, PathTable
from ..core.interning import FeatureSpace
from ..learning.crf.graph import CrfGraph, KnownNeighbor, UnknownEdge

#: ``meta["id_kind"]`` values that are prediction targets.
RENAMEABLE_KINDS = frozenset({"local", "param"})

#: Placeholder for the value of an unknown element inside a context.
PLACEHOLDER = "?"

#: Separator inside a *decoded* word2vec context token.
CONTEXT_SEP = "\x1d"

#: A word2vec context token: (relation id, other-endpoint value id).
W2vToken = Tuple[int, int]


def _binding_of(node: Node) -> Optional[str]:
    """The element key of a renameable identifier occurrence, else None."""
    if node.meta.get("id_kind") in RENAMEABLE_KINDS:
        return node.meta.get("binding")
    return None


def element_groups(ast: Ast) -> Dict[str, List[Node]]:
    """binding -> occurrence leaves, for every renameable element."""
    groups: Dict[str, List[Node]] = defaultdict(list)
    for leaf in ast.leaves:
        binding = _binding_of(leaf)
        if binding is not None:
            groups[binding].append(leaf)
    return dict(groups)


def build_crf_graph(
    ast: Ast, extractor: PathExtractor, name: str = ""
) -> CrfGraph:
    """Build the CRF factor graph of one program for variable naming."""
    graph = CrfGraph(name=name, space=extractor.space)
    groups = element_groups(ast)
    for binding, occurrences in groups.items():
        graph.add_unknown(binding, gold=occurrences[0].value or "")
    add_path_factors(graph, extractor.extract(ast), groups)
    return graph


def add_path_factors(
    graph: CrfGraph, table: PathTable, groups: Dict[str, List[Node]]
) -> None:
    """Add the factors of every path with an element at one or both ends.

    ``groups`` are the elements (see :func:`element_groups`), each
    already an unknown of ``graph``.  Rows with no element endpoint are
    skipped before any id is resolved, and a reversed relation is
    resolved only for the rows that need one.  Factors are appended to
    the node lists in row order, before the graph's first
    :meth:`~repro.learning.crf.graph.CrfGraph.columnar` call.
    """
    node_index = {
        leaf: graph.index_of(binding)
        for binding, occurrences in groups.items()
        for leaf in occurrences
    }
    get = node_index.get
    unknowns = graph.unknowns
    for i, (start, end) in enumerate(zip(table.starts, table.ends)):
        a = get(start)
        b = get(end)
        if a is None:
            if b is not None:
                unknowns[b].known.append(
                    KnownNeighbor(table.reversed_rel_id(i), table.value_id(start))
                )
        elif b is None:
            unknowns[a].known.append(KnownNeighbor(table.rel_id(i), table.value_id(end)))
        elif a == b:
            unknowns[a].unary.append(table.rel_id(i))
        else:
            unknowns[a].edges.append(UnknownEdge(table.rel_id(i), b))
            unknowns[b].edges.append(UnknownEdge(table.reversed_rel_id(i), a))


# ----------------------------------------------------------------------
# word2vec view of the same extraction
# ----------------------------------------------------------------------


def context_token(rel: str, other_label: str) -> str:
    """Serialise (relation, neighbour label) into one *string* token.

    Kept for token-stream baselines and debugging output; the AST-path
    pipeline passes interned :data:`W2vToken` id pairs instead.
    """
    return f"{rel}{CONTEXT_SEP}{other_label}"


def decode_w2v_token(token: W2vToken, space: FeatureSpace) -> str:
    """Render an interned (rel_id, value_id) token in the string form."""
    rel_id, value_id = token
    return context_token(space.paths.value(rel_id), space.values.value(value_id))


def element_contexts(
    ast: Ast, extractor: PathExtractor
) -> Dict[str, Tuple[str, List[W2vToken]]]:
    """binding -> (gold name, context id-pair tokens) for word2vec.

    Other unknown elements appearing at the far endpoint are masked with
    :data:`PLACEHOLDER` so that the gold assignment never leaks.
    """
    groups = element_groups(ast)
    contexts: Dict[str, List[W2vToken]] = {binding: [] for binding in groups}
    placeholder_id = extractor.space.values.intern(PLACEHOLDER)
    binding_of = {leaf: binding for binding, leaves in groups.items() for leaf in leaves}.get

    table = extractor.extract(ast)
    for i, (start, end) in enumerate(zip(table.starts, table.ends)):
        start_binding = binding_of(start)
        end_binding = binding_of(end)
        if start_binding is None and end_binding is None:
            continue
        if start_binding == end_binding:
            continue  # self-contexts would pair a name with itself
        if start_binding is not None:
            other = placeholder_id if end_binding is not None else table.value_id(end)
            contexts[start_binding].append((table.rel_id(i), other))
        if end_binding is not None:
            other = placeholder_id if start_binding is not None else table.value_id(start)
            contexts[end_binding].append((table.reversed_rel_id(i), other))

    return {
        binding: (groups[binding][0].value or "", tokens)
        for binding, tokens in contexts.items()
    }


def extract_w2v_pairs(
    ast: Ast, extractor: PathExtractor
) -> List[Tuple[str, W2vToken]]:
    """(gold name, context id-pair token) training pairs for SGNS."""
    pairs: List[Tuple[str, W2vToken]] = []
    for _binding, (gold, tokens) in element_contexts(ast, extractor).items():
        for token in tokens:
            pairs.append((gold, token))
    return pairs
