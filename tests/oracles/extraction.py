"""String-level oracles for path extraction and the views of the three tasks.

:class:`ReferencePathExtractor` is the original quadratic extractor:
enumerate every terminal pair, climb to the LCA, filter by length and
width afterwards, and materialise one :class:`~repro.core.paths.AstPath`
plus its full string context per path, eagerly.  The reversed relation
of a path is ``alpha(path.reversed())``, computed per call.

:func:`build_crf_graph` and :func:`element_contexts` are the per-path
variable-naming view builders: one ``_add_factor`` call per extracted
path, relation ids taken from those string contexts.
:func:`build_method_graph` and :func:`build_type_graph` are the per-path
method-naming and type-prediction builders: they connect the elements
through :meth:`ReferencePathExtractor.paths_from`, which climbs to the
LCA with :func:`~repro.core.paths.path_between` and records one
:class:`ExtractedPath` per (source, target) pair.  The product's single
bottom-up pass, its anchored rows, its path table and its chain-keyed
id resolution must reproduce these views exactly once ids are decoded
back to strings.

:func:`table_rows` materialises a product
:class:`~repro.core.extraction.PathTable` as :class:`ExtractedPath`
records, resolving every row in order, for tests that compare rows;
:func:`row_nodes` reads its rows with nodes for endpoint indices.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.ast_model import Ast, Node
from repro.core.extraction import ExtractionConfig, PathTable, ast_fingerprint
from repro.core.interning import FeatureSpace
from repro.core.path_context import PathContext, endpoint_value
from repro.core.paths import UP, AstPath, path_between
from repro.learning.crf.graph import CrfGraph
from repro.tasks.method_naming import _declaration_names, _surrounding_leaves
from repro.tasks.type_prediction import _element_key, _nearby_leaves, typed_targets
from repro.tasks.variable_naming import PLACEHOLDER, W2vToken, _binding_of, element_groups


class ExtractedPath:
    """One extracted path occurrence: concrete endpoints + abstract context.

    ``rel_id`` / ``start_value_id`` / ``end_value_id`` are the interned
    ids of the abstract path encoding and the endpoint values, and
    :attr:`context` their ``<xs, alpha(p), xf>`` string triple.
    """

    __slots__ = ("start", "end", "path", "context", "rel_id", "start_value_id", "end_value_id")

    def __init__(
        self,
        start: Node,
        end: Node,
        path: AstPath,
        context: PathContext,
        rel_id: int,
        start_value_id: int,
        end_value_id: int,
    ) -> None:
        self.start = start
        self.end = end
        self.path = path
        self.context = context
        self.rel_id = rel_id
        self.start_value_id = start_value_id
        self.end_value_id = end_value_id

    @property
    def is_semi(self) -> bool:
        """True when one endpoint is an ancestor of the other."""
        return not (self.start.is_terminal and self.end.is_terminal)


def semi_path(leaf: Node, ancestor: Node) -> AstPath:
    """A semi-path: from a terminal up to one of its ancestors.

    Raises ``ValueError`` when ``ancestor`` is not actually an ancestor of
    ``leaf``.
    """
    nodes: List[Node] = [leaf]
    node: Optional[Node] = leaf
    while node is not None and node is not ancestor:
        node = node.parent
        if node is not None:
            nodes.append(node)
    if node is not ancestor:
        raise ValueError("second node is not an ancestor of the first")
    return AstPath(nodes, [UP] * (len(nodes) - 1))


def make_path_context(
    path: AstPath,
    abstraction: Optional[Callable[[AstPath], str]] = None,
    start_value: Optional[str] = None,
    end_value: Optional[str] = None,
) -> PathContext:
    """Build a :class:`PathContext` from a concrete path.

    ``abstraction`` defaults to the identity abstraction (full encoding).
    ``start_value`` / ``end_value`` override the endpoint values.
    """
    encoded = path.encode() if abstraction is None else abstraction(path)
    xs = endpoint_value(path.start) if start_value is None else start_value
    xf = endpoint_value(path.end) if end_value is None else end_value
    return PathContext(xs, encoded, xf)


def table_rows(table: PathTable) -> List[ExtractedPath]:
    """Every row of a product table as an :class:`ExtractedPath`, in order.

    Ids are resolved row by row (start value, relation, end value), as
    :meth:`~repro.core.extraction.PathTable.triples` does; the concrete
    path is rebuilt with :func:`~repro.core.paths.path_between`.
    """
    paths, values = table.space.paths, table.space.values
    return [
        ExtractedPath(
            start,
            end,
            path_between(start, end),
            PathContext(values.value(start_id), paths.value(rel_id), values.value(end_id)),
            rel_id,
            start_id,
            end_id,
        )
        for (start, end, _, _, _), (start_id, rel_id, end_id) in zip(
            row_nodes(table), table.triples()
        )
    ]


def row_nodes(table: PathTable) -> List[Tuple[Node, Node, int, int, Node]]:
    """``(start, end, up, down, top)`` of every row of a product table,
    with its endpoints and top as nodes."""
    out = []
    for _, start, end, up, down, _ in table.rows:
        top = table.nodes[start]
        for _ in range(up):
            top = top.parent
        out.append((table.nodes[start], table.nodes[end], up, down, top))
    return out


class ReferencePathExtractor:
    """The naive all-pairs extractor, kept as the correctness oracle.

    Same constructor and config as
    :class:`~repro.core.extraction.PathExtractor`; ``extract`` and
    ``paths_from`` return lists of :class:`ExtractedPath` whose string
    contexts are built eagerly and whose ids are interned from those
    strings, path by path.
    """

    def __init__(
        self,
        config: Optional[ExtractionConfig] = None,
        space: Optional[FeatureSpace] = None,
        **overrides,
    ) -> None:
        if config is None:
            config = ExtractionConfig()
        if overrides:
            config = ExtractionConfig(**{**config.__dict__, **overrides})
        config.validate()
        self.config = config
        self.space = space if space is not None else FeatureSpace()
        self._alpha = config.resolve_abstraction()
        self._rng = random.Random(config.seed)

    def extract(self, ast: Ast) -> List[ExtractedPath]:
        rng = self._rng_for(ast)
        out = list(self._leafwise(ast, rng))
        if self.config.include_semi_paths:
            out.extend(self._semi_paths(ast, rng))
        return out

    def paths_from(
        self, sources: Sequence[Node], targets: Iterable[Node], enforce_limits: bool = True
    ) -> List[ExtractedPath]:
        cfg = self.config
        out: List[ExtractedPath] = []
        target_list = list(targets)
        for src in sources:
            for dst in target_list:
                if src is dst:
                    continue
                path = path_between(src, dst)
                if enforce_limits and (
                    path.length > cfg.max_length or path.width > cfg.max_width
                ):
                    continue
                if not self._keep(self._rng):
                    continue
                out.append(self._record(src, dst, path))
        return out

    def reversed_rel_id(self, extracted: ExtractedPath) -> int:
        """The relation of the same path read from the other end."""
        return self.space.paths.intern(self._alpha(extracted.path.reversed()))

    def _record(self, start: Node, end: Node, path: AstPath) -> ExtractedPath:
        context = make_path_context(path, self._alpha)
        space = self.space
        return ExtractedPath(
            start,
            end,
            path,
            context,
            rel_id=space.paths.intern(context.path),
            start_value_id=space.values.intern(context.start_value),
            end_value_id=space.values.intern(context.end_value),
        )

    def _leafwise(self, ast: Ast, rng: random.Random):
        cfg = self.config
        leaves = ast.leaves
        if cfg.leaf_filter is not None:
            leaves = [l for l in leaves if cfg.leaf_filter(l)]
        depths = {id(n): n.depth() for n in ast.root.walk()}
        for i in range(len(leaves)):
            a = leaves[i]
            for j in range(i + 1, len(leaves)):
                b = leaves[j]
                # Cheap length pre-check via the LCA depth bound: the true
                # path length is depth(a)+depth(b)-2*depth(lca) and the lca
                # is no deeper than min(depth(a), depth(b)).
                if abs(depths[id(a)] - depths[id(b)]) > cfg.max_length:
                    continue
                path = path_between(a, b)
                if path.length > cfg.max_length or path.width > cfg.max_width:
                    continue
                if not self._keep(rng):
                    continue
                yield self._record(a, b, path)

    def _semi_paths(self, ast: Ast, rng: random.Random):
        cfg = self.config
        leaves = ast.leaves
        if cfg.leaf_filter is not None:
            leaves = [l for l in leaves if cfg.leaf_filter(l)]
        for leaf in leaves:
            length = 0
            node = leaf.parent
            while node is not None and length < cfg.max_length:
                length += 1
                if length >= cfg.semi_path_min_length and self._keep(rng):
                    yield self._record(leaf, node, semi_path(leaf, node))
                node = node.parent

    def _rng_for(self, ast: Ast) -> random.Random:
        if self.config.downsample_p >= 1.0:
            return self._rng
        return random.Random(self.config.seed ^ ast_fingerprint(ast))

    def _keep(self, rng: random.Random) -> bool:
        p = self.config.downsample_p
        return p >= 1.0 or rng.random() < p


# ----------------------------------------------------------------------
# Per-path view builders
# ----------------------------------------------------------------------


def build_crf_graph(ast: Ast, extractor: ReferencePathExtractor, name: str = "") -> CrfGraph:
    """The variable-naming CRF graph, one ``_add_factor`` per path."""
    graph = CrfGraph(name=name, space=extractor.space)
    for binding, occurrences in element_groups(ast).items():
        graph.add_unknown(binding, gold=occurrences[0].value or "")
    for extracted in extractor.extract(ast):
        _add_factor(graph, extractor, extracted)
    return graph


def _invocation_names(ast: Ast, method_name: str) -> List[Node]:
    """Same-file invocation-site name nodes matching one method name."""
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


def build_method_graph(
    ast: Ast, extractor: ReferencePathExtractor, name: str = "", use_external: bool = True
) -> CrfGraph:
    """The method-naming CRF graph, one walk per method for its call
    sites and one :class:`ExtractedPath` per connected pair."""
    graph = CrfGraph(name=name, space=extractor.space)
    methods = {}
    for i, decl in enumerate(_declaration_names(ast)):
        gold = decl.value or ""
        methods[f"method:{i}:{gold}"] = (decl, [decl] + _invocation_names(ast, gold))
    for key, (decl, _occurrences) in methods.items():
        graph.add_unknown(key, gold=decl.value or "")
    occupied = {id(n) for _decl, occurrences in methods.values() for n in occurrences}

    for key, (decl, occurrences) in methods.items():
        index = graph.index_of(key)
        body_root = decl.parent
        internal_targets = [
            leaf for leaf in body_root.leaves() if leaf is not decl
        ] if body_root is not None else []
        for extracted in extractor.paths_from([decl], internal_targets):
            if id(extracted.end) not in occupied:
                graph.add_known_factor(index, extracted.rel_id, extracted.end_value_id)
        if use_external:
            for call_site in occurrences[1:]:
                surrounding = _surrounding_leaves(ast, call_site)
                for extracted in extractor.paths_from([call_site], surrounding):
                    if id(extracted.end) not in occupied:
                        graph.add_known_factor(index, extracted.rel_id, extracted.end_value_id)
                for extracted in extractor.paths_from([decl], [call_site], enforce_limits=False):
                    graph.add_unary_factor(index, extracted.rel_id)
    return graph


def build_type_graph(ast: Ast, extractor: ReferencePathExtractor, name: str = "") -> CrfGraph:
    """The type-prediction CRF graph, one :class:`ExtractedPath` per
    (expression, nearby leaf) pair and per pair of variable occurrences."""
    graph = CrfGraph(name=name, space=extractor.space)
    counter = {"n": 0}
    occurrences: Dict[str, List[Node]] = defaultdict(list)
    golds: Dict[str, str] = {}
    for node in typed_targets(ast):
        key = _element_key(node, counter)
        occurrences[key].append(node)
        golds[key] = str(node.meta["type"])
    for key in occurrences:
        graph.add_unknown(key, gold=golds[key])
    for key, nodes in occurrences.items():
        index = graph.index_of(key)
        for node in nodes:
            for extracted in extractor.paths_from([node], _nearby_leaves(ast, node)):
                graph.add_known_factor(index, extracted.rel_id, extracted.end_value_id)
        if len(nodes) > 1:
            for extracted in extractor.paths_from(nodes[:1], nodes[1:], enforce_limits=False):
                graph.add_unary_factor(index, extracted.rel_id)
    return graph


def _add_factor(
    graph: CrfGraph, extractor: ReferencePathExtractor, extracted: ExtractedPath
) -> None:
    start_binding = _binding_of(extracted.start)
    end_binding = _binding_of(extracted.end)
    if start_binding is None and end_binding is None:
        return
    rel_forward = extracted.rel_id

    if start_binding is not None and start_binding == end_binding:
        index = graph.index_of(start_binding)
        if index is not None:
            graph.add_unary_factor(index, rel_forward)
        return

    rel_backward = extractor.reversed_rel_id(extracted)
    if start_binding is not None and end_binding is not None:
        a = graph.index_of(start_binding)
        b = graph.index_of(end_binding)
        if a is not None and b is not None:
            graph.add_unknown_factor(a, b, rel_forward, rel_backward)
        return

    if start_binding is not None:
        index = graph.index_of(start_binding)
        if index is not None:
            graph.add_known_factor(index, rel_forward, extracted.end_value_id)
        return

    index = graph.index_of(end_binding)  # type: ignore[arg-type]
    if index is not None:
        graph.add_known_factor(index, rel_backward, extracted.start_value_id)


def element_contexts(
    ast: Ast, extractor: ReferencePathExtractor
) -> Dict[str, Tuple[str, List[W2vToken]]]:
    """binding -> (gold name, context id-pair tokens), one path at a time."""
    groups = element_groups(ast)
    contexts: Dict[str, List[W2vToken]] = {binding: [] for binding in groups}
    placeholder_id = extractor.space.values.intern(PLACEHOLDER)
    for extracted in extractor.extract(ast):
        start_binding = _binding_of(extracted.start)
        end_binding = _binding_of(extracted.end)
        if start_binding is None and end_binding is None:
            continue
        if start_binding is not None and start_binding == end_binding:
            continue
        if start_binding is not None:
            other = placeholder_id if end_binding is not None else extracted.end_value_id
            contexts[start_binding].append((extracted.rel_id, other))
        if end_binding is not None:
            rel_back = extractor.reversed_rel_id(extracted)
            other = placeholder_id if start_binding is not None else extracted.start_value_id
            contexts[end_binding].append((rel_back, other))
    return {
        binding: (groups[binding][0].value or "", tokens)
        for binding, tokens in contexts.items()
    }
