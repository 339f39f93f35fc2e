"""String-level oracles for path extraction and the variable-naming views.

:class:`ReferencePathExtractor` is the original quadratic extractor:
enumerate every terminal pair, climb to the LCA, filter by length and
width afterwards, and materialise one :class:`~repro.core.paths.AstPath`
plus its full string context per path, eagerly.  The reversed relation
of a path is ``alpha(path.reversed())``, computed per call.

:func:`build_crf_graph`, :func:`element_contexts` and
:func:`build_translate_graph` are the per-path view builders: one
``_add_factor`` call per extracted path, relation ids taken from those
string contexts.  The product's single bottom-up pass, its path table
and its chain-keyed id resolution must reproduce these views exactly
once ids are decoded back to strings.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.ast_model import Ast, Node
from repro.core.extraction import ExtractedPath, ExtractionConfig, ast_fingerprint
from repro.core.interning import DEFAULT_SPACE, FeatureSpace
from repro.core.path_context import PathContext, make_path_context
from repro.core.paths import AstPath, path_between, semi_path
from repro.learning.crf.graph import CrfGraph
from repro.tasks.method_naming import add_method_factors, method_elements
from repro.tasks.variable_naming import PLACEHOLDER, W2vToken, _binding_of, element_groups


class ReferencePathExtractor:
    """The naive all-pairs extractor, kept as the correctness oracle.

    Same constructor and config as
    :class:`~repro.core.extraction.PathExtractor`; ``extract`` returns a
    list of :class:`~repro.core.extraction.ExtractedPath` whose string
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
        self.space = space if space is not None else DEFAULT_SPACE
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

    def context_for(
        self, path: AstPath, start_value: Optional[str] = None, end_value: Optional[str] = None
    ) -> PathContext:
        return make_path_context(path, self._alpha, start_value, end_value)

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
            space=space,
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


def build_translate_graph(
    ast: Ast, extractor: ReferencePathExtractor, name: str = ""
) -> CrfGraph:
    """The translate graph: variable unknowns, then method unknowns."""
    graph = CrfGraph(name=name, space=extractor.space)
    for binding, occurrences in element_groups(ast).items():
        graph.add_unknown(binding, gold=occurrences[0].value or "")
    methods = method_elements(ast)
    for key, info in methods.items():
        graph.add_unknown(key, gold=str(info["gold"]))
    for extracted in extractor.extract(ast):
        _add_factor(graph, extractor, extracted)
    add_method_factors(graph, ast, extractor, methods)
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
