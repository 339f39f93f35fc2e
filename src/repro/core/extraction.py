"""Path-context extraction with the paper's hyper-parameters (Sec. 4.2, 5.5).

:class:`PathExtractor` walks an :class:`repro.core.ast_model.Ast` and
produces :class:`ExtractedPath` records for

* every pair of terminals whose connecting path respects ``max_length``
  and ``max_width`` (leafwise paths), and
* optionally, every (terminal, ancestor) semi-path within ``max_length``.

Leafwise extraction is a **single bottom-up pass**: one post-order
traversal merges per-child leaf lists bucketed by depth, so a pair of
terminals is considered exactly once -- at its lowest common ancestor --
and pairs whose path would exceed ``max_length`` or ``max_width`` are
pruned *before* any path is materialised.  The naive all-pairs algorithm
(quadratic in the number of terminals, with an LCA climb per pair) lives
in ``tests/oracles/extraction.py``, the oracle the tests and the
extraction benchmark compare against.

Extraction *interns* as it goes: each record carries the integer ids of
its abstract path encoding and endpoint values in the extractor's
:class:`~repro.core.interning.FeatureSpace`, so downstream consumers
(graph builders, learners) can stay on dense ids end-to-end.

It also implements the *downsampling* of Sec. 5.5 / Fig. 11: each
extracted path-context occurrence is kept with probability ``p`` using a
deterministic RNG.  The RNG is re-seeded per AST from the configured
seed and a stable fingerprint of the tree, so the sample drawn for one
tree does not depend on how many other trees were processed first.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .abstractions import ABSTRACTIONS, Abstraction, alpha_id, get_abstraction
from .ast_model import Ast, Node
from .interning import DEFAULT_SPACE, FeatureSpace, OverlayVocab, Vocab
from .path_context import PathContext, endpoint_value, make_path_context
from .paths import DOWN, UP, AstPath, path_between, semi_path


class ExtractedPath:
    """One extracted path occurrence: concrete endpoints + abstract context.

    ``rel_id`` / ``start_value_id`` / ``end_value_id`` are the interned
    ids of the abstract path encoding and the endpoint values in the
    extractor's feature space -- the integer features downstream layers
    key on.  The string-level :attr:`context` triple is *lazy*: it is
    reconstructed from the feature space on first access, so extraction
    never pays for strings nobody reads.
    """

    __slots__ = (
        "start",
        "end",
        "path",
        "rel_id",
        "start_value_id",
        "end_value_id",
        "_context",
        "_space",
    )

    def __init__(
        self,
        start: Node,
        end: Node,
        path: AstPath,
        context: Optional[PathContext] = None,
        rel_id: int = -1,
        start_value_id: int = -1,
        end_value_id: int = -1,
        space: Optional[FeatureSpace] = None,
    ) -> None:
        self.start = start
        self.end = end
        self.path = path
        self.rel_id = rel_id
        self.start_value_id = start_value_id
        self.end_value_id = end_value_id
        self._context = context
        self._space = space

    @property
    def context(self) -> PathContext:
        """The ``<xs, alpha(p), xf>`` triple, decoded from the vocab."""
        if self._context is None:
            space = self._space
            if space is None:
                raise ValueError("ExtractedPath built without context or space")
            self._context = PathContext(
                space.values.value(self.start_value_id),
                space.paths.value(self.rel_id),
                space.values.value(self.end_value_id),
            )
        return self._context

    @property
    def is_semi(self) -> bool:
        """True when one endpoint is an ancestor of the other."""
        return not (self.start.is_terminal and self.end.is_terminal)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExtractedPath({self.context!s})"


@dataclass
class ExtractionConfig:
    """Hyper-parameters controlling extraction.

    ``max_length`` and ``max_width`` are the paper's path limits; tuned
    per language/task by grid search (Table 2 rightmost column).
    ``downsample_p`` is the keep probability of Sec. 5.5 (1.0 keeps all).
    ``abstraction`` is an abstraction name from Fig. 12 or a callable.
    """

    max_length: int = 7
    max_width: int = 3
    include_semi_paths: bool = True
    semi_path_min_length: int = 1
    downsample_p: float = 1.0
    seed: int = 17
    abstraction: Union[str, Abstraction] = "full"
    leaf_filter: Optional[Callable[[Node], bool]] = field(default=None)

    def resolve_abstraction(self) -> Abstraction:
        if callable(self.abstraction):
            return self.abstraction
        return get_abstraction(self.abstraction)

    def validate(self) -> None:
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if self.max_width < 0:
            raise ValueError("max_width must be >= 0")
        if not (0.0 < self.downsample_p <= 1.0):
            raise ValueError("downsample_p must be in (0, 1]")


def ast_fingerprint(ast: Ast) -> int:
    """A stable 32-bit fingerprint of one tree's terminal sequence.

    Used to derive the per-AST downsampling seed: it depends only on the
    tree's own content (language, leaf kinds and values), never on object
    identity or processing order, so it is reproducible across processes.
    Collisions are harmless here (two colliding trees merely share a
    sample seed) -- anything that needs response *identity* must use
    :func:`ast_digest` instead.
    """
    hasher = zlib.crc32(ast.language.encode("utf-8"))
    for leaf in ast.leaves:
        hasher = zlib.crc32(leaf.kind.encode("utf-8"), hasher)
        if leaf.value is not None:
            hasher = zlib.crc32(leaf.value.encode("utf-8"), hasher)
    return hasher & 0xFFFFFFFF


def ast_digest(ast: Ast) -> str:
    """A structural content digest of one tree (the serving cache key).

    Unlike :func:`ast_fingerprint`, which hashes only the terminal
    sequence into 32 bits, this covers the *full* tree -- every node's
    kind, value and position in the structure -- with a 128-bit digest,
    so two programs share a digest only when their ASTs are identical
    (layout and formatting differences still collapse, because they
    never reach the tree).  ``var x = a + b * c;`` and
    ``var x = (a + b) * c;`` have equal terminal sequences but different
    digests.
    """
    import hashlib

    hasher = hashlib.blake2b(ast.language.encode("utf-8"), digest_size=16)
    # Iterative preorder with explicit close markers: the marker stream
    # reconstructs the tree shape unambiguously, and no recursion limit
    # applies however deep a parsed expression nests.
    stack: List[Tuple[Node, bool]] = [(ast.root, False)]
    while stack:
        node, closing = stack.pop()
        if closing:
            hasher.update(b")")
            continue
        hasher.update(b"(")
        hasher.update(node.kind.encode("utf-8"))
        if node.value is not None:
            hasher.update(b"\x00")
            hasher.update(node.value.encode("utf-8"))
        stack.append((node, True))
        for child in reversed(node.children):
            stack.append((child, False))
    return hasher.hexdigest()


class PathExtractor:
    """Extract path-contexts from ASTs under an :class:`ExtractionConfig`.

    ``space`` is the :class:`~repro.core.interning.FeatureSpace` the
    extractor interns into; it defaults to the process-wide
    :data:`~repro.core.interning.DEFAULT_SPACE` so independently built
    extractors agree on ids.
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
            config = ExtractionConfig(
                **{**config.__dict__, **overrides}  # dataclass shallow merge
            )
        config.validate()
        self.config = config
        self._alpha = config.resolve_abstraction()
        self._rng = random.Random(config.seed)
        self._space = space if space is not None else DEFAULT_SPACE
        # The reversed-relation cache is only sound for the named built-in
        # abstractions, where alpha(reversed(p)) is a function of alpha(p);
        # an arbitrary callable gets no cache and is recomputed per path.
        self._can_cache_flips = (
            isinstance(config.abstraction, str) and config.abstraction in ABSTRACTIONS
        )
        # Each cache is split in two: a *base* half whose entries reference
        # only ids of a frozen base vocabulary (safe to keep across
        # overlay rebinds -- the serving read path), and a *local* half for
        # everything else, discarded whenever the space changes.
        self._flip_cache: Dict[int, int] = {}
        self._base_flip_cache: Dict[int, int] = {}
        # rel-id cache keyed by path *shape* (kind sequence + directions).
        # Sound for the named built-in abstractions, which are functions of
        # the shape alone; arbitrary callables are recomputed per path.
        self._shape_cache: Optional[Dict[tuple, int]] = (
            {} if self._can_cache_flips else None
        )
        self._base_shape_cache: Optional[Dict[tuple, int]] = (
            {} if self._can_cache_flips else None
        )
        self._cache_base_len = self._base_len_of(self._space)
        self._base_shape_hits = 0
        self._base_flip_hits = 0

    # ------------------------------------------------------------------
    # Feature space
    # ------------------------------------------------------------------
    @property
    def space(self) -> FeatureSpace:
        return self._space

    @staticmethod
    def _base_len_of(space: FeatureSpace) -> Optional[int]:
        """Ids below this are resident in a frozen base vocab (None: no base).

        An overlay space's base half is immutable by construction; a
        frozen non-overlay space is its own base.  A mutable space has no
        base -- every cache entry is then "local" and dies on rebind.
        """
        paths = space.paths
        if isinstance(paths, OverlayVocab):
            return len(paths.base)
        if paths.frozen:
            return len(paths)
        return None

    @staticmethod
    def _frozen_base_of(space: FeatureSpace) -> Optional[Vocab]:
        paths = space.paths
        base = paths.base if isinstance(paths, OverlayVocab) else paths
        return base if base.frozen else None

    def bind_space(self, space: FeatureSpace) -> None:
        """Re-target interning (e.g. onto a space restored from disk).

        Rebinding between spaces that share one *frozen* base path vocab
        -- the per-request overlay dance of the serving read path --
        keeps the base halves of the shape/flip caches warm: their
        entries reference only base ids, which mean the same strings
        under every overlay.  Local entries (and everything, on a rebind
        to an unrelated space) are discarded.
        """
        old_base = self._frozen_base_of(self._space)
        self._space = space
        new_base = self._frozen_base_of(space)
        self._cache_base_len = self._base_len_of(space)
        if new_base is not None and new_base is old_base:
            # Same frozen base: promote fully-base-resident local entries
            # (the warm-up path right after freeze()), drop overlay-local
            # ones -- their ids would mean different strings next request.
            base_len = len(new_base)
            for key, rel in self._flip_cache.items():
                if key < base_len and rel < base_len:
                    self._base_flip_cache[key] = rel
            self._flip_cache.clear()
            if self._shape_cache is not None:
                for key, rel in self._shape_cache.items():
                    if rel < base_len:
                        self._base_shape_cache[key] = rel
                self._shape_cache.clear()
        else:
            self._flip_cache.clear()
            self._base_flip_cache.clear()
            if self._shape_cache is not None:
                self._shape_cache.clear()
                self._base_shape_cache.clear()

    def cache_stats(self) -> dict:
        """Shape/flip cache occupancy and base-half hit counters.

        The ``base_*_hits`` counters are the observable behind the
        serving warm-cache guarantee: they keep growing across
        :class:`~repro.api.pipeline.ScoringHandle` requests, while under
        the pre-split behaviour every request started cold.
        """
        return {
            "shape_entries": len(self._shape_cache or ()),
            "base_shape_entries": len(self._base_shape_cache or ()),
            "flip_entries": len(self._flip_cache),
            "base_flip_entries": len(self._base_flip_cache),
            "base_shape_hits": self._base_shape_hits,
            "base_flip_hits": self._base_flip_hits,
        }

    def reversed_rel_id(self, extracted: ExtractedPath) -> int:
        """The interned relation of the same path read from the other end."""
        if self._can_cache_flips:
            cached = self._base_flip_cache.get(extracted.rel_id)
            if cached is not None:
                self._base_flip_hits += 1
                return cached
            cached = self._flip_cache.get(extracted.rel_id)
            if cached is not None:
                return cached
        rel = self._space.paths.intern(self._alpha(extracted.path.reversed()))
        if self._can_cache_flips:
            base_len = self._cache_base_len
            if base_len is not None and extracted.rel_id < base_len and rel < base_len:
                self._base_flip_cache[extracted.rel_id] = rel
            else:
                self._flip_cache[extracted.rel_id] = rel
        return rel

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def extract(self, ast: Ast) -> List[ExtractedPath]:
        """All leafwise (and optionally semi-) paths of one AST."""
        rng = self._rng_for(ast)
        out = list(self.iter_leafwise(ast, _rng=rng))
        if self.config.include_semi_paths:
            out.extend(self.iter_semi_paths(ast, _rng=rng))
        return out

    def iter_leafwise(
        self, ast: Ast, _rng: Optional[random.Random] = None
    ) -> Iterator[ExtractedPath]:
        """Pairwise paths between terminals, filtered by length and width.

        Single-pass bottom-up enumeration: every candidate pair is found
        at its LCA with both path length and width known *before* the
        path is materialised.  Pairs are emitted in the leaf order of the
        naive all-pairs loop (``(i, j)`` lexicographic), so downsampling
        draws the same RNG stream and keeps the same subset.
        """
        rng = _rng if _rng is not None else self._rng_for(ast)
        pairs = self._leafwise_pairs(ast)
        pairs.sort(key=lambda pair: (pair[0]._leaf_index, pair[1]._leaf_index))
        for a, b, up_steps, down_steps in pairs:
            if not self._keep(rng):
                continue
            path = _materialise(a, b, up_steps, down_steps)
            yield self._record(a, b, path)

    def iter_semi_paths(
        self, ast: Ast, _rng: Optional[random.Random] = None
    ) -> Iterator[ExtractedPath]:
        """Semi-paths from each terminal to its ancestors within max_length."""
        cfg = self.config
        rng = _rng if _rng is not None else self._rng_for(ast)
        leaves = ast.leaves
        if cfg.leaf_filter is not None:
            leaves = [l for l in leaves if cfg.leaf_filter(l)]
        for leaf in leaves:
            nodes: List[Node] = [leaf]
            node = leaf.parent
            while node is not None and len(nodes) - 1 < cfg.max_length:
                nodes.append(node)
                length = len(nodes) - 1
                if length >= cfg.semi_path_min_length:
                    if self._keep(rng):
                        path = semi_path(leaf, node)
                        yield self._record(leaf, node, path)
                node = node.parent

    def paths_from(
        self,
        sources: Sequence[Node],
        targets: Iterable[Node],
        enforce_limits: bool = True,
    ) -> List[ExtractedPath]:
        """Paths from each source node to each target node.

        Used by the tasks to connect the occurrences of a program element
        to its surrounding terminals (pairwise factors) and to each other
        (unary factors).  ``enforce_limits`` applies max_length/max_width.

        Unlike :meth:`extract`, this method has no AST-level identity to
        re-seed from, so downsampling (when enabled) draws from the
        extractor-lifetime RNG.
        """
        cfg = self.config
        out: List[ExtractedPath] = []
        target_list = list(targets)
        for src in sources:
            for dst in target_list:
                if src is dst:
                    continue
                path = path_between(src, dst)
                if enforce_limits:
                    if path.length > cfg.max_length or path.width > cfg.max_width:
                        continue
                if not self._keep(self._rng):
                    continue
                out.append(self._record(src, dst, path))
        return out

    def context_for(
        self,
        path: AstPath,
        start_value: Optional[str] = None,
        end_value: Optional[str] = None,
    ) -> PathContext:
        """Abstract a single concrete path into a context triple."""
        return make_path_context(path, self._alpha, start_value, end_value)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _record(self, start: Node, end: Node, path: AstPath) -> ExtractedPath:
        """Intern one path into an id-bearing record (context stays lazy)."""
        space = self._space
        shape_cache = self._shape_cache
        if shape_cache is not None:
            key = (tuple(n.kind for n in path.nodes), path.directions)
            rel_id = self._base_shape_cache.get(key)  # type: ignore[union-attr]
            if rel_id is not None:
                self._base_shape_hits += 1
            else:
                rel_id = shape_cache.get(key)
            if rel_id is None:
                rel_id = space.paths.intern(self._alpha(path))
                base_len = self._cache_base_len
                if base_len is not None and rel_id < base_len:
                    self._base_shape_cache[key] = rel_id  # type: ignore[index]
                else:
                    shape_cache[key] = rel_id
        else:
            rel_id = space.paths.intern(self._alpha(path))
        return ExtractedPath(
            start,
            end,
            path,
            rel_id=rel_id,
            start_value_id=space.values.intern(endpoint_value(start)),
            end_value_id=space.values.intern(endpoint_value(end)),
            space=space,
        )

    def _leafwise_pairs(self, ast: Ast) -> List[Tuple[Node, Node, int, int]]:
        """All (a, b, up_steps, down_steps) admissible leaf pairs.

        One post-order pass.  Each node receives, from each child, the
        list of that subtree's terminals bucketed by depth; a bucket
        deeper than ``max_length - 1`` can never satisfy the length limit
        through this node or any ancestor and is dropped before it is
        carried upward.  Pairs are formed only across children whose
        position distance respects ``max_width`` (the path's width *is*
        that distance) and only for depth combinations whose total
        respects ``max_length`` (the path's length *is* that total).
        """
        cfg = self.config
        max_length = cfg.max_length
        max_width = cfg.max_width
        keep_leaf = cfg.leaf_filter
        max_depth = max_length - 1  # deepest useful bucket below any node

        out: List[Tuple[Node, Node, int, int]] = []
        if max_width < 1:
            return out  # a leafwise path's width is >= 1 by construction

        # Children-before-parents order without recursion.
        order: List[Node] = []
        stack = [ast.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(node.children)
        order.reverse()

        # id(node) -> buckets; buckets[d] = subtree terminals at depth d.
        buckets_of: Dict[int, List[List[Node]]] = {}
        for node in order:
            children = node.children
            if not children:
                kept = keep_leaf is None or keep_leaf(node)
                buckets_of[id(node)] = [[node]] if kept else [[]]
                continue

            # Lift each child's buckets by one level, pruning at max_depth.
            lifted: List[List[List[Node]]] = []
            for child in children:
                child_buckets = buckets_of.pop(id(child))
                lifted.append([[]] + child_buckets[:max_depth])

            # Pair leaves across child subtrees; this node is the LCA.
            for i in range(len(lifted)):
                left = lifted[i]
                for j in range(i + 1, min(i + max_width, len(lifted) - 1) + 1):
                    right = lifted[j]
                    for depth_a in range(1, len(left)):
                        bucket_a = left[depth_a]
                        if not bucket_a:
                            continue
                        for depth_b in range(1, min(max_length - depth_a, len(right) - 1) + 1):
                            bucket_b = right[depth_b]
                            if not bucket_b:
                                continue
                            for a in bucket_a:
                                for b in bucket_b:
                                    out.append((a, b, depth_a, depth_b))

            # Merge the lifted buckets for this node's parent.
            depth_count = max(len(l) for l in lifted)
            merged: List[List[Node]] = [[] for _ in range(depth_count)]
            for lifted_child in lifted:
                for depth, bucket in enumerate(lifted_child):
                    if bucket:
                        merged[depth].extend(bucket)
            buckets_of[id(node)] = merged
        return out

    def _rng_for(self, ast: Ast) -> random.Random:
        """A fresh RNG for one AST, independent of processing order.

        When downsampling is off this returns the shared RNG (it is never
        consulted), skipping the fingerprint walk on the hot path.
        """
        if self.config.downsample_p >= 1.0:
            return self._rng
        return random.Random(self.config.seed ^ ast_fingerprint(ast))

    def _context(self, path: AstPath) -> PathContext:
        return make_path_context(path, self._alpha)

    def _keep(self, rng: random.Random) -> bool:
        p = self.config.downsample_p
        if p >= 1.0:
            return True
        return rng.random() < p


def _materialise(a: Node, b: Node, up_steps: int, down_steps: int) -> AstPath:
    """Build the concrete up-then-down path from pre-computed step counts."""
    nodes: List[Node] = [a]
    node = a
    for _ in range(up_steps):
        node = node.parent  # type: ignore[assignment]
        nodes.append(node)
    tail: List[Node] = [b]
    node = b
    for _ in range(down_steps - 1):
        node = node.parent  # type: ignore[assignment]
        tail.append(node)
    nodes.extend(reversed(tail))
    return AstPath(nodes, [UP] * up_steps + [DOWN] * down_steps)


def extract_path_contexts(
    ast: Ast,
    max_length: int = 7,
    max_width: int = 3,
    abstraction: Union[str, Abstraction] = "full",
    include_semi_paths: bool = False,
) -> List[PathContext]:
    """Convenience one-shot extraction returning bare context triples.

    This is the function used by the quickstart example to reproduce the
    paths of the paper's Fig. 2.
    """
    extractor = PathExtractor(
        ExtractionConfig(
            max_length=max_length,
            max_width=max_width,
            abstraction=abstraction,
            include_semi_paths=include_semi_paths,
        )
    )
    return [e.context for e in extractor.extract(ast)]


def leaf_value_of(node: Node) -> str:
    """Endpoint value helper re-exported for tasks."""
    return endpoint_value(node)
