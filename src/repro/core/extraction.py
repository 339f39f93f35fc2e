"""Path-context extraction with the paper's hyper-parameters (Sec. 4.2, 5.5).

:class:`PathExtractor` walks an :class:`repro.core.ast_model.Ast` and
returns a :class:`PathTable` with one row per

* pair of terminals whose connecting path respects ``max_length`` and
  ``max_width`` (leafwise paths), and, optionally,
* (terminal, ancestor) semi-path within ``max_length``.

Leafwise extraction is a **single bottom-up pass**: one post-order
traversal merges per-child leaf lists bucketed by depth, so a pair of
terminals is considered exactly once -- at its lowest common ancestor,
the path's top -- and pairs whose path would exceed ``max_length`` or
``max_width`` are pruned before anything is built.  The naive all-pairs
algorithm (quadratic in the number of terminals, with an LCA climb per
pair) lives in ``tests/oracles/extraction.py``, the oracle the tests and
the extraction benchmark compare against.

The table is **columnar and lazy**.  A row is five columns (start, end,
up steps, down steps, top) and carries no ids until a consumer asks:

* a relation id comes from a shape cache keyed ``(chain_start, top kind,
  chain_end)``, where a chain is the interned id of the node kinds below
  the top on one side, listed upward.  Every leaf carries its chain ids
  for depths ``1..max_length``, so a key costs three lookups.  The
  reversed relation is the swapped key in the same cache.  An
  :class:`~repro.core.paths.AstPath` is built only on a cache miss, or
  for a callable abstraction, which has no cache;
* endpoint value ids are interned once per node.

The variable-naming view builders resolve only the rows they keep.
String consumers iterate the table, which materialises rows in order as
:class:`ExtractedPath`, so they intern exactly what a path-by-path
extractor would, in the same order.

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
from .interning import FeatureSpace, OverlayVocab, Vocab
from .path_context import PathContext, endpoint_value, make_path_context
from .paths import DOWN, UP, AstPath, path_between

#: A path's shape: (kind-chain id of the nodes below the top on the start
#: side, listed upward; the top's kind; the same for the end side).  Chain
#: id 0 is the empty chain (a semi-path has no end side).  Swapping the
#: two chain ids gives the shape of the same path read from its end.
ShapeKey = Tuple[int, str, int]


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


class PathTable:
    """One AST's extracted paths as columns, with ids resolved on demand.

    Row ``i`` is the path that climbs ``ups[i]`` steps from ``starts[i]``
    to ``tops[i]`` and descends ``downs[i]`` steps to ``ends[i]``; a
    semi-path has ``downs[i] == 0`` and ends at its top.  Leafwise rows
    come first, in leaf order ``(i, j)``, then the semi-paths of each
    terminal, nearest ancestor first.

    Building the table interns nothing.  :meth:`rel_id`,
    :meth:`reversed_rel_id` and :meth:`value_id` intern on first use, so
    a view builder pays only for the rows it keeps.  Iterating (or
    indexing) the table materialises rows as :class:`ExtractedPath`,
    and :meth:`triples` yields their id triples; either way rows are
    resolved in order, so a consumer that reads every row interns the
    same strings, in the same order, as a path-by-path extractor would.

    Ids reference :attr:`space`, the extractor's space when the table
    was built; resolving a row after the extractor was rebound to
    another space raises.
    """

    __slots__ = (
        "starts", "ends", "ups", "downs", "tops",
        "space", "_extractor", "_chains", "_value_ids",
    )

    def __init__(
        self,
        extractor: "PathExtractor",
        rows: List[Tuple[Node, Node, int, int, Node]],
        chains: List[Optional[List[int]]],
    ) -> None:
        columns = tuple(zip(*rows)) if rows else ((), (), (), (), ())
        self.starts, self.ends, self.ups, self.downs, self.tops = columns
        self.space = extractor.space
        self._extractor = extractor
        #: leaf index -> kind-chain ids of the leaf's first d nodes upward.
        self._chains = chains
        self._value_ids: Dict[Node, int] = {}

    def __len__(self) -> int:
        return len(self.starts)

    def _key(self, i: int) -> ShapeKey:
        chains = self._chains
        down = self.downs[i]
        return (
            chains[self.starts[i]._leaf_index][self.ups[i]],  # type: ignore[index]
            self.tops[i].kind,
            chains[self.ends[i]._leaf_index][down] if down else 0,  # type: ignore[index]
        )

    def rel_id(self, i: int) -> int:
        """The interned relation of row ``i``, read from its start."""
        return self._extractor._rel(
            self.space, self._key(i), self.starts[i], self.ends[i], self.ups[i], self.downs[i]
        )

    def reversed_rel_id(self, i: int) -> int:
        """The relation of row ``i`` read from its end: the swapped key."""
        up_side, top, down_side = self._key(i)
        return self._extractor._rel(
            self.space,
            (down_side, top, up_side),
            self.ends[i],
            self.starts[i],
            self.downs[i],
            self.ups[i],
        )

    def value_id(self, node: Node) -> int:
        """The interned endpoint value of ``node`` (once per node)."""
        value_id = self._value_ids.get(node)
        if value_id is None:
            value_id = self.space.values.intern(endpoint_value(node))
            self._value_ids[node] = value_id
        return value_id

    def triples(self) -> List[Tuple[int, int, int]]:
        """``(start value id, rel id, end value id)`` of every row, in order."""
        value_id = self.value_id
        return [
            (value_id(start), self.rel_id(i), value_id(end))
            for i, (start, end) in enumerate(zip(self.starts, self.ends))
        ]

    def __getitem__(self, i: int) -> ExtractedPath:
        start, end, up, down = self.starts[i], self.ends[i], self.ups[i], self.downs[i]
        path = _row_path(start, end, up, down)
        rel_id = self._extractor._rel(self.space, self._key(i), start, end, up, down, path)
        return ExtractedPath(
            start,
            end,
            path,
            rel_id=rel_id,
            start_value_id=self.value_id(start),
            end_value_id=self.value_id(end),
            space=self.space,
        )

    def __iter__(self) -> Iterator[ExtractedPath]:
        for i in range(len(self.starts)):
            yield self[i]


class PathExtractor:
    """Extract path-contexts from ASTs under an :class:`ExtractionConfig`.

    ``space`` is the :class:`~repro.core.interning.FeatureSpace` the
    extractor interns into; without one the extractor gets a private
    space.
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
        self._space = space if space is not None else FeatureSpace()
        # Kind chains intern into small ints: (chain id, next kind upward)
        # -> chain id, with 0 the empty chain.  Space-independent, so the
        # trie survives every rebind.
        self._chain_ids: Dict[Tuple[int, str], int] = {}
        # rel-id cache keyed by path shape.  Sound for the named built-in
        # abstractions, which are functions of the shape alone; an
        # arbitrary callable gets no cache and is recomputed per path.
        # The cache is split in two: a *base* half whose entries reference
        # only ids of a frozen base vocabulary (safe to keep across
        # overlay rebinds -- the serving read path), and a *local* half for
        # everything else, discarded whenever the space changes.
        cached = isinstance(config.abstraction, str) and config.abstraction in ABSTRACTIONS
        self._shape_cache: Optional[Dict[ShapeKey, int]] = {} if cached else None
        self._base_shape_cache: Dict[ShapeKey, int] = {}
        self._cache_base_len = self._base_len_of(self._space)
        self._base_shape_hits = 0

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
        keeps the base half of the shape cache warm: its entries
        reference only base ids, which mean the same strings under every
        overlay.  Local entries (and everything, on a rebind to an
        unrelated space) are discarded.
        """
        old_base = self._frozen_base_of(self._space)
        self._space = space
        new_base = self._frozen_base_of(space)
        self._cache_base_len = self._base_len_of(space)
        if self._shape_cache is None:
            return
        if new_base is not None and new_base is old_base:
            # Same frozen base: promote fully-base-resident local entries
            # (the warm-up path right after freeze()), drop overlay-local
            # ones -- their ids would mean different strings next request.
            base_len = len(new_base)
            for key, rel in self._shape_cache.items():
                if rel < base_len:
                    self._base_shape_cache[key] = rel
        else:
            self._base_shape_cache.clear()
        self._shape_cache.clear()

    def cache_stats(self) -> dict:
        """Shape cache occupancy and the base-half hit counter.

        ``base_shape_hits`` is the observable behind the serving
        warm-cache guarantee: it keeps growing across
        :class:`~repro.api.pipeline.ScoringHandle` requests, while
        ``shape_entries`` (overlay-local entries) is empty between them.
        """
        return {
            "shape_entries": len(self._shape_cache or ()),
            "base_shape_entries": len(self._base_shape_cache),
            "base_shape_hits": self._base_shape_hits,
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def extract(self, ast: Ast) -> PathTable:
        """All leafwise (and optionally semi-) paths of one AST.

        One structural pass: leafwise pairs come from the bottom-up
        enumeration of :meth:`_leafwise_pairs`, sorted into the leaf
        order ``(i, j)`` of the naive all-pairs loop, then the
        semi-paths follow.  Downsampling draws once per candidate row in
        that order, so it keeps the same subset as a path-by-path
        extractor.  No path is materialised and nothing is interned.
        """
        cfg = self.config
        rng = self._rng_for(ast)
        rows = self._leafwise_pairs(ast)
        rows.sort(key=_leaf_order)
        if cfg.downsample_p < 1.0:
            rows = [row for row in rows if self._keep(rng)]
        leaves = ast.leaves
        if cfg.leaf_filter is not None:
            leaves = [leaf for leaf in leaves if cfg.leaf_filter(leaf)]
        if cfg.include_semi_paths:
            max_length, min_length = cfg.max_length, cfg.semi_path_min_length
            for leaf in leaves:
                node = leaf.parent
                length = 1
                while node is not None and length <= max_length:
                    if length >= min_length and self._keep(rng):
                        rows.append((leaf, node, length, 0, node))
                    node = node.parent
                    length += 1
        return PathTable(self, rows, self._leaf_chains(ast, leaves))

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
        space = self._space
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
                nodes = path.nodes
                top = path.top_index
                # Up side listed upward from the start, down side upward
                # from the end: the key a table row of this shape gets.
                key = (
                    self._chain_id(nodes[:top]),
                    nodes[top].kind,
                    self._chain_id(nodes[:top:-1]),
                )
                rel_id = self._rel(space, key, src, dst, top, len(nodes) - 1 - top, path)
                out.append(
                    ExtractedPath(
                        src,
                        dst,
                        path,
                        rel_id=rel_id,
                        start_value_id=space.values.intern(endpoint_value(src)),
                        end_value_id=space.values.intern(endpoint_value(dst)),
                        space=space,
                    )
                )
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
    def _rel(
        self,
        space: FeatureSpace,
        key: ShapeKey,
        start: Node,
        end: Node,
        up: int,
        down: int,
        path: Optional[AstPath] = None,
    ) -> int:
        """The interned relation of one path, by shape key.

        The concrete :class:`AstPath` is built only on a cache miss, or
        for a callable abstraction (which has no cache).
        """
        if space is not self._space:
            raise RuntimeError(
                "path table outlived its feature space: the extractor was "
                "rebound since; extract the AST again"
            )
        shape_cache = self._shape_cache
        if shape_cache is not None:
            rel_id = self._base_shape_cache.get(key)
            if rel_id is not None:
                self._base_shape_hits += 1
                return rel_id
            rel_id = shape_cache.get(key)
            if rel_id is not None:
                return rel_id
        if path is None:
            path = _row_path(start, end, up, down)
        rel_id = space.paths.intern(self._alpha(path))
        if shape_cache is not None:
            base_len = self._cache_base_len
            if base_len is not None and rel_id < base_len:
                self._base_shape_cache[key] = rel_id
            else:
                shape_cache[key] = rel_id
        return rel_id

    def _chain_id(self, nodes: Sequence[Node]) -> int:
        """The interned kind chain of ``nodes``, listed bottom-up."""
        chain_ids = self._chain_ids
        chain = 0
        for node in nodes:
            step = (chain, node.kind)
            chain = chain_ids.get(step) or chain_ids.setdefault(step, len(chain_ids) + 1)
        return chain

    def _leaf_chains(self, ast: Ast, leaves: Sequence[Node]) -> List[Optional[List[int]]]:
        """leaf index -> ``[0, c1, .., cL]``: ``cd`` is the chain id of the
        leaf and its first ``d - 1`` ancestors, for ``d`` up to max_length."""
        chain_ids = self._chain_ids
        depth = self.config.max_length
        chains: List[Optional[List[int]]] = [None] * len(ast.leaves)
        for leaf in leaves:
            ids = [0]
            chain = 0
            node: Optional[Node] = leaf
            while node is not None and len(ids) <= depth:
                step = (chain, node.kind)
                chain = chain_ids.get(step) or chain_ids.setdefault(step, len(chain_ids) + 1)
                ids.append(chain)
                node = node.parent
            chains[leaf._leaf_index] = ids  # type: ignore[index]
        return chains

    def _leafwise_pairs(self, ast: Ast) -> List[Tuple[Node, Node, int, int, Node]]:
        """All (a, b, up_steps, down_steps, top) admissible leaf pairs.

        One post-order pass.  Each node receives, from each child, the
        list of that subtree's terminals bucketed by depth; a bucket
        deeper than ``max_length - 1`` can never satisfy the length limit
        through this node or any ancestor and is dropped before it is
        carried upward.  Pairs are formed only across children whose
        position distance respects ``max_width`` (the path's width *is*
        that distance) and only for depth combinations whose total
        respects ``max_length`` (the path's length *is* that total).
        The node where a pair is formed is its lowest common ancestor,
        the path's top.
        """
        cfg = self.config
        max_length = cfg.max_length
        max_width = cfg.max_width
        keep_leaf = cfg.leaf_filter
        max_depth = max_length - 1  # deepest useful bucket below any node

        out: List[Tuple[Node, Node, int, int, Node]] = []
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
                                    out.append((a, b, depth_a, depth_b, node))

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

    def _keep(self, rng: random.Random) -> bool:
        p = self.config.downsample_p
        if p >= 1.0:
            return True
        return rng.random() < p


def _leaf_order(row: Tuple[Node, Node, int, int, Node]) -> Tuple[int, int]:
    return (row[0]._leaf_index, row[1]._leaf_index)  # type: ignore[return-value]


def _row_path(start: Node, end: Node, up: int, down: int) -> AstPath:
    """The concrete path that climbs ``up`` steps from ``start`` to the
    top, then descends ``down`` steps to ``end``."""
    nodes: List[Node] = [start]
    node = start
    for _ in range(up):
        node = node.parent  # type: ignore[assignment]
        nodes.append(node)
    if down:
        tail: List[Node] = [end]
        node = end
        for _ in range(down - 1):
            node = node.parent  # type: ignore[assignment]
            tail.append(node)
        nodes.extend(reversed(tail))
    return AstPath(nodes, [UP] * up + [DOWN] * down)


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
