"""Path-context extraction with the paper's hyper-parameters (Sec. 4.2, 5.5).

:class:`PathExtractor` returns every path as a row of a
:class:`PathTable`, by one of two routes:

* :meth:`PathExtractor.extract` walks an
  :class:`~repro.core.ast_model.Ast` for every pair of terminals whose
  connecting path respects ``max_length`` and ``max_width`` (leafwise
  paths), and, optionally, every (terminal, ancestor) semi-path within
  ``max_length``.  Variable naming reads these rows;
* :meth:`PathExtractor.extract_between` gives *anchored* rows: the path
  from each of some source nodes to each of some targets, terminals or
  not, with the limits optional.  Method naming and type prediction
  read these rows.

Leafwise extraction is a **single bottom-up pass**: one post-order
traversal merges per-child buckets of leaf indices by depth, so a pair
of terminals is considered exactly once -- at its lowest common
ancestor, the path's top -- and pairs whose path would exceed
``max_length`` or ``max_width`` are pruned before anything is built.
Each pair's row is led by the int ``i * n_leaves + j``, so one plain
sort puts the rows in leaf order.  The naive all-pairs algorithm
(quadratic in the number of terminals, with an LCA climb per pair)
lives in ``tests/oracles/extraction.py``, the oracle the tests and the
extraction benchmark compare against.

The table is **int rows, resolved lazily**.  A row names its two
endpoints by index into the table's endpoint list, with its up and down
steps and the top's kind, and carries no ids until a consumer asks:

* a relation id comes from a shape key ``(chain_start, top kind,
  chain_end)``, where a chain is the interned id of the node kinds below
  the top on one side, listed upward.  Every endpoint carries its chain
  ids for the depths its rows need, so a key costs two list lookups.
  The reversed relation is the swapped key.  The table memoises its
  keys, so the extractor resolves each distinct shape once per table,
  in first-use order, through its shape cache.  An
  :class:`~repro.core.paths.AstPath` is built only on a cache miss
  while interning straight into a vocab (training), on a miss under a
  coarser named abstraction, or per path for a callable abstraction,
  which has no cache (and no table memo).  Under the default ``full``
  abstraction one shape spells exactly one relation, so the first miss
  over an overlay (the serving read path) indexes every base relation
  by splitting its string back into a shape.  From then on a miss is a
  relation the base does not know; it takes an overlay-local id whose
  string is spelled only if something decodes it
  (:meth:`~repro.core.interning.OverlayVocab.reserve`);
* endpoint value ids are interned once per endpoint.

The view builders resolve only the rows they keep, in one pass over the
rows.  A string consumer reads :meth:`PathTable.triples`, which resolves
every row in order, so it interns exactly what a path-by-path extractor
would, in the same order; :func:`extract_path_contexts` decodes those
triples.

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
from functools import partial
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .abstractions import ABSTRACTIONS, Abstraction, get_abstraction
from .ast_model import Ast, Node
from .interning import FeatureSpace, OverlayVocab, Vocab
from .path_context import PathContext, endpoint_value
from .paths import DOWN, UP, AstPath

#: A path's shape: (kind-chain id of the nodes below the top on the start
#: side, listed upward; the top's kind; the same for the end side).  Chain
#: id 0 is the empty chain (a semi-path has no end side).  Swapping the
#: two chain ids gives the shape of the same path read from its end.
ShapeKey = Tuple[int, str, int]


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


#: One table row: ``(order, start, end, up, down, top)``.  ``start`` and
#: ``end`` index the table's endpoint list, ``up`` and ``down`` are the
#: steps from each to the top, and ``top`` is the top's kind.  ``order``
#: sorts the leafwise rows into leaf order (``i * n_leaves + j``); it is
#: 0 on every other row, and readers skip it.
Row = Tuple[int, int, int, int, int, str]

#: The kind chains of an endpoint that is only ever a path's top.
_TOP_ONLY = [0]


class PathTable:
    """Extracted paths as int rows, with ids resolved on demand.

    :attr:`nodes` is the table's endpoint list and :attr:`rows` its
    :data:`Row` tuples; the row ``(_, s, e, up, down, top)`` is the path
    that climbs ``up`` steps from ``nodes[s]`` to a node of kind ``top``
    and descends ``down`` steps to ``nodes[e]``.  A row with ``down ==
    0`` ends at its top, one with ``up == 0`` starts there.  In a table
    from :meth:`PathExtractor.extract`, endpoint ``i`` is leaf ``i`` of
    the tree for every leaf, and the ancestors that semi-paths end at
    follow; leafwise rows come first, in leaf order ``(i, j)``, then the
    semi-paths of each terminal, nearest ancestor first.  A table from
    :meth:`PathExtractor.extract_between` holds its rows in (source,
    target) order.  :attr:`chains` holds, per endpoint, the kind-chain
    ids ``[0, c1, .., cd]`` of its first ``d`` nodes upward, for the
    deepest step ``d`` its rows take.

    Building the table interns nothing.  :meth:`rel_id` and
    :meth:`value_id` intern on first use, so a view builder pays only
    for the rows it keeps.  :meth:`triples` resolves every row in order,
    so a consumer that reads it interns the same strings, in the same
    order, as a path-by-path extractor would.

    Ids reference :attr:`space`, the extractor's space when the table
    was built; resolving a shape the table has not resolved before,
    after the extractor was rebound to another space, raises.
    :attr:`tree_size` is the number of nodes of the extracted tree (0
    for anchored rows).
    """

    __slots__ = ("nodes", "rows", "chains", "tree_size", "space", "_extractor", "_rels", "_values")

    def __init__(
        self,
        extractor: "PathExtractor",
        nodes: List[Node],
        rows: List[Row],
        chains: List[List[int]],
        tree_size: int = 0,
    ) -> None:
        self.nodes = nodes
        self.rows = rows
        self.chains = chains
        self.tree_size = tree_size
        self.space = extractor.space
        self._extractor = extractor
        # Shape key -> relation id, for the keys this table has resolved.
        # None under a callable abstraction: it may spell two paths of
        # one shape differently, so every row goes to the extractor.
        self._rels: Optional[Dict[ShapeKey, int]] = (
            None if extractor._shape_cache is None else {}
        )
        self._values: List[Optional[int]] = [None] * len(nodes)

    def __len__(self) -> int:
        return len(self.rows)

    def rel_id(self, start: int, end: int, up: int, down: int, top: str) -> int:
        """The interned relation of the path from endpoint ``start``.

        Pass a row's fields in order for the relation read from its
        start, and with the two ends swapped (``end, start, down, up``)
        for the one read from its end: the swapped shape key.  The
        extractor resolves each shape key once per table.
        """
        chains = self.chains
        key = (chains[start][up], top, chains[end][down])
        rels = self._rels
        if rels is not None:
            rel_id = rels.get(key)
            if rel_id is not None:
                return rel_id
        nodes = self.nodes
        rel_id = self._extractor._rel(self.space, key, nodes[start], nodes[end], up, down)
        if rels is not None:
            rels[key] = rel_id
        return rel_id

    def value_id(self, index: int) -> int:
        """The interned value of endpoint ``index`` (once per endpoint)."""
        value_id = self._values[index]
        if value_id is None:
            value_id = self._values[index] = self.space.values.intern(
                endpoint_value(self.nodes[index])
            )
        return value_id

    def triples(self) -> List[Tuple[int, int, int]]:
        """``(start value id, rel id, end value id)`` of every row, in order."""
        value_id, rel_id = self.value_id, self.rel_id
        return [
            (value_id(start), rel_id(start, end, up, down, top), value_id(end))
            for _, start, end, up, down, top in self.rows
        ]


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
        # Spells a reserved relation (see _rel).  It holds the trie alone,
        # not the extractor, so a dead request's overlay pins no caches.
        self._spell = partial(_spell_shape, self._chain_ids)
        # rel-id cache keyed by path shape.  Sound for the named built-in
        # abstractions, which are functions of the shape alone; an
        # arbitrary callable gets no cache and is recomputed per path.
        # The cache is split in two: a *base* half whose entries reference
        # only ids of the bound space's base path vocab (safe to keep
        # across overlay rebinds -- the read path), and a *local* half for
        # everything else, discarded whenever the space changes.
        cached = isinstance(config.abstraction, str) and config.abstraction in ABSTRACTIONS
        self._shape_cache: Optional[Dict[ShapeKey, int]] = {} if cached else None
        self._base_shape_cache: Dict[ShapeKey, int] = {}
        self._cache_base_len = self._base_len_of(self._space)
        self._base_shape_hits = 0
        # Under ``full`` the base half can be completed from the base
        # relation strings (see _index_base); base ids below this one
        # have been split already.
        self._full = cached and config.abstraction == "full"
        self._base_split = 0

    # ------------------------------------------------------------------
    # Feature space
    # ------------------------------------------------------------------
    @property
    def space(self) -> FeatureSpace:
        return self._space

    @staticmethod
    def _base_len_of(space: FeatureSpace) -> Optional[int]:
        """Ids at or above this are overlay-local (None: no overlay, so
        every id is resident in the base for good -- vocabs only grow)."""
        paths = space.paths
        return len(paths.base) if isinstance(paths, OverlayVocab) else None

    @staticmethod
    def _base_of(space: FeatureSpace) -> Vocab:
        paths = space.paths
        return paths.base if isinstance(paths, OverlayVocab) else paths

    def bind_space(self, space: FeatureSpace) -> None:
        """Re-target interning (e.g. onto a space restored from disk).

        Rebinding between spaces that share one base path vocab -- the
        per-call overlay dance of ``Pipeline.predict`` and the serving
        read path -- keeps the base half of the shape cache warm: its
        entries reference only base ids, and vocabs are append-only, so
        a base id means the same string under every overlay, frozen or
        not.  So the base index of the ``full`` abstraction (see
        :meth:`_rel`) is split at most once per base path vocab, on the
        first request that misses it.  Overlay-local entries (and
        everything, on a rebind to an unrelated space) are discarded:
        their ids would mean different strings next call.
        """
        old_base = self._base_of(self._space)
        self._space = space
        self._cache_base_len = self._base_len_of(space)
        if self._shape_cache is None:
            return
        if self._base_of(space) is not old_base:
            self._base_shape_cache.clear()
            self._base_split = 0
        self._shape_cache.clear()

    def cache_stats(self) -> dict:
        """Shape cache occupancy and the base-half hit counter.

        ``base_shape_hits`` (counted once per key and table, the
        table memoising the rest) is the observable behind the serving
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
        p = cfg.downsample_p
        # Re-seeded per tree, so its sample is independent of processing
        # order; without downsampling no fingerprint walk is made.
        draw = random.Random(cfg.seed ^ ast_fingerprint(ast)).random if p < 1.0 else None
        rows, tree_size = self._leafwise_pairs(ast)
        rows.sort()
        if draw is not None:
            rows = [row for row in rows if draw() < p]
        max_length = cfg.max_length
        keep_leaf = cfg.leaf_filter
        nodes = list(ast.leaves)
        kept = range(len(nodes))
        if keep_leaf is not None:
            kept = [i for i in kept if keep_leaf(nodes[i])]
        chains = [_TOP_ONLY] * len(nodes)
        for i in kept:
            chains[i] = self._chains_of(nodes[i], max_length)
        if cfg.include_semi_paths:
            min_length = cfg.semi_path_min_length
            ends: Dict[Node, int] = {}  # ancestor -> endpoint index
            for i in kept:
                node = nodes[i].parent
                length = 1
                while node is not None and length <= max_length:
                    if length >= min_length and (draw is None or draw() < p):
                        end = ends.get(node)
                        if end is None:
                            end = ends[node] = len(nodes)
                            nodes.append(node)
                            chains.append(_TOP_ONLY)
                        rows.append((0, i, end, length, 0, node.kind))
                    node = node.parent
                    length += 1
        return PathTable(self, nodes, rows, chains, tree_size)

    def extract_between(
        self,
        sources: Sequence[Node],
        targets: Iterable[Node],
        enforce_limits: bool = True,
    ) -> PathTable:
        """Anchored rows: the path from each source node to each target.

        Used by the tasks to connect the occurrences of a program element
        to its surrounding terminals (pairwise factors) and to each other
        (unary factors).  Rows follow (source, target) order, and a node
        is never paired with itself.  Endpoints may be nonterminals, and
        one may be an ancestor of the other (a row's ``up`` or ``down``
        is 0).
        ``enforce_limits`` applies max_length and max_width; ``False``
        applies neither.

        Each pair costs one climb from the target to its lowest common
        ancestor with the source; the width is read off the top's two
        children on the path.  Unlike :meth:`extract`, this method has no
        AST-level identity to re-seed from, so downsampling draws from
        the extractor-lifetime RNG, once per admissible pair.
        """
        cfg = self.config
        p = cfg.downsample_p
        nodes: List[Node] = []
        index: Dict[Node, int] = {}
        depths: List[int] = []  # per endpoint: the most steps a row takes from it

        def endpoint(node: Node) -> int:
            i = index.get(node)
            if i is None:
                i = index[node] = len(nodes)
                nodes.append(node)
                depths.append(0)
            return i

        rows: List[Row] = []
        target_list = list(targets)
        for src in sources:
            above = [src]  # src and its ancestors, bottom-up
            while above[-1].parent is not None:
                above.append(above[-1].parent)  # type: ignore[arg-type]
            position = {node: i for i, node in enumerate(above)}
            for dst in target_list:
                if dst is src:
                    continue
                node, below, down = dst, dst, 0
                while node not in position:
                    below, node = node, node.parent  # type: ignore[assignment]
                    down += 1
                    if node is None:
                        raise ValueError("nodes do not belong to the same tree")
                up = position[node]
                if enforce_limits:
                    if up + down > cfg.max_length:
                        continue
                    # The width: how far apart the top's two children on
                    # the path are (none when one endpoint is the top).
                    if up and down and (
                        abs(below.child_index() - above[up - 1].child_index()) > cfg.max_width
                    ):
                        continue
                if p < 1.0 and self._rng.random() >= p:
                    continue
                start, end = endpoint(src), endpoint(dst)
                rows.append((0, start, end, up, down, node.kind))
                if depths[start] < up:
                    depths[start] = up
                if depths[end] < down:
                    depths[end] = down
        chains = [self._chains_of(node, depth) for node, depth in zip(nodes, depths)]
        return PathTable(self, nodes, rows, chains)

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
    ) -> int:
        """The interned relation of one path, by shape key.

        A :class:`PathTable` calls this once per distinct key it
        resolves (every row under a callable abstraction).  The concrete
        :class:`AstPath` is built only on a cache miss, or for a callable
        abstraction (which has no cache).  Under ``full`` over an
        overlay, a miss first completes the base index
        (:meth:`_index_base`); once it is complete, a key it lacks is a
        relation the base does not know, and takes the overlay's next
        local id with its string left unspelled -- the id, in the same
        first-miss order, that interning its path string would give.
        """
        if space is not self._space:
            raise RuntimeError(
                "path table outlived its feature space: the extractor was "
                "rebound since; extract the AST again"
            )
        shape_cache = self._shape_cache
        if shape_cache is not None:
            base_cache = self._base_shape_cache
            rel_id = base_cache.get(key)
            if rel_id is not None:
                self._base_shape_hits += 1
                return rel_id
            rel_id = shape_cache.get(key)
            if rel_id is not None:
                return rel_id
            base_len = self._cache_base_len
            if self._full and base_len is not None and (
                len(base_cache) == base_len or self._index_base()
            ):
                rel_id = base_cache.get(key)  # a split just made may hold it
                if rel_id is None:
                    rel_id = shape_cache[key] = space.paths.reserve(key, self._spell)
                return rel_id
        rel_id = space.paths.intern(self._alpha(_row_path(start, end, up, down)))
        if shape_cache is not None:
            if base_len is None or rel_id < base_len:
                self._base_shape_cache[key] = rel_id
            else:
                shape_cache[key] = rel_id
        return rel_id

    def _index_base(self) -> bool:
        """Complete the base half of the shape cache; True if it is.

        Splits each base relation not split before back into its shape:
        ``A↑B↑T↓C↓D`` has the start-side chain ``A, B``, the top kind
        ``T`` and the end-side chain ``D, C`` (listed upward).  Under
        ``full`` a shape spells exactly one string, so the cache holds
        one entry per base relation it indexes, and an entry count equal
        to the base's size proves every base relation indexed -- as it is,
        with no split at all, in the extractor that trained the base.
        """
        cache = self._base_shape_cache
        base_len = self._cache_base_len
        split = self._base_split
        if len(cache) != base_len and split < base_len:
            chain_id = self._chain_id
            # Many relations share a side: one chain walk per distinct side.
            starts: Dict[str, int] = {"": 0}
            ends: Dict[str, int] = {"": 0}
            texts = islice(self._base_of(self._space), split, base_len)
            for rel_id, text in enumerate(texts, split):
                up_side, _, end_side = text.partition(DOWN)
                start_side, _, top = up_side.rpartition(UP)
                start = starts.get(start_side)
                if start is None:
                    start = starts[start_side] = chain_id(start_side.split(UP))
                end = ends.get(end_side)
                if end is None:
                    end = ends[end_side] = chain_id(reversed(end_side.split(DOWN)))
                cache.setdefault((start, top, end), rel_id)
            self._base_split = base_len
        return len(cache) == base_len

    def _chain_id(self, kinds: Iterable[str]) -> int:
        """The interned chain of ``kinds``, listed upward (0: empty)."""
        chain_ids = self._chain_ids
        chain = 0
        for kind in kinds:
            step = (chain, kind)
            chain = chain_ids.get(step) or chain_ids.setdefault(step, len(chain_ids) + 1)
        return chain

    def _chains_of(self, node: Node, depth: int) -> List[int]:
        """``[0, c1, .., cd]``: ``ci`` is the interned kind chain of
        ``node`` and its first ``i - 1`` ancestors (fewer at the root)."""
        chain_ids = self._chain_ids
        ids = [0]
        chain = 0
        current: Optional[Node] = node
        while current is not None and len(ids) <= depth:
            step = (chain, current.kind)
            chain = chain_ids.get(step) or chain_ids.setdefault(step, len(chain_ids) + 1)
            ids.append(chain)
            current = current.parent
        return ids

    def _leafwise_pairs(self, ast: Ast) -> Tuple[List[Row], int]:
        """All admissible leaf pairs as unsorted rows, and the tree's size.

        One post-order pass.  Each node receives, from each child, the
        indices of that subtree's terminals bucketed by depth; a bucket
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

        # Children-before-parents order without recursion; children come
        # left to right, so the terminals come in leaf order.
        order: List[Node] = []
        stack = [ast.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(node.children)
        order.reverse()

        out: List[Row] = []
        if max_width < 1:
            return out, len(order)  # a leafwise path's width is >= 1 by construction
        append = out.append
        n_leaves = len(ast.leaves)
        leaf = 0

        # One entry per finished subtree whose parent is not done yet, in
        # order: its buckets lifted to the parent's level, so entry[d]
        # holds the subtree's terminals d steps below the parent.
        lifted_of: List[List[List[int]]] = []
        for node in order:
            children = node.children
            if not children:
                kept = keep_leaf is None or keep_leaf(node)
                lifted_of.append([[], [leaf]] if kept else [[]])
                leaf += 1
                continue
            width = len(children)
            if width == 1:  # no pairs: lift the one child's buckets
                lifted_of[-1] = [[]] + lifted_of[-1][:max_depth]
                continue
            lifted = lifted_of[-width:]
            del lifted_of[-width:]

            # Pair leaves across child subtrees; this node is the LCA.
            kind = node.kind
            for i in range(width - 1):
                left = lifted[i]
                for right in lifted[i + 1 : i + 1 + max_width]:
                    for depth_a, bucket_a in enumerate(left):
                        if not bucket_a:
                            continue
                        for depth_b, bucket_b in enumerate(right[1 : max_length - depth_a + 1], 1):
                            if not bucket_b:
                                continue
                            for a in bucket_a:
                                first = a * n_leaves
                                for b in bucket_b:
                                    append((first + b, a, b, depth_a, depth_b, kind))

            # Merge the lifted buckets, then lift them for the parent.
            merged: List[List[int]] = [[] for _ in range(max(map(len, lifted)))]
            for lifted_child in lifted:
                for depth, bucket in enumerate(lifted_child):
                    if bucket:
                        merged[depth].extend(bucket)
            lifted_of.append([[]] + merged[:max_depth])
        return out, len(order)


def _spell_shape(chain_ids: Dict[Tuple[int, str], int], key: ShapeKey) -> str:
    """The ``full`` relation of a shape, for a reserved id someone decodes:
    the inverse of the split in :meth:`PathExtractor._index_base`."""
    # Chain ids are dense in insertion order, so the trie's key list maps
    # chain id - 1 to (the chain one kind shorter, that kind).
    steps = list(chain_ids)

    def kinds(chain: int) -> List[str]:  # nearest the top first
        out = []
        while chain:
            chain, kind = steps[chain - 1]
            out.append(kind)
        return out

    start, top, end = key
    return UP.join([*reversed(kinds(start)), top]) + "".join(DOWN + kind for kind in kinds(end))


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
    triples = extractor.extract(ast).triples()
    paths, values = extractor.space.paths, extractor.space.values
    return [
        PathContext(values.value(start), paths.value(rel), values.value(end))
        for start, rel, end in triples
    ]
