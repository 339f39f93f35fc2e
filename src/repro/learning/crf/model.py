"""CRF model: sparse weights and the candidate index.

The model scores an assignment ``y`` of labels to a graph's unknown nodes
as the sum of factor weights (log-potentials):

``score(y) = sum_i [ sum_{(rel,l) in known_i} w_p(y_i, rel, l)
                   + sum_{(rel,j) in edges_i} w_p(y_i, rel, y_j)
                   + sum_{rel in unary_i}     w_u(y_i, rel) ]``

This corresponds to the (log of the) unnormalised product of factors in
Eq. (1); MAP inference does not need the partition function ``Z``.

All weight and index keys are **integer tuples** over the model's
:class:`~repro.core.interning.FeatureSpace`: labels and neighbour values
are value-vocab ids, relations are path-vocab ids; labels intern once at
the boundary (:meth:`label_id`).  Scoring lives in the vectorised
:class:`~repro.learning.crf.compiled.CompiledCrfModel` (:meth:`compile`).
Snapshots are vocab-aware -- :meth:`to_dict` embeds the space, so a
model packed into an artifact (:mod:`repro.artifacts.codec`) resolves
the same ids to the same strings on load and predictions round-trip
bit-identically.

The *candidate index* maps observed ``(rel, neighbour-label)`` contexts to
the gold labels seen with them in training -- the mechanism Nice2Predict
uses to keep inference over a tractable beam of candidate names.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ...core.interning import DEFAULT_SPACE, FeatureSpace
from .graph import CrfGraph, UnknownNode

if TYPE_CHECKING:  # pragma: no cover
    from .compiled import CompiledCrfModel

PairKey = Tuple[int, int, int]  # (label_id, rel_id, other_value_id)
UnaryKey = Tuple[int, int]  # (label_id, rel_id)


class CrfModel:
    """Sparse log-linear model over pairwise and unary factors."""

    def __init__(
        self, use_unary: bool = True, space: Optional[FeatureSpace] = None
    ) -> None:
        # Defaulting to the process-wide space makes a hand-built model
        # agree on ids with hand-built graphs; the trainer and pipelines
        # pass the graphs' (or the representation's) space explicitly.
        self.space = space if space is not None else DEFAULT_SPACE
        self.pair_weights: Dict[PairKey, float] = defaultdict(float)
        self.unary_weights: Dict[UnaryKey, float] = defaultdict(float)
        #: (rel_id, other_value_id) -> Counter of gold label ids.
        self.candidate_index: Dict[Tuple[int, int], Counter] = defaultdict(Counter)
        #: rel_id -> Counter of gold label ids (for unary-only nodes).
        self.unary_candidate_index: Dict[int, Counter] = defaultdict(Counter)
        #: Global label-id frequencies (fallback candidates).
        self.label_counts: Counter = Counter()
        self.use_unary = use_unary
        # Memoized ``most_common(limit)`` prefixes of the candidate
        # counters.  The counters only grow in observe_training_node
        # (which bumps the version and so drops the cache); during
        # inference they are static, and re-running heapq.nlargest per
        # node per sweep dominated the whole MAP pass before this memo.
        self._cand_cache: Dict[tuple, List[Tuple[int, int]]] = {}
        self._cand_array_cache: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}
        self._cand_version = 0
        self._cand_cache_version = 0
        # Label ids ranked by their *string* (the candidate tie-break
        # key), rebuilt lazily whenever the value vocab has grown.
        self._label_rank: Optional[np.ndarray] = None
        self._label_rank_size = -1

    # ------------------------------------------------------------------
    # Label interning boundary
    # ------------------------------------------------------------------
    def label_id(self, label: str) -> int:
        """Intern a label string into the shared value vocabulary."""
        return self.space.values.intern(label)

    def label_of(self, label_id: int) -> str:
        return self.space.values.value(label_id)

    def rel_id(self, rel: str) -> int:
        """Intern a relation string into the shared path vocabulary."""
        return self.space.paths.intern(rel)

    def pair_key(self, label: str, rel: str, other: str) -> PairKey:
        """Build a :data:`PairKey` from strings (tests, inspection)."""
        return (self.label_id(label), self.rel_id(rel), self.label_id(other))

    def unary_key(self, label: str, rel: str) -> UnaryKey:
        """Build a :data:`UnaryKey` from strings (tests, inspection)."""
        return (self.label_id(label), self.rel_id(rel))

    # ------------------------------------------------------------------
    # Candidates
    # ------------------------------------------------------------------
    def observe_training_node(self, node: UnknownNode, graph: CrfGraph) -> None:
        """Record a gold-labelled node into the candidate index."""
        self._cand_version += 1
        gold = self.label_id(node.gold)
        self.label_counts[gold] += 1
        for factor in node.known:
            self.candidate_index[(factor.rel, factor.label)][gold] += 1
        for edge in node.edges:
            other_gold = self.label_id(graph.unknowns[edge.other].gold)
            self.candidate_index[(edge.rel, other_gold)][gold] += 1
        for rel in node.unary:
            self.unary_candidate_index[rel][gold] += 1

    def _sync_cand_caches(self) -> None:
        if self._cand_cache_version != self._cand_version:
            self._cand_cache.clear()
            self._cand_array_cache.clear()
            self._cand_cache_version = self._cand_version

    def _top_candidates(
        self, key: tuple, counter: Counter, limit: int
    ) -> List[Tuple[int, int]]:
        """``counter.most_common(limit)``, memoized until the next observe.

        Returns the *identical* list ``most_common`` would produce (same
        call on the same counter state), so candidate ranking -- ties
        included -- is unchanged; callers must not mutate the result.
        """
        self._sync_cand_caches()
        cached = self._cand_cache.get((key, limit))
        if cached is None:
            cached = counter.most_common(limit)
            self._cand_cache[(key, limit)] = cached
        return cached

    def _top_candidate_arrays(
        self, key: tuple, counter: Counter, limit: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The memoized ``most_common`` prefix as ``(ids, counts)`` arrays."""
        cached = self._cand_array_cache.get((key, limit))
        if cached is None:
            top = self._top_candidates(key, counter, limit)
            cached = (
                np.fromiter((l for l, _ in top), dtype=np.int64, count=len(top)),
                np.fromiter((c for _, c in top), dtype=np.int64, count=len(top)),
            )
            self._cand_array_cache[(key, limit)] = cached
        return cached

    def _label_ranks(self) -> np.ndarray:
        """``rank[label_id]`` = position of the label's string in sorted
        string order -- a proxy for the string tie-break that compares as
        plain int64.  Rebuilt whenever the value vocab has grown."""
        values = self.space.values
        size = len(values)
        if self._label_rank_size != size:
            order = sorted(range(size), key=values.value)
            rank = np.empty(size, dtype=np.int64)
            rank[np.asarray(order, dtype=np.int64)] = np.arange(
                size, dtype=np.int64
            )
            self._label_rank = rank
            self._label_rank_size = size
        return self._label_rank

    def candidate_ids_for(
        self,
        node: UnknownNode,
        assignment_ids: Sequence[int],
        beam: int = 48,
        per_context: int = 12,
        global_fallback: int = 8,
    ) -> List[int]:
        """Candidate label ids for one node given its neighbourhood.

        ``assignment_ids`` maps node index -> current label id, with any
        negative value standing for "outside the model vocabulary" (the
        id-space equivalent of an unseen label string).
        """
        # The merge is vectorised but order-identical to summing counts
        # into a dict and ranking with sorted(key=(-count, label string)):
        # counts stay int64 (exact sums in any order), and ties break on
        # the precomputed string rank -- so candidate order is a function
        # of the corpus, never of interning or context order.
        self._sync_cand_caches()
        arrays = self._top_candidate_arrays
        parts_ids: List[np.ndarray] = []
        parts_counts: List[np.ndarray] = []

        for factor in node.known:
            counter = self.candidate_index.get((factor.rel, factor.label))
            if counter:
                ids, counts = arrays(
                    ("p", factor.rel, factor.label), counter, per_context
                )
                parts_ids.append(ids)
                parts_counts.append(counts)
        for edge in node.edges:
            other_id = assignment_ids[edge.other]
            if other_id < 0:
                continue
            counter = self.candidate_index.get((edge.rel, other_id))
            if counter:
                ids, counts = arrays(("p", edge.rel, other_id), counter, per_context)
                parts_ids.append(ids)
                parts_counts.append(counts)
        if self.use_unary:
            for rel in node.unary:
                counter = self.unary_candidate_index.get(rel)
                if counter:
                    ids, counts = arrays(("u", rel), counter, per_context)
                    parts_ids.append(ids)
                    parts_counts.append(counts)

        fallback = self._top_candidates(("g",), self.label_counts, global_fallback)
        if parts_ids:
            uniq, inverse = np.unique(np.concatenate(parts_ids), return_inverse=True)
            sums = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(sums, inverse, np.concatenate(parts_counts))
            present = set(uniq.tolist())
            extra = [(lid, c) for lid, c in fallback if lid not in present]
        else:
            uniq = np.empty(0, dtype=np.int64)
            sums = np.empty(0, dtype=np.int64)
            extra = list(fallback)
        if extra:
            uniq = np.concatenate(
                [uniq, np.fromiter((l for l, _ in extra), np.int64, len(extra))]
            )
            sums = np.concatenate(
                [sums, np.fromiter((c for _, c in extra), np.int64, len(extra))]
            )
        if not len(uniq):
            return []
        order = np.lexsort((self._label_ranks()[uniq], -sums))
        return uniq[order[:beam]].tolist()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self) -> "CompiledCrfModel":
        """Freeze the current weights into a vectorised scoring pack.

        The compiled model keeps a reference to this model (candidate
        generation and vocabularies stay here); see
        :mod:`repro.learning.crf.compiled`.
        """
        from .compiled import CompiledCrfModel

        return CompiledCrfModel(self)

    # ------------------------------------------------------------------
    # Updates (used by the trainer)
    # ------------------------------------------------------------------
    def add_pair(self, key: PairKey, delta: float) -> None:
        self.pair_weights[key] += delta

    def add_unary(self, key: UnaryKey, delta: float) -> None:
        self.unary_weights[key] += delta

    def l2_decay(self, factor: float) -> None:
        """Multiplicative weight decay (L2 regularisation step)."""
        for key in self.pair_weights:
            self.pair_weights[key] *= factor
        for key in self.unary_weights:
            self.unary_weights[key] *= factor

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    def num_parameters(self) -> int:
        return len(self.pair_weights) + len(self.unary_weights)

    def top_features(self, n: int = 20) -> List[Tuple[str, float]]:
        """Highest-weight features -- CRFs are interpretable (Sec. 5.3)."""
        values = self.space.values
        paths = self.space.paths
        items: List[Tuple[str, float]] = []
        for (label, rel, other), w in self.pair_weights.items():
            items.append(
                (
                    f"pair: {values.value(label)} --[{paths.value(rel)}]--> "
                    f"{values.value(other)}",
                    w,
                )
            )
        for (label, rel), w in self.unary_weights.items():
            items.append(
                (f"unary: {values.value(label)} --[{paths.value(rel)}]--> (self)", w)
            )
        items.sort(key=lambda kv: -abs(kv[1]))
        return items[:n]

    def to_dict(self) -> dict:
        """Vocab-aware plain-data snapshot (what the artifact codec packs).

        Int-tuple keys flatten to rows; the feature space rides along so
        the ids stay meaningful in any process.
        """
        return {
            "space": self.space.to_dict(),
            "pair_weights": [[l, r, o, w] for (l, r, o), w in self.pair_weights.items()],
            "unary_weights": [[l, r, w] for (l, r), w in self.unary_weights.items()],
            # Candidate indexes are part of inference (they bound the label
            # beam), so they persist too -- a reloaded model must propose
            # the same candidates in the same tie-break order.  Counter
            # entries keep their first-observed insertion order, which is
            # what Counter.most_common uses to break count ties.
            "candidate_index": [
                [r, o, list(counter.items())]
                for (r, o), counter in self.candidate_index.items()
            ],
            "unary_candidate_index": [
                [r, list(counter.items())]
                for r, counter in self.unary_candidate_index.items()
            ],
            "label_counts": list(self.label_counts.items()),
            "use_unary": self.use_unary,
        }
