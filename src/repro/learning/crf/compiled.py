"""Vectorized CRF inference: packed weights, packed candidates, whole beams.

:class:`~repro.learning.crf.model.CrfModel` keeps its weights and its
candidate index in python dicts keyed by integer tuples -- ideal for
training updates, terrible for inference, where ICM ranks the candidate
labels of every unknown node once per sweep.  This module re-lays both
as sorted arrays so one node's candidates and its whole beam's scores
each cost a handful of numpy ops:

* At *freeze* time, :class:`CompiledCrfModel` packs ``pair_weights`` and
  ``unary_weights`` into parallel sorted arrays.  Factors are grouped by
  ``(rel_id, other_value_id)`` (unary groups use ``other == -1``), each
  group gets a dense row id, and every weight becomes one entry in a
  sorted ``row * label_base + label_id`` key array -- a CSR-style index
  over the ``(group, label)`` plane.  The candidate index freezes the
  same way, once per :meth:`CrfModel.compile` (a repack re-freezes it
  only when the vocabulary has grown, so tables and pack share one
  label base): :class:`CandidateTables` maps every ``(rel, other)`` context key
  (:func:`group_keys`) to the first :data:`PER_CONTEXT` labels and counts
  of its counter in ``most_common`` order, next to the global
  :data:`GLOBAL_FALLBACK` labels and every label's string rank (the
  tie-break).  A loaded artifact's ``crf/cand_*`` / ``crf/ucand_*``
  sections are already in that order, so its tables index them in place.
* At *graph-compile* time (:meth:`compile_graph`, once per inference
  call), the graph's :meth:`~repro.learning.crf.graph.CrfGraph.columnar`
  view is resolved against the pack: each known/unary factor's group row
  is looked up once, and the factors whose group holds no weight at all
  (no row: neither packed nor in the overflow) are dropped.  What
  remains are the graph's **live rows**.  The known and unary contexts'
  candidate counts -- fixed for the whole graph, unlike an edge's, which
  follows the neighbour's current label -- are merged per node into
  :class:`StaticCandidates`.
* At *call* time, :meth:`CrfModel.candidate_ids_for
  <repro.learning.crf.model.CrfModel.candidate_ids_for>` resolves only
  the node's edges against the candidate table (one ``searchsorted``),
  and :meth:`score_candidates` resolves the same edges against a sorted
  group-key array, builds the ``(live factors x candidates)`` key matrix
  and gathers all weights with **one** ``searchsorted``.  Both lookups
  share the graph's edge keys (:attr:`CompiledGraph.edge_keys`), built
  once in the pack's label base.

**Bit-identity with the scalar oracle** (``tests/oracles/crf.py``) is
the design constraint, not an afterthought: candidate lists and
predictions (tie-breaks included) and suggestion scores must match it
exactly.  Four rules make that hold:

1. The factor-axis reduction is ``np.add.accumulate(w, axis=0)[-1] +
   0.0``: accumulate is sequential by definition, so each candidate's
   sum is the same left-to-right IEEE addition sequence, in factor order
   (known, then edges, then unary), that the scalar loop performs from
   ``+0.0``.  Starting from the first row instead of ``+0.0`` can only
   change the sign of a zero, and the final ``+ 0.0`` clears a ``-0.0``.
   Absent weights contribute ``+0.0``, which is bitwise inert: in
   round-to-nearest ``x + (-x)`` is ``+0.0``, and ``s + 0.0 == s`` for
   every other ``s``.
2. A dead factor is therefore skipped exactly: every candidate would
   gather ``+0.0`` from it, so dropping its row leaves every partial
   sum, and the order of the live rows, unchanged.
3. Candidate ids at or beyond ``label_base`` (overlay-interned request
   strings) and the ``-1`` sentinel (the un-interned ``"?"`` fallback)
   are masked to a zero score, exactly what the scalar path computes for
   a label that matches no trained feature.  Neighbour ids outside
   ``[0, label_base)`` match no context and no group, so they are masked
   before any key is built.
4. Candidate counts are summed as exact integers, so the static/edge
   split changes no total, and the ranking is a total order --
   ``(-count, label string)`` -- so no merge order can show through.

The trainer mutates weights between inference calls, so the pack
supports cheap **write-through**: :meth:`set_pair`/:meth:`set_unary`
update packed entries in place, unseen keys land in a small overflow
dict that scoring consults per *live factor* (not per candidate), and
the pack rebuilds itself once the overflow outgrows a threshold (or a
weight names an id the pack's label base cannot hold).  A group new to
the pack gets the next free row when its first weight is stashed; no
packed key carries that row, so it gathers ``+0.0`` like any miss, and
the sorted group keys take it in before the next edge lookup (they are
keyed on the pack version and the group count).  Overflow weights are
patched into the gathered weight matrix *before* the reduction, so
mid-training scoring stays bit-identical to the scalar oracle too.
Training and serving share this one path.  A group that enters the
overflow after a graph was compiled turns some of that graph's dead
factors live, so a :class:`CompiledGraph` records the overflow's group
count, and scoring refuses it once the count has grown, as it refuses
one resolved against an older pack.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .graph import ColumnarGraph, CrfGraph

if TYPE_CHECKING:  # pragma: no cover
    from collections import Counter

    from .model import CrfModel, PairKey, UnaryKey

#: Sentinel "other" id that keys unary groups in the shared group space
#: (real neighbour value ids are always >= 0, so no collision).
UNARY_OTHER = -1

#: How many labels one context proposes: its counter's ``most_common``
#: prefix.
PER_CONTEXT = 12

#: How many globally most frequent labels every beam falls back on.
GLOBAL_FALLBACK = 8


def group_keys(rel, other, base: int):
    """``(rel, other)`` as one sortable int: ``rel * (base + 1) + other + 1``.

    Unique for every ``UNARY_OTHER <= other < base``; callers mask any
    other neighbour id (overlay-local or ``-1`` for an edge) first.
    """
    return rel * (base + 1) + (other + 1)


def _ranges(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """``concatenate([arange(a, b) for a, b in zip(start, stop)])``."""
    lens = stop - start
    ends = np.cumsum(lens)
    return np.arange(int(ends[-1]) if len(ends) else 0) + np.repeat(
        start - (ends - lens), lens
    )


def _sum_runs(keys: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct ``keys`` (ascending) and the exact int64 sum of each one's counts."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[first], np.add.reduceat(counts[order], first)


def _find(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Position of every needle in the sorted ``haystack`` (``-1`` if absent)."""
    if not len(haystack):
        return np.full(len(needles), -1, dtype=np.int64)
    positions = np.searchsorted(haystack, needles)
    np.minimum(positions, len(haystack) - 1, out=positions)
    return np.where(haystack[positions] == needles, positions, -1)


@dataclass(frozen=True)
class CandidateTable:
    """Context key -> its first :data:`PER_CONTEXT` candidates.

    ``keys`` is sorted (:func:`group_keys`); context ``r``'s labels and
    counts are ``labels[start[r]:stop[r]]`` / ``counts[...]``, in
    ``most_common`` order.  ``labels`` / ``counts`` may be any int
    dtype -- a loaded artifact's int32 sections, indexed in place.
    """

    keys: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    labels: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_csr(
        cls,
        keys: np.ndarray,
        offsets: np.ndarray,
        labels: np.ndarray,
        counts: np.ndarray,
    ) -> "CandidateTable":
        """Sort CSR rows (``offsets`` has ``len(keys) + 1`` entries) by key."""
        order = np.argsort(keys, kind="stable")
        offsets = np.asarray(offsets, dtype=np.int64)
        start = offsets[:-1][order]
        stop = np.minimum(offsets[1:][order], start + PER_CONTEXT)
        return cls(keys[order], start, stop, labels, counts)

    def gather(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows' labels and counts (int64, concatenated) and row lengths."""
        start, stop = self.start[rows], self.stop[rows]
        items = _ranges(start, stop)
        return (
            self.labels[items].astype(np.int64, copy=False),
            self.counts[items].astype(np.int64, copy=False),
            stop - start,
        )


@dataclass(frozen=True)
class CandidateTables:
    """The frozen candidate index of one compiled model.

    ``pair`` holds the ``(rel, neighbour label)`` contexts, ``unary`` the
    ``(rel, UNARY_OTHER)`` ones; ``base`` bounds every label and
    neighbour id they hold.  ``fallback_*`` are the global top
    :data:`GLOBAL_FALLBACK` labels with their counts, and ``rank[label]``
    is the label's position in string order among every label a table
    or the fallback can propose -- the candidate tie-break as one int.
    """

    base: int
    pair: CandidateTable
    unary: CandidateTable
    fallback_ids: np.ndarray
    fallback_counts: np.ndarray
    rank: np.ndarray

    @classmethod
    def build(
        cls,
        values,
        base: int,
        pair: CandidateTable,
        unary: CandidateTable,
        fallback: Iterable[Tuple[int, int]],
    ) -> "CandidateTables":
        """Tables plus the ranks; ``fallback`` is ``label_counts.most_common(8)``."""
        fallback = list(fallback)
        fallback_ids = np.array([label for label, _ in fallback], dtype=np.int64)
        fallback_counts = np.array([count for _, count in fallback], dtype=np.int64)
        proposed = np.unique(
            np.concatenate((pair.labels, unary.labels, fallback_ids), dtype=np.int64)
        )
        rank = np.zeros(base, dtype=np.int64)
        rank[sorted(proposed.tolist(), key=values.value)] = np.arange(len(proposed))
        return cls(base, pair, unary, fallback_ids, fallback_counts, rank)

    @classmethod
    def of_model(cls, model: "CrfModel") -> "CandidateTables":
        """Freeze a dict-backed model's candidate counters."""
        base = max(1, len(model.space.values))

        def table(contexts: Iterable[Tuple[int, "Counter"]]) -> CandidateTable:
            keys: List[int] = []
            offsets = [0]
            labels: List[int] = []
            counts: List[int] = []
            for key, counter in contexts:
                for label, count in counter.most_common(PER_CONTEXT):
                    labels.append(label)
                    counts.append(count)
                keys.append(key)
                offsets.append(len(labels))
            return CandidateTable.from_csr(
                np.array(keys, dtype=np.int64),
                np.array(offsets, dtype=np.int64),
                np.array(labels, dtype=np.int64),
                np.array(counts, dtype=np.int64),
            )

        return cls.build(
            model.space.values,
            base,
            table(
                (group_keys(rel, other, base), counter)
                for (rel, other), counter in model.candidate_index.items()
            ),
            table(
                (group_keys(rel, UNARY_OTHER, base), counter)
                for rel, counter in model.unary_candidate_index.items()
            ),
            model.label_counts.most_common(GLOBAL_FALLBACK),
        )


def _rank(
    tables: CandidateTables, labels: np.ndarray, counts: np.ndarray, beam: int
) -> List[int]:
    """Distinct ``labels`` plus the missing fallback, by (-count, string)."""
    fallback = tables.fallback_ids
    if len(labels):
        at = np.minimum(np.searchsorted(labels, fallback), len(labels) - 1)
        missing = labels[at] != fallback
        labels = np.concatenate((labels, fallback[missing]))
        counts = np.concatenate((counts, tables.fallback_counts[missing]))
    else:
        labels, counts = fallback, tables.fallback_counts
    # Ranks are unique, so (-count, rank) packs into one int64 sort key.
    order = np.argsort(tables.rank[labels] - counts * tables.base)
    return labels[order[:beam]].tolist()


@dataclass(frozen=True)
class StaticCandidates:
    """A graph's candidate counts that no assignment can change.

    ``ids[off[i]:off[i + 1]]`` are the distinct labels node ``i``'s known
    (and, with unary factors on, unary) contexts propose, ascending,
    with their exact summed ``counts``.
    """

    tables: CandidateTables
    off: List[int]
    ids: np.ndarray
    counts: np.ndarray

    @classmethod
    def of_graph(
        cls, tables: CandidateTables, cols: ColumnarGraph, use_unary: bool
    ) -> "StaticCandidates":
        n, base = cols.n_nodes, tables.base
        nodes = np.arange(n, dtype=np.int64)
        # (table, owning node, table row) per context occurrence; a
        # neighbour label outside [0, base) is in no context.
        label = cols.known_label
        contexts = [
            (
                tables.pair,
                np.repeat(nodes, np.diff(cols.known_off)),
                np.where(
                    (label >= 0) & (label < base),
                    _find(tables.pair.keys, group_keys(cols.known_rel, label, base)),
                    -1,
                ),
            )
        ]
        if use_unary:
            contexts.append(
                (
                    tables.unary,
                    np.repeat(nodes, np.diff(cols.unary_off)),
                    _find(
                        tables.unary.keys, group_keys(cols.unary_rel, UNARY_OTHER, base)
                    ),
                )
            )
        node_keys, counts = [], []
        for table, owner, row in contexts:
            hit = row >= 0
            labels, found, lens = table.gather(row[hit])
            node_keys.append(np.repeat(owner[hit], lens) * base + labels)
            counts.append(found)
        keys, sums = np.concatenate(node_keys), np.concatenate(counts)
        if len(keys):
            keys, sums = _sum_runs(keys, sums)
        owner, ids = np.divmod(keys, base)
        return cls(
            tables=tables,
            off=np.searchsorted(owner, np.arange(n + 1)).tolist(),
            ids=ids,
            counts=sums,
        )

    def for_node(
        self, index: int, edge_keys: np.ndarray, others: np.ndarray, beam: int
    ) -> List[int]:
        """Node ``index``'s candidates, its edges' neighbours labelled ``others``.

        ``edge_keys`` are the node's edges' context keys less the
        neighbour id (:attr:`CompiledGraph.edge_keys`) and ``others`` the
        neighbours' current label ids (negative or ``>= base``: in no
        context).
        """
        tables = self.tables
        start, end = self.off[index], self.off[index + 1]
        labels, counts = self.ids[start:end], self.counts[start:end]
        if len(others):
            rows = _find(tables.pair.keys, edge_keys + others)
            rows = rows[(rows >= 0) & (others >= 0) & (others < tables.base)]
            edge_labels, edge_counts, _ = tables.pair.gather(rows)
            if len(edge_labels):
                labels, counts = _sum_runs(
                    np.concatenate((labels, edge_labels)),
                    np.concatenate((counts, edge_counts)),
                )
        return _rank(tables, labels, counts, beam)


@dataclass(frozen=True)
class LiveFactors:
    """The known (or unary) factors of one graph that can carry a weight.

    A factor is *live* when its ``(rel, other)`` group has a row: a
    packed one, or one given to a group born in the overflow.  ``rows``
    holds the live factors' rows in factor order, ``groups`` their group
    keys (for the overflow patch), and node ``i``'s live factors sit at
    ``off[i]:off[i + 1]``.
    """

    rows: np.ndarray
    groups: List[Tuple[int, int]]
    off: List[int]


@dataclass(frozen=True)
class CompiledGraph:
    """One graph resolved against one weight pack.

    ``known_rows`` / ``unary_rows`` are flat arrays parallel with the
    :class:`~repro.learning.crf.graph.ColumnarGraph` factor columns:
    each entry is the group row of that factor (or ``-1`` when the pack
    holds no row for its group).  ``live_known`` / ``live_unary``
    are the subsets scoring reads; the rest hold no weight and would add
    ``+0.0``.  Edge rows and liveness depend on the evolving assignment,
    so they resolve per call instead, from ``edge_keys``: each edge's
    :func:`group_keys` less the neighbour id, in the pack's label base,
    which keys both the candidate table and the weight groups.  ``known_off`` /
    ``edge_off`` / ``unary_off`` are the columnar CSR offsets over all
    factors.  ``candidates`` holds the per-node candidate counts of the
    known and unary contexts.

    ``pack_version`` pins the pack this resolution belongs to and
    ``overflow_groups`` the overflow's group count at compile time;
    scoring against a repacked model, or after a new group entered the
    overflow (which may have turned a dead factor live), raises rather
    than silently mis-gathering.
    """

    cols: ColumnarGraph
    known_rows: np.ndarray
    unary_rows: np.ndarray
    pack_version: int
    overflow_groups: int
    known_off: List[int]
    edge_off: List[int]
    unary_off: List[int]
    live_known: LiveFactors
    live_unary: LiveFactors
    edge_keys: np.ndarray
    candidates: StaticCandidates


def _live(
    groups: List[Tuple[int, int]], rows: np.ndarray, off: np.ndarray
) -> LiveFactors:
    """Keep the factors whose group has a row, split per node.

    One mask over the flat columns; a node's live range starts at the
    number of live factors before its CSR offset.
    """
    kept = np.flatnonzero(rows >= 0)
    return LiveFactors(
        rows=rows[kept],
        groups=[groups[i] for i in kept.tolist()],
        off=np.searchsorted(kept, off).tolist(),
    )


class CompiledCrfModel:
    """A :class:`CrfModel` frozen into sorted weight and candidate arrays.

    Wraps (and keeps a reference to) the dict-backed model, whose
    vocabularies it reads; scoring and candidate generation run on the
    packed arrays.  Build one with :meth:`CrfModel.compile`, which also
    freezes the candidate index: a node observed after that is not a
    candidate source for this pack (unless a repack finds the vocabulary
    grown and re-freezes the tables in the new base).
    """

    def __init__(self, model: "CrfModel") -> None:
        self.model = model
        self._pack_version = 0
        self._dirty = False
        self._last_compiled: Optional[CompiledGraph] = None
        self._sorted_groups: Optional[Tuple[int, int, np.ndarray, np.ndarray]] = None
        self._candidates: Optional[CandidateTables] = None
        self._pack()

    @classmethod
    def from_buffers(
        cls,
        model: "CrfModel",
        group_of: Dict[Tuple[int, int], int],
        keys: np.ndarray,
        weights: np.ndarray,
        label_base: int,
        candidates: CandidateTables,
    ) -> "CompiledCrfModel":
        """Adopt pre-packed planes without copying (the mmap load path).

        ``keys`` / ``weights`` are the sorted combined-key and weight
        arrays exactly as :meth:`_pack` would build them -- typically
        zero-copy views over a ``pigeon-model/1`` mapping, shared
        page-for-page between every process serving the same artifact --
        and ``candidates`` the frozen candidate index over the same
        mapping.  The write-through position maps start empty:
        binary-loaded models are read-only, so no trainer ever calls
        :meth:`set_pair` / :meth:`set_unary` on this pack (and the
        backing buffers would refuse the write anyway).
        """
        self = cls.__new__(cls)
        self.model = model
        self._pack_version = 1
        self._dirty = False
        self._label_base = max(1, int(label_base))
        self._group_of = group_of
        # Scoring builds its needles in the key plane's dtype (a needle of
        # another dtype makes every searchsorted convert the whole plane).
        # A narrow plane keeps its dtype while the largest needle,
        # ``len(group_of) * label_base - 1``, fits in it, and is widened
        # once here otherwise.
        if (
            keys.dtype != np.int64
            and len(group_of) * self._label_base - 1 > np.iinfo(keys.dtype).max
        ):
            keys = keys.astype(np.int64)
        self._keys = keys
        self._weights = weights
        self._pair_pos = {}
        self._unary_pos = {}
        self._overflow = {}
        self._overflow_count = 0
        self._last_compiled = None
        self._candidates = candidates
        self._sorted_groups = None
        return self

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------
    def _pack(self) -> None:
        """(Re)build the sorted key/weight arrays from the model dicts."""
        model = self.model
        self._label_base = base = max(1, len(model.space.values))
        if self._candidates is None or self._candidates.base != base:
            # Graphs key their edges once, in the pack's base, for both
            # the candidate table and the weight groups.
            self._candidates = CandidateTables.of_model(model)
        group_of: Dict[Tuple[int, int], int] = {}
        combined: List[int] = []
        weights: List[float] = []
        pair_keys: List[Tuple[int, int, int]] = []
        unary_keys: List[Tuple[int, int]] = []
        origins: List[Tuple[bool, int]] = []  # (is_pair, index into *_keys)
        for key, weight in model.pair_weights.items():
            label, rel, other = key
            row = group_of.setdefault((rel, other), len(group_of))
            combined.append(row * base + label)
            weights.append(weight)
            origins.append((True, len(pair_keys)))
            pair_keys.append(key)
        for ukey, weight in model.unary_weights.items():
            label, rel = ukey
            row = group_of.setdefault((rel, UNARY_OTHER), len(group_of))
            combined.append(row * base + label)
            weights.append(weight)
            origins.append((False, len(unary_keys)))
            unary_keys.append(ukey)

        order = np.argsort(np.asarray(combined, dtype=np.int64), kind="stable")
        keys_arr = np.asarray(combined, dtype=np.int64)[order]
        weights_arr = np.asarray(weights, dtype=np.float64)[order]
        pair_pos: Dict["PairKey", int] = {}
        unary_pos: Dict["UnaryKey", int] = {}
        for sorted_index, original in enumerate(order.tolist()):
            is_pair, key_index = origins[original]
            if is_pair:
                pair_pos[pair_keys[key_index]] = sorted_index
            else:
                unary_pos[unary_keys[key_index]] = sorted_index

        self._group_of = group_of
        self._keys = keys_arr
        self._weights = weights_arr
        self._pair_pos = pair_pos
        self._unary_pos = unary_pos
        #: group key -> {label_id: weight}; weights for keys born after
        #: the pack.  Consulted per live factor during scoring, folded
        #: back in at the next repack.
        self._overflow: Dict[Tuple[int, int], Dict[int, float]] = {}
        self._overflow_count = 0
        self._dirty = False
        self._pack_version += 1

    @property
    def pack_version(self) -> int:
        return self._pack_version

    @property
    def label_base(self) -> int:
        """Vocab size at pack time; candidate ids must stay below it."""
        return self._label_base

    def invalidate(self) -> None:
        """Mark the pack stale (bulk model mutation, e.g. weight decay)."""
        self._dirty = True

    def _refresh(self) -> None:
        if self._dirty:
            self._pack()

    def _repack_threshold(self) -> int:
        return max(256, len(self._keys) // 4)

    def _group_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every group's sorted :func:`group_keys` and their rows.

        Keyed on the pack version (a repack may keep the group count and
        still renumber every row) and on the group count: groups born in
        the overflow are only ever appended to ``group_of``, so the
        index inserts the new ones and stays sorted.
        """
        group_of = self._group_of
        cached = self._sorted_groups
        if cached is None or cached[0] != self._pack_version:
            empty = np.zeros(0, dtype=np.int64)
            cached = (self._pack_version, 0, empty, empty)
        _, indexed, keys, rows = cached
        if indexed != len(group_of):
            new = list(islice(group_of.items(), indexed, None))
            groups = np.array([group for group, _ in new], dtype=np.int64)
            new_keys = group_keys(groups[:, 0], groups[:, 1], self._label_base)
            order = np.argsort(new_keys)
            at = np.searchsorted(keys, new_keys[order])
            keys = np.insert(keys, at, new_keys[order])
            rows = np.insert(rows, at, np.array([row for _, row in new])[order])
            self._sorted_groups = (self._pack_version, len(group_of), keys, rows)
        return keys, rows

    # ------------------------------------------------------------------
    # Write-through (the trainer's update path)
    # ------------------------------------------------------------------
    def set_pair(self, key: "PairKey", value: float) -> None:
        """Mirror ``model.pair_weights[key] = value`` into the pack."""
        position = self._pair_pos.get(key)
        if position is not None:
            self._weights[position] = value
            return
        label, rel, other = key
        self._stash((rel, other), label, value)

    def set_unary(self, key: "UnaryKey", value: float) -> None:
        """Mirror ``model.unary_weights[key] = value`` into the pack."""
        position = self._unary_pos.get(key)
        if position is not None:
            self._weights[position] = value
            return
        label, rel = key
        self._stash((rel, UNARY_OTHER), label, value)

    def _stash(self, group: Tuple[int, int], label: int, value: float) -> None:
        bucket = self._overflow.get(group)
        if bucket is None:
            bucket = self._overflow[group] = {}
            # A group new to the pack gets the next free row.  No packed
            # key carries that row, so scoring gathers +0.0 there and
            # patches the bucket in, and the group's factors read as live.
            self._group_of.setdefault(group, len(self._group_of))
        if label not in bucket:
            self._overflow_count += 1
        bucket[label] = value
        if (
            self._overflow_count > self._repack_threshold()
            or max(label, group[1]) >= self._label_base
        ):
            self._pack()

    # ------------------------------------------------------------------
    # Graph compilation
    # ------------------------------------------------------------------
    def compile_graph(self, graph: CrfGraph) -> CompiledGraph:
        """Resolve one graph's columnar factors to live rows of this pack.

        Also merges every node's known and unary candidate counts.  The
        group-row lookups here are the only per-factor python work the
        vectorized engine performs.  The last resolution is reused
        while the graph's columnar view (cached until the graph changes),
        the pack and the overflow's group count are the same: a suggest
        request ranks every node of one graph against one pack, and
        compiles it once.
        """
        self._refresh()
        cols = graph.columnar()
        memo = self._last_compiled
        if (
            memo is not None
            and memo.cols is cols
            and memo.pack_version == self._pack_version
            and memo.overflow_groups == len(self._overflow)
        ):
            return memo
        known_groups = list(zip(cols.known_rel_list, cols.known_label_list))
        unary_groups = list(zip(cols.unary_rel_list, repeat(UNARY_OTHER)))
        known_rows = self._rows_of(known_groups)
        unary_rows = self._rows_of(unary_groups)
        compiled = CompiledGraph(
            cols=cols,
            known_rows=known_rows,
            unary_rows=unary_rows,
            pack_version=self._pack_version,
            overflow_groups=len(self._overflow),
            known_off=cols.known_off.tolist(),
            edge_off=cols.edge_off.tolist(),
            unary_off=cols.unary_off.tolist(),
            live_known=_live(known_groups, known_rows, cols.known_off),
            live_unary=_live(unary_groups, unary_rows, cols.unary_off),
            edge_keys=group_keys(cols.edge_rel, 0, self._label_base),
            candidates=StaticCandidates.of_graph(
                self._candidates, cols, self.model.use_unary
            ),
        )
        self._last_compiled = compiled
        return compiled

    def _rows_of(self, groups: List[Tuple[int, int]]) -> np.ndarray:
        """The row of every group (``-1`` for a group holding no weight)."""
        return np.fromiter(
            map(self._group_of.get, groups, repeat(-1)),
            dtype=np.int64,
            count=len(groups),
        )

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_candidates(
        self,
        cg: CompiledGraph,
        index: int,
        candidates: np.ndarray,
        assignment_ids: np.ndarray,
    ) -> np.ndarray:
        """Scores of every candidate label for node ``index`` at once.

        ``candidates`` is an ``int64`` array of label ids; ``-1`` (or any
        id at/above :attr:`label_base`) means "no trained feature can
        match" and scores exactly ``0.0``.  ``assignment_ids`` is the
        current assignment as an ``int64`` array over all nodes (``-1``
        for labels outside the model vocabulary).  Only the node's live
        factors are gathered and summed.  Bit-identical to the scalar
        oracle's ``node_score`` per candidate.
        """
        if cg.pack_version != self._pack_version:
            raise RuntimeError(
                "CompiledGraph was resolved against pack version "
                f"{cg.pack_version}, but the model has repacked to "
                f"{self._pack_version}; call compile_graph() again"
            )
        overflow = self._overflow
        if cg.overflow_groups != len(overflow):
            raise RuntimeError(
                "CompiledGraph was resolved with "
                f"{cg.overflow_groups} overflow groups, but the overflow "
                f"has grown to {len(overflow)}; call compile_graph() again"
            )
        known, unary = cg.live_known, cg.live_unary
        ks, ke = known.off[index], known.off[index + 1]
        es, ee = cg.edge_off[index], cg.edge_off[index + 1]
        us, ue = unary.off[index], unary.off[index + 1]
        if not self.model.use_unary:
            us = ue

        edge_rows = np.zeros(0, dtype=np.int64)
        edge_groups: List[Tuple[int, int]] = []
        if ee > es:
            # Neighbours outside [0, label_base) -- unassigned, unseen or
            # overlay-local -- match no group; the scalar path skips
            # those edges the same way.
            others = assignment_ids[cg.cols.edge_other[es:ee]]
            sorted_keys, group_rows = self._group_index()
            found = _find(sorted_keys, cg.edge_keys[es:ee] + others)
            valid = (found >= 0) & (others >= 0) & (others < self._label_base)
            edge_rows = group_rows[found[valid]]
            if overflow:
                edge_groups = list(
                    zip(
                        cg.cols.edge_rel[es:ee][valid].tolist(),
                        others[valid].tolist(),
                    )
                )
        n_candidates = len(candidates)
        n_factors = ke - ks + len(edge_rows) + ue - us
        if not n_factors:
            return np.zeros(n_candidates, dtype=np.float64)
        rows = np.concatenate((known.rows[ks:ke], edge_rows, unary.rows[us:ue]))

        valid = (candidates >= 0) & (candidates < self._label_base)
        all_valid = bool(valid.all())
        safe = candidates if all_valid else np.where(valid, candidates, 0)
        weight_matrix = self._gather(rows, safe)
        if overflow:
            self._patch_overflow(
                weight_matrix,
                candidates,
                chain(known.groups[ks:ke], edge_groups, unary.groups[us:ue]),
            )
        if not all_valid:
            weight_matrix[:, ~valid] = 0.0

        # Sequential along the factor axis: the scalar loop's addition
        # order per candidate (rule 1; ``+ 0.0`` clears a ``-0.0``).
        return np.add.accumulate(weight_matrix, axis=0, dtype=np.float64)[-1] + 0.0

    def _gather(self, rows: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """The packed weight of every ``(rows[f], candidates[c])`` pair.

        ``candidates`` must lie in ``[0, label_base)``; absent keys read
        ``+0.0``.  The needles are built in the key plane's dtype, so the
        ``searchsorted`` never converts the plane.
        """
        keys = self._keys
        shape = (len(rows), len(candidates))
        if not len(keys):
            return np.zeros(shape, dtype=np.float64)
        dtype = keys.dtype
        needles = (
            rows.astype(dtype, copy=False)[:, None] * dtype.type(self._label_base)
            + candidates.astype(dtype, copy=False)[None, :]
        ).ravel()
        positions = np.searchsorted(keys, needles)
        np.minimum(positions, len(keys) - 1, out=positions)
        return np.where(
            keys[positions] == needles, self._weights[positions], 0.0
        ).reshape(shape)

    def _patch_overflow(
        self,
        weight_matrix: np.ndarray,
        candidates: np.ndarray,
        groups: Iterable[Tuple[int, int]],
    ) -> None:
        """Write post-pack weights into the gathered matrix, in place.

        ``groups`` are the live rows' group keys in factor order; only
        the trainer's unrepacked updates have buckets to write.
        """
        overflow = self._overflow
        for f, group in enumerate(groups):
            bucket = overflow.get(group)
            if bucket:
                for label, value in bucket.items():
                    weight_matrix[f, candidates == label] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledCrfModel({len(self._keys)} weights, "
            f"{len(self._group_of)} groups, pack v{self._pack_version})"
        )
