"""Vectorized CRF inference: the weight plane, frozen candidates, whole beams.

A :class:`~repro.learning.crf.model.CrfModel` keeps its weights in one
sorted ``(group, label)`` plane
(:class:`~repro.learning.crf.weights.WeightPlane`) -- the same plane the
trainer updates and an artifact maps -- and its candidate index in
count columns (:class:`~repro.learning.crf.candidates.CandidateIndex`).
ICM ranks the candidate labels of every unknown node once per sweep, so
this module reads the plane in place and freezes the candidate index
into sorted lookup tables; one node's candidates and its whole beam's
scores then each cost a handful of numpy ops:

* At *freeze* time (:meth:`CrfModel.compile`),
  :meth:`CandidateTables.freeze` maps every ``(rel, other)`` context key
  (:func:`~repro.learning.crf.weights.group_keys`) to the first
  :data:`PER_CONTEXT` labels and counts of its row, next to the global
  :data:`GLOBAL_FALLBACK` labels and every label's string rank (the
  tie-break).  The index's rows are already in ``most_common`` order,
  so the tables index its columns in place -- a live model's and a
  loaded artifact's sections alike.  The tables share the plane's label
  base: when an update re-keys the plane to a larger base, the next
  graph compile re-freezes them.
* At *graph-compile* time (:meth:`compile_graph`, once per inference
  call), the graph's :meth:`~repro.learning.crf.graph.CrfGraph.columnar`
  view (its factor rows grouped per node) is resolved against the
  plane: one ``searchsorted`` over the sorted group keys finds every
  known/unary factor's group row, and the factors whose group has no
  row (no weight at all) are dropped.  What remains are the graph's
  **live rows**.  The known and unary contexts' candidate counts --
  fixed for the whole graph, unlike an edge's, which follows the
  neighbour's current label -- are merged per node into
  :class:`StaticCandidates`.
* At *call* time, :meth:`CrfModel.candidate_ids_for
  <repro.learning.crf.model.CrfModel.candidate_ids_for>` resolves only
  the node's edges against the candidate table (one ``searchsorted``),
  and :meth:`score_candidates` resolves the same edges against the
  plane's group keys, builds the ``(live factors x candidates)`` key
  matrix and gathers all weights with **one** ``searchsorted``.  Both
  lookups share the graph's edge keys (:attr:`CompiledGraph.edge_keys`),
  built once in the plane's label base.

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

The trainer updates the plane between inference calls, and scoring
always reads its current weights, so mid-training scoring is
bit-identical to the oracle too.  Group rows never change, so a
compiled graph stays valid while weights change.  A group born after
the compile may turn one of the graph's dead factors live, and a re-key
moves every group key, so a :class:`CompiledGraph` records the plane's
group count and base, and scoring refuses it once either has changed.
Training and serving share this one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from .graph import ColumnarGraph, CrfGraph
from .weights import UNARY_OTHER, find, group_keys

if TYPE_CHECKING:  # pragma: no cover
    from .candidates import CandidateIndex
    from .model import CrfModel

#: How many labels one context proposes: the ``most_common`` prefix of its
#: row.
PER_CONTEXT = 12

#: How many globally most frequent labels every beam falls back on.
GLOBAL_FALLBACK = 8


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
    def freeze(
        cls, index: "CandidateIndex", values, base: int
    ) -> "CandidateTables":
        """The tables of a candidate index, keyed in label base ``base``.

        The index's label and count columns are already in
        ``most_common`` order, so the tables index them in place (a
        loaded artifact's mmapped sections, too); only the sorted
        context keys, their row bounds and the ranks are new arrays.
        ``values`` names the labels, for the string tie-break.
        """
        contexts = index.cand_ctx.astype(np.int64).reshape(-1, 2)
        pair = CandidateTable.from_csr(
            group_keys(contexts[:, 0], contexts[:, 1], base),
            index.cand_off,
            index.cand_labels,
            index.cand_counts,
        )
        unary = CandidateTable.from_csr(
            group_keys(index.ucand_rel.astype(np.int64), UNARY_OTHER, base),
            index.ucand_off,
            index.ucand_labels,
            index.ucand_counts,
        )
        fallback_ids = index.label_ids[:GLOBAL_FALLBACK].astype(np.int64)
        fallback_counts = index.label_freqs[:GLOBAL_FALLBACK].astype(np.int64)
        proposed = np.unique(
            np.concatenate((pair.labels, unary.labels, fallback_ids), dtype=np.int64)
        )
        rank = np.zeros(base, dtype=np.int64)
        rank[sorted(proposed.tolist(), key=values.value)] = np.arange(len(proposed))
        return cls(base, pair, unary, fallback_ids, fallback_counts, rank)


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
                    find(tables.pair.keys, group_keys(cols.known_rel, label, base)),
                    -1,
                ),
            )
        ]
        if use_unary:
            contexts.append(
                (
                    tables.unary,
                    np.repeat(nodes, np.diff(cols.unary_off)),
                    find(
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
            rows = find(tables.pair.keys, edge_keys + others)
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

    A factor is *live* when its ``(rel, other)`` group has a row in the
    plane.  ``rows`` holds the live factors' rows in factor order, and
    node ``i``'s live factors sit at ``off[i]:off[i + 1]``.
    """

    rows: np.ndarray
    off: List[int]


@dataclass(frozen=True)
class CompiledGraph:
    """One graph resolved against one weight plane.

    ``live_known`` / ``live_unary`` are the known and unary factors of
    the :class:`~repro.learning.crf.graph.ColumnarGraph` whose group has
    a row in the plane, the ones scoring reads; the rest hold no weight
    and would add ``+0.0``.  Edge rows and liveness depend on the
    evolving assignment, so they resolve per call instead, from
    ``edge_keys``: each edge's :func:`~repro.learning.crf.weights.group_keys`
    less the neighbour id, in the plane's label base, which keys both
    the candidate table and the weight groups.  ``known_off`` /
    ``edge_off`` / ``unary_off`` are the columnar CSR offsets over all
    factors.  ``candidates`` holds the per-node candidate counts of the
    known and unary contexts.

    ``groups`` and ``base`` are the plane's group count and label base
    at compile time; scoring after a new group was born (which may have
    turned a dead factor live) or after a re-key raises rather than
    silently mis-gathering.
    """

    cols: ColumnarGraph
    groups: int
    base: int
    known_off: List[int]
    edge_off: List[int]
    unary_off: List[int]
    live_known: LiveFactors
    live_unary: LiveFactors
    edge_keys: np.ndarray
    candidates: StaticCandidates


def _live(rows: np.ndarray, off: np.ndarray) -> LiveFactors:
    """Keep the factors whose group has a row, split per node.

    One mask over the flat columns; a node's live range starts at the
    number of live factors before its CSR offset.
    """
    kept = np.flatnonzero(rows >= 0)
    return LiveFactors(rows=rows[kept], off=np.searchsorted(kept, off).tolist())


class CompiledCrfModel:
    """A :class:`CrfModel`'s weight plane plus its frozen candidate tables.

    Keeps a reference to the model, whose vocabularies and plane it
    reads: weight changes show in the next score, with no rebuild.
    Build one with :meth:`CrfModel.compile`, which freezes the model's
    candidate index (:meth:`CandidateTables.freeze`), live or loaded
    alike.
    """

    def __init__(self, model: "CrfModel") -> None:
        self.model = model
        self.plane = model.plane
        self._last_compiled: Optional[CompiledGraph] = None
        self._freeze_candidates()

    def _freeze_candidates(self) -> None:
        """Freeze the candidate index in the plane's base.

        A writable plane first grows its base to the vocabulary; a
        read-only (loaded) one keeps the base it was saved with, and ids
        interned after loading match no context.
        """
        values = self.model.space.values
        if self.plane.writable:
            self.plane.reserve(max(1, len(values)))
        self._candidates = CandidateTables.freeze(
            self.model.candidates, values, self.plane.base
        )

    @property
    def label_base(self) -> int:
        """The plane's label base; candidate ids must stay below it."""
        return self.plane.base

    # ------------------------------------------------------------------
    # Graph compilation
    # ------------------------------------------------------------------
    def compile_graph(self, graph: CrfGraph) -> CompiledGraph:
        """Resolve one graph's columnar factors to live rows of the plane.

        Also merges every node's known and unary candidate counts.  The
        group rows resolve with one ``searchsorted`` against the sorted
        group keys that edge scoring uses too.  The last resolution is
        reused while the graph's columnar view (cached until the graph
        changes) and the plane's group count and base are the same: a
        suggest request ranks every node of one graph, and compiles it
        once.
        """
        plane = self.plane
        if self._candidates.base != plane.base:
            self._freeze_candidates()
        cols = graph.columnar()
        memo = self._last_compiled
        if (
            memo is not None
            and memo.cols is cols
            and memo.groups == len(plane.groups)
            and memo.base == plane.base
        ):
            return memo
        base = plane.base
        k = len(cols.known_rel)
        rel = np.concatenate((cols.known_rel, cols.unary_rel))
        other = np.concatenate((cols.known_label, np.full(len(cols.unary_rel), UNARY_OTHER)))
        rows = plane.group_rows(group_keys(rel, other, base))
        # A neighbour label outside [0, base) is in no group.
        rows[:k][(other[:k] < 0) | (other[:k] >= base)] = -1
        compiled = CompiledGraph(
            cols=cols,
            groups=len(plane.groups),
            base=base,
            known_off=cols.known_off.tolist(),
            edge_off=cols.edge_off.tolist(),
            unary_off=cols.unary_off.tolist(),
            live_known=_live(rows[:k], cols.known_off),
            live_unary=_live(rows[k:], cols.unary_off),
            edge_keys=group_keys(cols.edge_rel, 0, base),
            candidates=StaticCandidates.of_graph(
                self._candidates, cols, self.model.use_unary
            ),
        )
        self._last_compiled = compiled
        return compiled

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
        plane = self.plane
        base = plane.base
        if cg.groups != len(plane.groups) or cg.base != base:
            raise RuntimeError(
                f"CompiledGraph was resolved against {cg.groups} weight groups "
                f"in label base {cg.base}, but the plane now has "
                f"{len(plane.groups)} groups in base {base}; call "
                f"compile_graph() again"
            )
        known, unary = cg.live_known, cg.live_unary
        ks, ke = known.off[index], known.off[index + 1]
        es, ee = cg.edge_off[index], cg.edge_off[index + 1]
        us, ue = unary.off[index], unary.off[index + 1]
        if not self.model.use_unary:
            us = ue

        edge_rows = np.zeros(0, dtype=np.int64)
        if ee > es:
            # Neighbours outside [0, base) -- unassigned, unseen or
            # overlay-local -- match no group; the scalar path skips
            # those edges the same way.
            others = assignment_ids[cg.cols.edge_other[es:ee]]
            rows = plane.group_rows(cg.edge_keys[es:ee] + others)
            edge_rows = rows[(rows >= 0) & (others >= 0) & (others < base)]
        n_candidates = len(candidates)
        n_factors = ke - ks + len(edge_rows) + ue - us
        if not n_factors:
            return np.zeros(n_candidates, dtype=np.float64)
        rows = np.concatenate((known.rows[ks:ke], edge_rows, unary.rows[us:ue]))

        valid = (candidates >= 0) & (candidates < base)
        all_valid = bool(valid.all())
        safe = candidates if all_valid else np.where(valid, candidates, 0)
        weight_matrix = plane.gather(rows, safe)
        if not all_valid:
            weight_matrix[:, ~valid] = 0.0

        # Sequential along the factor axis: the scalar loop's addition
        # order per candidate (rule 1; ``+ 0.0`` clears a ``-0.0``).
        return np.add.accumulate(weight_matrix, axis=0, dtype=np.float64)[-1] + 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledCrfModel({self.plane!r})"
