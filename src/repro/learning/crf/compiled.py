"""Vectorized CRF scoring: columnar factor storage, batched candidates.

:class:`~repro.learning.crf.model.CrfModel` keeps its weights in python
dicts keyed by integer tuples -- ideal for training updates, terrible for
inference, where ICM re-scores every candidate label of every unknown
node once per sweep.  A scalar scorer pays ``len(beam)`` python loops
over a node's factors (one dict lookup per ``(label, factor)`` pair).
This module re-lays the same weights as **structure-of-arrays** so one
node's whole beam scores as a handful of numpy ops:

* At *freeze* time, :class:`CompiledCrfModel` packs ``pair_weights`` and
  ``unary_weights`` into parallel sorted arrays.  Factors are grouped by
  ``(rel_id, other_value_id)`` (unary groups use ``other == -1``), each
  group gets a dense row id, and every weight becomes one entry in a
  sorted ``row * label_base + label_id`` key array -- a CSR-style index
  over the ``(group, label)`` plane.
* At *graph-compile* time (:meth:`compile_graph`, once per inference
  call), the graph's :meth:`~repro.learning.crf.graph.CrfGraph.columnar`
  view is resolved against the pack: each known/unary factor's group row
  is looked up once, and the factors whose group holds no weight at all
  (no row: neither packed nor in the overflow) are dropped.  What
  remains are the graph's **live rows**: one mask over the flat factor
  columns, split per node by the CSR offsets, so ICM sweeps touch no
  python tuples and no dead factor.
* At *scoring* time, :meth:`score_candidates` builds the ``(live
  factors x candidates)`` key matrix, gathers all weights with **one**
  ``searchsorted``, and reduces along the factor axis.  Edge liveness
  depends on the current assignment, so edges are filtered per call.

**Bit-identity with the scalar oracle** (``tests/oracles/crf.py``) is
the design constraint, not an afterthought: predictions (tie-breaks
included) and suggestion scores must match its ``node_score`` exactly.
Three rules make that hold:

1. The factor-axis reduction runs row by row (``scores += w[f]``) in
   factor order (known, then edges, then unary) -- the same
   left-to-right IEEE addition sequence the scalar loop performs.
   Absent weights contribute ``+0.0``, which is bitwise inert: the
   running sum starts at ``+0.0`` and can never become ``-0.0`` (in
   round-to-nearest, ``x + (-x)`` is ``+0.0``), and ``s + 0.0 == s``
   for every other ``s``.
2. A dead factor is therefore skipped exactly: every candidate would
   gather ``+0.0`` from it, so dropping its row leaves every partial
   sum, and the order of the live rows, unchanged.
3. Candidate ids at or beyond ``label_base`` (overlay-interned request
   strings) and the ``-1`` sentinel (the un-interned ``"?"`` fallback)
   are masked to a zero score, exactly what the scalar path computes for
   a label that matches no trained feature.

The trainer mutates weights between inference calls, so the pack
supports cheap **write-through**: :meth:`set_pair`/:meth:`set_unary`
update packed entries in place, unseen keys land in a small overflow
dict that scoring consults per *live factor* (not per candidate), and
the pack rebuilds itself once the overflow outgrows a threshold.  A
group new to the pack gets the next free row when its first weight is
stashed; no packed key carries that row, so it gathers ``+0.0`` like
any miss.  Overflow weights are patched into the gathered weight matrix
*before* the factor-order reduction, so mid-training scoring stays
bit-identical to the scalar oracle too.  Training and serving share
this one scoring path.  A group that enters the overflow after a graph
was compiled turns some of that graph's dead factors live, so a
:class:`CompiledGraph` records the overflow's group count, and scoring
refuses it once the count has grown, as it refuses one resolved against
an older pack.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .graph import ColumnarGraph, CrfGraph

if TYPE_CHECKING:  # pragma: no cover
    from .model import CrfModel, PairKey, UnaryKey

#: Sentinel "other" id that keys unary groups in the shared group space
#: (real neighbour value ids are always >= 0, so no collision).
UNARY_OTHER = -1


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
    so they resolve per scoring call instead.  ``known_off`` /
    ``edge_off`` / ``unary_off`` are the columnar CSR offsets over all
    factors.

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
    """A :class:`CrfModel` frozen into sorted parallel weight arrays.

    Wraps (and keeps a reference to) the dict-backed model: candidate
    generation and the vocabularies stay on ``model``; only scoring is
    re-laid.  Build one with :meth:`CrfModel.compile`.
    """

    def __init__(self, model: "CrfModel") -> None:
        self.model = model
        self._pack_version = 0
        self._dirty = False
        self._last_compiled: Optional[CompiledGraph] = None
        self._pack()

    @classmethod
    def from_buffers(
        cls,
        model: "CrfModel",
        group_of: Dict[Tuple[int, int], int],
        keys: np.ndarray,
        weights: np.ndarray,
        label_base: int,
    ) -> "CompiledCrfModel":
        """Adopt pre-packed planes without copying (the mmap load path).

        ``keys`` / ``weights`` are the sorted combined-key and weight
        arrays exactly as :meth:`_pack` would build them -- typically
        zero-copy views over a ``pigeon-model/1`` mapping, shared
        page-for-page between every process serving the same artifact.
        The write-through position maps start empty: binary-loaded
        models are read-only, so no trainer ever calls
        :meth:`set_pair` / :meth:`set_unary` on this pack (and the
        backing buffers would refuse the write anyway).
        """
        self = cls.__new__(cls)
        self.model = model
        self._pack_version = 1
        self._dirty = False
        self._label_base = max(1, int(label_base))
        self._group_of = group_of
        self._keys = keys
        self._weights = weights
        self._pair_pos = {}
        self._unary_pos = {}
        self._overflow = {}
        self._overflow_count = 0
        self._last_compiled = None
        return self

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------
    def _pack(self) -> None:
        """(Re)build the sorted key/weight arrays from the model dicts."""
        model = self.model
        self._label_base = max(1, len(model.space.values))
        base = self._label_base
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
        if self._overflow_count > self._repack_threshold():
            self._pack()

    # ------------------------------------------------------------------
    # Graph compilation
    # ------------------------------------------------------------------
    def compile_graph(self, graph: CrfGraph) -> CompiledGraph:
        """Resolve one graph's columnar factors to live rows of this pack.

        The group-row lookups here are the only per-factor python work
        the vectorized engine performs.  The last resolution is reused
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

        edge_rows: List[int] = []
        edge_groups: List[Tuple[int, int]] = []
        if ee > es:
            group_of = self._group_of
            others = assignment_ids[cg.cols.edge_other[es:ee]].tolist()
            # The other >= 0 gate keeps unassigned/unseen neighbours
            # (sentinel -1) from colliding with UNARY_OTHER group keys;
            # the scalar path skips those edges the same way.
            for group in zip(cg.cols.edge_rel_list[es:ee], others):
                row = group_of.get(group, -1) if group[1] >= 0 else -1
                if row >= 0:
                    edge_rows.append(row)
                    edge_groups.append(group)
        n_candidates = len(candidates)
        n_factors = ke - ks + len(edge_rows) + ue - us
        if not n_factors:
            return np.zeros(n_candidates, dtype=np.float64)
        rows = np.concatenate(
            (
                known.rows[ks:ke],
                np.array(edge_rows, dtype=np.int64),
                unary.rows[us:ue],
            )
        )

        valid = (candidates >= 0) & (candidates < self._label_base)
        all_valid = bool(valid.all())
        safe = candidates if all_valid else np.where(valid, candidates, 0)
        keys = rows[:, None] * self._label_base + safe[None, :]
        flat = keys.ravel()
        if len(self._keys):
            positions = np.searchsorted(self._keys, flat)
            np.minimum(positions, len(self._keys) - 1, out=positions)
            found = self._keys[positions] == flat
            gathered = np.where(found, self._weights[positions], 0.0)
            weight_matrix = gathered.reshape(n_factors, n_candidates)
        else:
            weight_matrix = np.zeros((n_factors, n_candidates), dtype=np.float64)

        if overflow:
            self._patch_overflow(
                weight_matrix,
                candidates,
                chain(known.groups[ks:ke], edge_groups, unary.groups[us:ue]),
            )
        if not all_valid:
            weight_matrix[:, ~valid] = 0.0

        # Row-by-row reduction: the same left-to-right addition order the
        # scalar loop uses per candidate, so rounding agrees bit for bit.
        scores = np.zeros(n_candidates, dtype=np.float64)
        for f in range(n_factors):
            scores += weight_matrix[f]
        return scores

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
