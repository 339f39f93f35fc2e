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
  is looked up once, so ICM sweeps touch no python tuples.
* At *scoring* time, :meth:`score_candidates` builds the ``(factors x
  candidates)`` key matrix, gathers all weights with **one**
  ``searchsorted``, and reduces along the factor axis.

**Bit-identity with the scalar oracle** (``tests/oracles/crf.py``) is
the design constraint, not an afterthought: predictions (tie-breaks
included) and suggestion scores must match its ``node_score`` exactly.
Two rules make that hold:

1. The factor-axis reduction runs row by row (``scores += w[f]``) in
   factor order -- the same left-to-right IEEE addition sequence the
   scalar loop performs.  Absent weights contribute ``+0.0``, which is
   bitwise inert (the scalar running sum is never ``-0.0``).
2. Candidate ids at or beyond ``label_base`` (overlay-interned request
   strings) and the ``-1`` sentinel (the un-interned ``"?"`` fallback)
   are masked to a zero score, exactly what the scalar path computes for
   a label that matches no trained feature.

The trainer mutates weights between inference calls, so the pack
supports cheap **write-through**: :meth:`set_pair`/:meth:`set_unary`
update packed entries in place, unseen keys land in a small overflow
dict that scoring consults per *factor* (not per candidate), and the
pack rebuilds itself once the overflow outgrows a threshold.  Overflow
weights are patched into the gathered weight matrix *before* the
factor-order reduction, so mid-training scoring stays bit-identical to
the scalar oracle too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .graph import ColumnarGraph, CrfGraph

if TYPE_CHECKING:  # pragma: no cover
    from .model import CrfModel, PairKey, UnaryKey

#: Sentinel "other" id that keys unary groups in the shared group space
#: (real neighbour value ids are always >= 0, so no collision).
UNARY_OTHER = -1


@dataclass(frozen=True)
class CompiledGraph:
    """One graph resolved against one weight pack.

    ``known_rows`` / ``unary_rows`` are flat arrays parallel with the
    :class:`~repro.learning.crf.graph.ColumnarGraph` factor columns:
    each entry is the packed group row of that factor (or ``-1`` when the
    model holds no weights for its group).  Edge rows depend on the
    evolving assignment, so they resolve per scoring call instead.

    ``pack_version`` pins the pack this resolution belongs to; scoring
    against a repacked model raises rather than silently mis-gathering.
    """

    cols: ColumnarGraph
    known_rows: np.ndarray
    unary_rows: np.ndarray
    pack_version: int
    known_off: List[int]
    edge_off: List[int]
    unary_off: List[int]


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
        #: the pack.  Consulted per factor during scoring, folded back in
        #: at the next repack.
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
        bucket = self._overflow.setdefault(group, {})
        if label not in bucket:
            self._overflow_count += 1
        bucket[label] = value
        if self._overflow_count > self._repack_threshold():
            self._pack()

    # ------------------------------------------------------------------
    # Graph compilation
    # ------------------------------------------------------------------
    def compile_graph(self, graph: CrfGraph) -> CompiledGraph:
        """Resolve one graph's columnar factors against this pack.

        The group-row lookups here are the only per-factor python work
        the vectorized engine performs.  The last resolution is reused
        while the graph's columnar view (cached until the graph changes)
        and the pack are the same: a suggest request ranks every node of
        one graph against one pack, and compiles it once.
        """
        self._refresh()
        cols = graph.columnar()
        memo = self._last_compiled
        if memo is not None and memo.cols is cols and memo.pack_version == self._pack_version:
            return memo
        group_of = self._group_of
        known_rows = np.fromiter(
            (
                group_of.get((rel, label), -1)
                for rel, label in zip(cols.known_rel_list, cols.known_label_list)
            ),
            dtype=np.int64,
            count=len(cols.known_rel_list),
        )
        unary_rows = np.fromiter(
            (group_of.get((rel, UNARY_OTHER), -1) for rel in cols.unary_rel_list),
            dtype=np.int64,
            count=len(cols.unary_rel_list),
        )
        compiled = CompiledGraph(
            cols=cols,
            known_rows=known_rows,
            unary_rows=unary_rows,
            pack_version=self._pack_version,
            known_off=cols.known_off.tolist(),
            edge_off=cols.edge_off.tolist(),
            unary_off=cols.unary_off.tolist(),
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
        for labels outside the model vocabulary).  Bit-identical to the
        scalar oracle's ``node_score`` per candidate.
        """
        if cg.pack_version != self._pack_version:
            raise RuntimeError(
                "CompiledGraph was resolved against pack version "
                f"{cg.pack_version}, but the model has repacked to "
                f"{self._pack_version}; call compile_graph() again"
            )
        cols = cg.cols
        n_candidates = len(candidates)
        ks, ke = cg.known_off[index], cg.known_off[index + 1]
        es, ee = cg.edge_off[index], cg.edge_off[index + 1]
        us, ue = cg.unary_off[index], cg.unary_off[index + 1]
        use_unary = self.model.use_unary

        parts = []
        edge_other_ids: List[int] = []
        if ke > ks:
            parts.append(cg.known_rows[ks:ke])
        if ee > es:
            edge_other_ids = assignment_ids[cols.edge_other[es:ee]].tolist()
            group_of = self._group_of
            # The other >= 0 gate keeps unassigned/unseen neighbours
            # (sentinel -1) from colliding with UNARY_OTHER group keys;
            # the scalar path skips those edges the same way.
            parts.append(
                np.fromiter(
                    (
                        group_of.get((rel, other), -1) if other >= 0 else -1
                        for rel, other in zip(
                            cols.edge_rel_list[es:ee], edge_other_ids
                        )
                    ),
                    dtype=np.int64,
                    count=ee - es,
                )
            )
        if use_unary and ue > us:
            parts.append(cg.unary_rows[us:ue])
        if not parts:
            return np.zeros(n_candidates, dtype=np.float64)
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        n_factors = len(rows)

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

        if self._overflow:
            self._patch_overflow(
                weight_matrix, cg, candidates, ks, ke, es, ee, us, ue,
                edge_other_ids, use_unary,
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
        cg: CompiledGraph,
        candidates: np.ndarray,
        ks: int,
        ke: int,
        es: int,
        ee: int,
        us: int,
        ue: int,
        edge_other_ids: List[int],
        use_unary: bool,
    ) -> None:
        """Write post-pack weights into the gathered matrix, in place.

        Runs only while the trainer has unrepacked updates; the factory
        rows keep their factor order so the reduction stays sequential.
        """
        overflow = self._overflow
        cols = cg.cols
        f = 0
        for rel, label in zip(
            cols.known_rel_list[ks:ke], cols.known_label_list[ks:ke]
        ):
            bucket = overflow.get((rel, label))
            if bucket:
                for lbl, value in bucket.items():
                    weight_matrix[f, candidates == lbl] = value
            f += 1
        for rel, other in zip(cols.edge_rel_list[es:ee], edge_other_ids):
            bucket = overflow.get((rel, other)) if other >= 0 else None
            if bucket:
                for lbl, value in bucket.items():
                    weight_matrix[f, candidates == lbl] = value
            f += 1
        if use_unary:
            for rel in cols.unary_rel_list[us:ue]:
                bucket = overflow.get((rel, UNARY_OTHER))
                if bucket:
                    for lbl, value in bucket.items():
                        weight_matrix[f, candidates == lbl] = value
                f += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledCrfModel({len(self._keys)} weights, "
            f"{len(self._group_of)} groups, pack v{self._pack_version})"
        )
