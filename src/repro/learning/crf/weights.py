"""The CRF's one weight store: the sorted ``(group, label)`` plane.

Factors are grouped by ``(rel_id, other_value_id)`` -- unary factors use
``other == UNARY_OTHER`` -- and every group has a dense row.  A weight
lives at the combined key ``row * base + label_id``; :class:`WeightPlane`
keeps those keys sorted with the float64 weights parallel to them, so
one ``searchsorted`` gathers the weights of a whole ``rows x labels``
block.  ``base`` exceeds every label and neighbour id in the plane.

The same plane serves every phase of a model's life:

* **Training.**  :meth:`WeightPlane.add` applies one perceptron update as
  a batch.  Keys and groups new to the plane are inserted in the order
  they first occur in the batch (groups take the next free rows, so a
  row never changes), and the deltas are added with ``np.add.at``, one
  after another in batch order -- the same IEEE addition sequence a
  key-by-key update performs.  A key whose deltas cancel stays in the
  plane at ``0.0``.  While training, two columns aligned with the keys
  hold the lazy averages (the running ``totals`` and the ``stamp`` of
  each key's last change); :meth:`decay` flushes them before scaling,
  and :meth:`average` turns the weights into their means.  ``born``
  records each key's insertion order, which :meth:`columns` (and so the
  learner's ``state_dict`` and the artifact's group numbering) follows.
* **Scoring.**  :class:`~repro.learning.crf.compiled.CompiledCrfModel`
  reads the plane directly: :meth:`group_rows` resolves factor groups
  against the sorted group keys and :meth:`gather` reads the weights.
* **Saving and loading.**  :meth:`WeightPlane.build` lays out the
  artifact's plane from the :meth:`columns` of the saved state (groups
  numbered first-seen over the pair keys, then the unary keys); a loaded
  artifact's ``crf/groups`` / ``keys`` / ``weights`` sections become a
  read-only plane without a copy, and every mutation of it raises
  :class:`PackedModelError`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

#: Sentinel "other" id that keys unary groups in the shared group space
#: (real neighbour value ids are always >= 0, so no collision).
UNARY_OTHER = -1

#: A weight's key: ``(label_id, rel_id, other_value_id)``, with
#: ``other == UNARY_OTHER`` for a unary weight.
WeightKey = Tuple[int, int, int]


class PackedModelError(TypeError):
    """A training-path mutation reached a packed (read-only) model."""

    def __init__(self, operation: str) -> None:
        super().__init__(
            f"{operation}: models loaded from an artifact are read-only; "
            "re-train to modify weights"
        )


def group_keys(rel, other, base: int):
    """``(rel, other)`` as one sortable int: ``rel * (base + 1) + other + 1``.

    Unique for every ``UNARY_OTHER <= other < base``, and ordered like
    ``(rel, other)`` for any such base; callers mask any other neighbour
    id (overlay-local or ``-1`` for an edge) first.
    """
    return rel * (base + 1) + (other + 1)


def find(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Position of every needle in the sorted ``haystack`` (``-1`` if absent)."""
    if not len(haystack):
        return np.full(len(needles), -1, dtype=np.int64)
    positions = np.searchsorted(haystack, needles)
    np.minimum(positions, len(haystack) - 1, out=positions)
    return np.where(haystack[positions] == needles, positions, -1)


def first_seen(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where each distinct key first occurs, in order, and each key's rank among them."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def _int64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


class WeightPlane:
    """Sorted ``row * base + label`` keys, their weights, and the group rows.

    ``groups[row]`` is the ``(rel, other)`` pair of one row.  A writable
    plane also carries ``born`` (each key's insertion number) and the
    lazy-average columns ``totals`` / ``stamp``; a read-only plane (a
    loaded artifact's sections) carries none of them and lists its
    weights in key order.
    """

    def __init__(
        self,
        groups: Optional[np.ndarray] = None,
        keys: Optional[np.ndarray] = None,
        weights: Optional[np.ndarray] = None,
        base: int = 1,
        born: Optional[np.ndarray] = None,
        writable: bool = True,
    ) -> None:
        self.base = max(1, int(base))
        self.groups = np.zeros((0, 2), dtype=np.int64) if groups is None else groups
        self.keys = np.zeros(0, dtype=np.int64) if keys is None else keys
        self.weights = np.zeros(0, dtype=np.float64) if weights is None else weights
        self.writable = writable
        n = len(self.keys)
        if writable:
            self.born = np.arange(n, dtype=np.int64) if born is None else born
            self.totals: Optional[np.ndarray] = np.zeros(n, dtype=np.float64)
            self.stamp: Optional[np.ndarray] = np.zeros(n, dtype=np.int64)
        else:
            self.born = self.totals = self.stamp = None
            # Scoring builds its needles in the key dtype (a needle of
            # another dtype makes every searchsorted convert the plane).
            # A narrow plane keeps its dtype while the largest needle,
            # ``len(groups) * base - 1``, fits in it.
            if (
                self.keys.dtype != np.int64
                and len(self.groups) * self.base - 1 > np.iinfo(self.keys.dtype).max
            ):
                self.keys = self.keys.astype(np.int64)
        self._index_groups()

    @classmethod
    def build(
        cls,
        label: np.ndarray,
        rel: np.ndarray,
        other: np.ndarray,
        weights: np.ndarray,
        base: int,
    ) -> "WeightPlane":
        """The plane of distinct weights listed in insertion order.

        Groups are numbered in the order they first occur; ``born``
        keeps the listed order.  Every id must lie below ``base``.
        """
        label, rel, other = _int64(label), _int64(rel), _int64(other)
        base = max(1, int(base))
        first, rows = first_seen(group_keys(rel, other, base))
        combined = rows * base + label
        order = np.argsort(combined, kind="stable")
        return cls(
            np.stack((rel[first], other[first]), axis=1),
            combined[order],
            np.asarray(weights, dtype=np.float64)[order],
            base,
            born=order,
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.keys)

    def _index_groups(self) -> None:
        """Sort the group keys; ``_rows`` ends in a ``-1`` for absent groups."""
        groups = self.groups.astype(np.int64, copy=False)
        keys = group_keys(groups[:, 0], groups[:, 1], self.base)
        order = np.argsort(keys, kind="stable")
        self._group_keys = keys[order]
        self._rows = np.append(order, -1)

    def group_rows(self, keys: np.ndarray) -> np.ndarray:
        """The row of every :func:`group_keys` key in this base (``-1`` if none)."""
        return self._rows[find(self._group_keys, keys)]

    def gather(self, rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """The weight of every ``(rows[f], labels[c])`` pair.

        ``labels`` must lie in ``[0, base)``; absent keys read ``+0.0``.
        The needles are built in the key dtype, so the ``searchsorted``
        never converts the plane.
        """
        keys = self.keys
        shape = (len(rows), len(labels))
        if not len(keys):
            return np.zeros(shape, dtype=np.float64)
        dtype = keys.dtype
        needles = (
            rows.astype(dtype, copy=False)[:, None] * dtype.type(self.base)
            + labels.astype(dtype, copy=False)[None, :]
        ).ravel()
        positions = np.searchsorted(keys, needles)
        np.minimum(positions, len(keys) - 1, out=positions)
        return np.where(keys[positions] == needles, self.weights[positions], 0.0).reshape(
            shape
        )

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Label, rel and other (int64) and weight of every key.

        A writable plane lists its keys in insertion order, a read-only
        one in key order.
        """
        order = (
            np.arange(len(self.keys)) if self.born is None else np.argsort(self.born)
        )
        rows, labels = np.divmod(self.keys[order].astype(np.int64), self.base)
        groups = self.groups[rows].astype(np.int64, copy=False)
        return labels, groups[:, 0], groups[:, 1], self.weights[order]

    def as_dict(self) -> Dict[WeightKey, float]:
        """Every weight by :data:`WeightKey` (inspection and the test oracle)."""
        label, rel, other, weights = (c.tolist() for c in self.columns())
        return dict(zip(zip(label, rel, other), weights))

    # ------------------------------------------------------------------
    # Mutation (writable planes)
    # ------------------------------------------------------------------
    def _check_writable(self, operation: str) -> None:
        if not self.writable:
            raise PackedModelError(operation)

    def reserve(self, base: int) -> None:
        """Re-key the plane so that every id below ``base`` fits.

        Rows never change and the key order is kept: ``label < base``
        for every key before and after.
        """
        if base <= self.base:
            return
        self._check_writable("re-keying weights")
        rows, labels = np.divmod(self.keys, self.base)
        self.keys = rows * base + labels
        self.base = base
        self._index_groups()

    def _positions(self, label: np.ndarray, rel: np.ndarray, other: np.ndarray) -> np.ndarray:
        """Every key's position, inserting missing groups and keys first-seen."""
        if len(label):
            self.reserve(int(max(label.max(), other.max())) + 1)
        base = self.base
        gkeys = group_keys(rel, other, base)
        rows = self.group_rows(gkeys)
        missing = np.flatnonzero(rows < 0)
        if len(missing):
            first, rank = first_seen(gkeys[missing])
            new = missing[first]
            n_groups = len(self.groups)
            self.groups = np.concatenate(
                (self.groups, np.stack((rel[new], other[new]), axis=1))
            )
            order = np.argsort(gkeys[new])
            at = np.searchsorted(self._group_keys, gkeys[new][order])
            self._group_keys = np.insert(self._group_keys, at, gkeys[new][order])
            self._rows = np.insert(self._rows, at, n_groups + order)
            rows[missing] = n_groups + rank
        combined = rows * base + label
        missing = np.flatnonzero(find(self.keys, combined) < 0)
        if len(missing):
            first, _ = first_seen(combined[missing])
            new = combined[missing[first]]
            order = np.argsort(new)
            at = np.searchsorted(self.keys, new[order])
            born = len(self.keys) + order
            self.keys = np.insert(self.keys, at, new[order])
            self.weights = np.insert(self.weights, at, 0.0)
            self.totals = np.insert(self.totals, at, 0.0)
            self.stamp = np.insert(self.stamp, at, 0)
            self.born = np.insert(self.born, at, born)
        return np.searchsorted(self.keys, combined)

    def add(
        self,
        label: np.ndarray,
        rel: np.ndarray,
        other: np.ndarray,
        delta: np.ndarray,
        step: int,
    ) -> None:
        """One update at ``step``: ``delta[i]`` to key ``i``, in order.

        Each touched key first banks its current weight for the steps
        since its last change (lazy averaging).
        """
        self._check_writable("updating weights")
        positions = self._positions(_int64(label), _int64(rel), _int64(other))
        touched = np.unique(positions)
        self.totals[touched] += self.weights[touched] * (step - self.stamp[touched])
        self.stamp[touched] = step
        np.add.at(self.weights, positions, delta)

    def assign(self, key: WeightKey, value: float) -> None:
        """Set one weight (hand-built models); a new key joins last."""
        self._check_writable("assigning a weight")
        label, rel, other = key
        position = self._positions(_int64([label]), _int64([rel]), _int64([other]))
        self.weights[position] = value

    def decay(self, factor: float, step: int) -> None:
        """Scale every weight by ``factor`` after banking it up to ``step``."""
        self._check_writable("decaying weights")
        self.totals += self.weights * (step - self.stamp)
        self.stamp[:] = step
        self.weights *= factor

    def average(self, step: int) -> None:
        """Replace every weight by its mean over the ``step`` steps so far."""
        self._check_writable("averaging weights")
        self.weights = (self.totals + self.weights * (step - self.stamp)) / step

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Every column of a writable plane as JSON-ready lists."""
        return {
            "base": self.base,
            "groups": self.groups.ravel().tolist(),
            "keys": self.keys.tolist(),
            "weights": self.weights.tolist(),
            "totals": self.totals.tolist(),
            "stamp": self.stamp.tolist(),
            "born": self.born.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "WeightPlane":
        plane = cls(
            _int64(state["groups"]).reshape(-1, 2),
            _int64(state["keys"]),
            np.asarray(state["weights"], dtype=np.float64),
            state["base"],
            born=_int64(state["born"]),
        )
        plane.totals = np.asarray(state["totals"], dtype=np.float64)
        plane.stamp = _int64(state["stamp"])
        return plane

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightPlane({len(self.keys)} weights, {len(self.groups)} groups, base {self.base})"
