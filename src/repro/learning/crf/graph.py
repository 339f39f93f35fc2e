"""CRF graph structure over program elements.

Following Raychev et al. [40] and Sec. 3.1 of the paper, each *program
element* (not each AST node) is a random variable: all AST occurrences of
one identifier are merged into a single CRF node.  Factors connect:

* an unknown element and a **known** neighbour (identifier with a fixed
  label, literal, property name, ...) -- pairwise factor with one free end;
* two **unknown** elements -- pairwise factor with two free ends;
* an unknown element with itself -- a **unary factor**, derived from paths
  between different occurrences of the same element (the paper's
  Nice2Predict extension, worth about 1.5% accuracy).

Factors are stored as **integer ids** in the graph's
:class:`~repro.core.interning.FeatureSpace`: ``rel`` is a path-vocab id
(the abstract path encoding) and a known neighbour's ``label`` is a
value-vocab id.  The ``add_*_factor`` methods accept either ids (the
fast path used by the task builders, which intern at extraction time) or
raw strings (hand-written builders and tests), interning the latter on
the way in.  With the ``no-path`` abstraction all relations collapse
into one id, which is exactly the "bag of near identifiers" baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ...core.interning import FeatureSpace

#: A relation or neighbour label as callers may pass it: an interned id
#: or a raw string (interned by the graph).
Feature = Union[int, str]


@dataclass(frozen=True)
class ColumnarGraph:
    """Structure-of-arrays view of a :class:`CrfGraph`'s factors.

    Flat ``int64`` columns with CSR-style ``*_off`` offset arrays (length
    ``n_nodes + 1``): node ``i``'s known factors live at
    ``known_rel[known_off[i]:known_off[i+1]]`` (parallel with
    ``known_label``), in the order they were added, and likewise for
    edges and unary factors.  This is the form everything reads:
    training, the shard codec, and :class:`~repro.learning.crf.compiled.
    CompiledCrfModel`, which resolves it against its packed weight rows.

    The view is immutable and model-independent; :meth:`CrfGraph.columnar`
    caches it per graph until another node or factor is added.
    """

    n_nodes: int
    known_rel: np.ndarray
    known_label: np.ndarray
    known_off: np.ndarray
    edge_rel: np.ndarray
    edge_other: np.ndarray
    edge_off: np.ndarray
    unary_rel: np.ndarray
    unary_off: np.ndarray


@dataclass
class UnknownNode:
    """One predictable program element; its factors live in its graph."""

    #: Gold label (the original, stripped name); empty at pure inference.
    gold: str = ""
    #: Opaque element key for reporting (e.g. the frontend binding).
    key: str = ""
    #: The graph that stores this node's factors, and the node's index.
    graph: Optional["CrfGraph"] = field(default=None, repr=False, compare=False)
    index: int = 0

    def degree(self) -> int:
        """How many factors this node owns (known, edge and unary)."""
        cols = self.graph.columnar()
        i = self.index
        return int(
            cols.known_off[i + 1] - cols.known_off[i]
            + cols.edge_off[i + 1] - cols.edge_off[i]
            + cols.unary_off[i + 1] - cols.unary_off[i]
        )


def _by_owner(rows: List[int], width: int, n_nodes: int) -> List[np.ndarray]:
    """Group flat ``width``-int rows by their first int (the owner node).

    Returns the CSR offsets, then each remaining column.  The sort is
    stable, so every node keeps its rows in append order.
    """
    table = np.array(rows, dtype=np.int64).reshape(-1, width).T
    off = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(table[0], minlength=n_nodes), out=off[1:])
    order = np.argsort(table[0], kind="stable")
    return [off, *table[1:, order]]


class CrfGraph:
    """A factor graph for one program (one file in our corpora).

    ``space`` is the feature space the factor ids reference; graphs built
    by one extractor (or one pipeline) share its space, and a hand-built
    graph without one gets a private space.

    The graph's one factor store is three flat int lists, appended in
    any owner order: ``known_factors`` holds ``owner, rel, label`` rows,
    ``edge_factors`` ``owner, rel, other`` rows (one per direction) and
    ``unary_factors`` ``owner, rel`` rows.  The ``add_*_factor`` methods
    are the checked way in; task builders extend the lists directly.
    """

    def __init__(self, name: str = "", space: Optional[FeatureSpace] = None) -> None:
        self.name = name
        self.space = space if space is not None else FeatureSpace()
        self.unknowns: List[UnknownNode] = []
        self._key_to_index: Dict[str, int] = {}
        self.known_factors: List[int] = []
        self.edge_factors: List[int] = []
        self.unary_factors: List[int] = []
        self._columnar: Optional[Tuple[Tuple[int, ...], ColumnarGraph]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_unknown(self, key: str, gold: str = "") -> int:
        """Add (or fetch) the unknown node for an element key."""
        if key in self._key_to_index:
            return self._key_to_index[key]
        index = len(self.unknowns)
        self.unknowns.append(UnknownNode(gold=gold, key=key, graph=self, index=index))
        self._key_to_index[key] = index
        return index

    def index_of(self, key: str) -> Optional[int]:
        return self._key_to_index.get(key)

    def rel_id(self, rel: Feature) -> int:
        """Normalise a relation (string or id) to its path-vocab id."""
        return self.space.paths.intern(rel) if isinstance(rel, str) else rel

    def value_id(self, label: Feature) -> int:
        """Normalise a label (string or id) to its value-vocab id."""
        return self.space.values.intern(label) if isinstance(label, str) else label

    def _node(self, index: int) -> int:
        if not 0 <= index < len(self.unknowns):
            raise IndexError(f"no unknown node {index} in a graph of {len(self)}")
        return index

    def add_known_factor(self, index: int, rel: Feature, label: Feature) -> None:
        self.known_factors += (self._node(index), self.rel_id(rel), self.value_id(label))

    def add_unknown_factor(
        self, a: int, b: int, rel: Feature, rel_reverse: Feature
    ) -> None:
        """Connect two unknowns; each side stores its directional relation."""
        if a == b:
            raise ValueError("use add_unary_factor for self relations")
        a, b = self._node(a), self._node(b)
        self.edge_factors += (a, self.rel_id(rel), b, b, self.rel_id(rel_reverse), a)

    def add_unary_factor(self, index: int, rel: Feature) -> None:
        self.unary_factors += (self._node(index), self.rel_id(rel))

    # ------------------------------------------------------------------
    # Columnar view
    # ------------------------------------------------------------------
    def columnar(self) -> ColumnarGraph:
        """The factor rows grouped per node, as CSR arrays.

        Built once and cached.  The row lists only grow, so their
        lengths (and the node count) version the cache: any later node
        or factor, however it was appended, rebuilds the view.
        """
        version = (
            len(self.unknowns),
            len(self.known_factors),
            len(self.edge_factors),
            len(self.unary_factors),
        )
        cached = self._columnar
        if cached is not None and cached[0] == version:
            return cached[1]
        n = len(self.unknowns)
        known_off, known_rel, known_label = _by_owner(self.known_factors, 3, n)
        edge_off, edge_rel, edge_other = _by_owner(self.edge_factors, 3, n)
        unary_off, unary_rel = _by_owner(self.unary_factors, 2, n)
        view = ColumnarGraph(
            n_nodes=n,
            known_rel=known_rel,
            known_label=known_label,
            known_off=known_off,
            edge_rel=edge_rel,
            edge_other=edge_other,
            edge_off=edge_off,
            unary_rel=unary_rel,
            unary_off=unary_off,
        )
        self._columnar = (version, view)
        return view

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def decode_rel(self, rel_id: int) -> str:
        """The abstract path encoding behind a relation id."""
        return self.space.paths.value(rel_id)

    def decode_value(self, value_id: int) -> str:
        """The label string behind a value id."""
        return self.space.values.value(value_id)

    def __len__(self) -> int:
        return len(self.unknowns)

    def gold_assignment(self) -> List[str]:
        return [node.gold for node in self.unknowns]

    def factor_count(self) -> int:
        return (
            len(self.known_factors) // 3 + len(self.edge_factors) // 3 + len(self.unary_factors) // 2
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrfGraph({self.name!r}, nodes={len(self.unknowns)}, "
            f"factors={self.factor_count()})"
        )
