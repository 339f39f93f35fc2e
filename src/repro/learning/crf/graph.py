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
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ...core.interning import FeatureSpace

#: A relation or neighbour label as callers may pass it: an interned id
#: or a raw string (interned by the graph).
Feature = Union[int, str]


@dataclass(frozen=True)
class KnownNeighbor:
    """A pairwise factor between an unknown node and a fixed-label value.

    ``rel`` is the path-vocab id of the relation, directional *from* the
    unknown element *to* the neighbour; ``label`` is the value-vocab id
    of the neighbour's label.
    """

    rel: int
    label: int


@dataclass(frozen=True)
class UnknownEdge:
    """A pairwise factor between two unknown nodes.

    Stored on the side of node ``owner``; ``other`` is the peer's index in
    the graph.  ``rel`` is the path-vocab id, directional owner -> peer.
    """

    rel: int
    other: int


@dataclass(frozen=True)
class ColumnarGraph:
    """Structure-of-arrays view of a :class:`CrfGraph`'s factors.

    Every per-node python list of dataclass factors is re-laid as flat
    ``int64`` arrays with CSR-style ``*_off`` offset arrays (length
    ``n_nodes + 1``): node ``i``'s known factors live at
    ``known_rel[known_off[i]:known_off[i+1]]`` (parallel with
    ``known_label``), and likewise for edges and unary factors.  The
    vectorised inference engine walks these arrays instead of python
    tuples -- one contiguous gather per node instead of one attribute
    lookup per factor -- and :class:`~repro.learning.crf.compiled.
    CompiledCrfModel` resolves them against its packed weight rows.

    The view is immutable and model-independent; :meth:`CrfGraph.columnar`
    caches it per graph until another factor is added.
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
    #: Plain-int copies of the factor columns (``ndarray.tolist()``), kept
    #: because the compiled model resolves group rows through python dict
    #: lookups and iterating a list of ints is ~3x faster than iterating
    #: numpy scalars.
    known_rel_list: List[int]
    known_label_list: List[int]
    unary_rel_list: List[int]


@dataclass
class UnknownNode:
    """One predictable program element and its factors."""

    #: Gold label (the original, stripped name); empty at pure inference.
    gold: str = ""
    #: Opaque element key for reporting (e.g. the frontend binding).
    key: str = ""
    #: Pairwise factors to known neighbours.
    known: List[KnownNeighbor] = field(default_factory=list)
    #: Pairwise factors to other unknown nodes (directional, this side).
    edges: List[UnknownEdge] = field(default_factory=list)
    #: Unary factors: relation ids between occurrences of this element.
    unary: List[int] = field(default_factory=list)

    def degree(self) -> int:
        return len(self.known) + len(self.edges) + len(self.unary)


class CrfGraph:
    """A factor graph for one program (one file in our corpora).

    ``space`` is the feature space the factor ids reference; graphs built
    by one extractor (or one pipeline) share its space, and a hand-built
    graph without one gets a private space.
    """

    def __init__(self, name: str = "", space: Optional[FeatureSpace] = None) -> None:
        self.name = name
        self.space = space if space is not None else FeatureSpace()
        self.unknowns: List[UnknownNode] = []
        self._key_to_index: Dict[str, int] = {}
        #: Bumped on every structural mutation; invalidates the cached
        #: columnar view (factor lists may also be appended to directly
        #: by task builders -- those run before the first columnar() call).
        self._version = 0
        self._columnar: Optional[Tuple[int, "ColumnarGraph"]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_unknown(self, key: str, gold: str = "") -> int:
        """Add (or fetch) the unknown node for an element key."""
        if key in self._key_to_index:
            return self._key_to_index[key]
        index = len(self.unknowns)
        self.unknowns.append(UnknownNode(gold=gold, key=key))
        self._key_to_index[key] = index
        self._version += 1
        return index

    def index_of(self, key: str) -> Optional[int]:
        return self._key_to_index.get(key)

    def rel_id(self, rel: Feature) -> int:
        """Normalise a relation (string or id) to its path-vocab id."""
        return self.space.paths.intern(rel) if isinstance(rel, str) else rel

    def value_id(self, label: Feature) -> int:
        """Normalise a label (string or id) to its value-vocab id."""
        return self.space.values.intern(label) if isinstance(label, str) else label

    def add_known_factor(self, index: int, rel: Feature, label: Feature) -> None:
        self.unknowns[index].known.append(
            KnownNeighbor(self.rel_id(rel), self.value_id(label))
        )
        self._version += 1

    def add_unknown_factor(
        self, a: int, b: int, rel: Feature, rel_reverse: Feature
    ) -> None:
        """Connect two unknowns; each side stores its directional relation."""
        if a == b:
            raise ValueError("use add_unary_factor for self relations")
        self.unknowns[a].edges.append(UnknownEdge(self.rel_id(rel), b))
        self.unknowns[b].edges.append(UnknownEdge(self.rel_id(rel_reverse), a))
        self._version += 1

    def add_unary_factor(self, index: int, rel: Feature) -> None:
        self.unknowns[index].unary.append(self.rel_id(rel))
        self._version += 1

    # ------------------------------------------------------------------
    # Columnar view
    # ------------------------------------------------------------------
    def columnar(self) -> ColumnarGraph:
        """The structure-of-arrays view of this graph's factors.

        Built once and cached; any later ``add_*`` call invalidates the
        cache.  (Builders that extend the per-node factor lists directly
        -- the shard decoder -- finish before the first ``columnar()``
        call, so the snapshot always sees the complete graph.)
        """
        cached = self._columnar
        if cached is not None and cached[0] == self._version:
            return cached[1]
        n = len(self.unknowns)
        known_rel: List[int] = []
        known_label: List[int] = []
        known_off = np.zeros(n + 1, dtype=np.int64)
        edge_rel: List[int] = []
        edge_other: List[int] = []
        edge_off = np.zeros(n + 1, dtype=np.int64)
        unary_rel: List[int] = []
        unary_off = np.zeros(n + 1, dtype=np.int64)
        for i, node in enumerate(self.unknowns):
            for factor in node.known:
                known_rel.append(factor.rel)
                known_label.append(factor.label)
            for edge in node.edges:
                edge_rel.append(edge.rel)
                edge_other.append(edge.other)
            unary_rel.extend(node.unary)
            known_off[i + 1] = len(known_rel)
            edge_off[i + 1] = len(edge_rel)
            unary_off[i + 1] = len(unary_rel)
        view = ColumnarGraph(
            n_nodes=n,
            known_rel=np.asarray(known_rel, dtype=np.int64),
            known_label=np.asarray(known_label, dtype=np.int64),
            known_off=known_off,
            edge_rel=np.asarray(edge_rel, dtype=np.int64),
            edge_other=np.asarray(edge_other, dtype=np.int64),
            edge_off=edge_off,
            unary_rel=np.asarray(unary_rel, dtype=np.int64),
            unary_off=unary_off,
            known_rel_list=known_rel,
            known_label_list=known_label,
            unary_rel_list=unary_rel,
        )
        self._columnar = (self._version, view)
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
        return sum(node.degree() for node in self.unknowns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrfGraph({self.name!r}, nodes={len(self.unknowns)}, "
            f"factors={self.factor_count()})"
        )
