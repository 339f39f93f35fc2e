"""CRF model: sparse weights and the candidate index.

The model scores an assignment ``y`` of labels to a graph's unknown nodes
as the sum of factor weights (log-potentials):

``score(y) = sum_i [ sum_{(rel,l) in known_i} w_p(y_i, rel, l)
                   + sum_{(rel,j) in edges_i} w_p(y_i, rel, y_j)
                   + sum_{rel in unary_i}     w_u(y_i, rel) ]``

This corresponds to the (log of the) unnormalised product of factors in
Eq. (1); MAP inference does not need the partition function ``Z``.

The weights live in one sorted ``(group, label)`` plane,
:attr:`CrfModel.plane` (:class:`~repro.learning.crf.weights.WeightPlane`):
the trainer updates it in batches, the compiled scorer
(:meth:`compile`) reads it in place, and a model loaded from an artifact
maps it read-only.  Weight and index keys are **integer tuples** over
the model's :class:`~repro.core.interning.FeatureSpace`: labels and
neighbour values are value-vocab ids, relations are path-vocab ids;
labels intern once at the boundary (:meth:`label_id`).  Snapshots are
vocab-aware -- :meth:`to_dict` embeds the space and lists the weights in
insertion order, so a model packed into an artifact
(:mod:`repro.artifacts.codec`) resolves the same ids to the same strings
on load and predictions round-trip bit-identically.

The *candidate index* maps observed ``(rel, neighbour-label)`` contexts to
the gold labels seen with them in training -- the mechanism Nice2Predict
uses to keep inference over a tractable beam of candidate names.  Its
counters grow only while the trainer observes gold nodes, before it
compiles; :meth:`compile` freezes them, with the weights, into sorted
tables (:class:`~repro.learning.crf.compiled.CandidateTables`), and
:meth:`candidate_ids_for` ranks a node's beam from those tables.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ...core.interning import FeatureSpace
from .graph import CrfGraph, UnknownNode
from .weights import UNARY_OTHER, WeightKey, WeightPlane

if TYPE_CHECKING:  # pragma: no cover
    from .compiled import CompiledCrfModel, CompiledGraph


class CrfModel:
    """Sparse log-linear model over pairwise and unary factors."""

    def __init__(
        self, use_unary: bool = True, space: Optional[FeatureSpace] = None
    ) -> None:
        # The trainer and pipelines pass the graphs' (or the
        # representation's) space; a hand-built model without one gets a
        # private space, so it shares ids only with graphs built in it.
        self.space = space if space is not None else FeatureSpace()
        self.plane = WeightPlane()
        #: (rel_id, other_value_id) -> Counter of gold label ids.
        self.candidate_index: Dict[Tuple[int, int], Counter] = defaultdict(Counter)
        #: rel_id -> Counter of gold label ids (for unary-only nodes).
        self.unary_candidate_index: Dict[int, Counter] = defaultdict(Counter)
        #: Global label-id frequencies (fallback candidates).
        self.label_counts: Counter = Counter()
        self.use_unary = use_unary

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

    def pair_key(self, label: str, rel: str, other: str) -> WeightKey:
        """A pairwise weight's key from strings (tests, inspection)."""
        return (self.label_id(label), self.rel_id(rel), self.label_id(other))

    def unary_key(self, label: str, rel: str) -> WeightKey:
        """A unary weight's key from strings (tests, inspection)."""
        return (self.label_id(label), self.rel_id(rel), UNARY_OTHER)

    # ------------------------------------------------------------------
    # Candidates
    # ------------------------------------------------------------------
    def observe_training_node(self, node: UnknownNode, graph: CrfGraph) -> None:
        """Record a gold-labelled node into the candidate index."""
        cols = graph.columnar()
        i = node.index
        gold = self.label_id(node.gold)
        self.label_counts[gold] += 1
        ks, ke = cols.known_off[i], cols.known_off[i + 1]
        for context in zip(cols.known_rel[ks:ke].tolist(), cols.known_label[ks:ke].tolist()):
            self.candidate_index[context][gold] += 1
        es, ee = cols.edge_off[i], cols.edge_off[i + 1]
        for rel, other in zip(cols.edge_rel[es:ee].tolist(), cols.edge_other[es:ee].tolist()):
            other_gold = self.label_id(graph.unknowns[other].gold)
            self.candidate_index[(rel, other_gold)][gold] += 1
        for rel in cols.unary_rel[cols.unary_off[i]:cols.unary_off[i + 1]].tolist():
            self.unary_candidate_index[rel][gold] += 1

    def candidate_ids_for(
        self,
        cg: "CompiledGraph",
        index: int,
        assignment_ids: np.ndarray,
        beam: int = 48,
    ) -> List[int]:
        """Candidate label ids for node ``index`` of a compiled graph.

        The beam of Sec. 5.1: every context of the node proposes its
        ``PER_CONTEXT`` most frequent gold labels; a label's counts are
        summed (exact ints) over the contexts proposing it; the
        ``GLOBAL_FALLBACK`` most frequent labels join with their global
        counts unless a context proposed them; the ranking is by
        ``(-count, label string)``, cut to ``beam``.  ``assignment_ids``
        maps node index -> current label id, with a negative id (or an
        overlay id beyond the model's vocabulary) standing for a label no
        context holds.

        The known and unary contexts were merged when the graph was
        compiled (:class:`~repro.learning.crf.compiled.StaticCandidates`);
        only the edge contexts, which follow the neighbours' current
        labels, resolve here, against the compiled model's candidate
        table.
        """
        start, end = cg.edge_off[index], cg.edge_off[index + 1]
        return cg.candidates.for_node(
            index,
            cg.edge_keys[start:end],
            assignment_ids[cg.cols.edge_other[start:end]],
            beam,
        )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self) -> "CompiledCrfModel":
        """The vectorised scorer over this model's weight plane.

        The compiled model reads the plane (and the vocabularies) in
        place and freezes the candidate index next to it; see
        :mod:`repro.learning.crf.compiled`.
        """
        from .compiled import CompiledCrfModel

        return CompiledCrfModel(self)

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    def num_parameters(self) -> int:
        return len(self.plane)

    def top_features(self, n: int = 20) -> List[Tuple[str, float]]:
        """Highest-weight features -- CRFs are interpretable (Sec. 5.3)."""
        values = self.space.values
        paths = self.space.paths
        items: List[Tuple[str, float]] = []
        pair, unary = self.plane.to_rows()
        for label, rel, other, w in pair:
            items.append(
                (
                    f"pair: {values.value(label)} --[{paths.value(rel)}]--> "
                    f"{values.value(other)}",
                    w,
                )
            )
        for label, rel, w in unary:
            items.append(
                (f"unary: {values.value(label)} --[{paths.value(rel)}]--> (self)", w)
            )
        items.sort(key=lambda kv: -abs(kv[1]))
        return items[:n]

    def to_dict(self) -> dict:
        """Vocab-aware plain-data snapshot (what the artifact codec packs).

        Weights flatten to rows in insertion order (each kind on its own);
        the feature space rides along so the ids stay meaningful in any
        process.
        """
        pair, unary = self.plane.to_rows()
        return {
            "space": self.space.to_dict(),
            "pair_weights": pair,
            "unary_weights": unary,
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
