"""CRF model: the weight plane and the candidate index.

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
labels intern once at the boundary (:meth:`label_id`).  The space rides
along whenever the model is saved (the learner's ``state_dict``), so a
model packed into an artifact (:mod:`repro.artifacts.codec`) resolves
the same ids to the same strings on load and predictions round-trip
bit-identically.

The *candidate index* maps observed ``(rel, neighbour-label)`` contexts to
the gold labels seen with them in training -- the mechanism Nice2Predict
uses to keep inference over a tractable beam of candidate names.  It is
one set of count columns, :attr:`CrfModel.candidates`
(:class:`~repro.learning.crf.candidates.CandidateIndex`), built once by
the trainer's pass 0 or mapped from a loaded artifact, and never changed
after; :meth:`compile` freezes it, with the weights, into sorted tables
(:class:`~repro.learning.crf.compiled.CandidateTables`), and
:meth:`candidate_ids_for` ranks a node's beam from those tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from ...core.interning import FeatureSpace
from .candidates import CandidateIndex
from .weights import UNARY_OTHER, WeightKey, WeightPlane

if TYPE_CHECKING:  # pragma: no cover
    from .compiled import CompiledCrfModel, CompiledGraph


class CrfModel:
    """Sparse log-linear model over pairwise and unary factors."""

    def __init__(
        self,
        use_unary: bool = True,
        space: Optional[FeatureSpace] = None,
        candidates: Optional[CandidateIndex] = None,
    ) -> None:
        # The trainer and pipelines pass the graphs' (or the
        # representation's) space; a hand-built model without one gets a
        # private space, so it shares ids only with graphs built in it.
        self.space = space if space is not None else FeatureSpace()
        self.plane = WeightPlane()
        #: The candidate counts (empty for a model that observed nothing).
        self.candidates = candidates if candidates is not None else CandidateIndex.empty()
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
        columns = self.plane.columns()
        # Pair weights before unary ones, each kind in plane order; the
        # sort below is stable.
        order = np.argsort(columns[2] == UNARY_OTHER, kind="stable")
        items: List[Tuple[str, float]] = []
        for label, rel, other, w in zip(*(c[order].tolist() for c in columns)):
            if other == UNARY_OTHER:
                feature = f"unary: {values.value(label)} --[{paths.value(rel)}]--> (self)"
            else:
                feature = (
                    f"pair: {values.value(label)} --[{paths.value(rel)}]--> "
                    f"{values.value(other)}"
                )
            items.append((feature, w))
        items.sort(key=lambda kv: -abs(kv[1]))
        return items[:n]
