"""Conditional random fields over program-element graphs.

This package reimplements the Nice2Predict-style CRF the paper plugs AST
paths into (Sec. 3.1, 5.1), including the paper's two extensions:

* **unary factors** for paths between occurrences of the same element;
* a **top-k candidate suggestion** API.

Architecture -- columnar layout and oracle gating
-------------------------------------------------

The model's weights live in one store from the first update to the
mapped artifact: a sorted ``(group, label)`` plane
(:class:`~repro.learning.crf.weights.WeightPlane`), where factors are
grouped by ``(relation, neighbour value)`` and each weight sits at the
combined key ``row * label_base + label``.  The trainer applies each
update to it as one batch, the compiled scorer reads it in place, and a
loaded artifact adopts its sections as a read-only plane.  The candidate
index that bounds each node's label beam is one store too: count columns
(:class:`~repro.learning.crf.candidates.CandidateIndex`) that the
trainer builds once and the artifact stores as they are.  Inference
then runs on a **columnar** representation:

* a :class:`~repro.learning.crf.graph.CrfGraph` stores its factors once,
  as flat integer rows appended in any order, and
  :meth:`CrfGraph.columnar() <repro.learning.crf.graph.CrfGraph.columnar>`
  groups them per node into CSR-style id arrays (structure-of-arrays,
  cached per graph) -- the one form builders, the trainer, the shard
  codec and inference read;
* :meth:`CrfModel.compile() <repro.learning.crf.model.CrfModel.compile>`
  wraps the plane in a
  :class:`~repro.learning.crf.compiled.CompiledCrfModel`, so one
  ``searchsorted`` gathers a whole ``live factors x candidates`` weight
  matrix and a factor-ordered reduction scores the beam (factors whose
  group holds no weight are dropped when the graph is compiled); it
  freezes the candidate index into sorted tables, so a node's beam is
  ranked from per-graph context counts plus one lookup of its edges.

Inference has one engine, the compiled one.  The scalar scorer it
replaced (one dict lookup per factor, a dict merge per candidate beam,
a string-based ICM sweep) lives in ``tests/oracles/crf.py`` as the
**bit-identity oracle**: the compiled engine must reproduce its output
exactly -- candidate lists, scores, tie-breaks, fallbacks -- and the
oracle suites (``tests/test_crf_compiled.py``,
``tests/test_crf_candidates.py``) hold that gate.  This mirrors how the
single-pass path extractor is gated on the all-pairs extractor in
``tests/oracles/extraction.py``: the fast path may only ever be a
faster spelling of the slow one.
"""

from .compiled import CompiledCrfModel
from .graph import ColumnarGraph, CrfGraph, UnknownNode
from .model import CrfModel
from .inference import map_inference, topk_for_node
from .training import CrfTrainer, TrainingConfig
from .weights import WeightPlane

__all__ = [
    "ColumnarGraph",
    "CompiledCrfModel",
    "CrfGraph",
    "UnknownNode",
    "CrfModel",
    "map_inference",
    "topk_for_node",
    "CrfTrainer",
    "TrainingConfig",
    "WeightPlane",
]
