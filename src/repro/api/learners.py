"""The learner extension point and the two built-in learning engines.

A learner consumes one feature view ("graph" or "contexts"), fits it,
predicts labels for new programs, and snapshots its trained state as
numpy arrays plus plain data (:meth:`state_dict`).  The artifact codec
(:mod:`repro.artifacts.codec`) packs that snapshot into a
``pigeon-model/1`` file and restores it onto a fresh learner, so a whole
:class:`~repro.api.Pipeline` persists to a single file and reloads with
bit-identical predictions.

``crf`` adapts :class:`~repro.learning.crf.model.CrfModel` +
:class:`~repro.learning.crf.training.CrfTrainer` (Eq. 1, Sec. 4.2);
``word2vec`` adapts SGNS +
:class:`~repro.learning.word2vec.predictor.ContextPredictor` (Eq. 4).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..core.interning import FeatureSpace
from ..learning.crf import CrfModel, CrfTrainer, TrainingConfig
from ..learning.crf.graph import CrfGraph
from ..learning.crf.inference import label_ids, map_inference, topk_for_node
from ..learning.word2vec import ContextPredictor, SgnsConfig, train_sgns
from ..registry import Registry
from .protocols import CONTEXTS_VIEW, GRAPH_VIEW, ContextMap, LearnerStats

if TYPE_CHECKING:  # pragma: no cover
    from .spec import RunSpec

#: The learner extension point: name -> learner class.
#: Learner classes are constructed with the :class:`RunSpec` (or None).
learners = Registry("learner")


class _LearnerBase:
    name: str = ""
    consumes: str = GRAPH_VIEW

    @property
    def trained(self) -> bool:
        raise NotImplementedError

    def _require_trained(self) -> None:
        if not self.trained:
            raise RuntimeError("call train() before predict()")


@learners.register("crf")
class CrfLearner(_LearnerBase):
    """The structured CRF learner over factor graphs.

    Inference (see :mod:`repro.learning.crf.inference`) wraps the
    trained weight plane in a
    :class:`~repro.learning.crf.compiled.CompiledCrfModel` once and
    reuses it across predictions.
    """

    name = "crf"
    consumes = GRAPH_VIEW

    def __init__(self, spec: Optional["RunSpec"] = None) -> None:
        overrides = dict(spec.training) if spec is not None else {}
        self.config = TrainingConfig(**overrides)
        self.model: Optional[CrfModel] = None
        self._compiled = None

    @property
    def trained(self) -> bool:
        return self.model is not None

    @property
    def space(self) -> Optional[FeatureSpace]:
        """The trained model's feature space (None before training)."""
        return self.model.space if self.model is not None else None

    def _scorer(self):
        """The compiled scorer (built lazily on first use)."""
        if self._compiled is None or self._compiled.model is not self.model:
            self._compiled = self.model.compile()
        return self._compiled

    def ensure_compiled(self) -> None:
        """Eagerly build the compiled scorer (freeze time, serving path)."""
        if self.trained:
            self._scorer()

    def fit(self, views: Iterable[CrfGraph], checkpoint=None) -> LearnerStats:
        # Anything sequence-shaped (a list of graphs, or a streaming
        # ShardedCorpus with len + random access) flows through the
        # trainer as-is; one-shot iterables materialise once.
        if hasattr(views, "__getitem__") and hasattr(views, "__len__"):
            graphs = views
        else:
            graphs = list(views)
        model, stats = CrfTrainer(self.config).train(graphs, checkpoint=checkpoint)
        self.model = model
        self._compiled = None
        return LearnerStats(parameters=stats.parameters, train_seconds=stats.train_seconds)

    def predict(self, view: CrfGraph) -> Dict[str, str]:
        self._require_trained()
        assignment = map_inference(self._scorer(), view)
        return {node.key: assignment[i] for i, node in enumerate(view.unknowns)}

    def suggest(self, view: CrfGraph, k: int = 5) -> Dict[str, List[Tuple[str, float]]]:
        self._require_trained()
        scorer = self._scorer()
        # One MAP pass, one id conversion and (memoized) one graph compile
        # per request; only the ranking runs per node.
        ids = label_ids(scorer, map_inference(scorer, view))
        return {
            node.key: topk_for_node(scorer, view, i, k=k, assignment_ids=ids)
            for i, node in enumerate(view.unknowns)
        }

    def state_dict(self) -> dict:
        """The model as numpy columns plus its feature space.

        ``weights`` lists the plane's keys (``label``, ``rel``,
        ``other``, ``value``) in insertion order, or in key order for a
        loaded model; ``candidates`` maps each candidate-index column to
        its artifact section name.
        """
        self._require_trained()
        model = self.model
        return {
            "space": model.space.to_dict(),
            "use_unary": model.use_unary,
            "weights": dict(zip(("label", "rel", "other", "value"), model.plane.columns())),
            "candidates": model.candidates.columns(),
        }


@learners.register("word2vec")
class Word2vecLearner(_LearnerBase):
    """The SGNS bag-of-contexts learner (Eq. 4)."""

    name = "word2vec"
    consumes = CONTEXTS_VIEW

    def __init__(self, spec: Optional["RunSpec"] = None) -> None:
        overrides = dict(spec.sgns) if spec is not None else {}
        self.config = SgnsConfig(**overrides)
        self.predictor: Optional[ContextPredictor] = None
        #: Feature space behind interned context tokens (None for the
        #: string-token representations); set by the owning Pipeline.
        self._space: Optional[FeatureSpace] = None

    def bind_space(self, space: Optional[FeatureSpace]) -> None:
        self._space = space

    @property
    def space(self) -> Optional[FeatureSpace]:
        return self._space

    @property
    def trained(self) -> bool:
        return self.predictor is not None

    def fit(self, views: Iterable[ContextMap], checkpoint=None) -> LearnerStats:
        pairs: List[Tuple[str, str]] = []
        for view in views:
            for _binding, (gold, tokens) in view.items():
                for token in tokens:
                    pairs.append((gold, token))
        model, stats = train_sgns(pairs, self.config, checkpoint=checkpoint)
        self.predictor = ContextPredictor(model)
        parameters = len(model.words) * model.dim + len(model.contexts) * model.dim
        return LearnerStats(parameters=parameters, train_seconds=stats.train_seconds)

    def predict(self, view: ContextMap) -> Dict[str, str]:
        self._require_trained()
        out: Dict[str, str] = {}
        for binding, (_gold, tokens) in view.items():
            prediction = self.predictor.predict(tokens)
            if prediction is not None:
                out[binding] = prediction
        return out

    def suggest(self, view: ContextMap, k: int = 5) -> Dict[str, List[Tuple[str, float]]]:
        self._require_trained()
        return {
            binding: self.predictor.predict_topk(tokens, k=k)
            for binding, (_gold, tokens) in view.items()
        }

    def state_dict(self) -> dict:
        self._require_trained()
        model = self.predictor.model
        return {
            "dim": model.dim,
            "words": list(model.words.id_to_token),
            "word_counts": np.asarray(model.words.counts, dtype=np.int64),
            # Context tokens are strings (token-stream baselines) or
            # interned (rel_id, value_id) tuples; the codec packs tuples
            # as an int matrix and restores them as int tuples on load.
            "contexts": list(model.contexts.id_to_token),
            "context_counts": np.asarray(model.contexts.counts, dtype=np.int64),
            "word_vectors": model.word_vectors,
            "context_vectors": model.context_vectors,
            "space": self._space.to_dict() if self._space is not None else None,
        }

