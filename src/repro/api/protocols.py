"""The three plugin protocols behind :class:`repro.api.Pipeline`.

PIGEON factors a prediction problem into independent axes (Sec. 5.1):

* a **language** frontend parses source text into the shared AST
  (registered in :data:`repro.lang.base.languages`);
* a **task** decides which program elements are predicted and what their
  gold labels are (:data:`repro.api.tasks.tasks`);
* a **representation** turns a parsed program into the features a
  learner consumes (:data:`repro.api.representations.representations`);
* a **learner** fits those features and predicts labels
  (:data:`repro.api.learners.learners`).

Two feature *views* connect representations to learners:

``"graph"``
    a :class:`~repro.learning.crf.graph.CrfGraph` factor graph -- what
    structured learners such as the CRF consume;
``"contexts"``
    a :data:`ContextMap` of ``element -> (gold label, context tokens)``
    -- what bag-of-contexts predictors such as SGNS/word2vec consume.

A representation declares which views it ``provides``, a learner which
single view it ``consumes``, and a task which ``views`` it can populate;
:class:`~repro.api.pipeline.Pipeline` checks the three agree and raises
:class:`UnsupportedSpecError` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from ..core.ast_model import Ast
from ..core.extraction import PathExtractor
from ..learning.crf.graph import CrfGraph

#: element key -> (gold label, context tokens); the "contexts" view.
ContextMap = Dict[str, Tuple[str, List[str]]]

#: The feature views a representation can produce.
GRAPH_VIEW = "graph"
CONTEXTS_VIEW = "contexts"


class UnsupportedSpecError(ValueError):
    """A :class:`~repro.api.spec.RunSpec` names plugins that exist but
    cannot be combined (e.g. a contexts-only representation with a graph
    learner, or a Java-only task with another language)."""


@dataclass
class ParsedProgram:
    """One program as every plugin sees it: text plus parsed AST."""

    language: str
    source: str
    ast: Ast
    name: str = ""


@dataclass
class LearnerStats:
    """What a learner reports back from :meth:`Learner.fit`."""

    parameters: int = 0
    train_seconds: float = 0.0


class Task(Protocol):
    """A prediction task: which elements, which labels, which views."""

    name: str
    #: Languages the task supports; ``None`` means any registered language.
    languages: Optional[Tuple[str, ...]]
    #: Feature views the task can populate, e.g. ``("graph", "contexts")``.
    views: Tuple[str, ...]

    def default_params(self, language: str) -> Tuple[int, int]:
        """Tuned (max_length, max_width) for ``language`` (Table 2)."""

    def build_graph(self, program: ParsedProgram, extractor: PathExtractor, name: str = "") -> CrfGraph:
        """The task's factor graph for one program."""

    def contexts(self, program: ParsedProgram, extractor: PathExtractor) -> ContextMap:
        """The task's context map for one program (if in ``views``)."""


class Representation(Protocol):
    """A way of turning parsed programs into learner features."""

    name: str
    #: Views this representation can produce.
    provides: Tuple[str, ...]
    #: Tasks the representation supports; ``None`` means any task.
    tasks: Optional[Tuple[str, ...]]

    def graph(self, task: Task, program: ParsedProgram, name: str = "") -> CrfGraph:
        """The "graph" view of one program."""

    def contexts(self, task: Task, program: ParsedProgram) -> ContextMap:
        """The "contexts" view of one program."""


class Learner(Protocol):
    """A trainable model over one feature view.

    ``fit`` consumes a list of views (one per training program);
    ``predict``/``suggest`` consume a single program's view.
    ``state_dict`` snapshots a trained learner as numpy arrays plus
    plain data (strings, ints, the feature space's string lists), which
    the artifact codec (:mod:`repro.artifacts.codec`) packs for
    :meth:`repro.api.Pipeline.save`; loading restores packed state
    through the same codec, so predictions round-trip exactly.
    """

    name: str
    #: The single view this learner consumes ("graph" or "contexts").
    consumes: str

    @property
    def trained(self) -> bool: ...

    def fit(self, views: list) -> LearnerStats: ...

    def predict(self, view) -> Dict[str, str]: ...

    def suggest(self, view, k: int = 5) -> Dict[str, List[Tuple[str, float]]]: ...

    def state_dict(self) -> dict: ...
