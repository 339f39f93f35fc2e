"""The registry-driven public API of the reproduction.

Four extension points (languages, tasks, representations, learners) and
one facade (:class:`Pipeline`) that composes a cell of their cross
product from a serializable :class:`RunSpec`.  See the module docstrings
of :mod:`repro.api.protocols` and :mod:`repro.api.pipeline` for the
architecture, and :mod:`repro.registry` for the registry mechanism.
"""

from ..registry import Registry, UnknownPluginError
from .learners import CrfLearner, Word2vecLearner, learners
from .pipeline import Pipeline, PipelineStats, ScoringHandle
from .protocols import (
    CONTEXTS_VIEW,
    GRAPH_VIEW,
    ContextMap,
    Learner,
    LearnerStats,
    ParsedProgram,
    Representation,
    Task,
    UnsupportedSpecError,
)
from .representations import (
    AstPathsRepresentation,
    NoPathsRepresentation,
    TokenContextRepresentation,
    representations,
)
from .spec import RunSpec
from .tasks import DEFAULT_PARAMS, tasks

__all__ = [
    "CONTEXTS_VIEW",
    "GRAPH_VIEW",
    "ContextMap",
    "CrfLearner",
    "DEFAULT_PARAMS",
    "AstPathsRepresentation",
    "Learner",
    "LearnerStats",
    "NoPathsRepresentation",
    "ParsedProgram",
    "Pipeline",
    "PipelineStats",
    "Registry",
    "Representation",
    "RunSpec",
    "ScoringHandle",
    "Task",
    "TokenContextRepresentation",
    "UnknownPluginError",
    "UnsupportedSpecError",
    "Word2vecLearner",
    "learners",
    "representations",
    "tasks",
]
