"""The serializable description of one pipeline configuration.

A :class:`RunSpec` is the paper's "one cell of the cross product": a
(language, task, representation, learner) choice plus the per-axis
option dictionaries.  It is plain data -- every field survives
``RunSpec.from_dict(spec.to_dict())`` unchanged -- so specs can live in
JSON files, CLI flags, experiment matrices and saved models alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Collection, Dict

from ..core.extraction import ExtractionConfig
from ..learning.crf.training import TrainingConfig
from ..learning.word2vec.sgns import SgnsConfig

#: The keys each option dictionary accepts: ``extraction`` takes the
#: :class:`ExtractionConfig` fields plus the token-stream ``window``.
OPTION_KEYS = {
    "extraction": {f.name for f in fields(ExtractionConfig)} | {"window"},
    "training": {f.name for f in fields(TrainingConfig)},
    "sgns": {f.name for f in fields(SgnsConfig)},
}


def _check_keys(what: str, given: Collection[str], known: Collection[str]) -> None:
    unknown = set(given) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} {sorted(unknown)}; known: {sorted(known)}")


@dataclass
class RunSpec:
    """Configuration of one (language, task, representation, learner) cell.

    ``extraction`` holds representation options: the
    :class:`~repro.core.extraction.ExtractionConfig` fields
    (``max_length``, ``max_width``, ``abstraction``, ...) for path-based
    representations, ``window`` for the token-stream baseline.  Absent
    ``max_length``/``max_width`` default to the task's tuned values for
    the language (Table 2).  ``training`` and ``sgns`` override fields of
    :class:`~repro.learning.crf.training.TrainingConfig` and
    :class:`~repro.learning.word2vec.sgns.SgnsConfig` respectively.  An
    unknown key in any of the three raises :class:`ValueError` naming
    the known ones (:data:`OPTION_KEYS`).
    """

    language: str
    task: str = "variable_naming"
    representation: str = "ast-paths"
    learner: str = "crf"
    extraction: Dict[str, Any] = field(default_factory=dict)
    training: Dict[str, Any] = field(default_factory=dict)
    sgns: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, known in OPTION_KEYS.items():
            _check_keys(f"{name} options", getattr(self, name), known)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict; inverse of :meth:`from_dict`."""
        return {
            "language": self.language,
            "task": self.task,
            "representation": self.representation,
            "learner": self.learner,
            "extraction": dict(self.extraction),
            "training": dict(self.training),
            "sgns": dict(self.sgns),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output (missing keys keep
        their defaults, so hand-written JSON can stay short)."""
        _check_keys("RunSpec fields", data, [f.name for f in fields(cls)])
        return cls(**data)

    def cell(self) -> str:
        """The human-readable cell name used in reports and errors."""
        return f"{self.language}/{self.task}/{self.representation}/{self.learner}"
