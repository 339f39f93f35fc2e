"""The representation extension point and its built-ins.

The paper's headline representation is AST paths; its baselines are
alternative representations over the *same* tasks and learners
(Tables 2-3).  Registering the baselines here makes that comparison an
API-level fact: swap ``representation="ast-paths"`` for ``"no-paths"``
or ``"token-context"`` in a :class:`~repro.api.spec.RunSpec` and
everything else stays fixed.

===================  ===========  =======================================
name                 views        meaning
===================  ===========  =======================================
``ast-paths``        graph+ctx    AST path-contexts (the paper's rep)
``no-paths``         graph+ctx    same neighbours, path collapsed to one
                                  symbol (Sec. 5.3 "no-paths"; with the
                                  word2vec learner this is Table 3's
                                  "path-neighbours, no-paths" row)
``token-context``    ctx          linear token-stream window (Table 3)
===================  ===========  =======================================

A representation class is constructed with the resolved ``extraction``
option dict of the spec; each implementation consumes the keys it
understands and ignores the rest (the dict is shared across
representations so specs can switch representation without editing it).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from ..baselines.no_paths import no_paths_extractor
from ..baselines.token_context import token_stream_contexts
from ..core.extraction import ExtractionConfig, PathExtractor
from ..core.interning import FeatureSpace
from ..core.service import ExtractionService
from ..learning.crf.graph import CrfGraph
from ..registry import Registry
from .protocols import (
    CONTEXTS_VIEW,
    GRAPH_VIEW,
    ContextMap,
    ParsedProgram,
    Task,
    UnsupportedSpecError,
)

#: The representation extension point: name -> representation class.
representations = Registry("representation")

_EXTRACTION_FIELDS = {f.name for f in dataclasses.fields(ExtractionConfig)}


def _extraction_config(extraction: Dict[str, Any], **forced: Any) -> ExtractionConfig:
    kwargs = {k: v for k, v in extraction.items() if k in _EXTRACTION_FIELDS}
    kwargs.update(forced)
    return ExtractionConfig(**kwargs)


@representations.register("ast-paths")
class AstPathsRepresentation:
    """AST path-contexts through a :class:`PathExtractor` (Sec. 4).

    Each instance owns a private
    :class:`~repro.core.interning.FeatureSpace` (so a pipeline's interned
    ids are compact and deterministic) and routes extraction through an
    :class:`~repro.core.service.ExtractionService`, so a program whose
    graph and contexts views are both built extracts once.
    """

    name = "ast-paths"
    provides: Tuple[str, ...] = (GRAPH_VIEW, CONTEXTS_VIEW)
    tasks: Optional[Tuple[str, ...]] = None

    def __init__(self, extraction: Optional[Dict[str, Any]] = None) -> None:
        self.space = FeatureSpace()
        self.extractor = PathExtractor(
            _extraction_config(extraction or {}), space=self.space
        )
        self.service = ExtractionService(self.extractor)

    def bind_space(self, space: FeatureSpace) -> None:
        """Adopt a feature space (e.g. one restored by Pipeline.load)."""
        self.space = space
        self.service.bind_space(space)

    def graph(self, task: Task, program: ParsedProgram, name: str = "") -> CrfGraph:
        return task.build_graph(program, self.service, name or program.name)

    def contexts(self, task: Task, program: ParsedProgram) -> ContextMap:
        return task.contexts(program, self.service)


@representations.register("no-paths")
class NoPathsRepresentation(AstPathsRepresentation):
    """The "no-paths" baseline: neighbour identities, relation hidden.

    Built on :func:`repro.baselines.no_paths.no_paths_extractor`: the
    same element-and-neighbour structure as ``ast-paths`` under the
    ``no-path`` abstraction, so the learner sees *which* nodes are nearby
    but not *how* they relate.  With the ``word2vec`` learner this is
    the only implementation of Table 3's "path-neighbours, no-paths"
    contexts.
    """

    name = "no-paths"

    def __init__(self, extraction: Optional[Dict[str, Any]] = None) -> None:
        extraction = dict(extraction or {})
        extraction.pop("abstraction", None)
        config = _extraction_config(extraction)
        self.space = FeatureSpace()
        self.extractor = no_paths_extractor(
            space=self.space,
            **{f.name: getattr(config, f.name) for f in dataclasses.fields(config) if f.name != "abstraction"},
        )
        self.service = ExtractionService(self.extractor)


@representations.register("token-context")
class TokenContextRepresentation:
    """Linear token-stream contexts (Table 3, row 1).

    Wraps :func:`repro.baselines.token_context.token_stream_contexts`:
    the surrounding ``window`` tokens of each occurrence, NLP-style, with
    no syntactic structure.  Contexts-only -- pair it with a contexts
    learner such as ``word2vec``.
    """

    name = "token-context"
    provides: Tuple[str, ...] = (CONTEXTS_VIEW,)
    #: Uses the variable-naming element grouping internally.
    tasks: Optional[Tuple[str, ...]] = ("variable_naming",)

    def __init__(self, extraction: Optional[Dict[str, Any]] = None) -> None:
        self.window = int((extraction or {}).get("window", 4))

    def graph(self, task: Task, program: ParsedProgram, name: str = "") -> CrfGraph:
        raise UnsupportedSpecError(
            "representation 'token-context' has no 'graph' view; "
            "it provides: ('contexts',)"
        )

    def contexts(self, task: Task, program: ParsedProgram) -> ContextMap:
        return token_stream_contexts(
            program.source, program.ast, program.language, window=self.window
        )
