"""The task extension point and the three built-in tasks (Sec. 5.3).

A task plugin decides *what is predicted*: which program elements become
unknowns, what their gold labels are, and how a program turns into each
feature view.  The built-ins wrap the graph/label builders in
``repro.tasks``; third-party tasks register the same way::

    from repro.api.tasks import tasks

    @tasks.register("loop-bound-prediction")
    class LoopBoundTask: ...
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.extraction import PathExtractor
from ..learning.crf.graph import CrfGraph
from ..registry import Registry
from ..tasks.method_naming import build_method_graph
from ..tasks.type_prediction import build_type_graph
from ..tasks.variable_naming import build_crf_graph, element_contexts
from .protocols import GRAPH_VIEW, CONTEXTS_VIEW, ContextMap, ParsedProgram, UnsupportedSpecError

#: The task extension point: name -> task class.
tasks = Registry("task")

#: Tuned (max_length, max_width) per (language, task) cell (Table 2).
DEFAULT_PARAMS: Dict[Tuple[str, str], Tuple[int, int]] = {
    ("javascript", "variable_naming"): (7, 3),
    ("java", "variable_naming"): (6, 3),
    ("python", "variable_naming"): (7, 4),
    ("csharp", "variable_naming"): (7, 4),
    ("javascript", "method_naming"): (12, 4),
    ("java", "method_naming"): (6, 2),
    ("python", "method_naming"): (10, 6),
    ("java", "type_prediction"): (4, 1),
}

#: Fallback when a (language, task) cell has no tuned entry.
FALLBACK_PARAMS: Tuple[int, int] = (7, 3)


class _TaskBase:
    name: str = ""
    languages: Optional[Tuple[str, ...]] = None
    views: Tuple[str, ...] = (GRAPH_VIEW,)

    def default_params(self, language: str) -> Tuple[int, int]:
        return DEFAULT_PARAMS.get((language, self.name), FALLBACK_PARAMS)

    def contexts(self, program: ParsedProgram, extractor: PathExtractor) -> ContextMap:
        raise UnsupportedSpecError(
            f"task {self.name!r} has no 'contexts' view; it supports: {self.views}"
        )


@tasks.register("variable_naming")
class VariableNamingTask(_TaskBase):
    """Predict names of local variables and parameters (Sec. 5.3.1)."""

    name = "variable_naming"
    views = (GRAPH_VIEW, CONTEXTS_VIEW)
    #: Predictions can be substituted back into the source (rename/deobfuscate).
    renameable = True

    def build_graph(self, program: ParsedProgram, extractor: PathExtractor, name: str = "") -> CrfGraph:
        return build_crf_graph(program.ast, extractor, name or program.name)

    def contexts(self, program: ParsedProgram, extractor: PathExtractor) -> ContextMap:
        return element_contexts(program.ast, extractor)


@tasks.register("method_naming")
class MethodNamingTask(_TaskBase):
    """Predict method names from bodies and call sites (Sec. 5.3.2)."""

    name = "method_naming"

    def build_graph(self, program: ParsedProgram, extractor: PathExtractor, name: str = "") -> CrfGraph:
        return build_method_graph(program.ast, extractor, name or program.name)


@tasks.register("type_prediction")
class TypePredictionTask(_TaskBase):
    """Predict full (package-qualified) expression types (Sec. 5.3.3)."""

    name = "type_prediction"
    languages = ("java",)

    def build_graph(self, program: ParsedProgram, extractor: PathExtractor, name: str = "") -> CrfGraph:
        return build_type_graph(program.ast, extractor, name or program.name)
