"""The combined prediction graph behind the ``translate`` task.

Translation renames *everything the CRF can rename* in one shot, so its
factor graph is the union of the variable-naming graph (Sec. 5.3.1) and
the method-naming graph (Sec. 5.3.2) over one file:

* one unknown per renameable variable/parameter binding, with the full
  path-factor structure of :func:`repro.tasks.variable_naming.build_crf_graph`;
* one unknown per method declaration (keyed ``method:{i}:{gold}`` exactly
  as :func:`repro.tasks.method_naming.method_elements` keys them), with
  internal, external, and occurrence-unary factors.

Key spaces cannot collide: variable unknowns are frontend binding keys
(``m1:total``, ``s2:count``, ...) while method unknowns carry the
``method:`` prefix.  :class:`repro.translate.Translator` relies on this
key identity -- it looks predictions up under the same binding / method
keys its lifters produce.
"""

from __future__ import annotations

from ..core.ast_model import Ast
from ..core.extraction import PathExtractor
from ..learning.crf.graph import CrfGraph
from .method_naming import add_method_factors, method_elements
from .variable_naming import add_path_factors, element_groups


def build_translate_graph(
    ast: Ast, extractor: PathExtractor, name: str = ""
) -> CrfGraph:
    """One CRF graph holding a file's variable *and* method unknowns."""
    graph = CrfGraph(name=name, space=extractor.space)

    groups = element_groups(ast)
    for binding, occurrences in groups.items():
        graph.add_unknown(binding, gold=occurrences[0].value or "")

    methods = method_elements(ast)
    for key, info in methods.items():
        graph.add_unknown(key, gold=str(info["gold"]))

    add_path_factors(graph, extractor.extract(ast), groups)
    add_method_factors(graph, ast, extractor, methods)
    return graph
