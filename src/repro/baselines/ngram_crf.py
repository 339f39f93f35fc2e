"""CRFs + token n-grams (the Java baseline of Table 2).

Same CRF nodes as the path-based model; the relations between them are
sequential n-grams over the real lexer token stream.  An element at token
position ``t`` is connected to every token within ``n - 1`` positions,
with the relation encoding the signed offset -- so the model sees local
token context (keywords and punctuation included) but nothing about tree
structure.

Identifier occurrences are grouped by *name* within a file, the usual
approximation when no parse-tree binding is available to a purely lexical
model.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.ast_model import Ast
from ..core.interning import FeatureSpace
from ..lang import lexing
from ..lang.javascript.parser import _KEYWORDS as _JS_KEYWORDS
from ..lang.java.parser import _KEYWORDS as _JAVA_KEYWORDS
from ..lang.csharp.parser import _KEYWORDS as _CSHARP_KEYWORDS
from ..learning.crf.graph import CrfGraph
from ..tasks.variable_naming import element_groups

_KEYWORDS = {
    "javascript": _JS_KEYWORDS,
    "java": _JAVA_KEYWORDS,
    "csharp": _CSHARP_KEYWORDS,
}


def _tokenize(source: str, language: str) -> List[lexing.Token]:
    if language == "python":
        # The lexer's Python mode: ``#`` comments, triple-quoted strings,
        # ``//`` as an operator (no indentation sensitivity is needed for
        # *context windows*).
        keywords = frozenset({"def", "return", "if", "else", "while", "for", "in",
                              "not", "and", "or", "raise", "break", "continue",
                              "True", "False", "None", "pass"})
        return lexing.Lexer(source, keywords, "python").tokenize()
    keywords = _KEYWORDS.get(language, _JS_KEYWORDS)
    return lexing.Lexer(source, keywords, language).tokenize()


def build_ngram_graph(
    source: str,
    ast: Ast,
    language: str = "java",
    n: int = 4,
    name: str = "",
    space: Optional[FeatureSpace] = None,
) -> CrfGraph:
    """Build a CRF graph whose relations are token n-grams.

    Relations and labels intern into ``space`` (a private one if None);
    to train or score with a pipeline, pass its ``pipeline.space``.
    """
    graph = CrfGraph(name=name, space=space)

    # Renameable element names (from the AST's bindings); lexical models
    # group occurrences by name.
    groups = element_groups(ast)
    name_to_key: Dict[str, str] = {}
    for binding, occurrences in groups.items():
        gold = occurrences[0].value or ""
        # First binding with a name wins; same-name locals merge, which is
        # the documented approximation of lexical baselines.
        name_to_key.setdefault(gold, binding)
    for gold, binding in name_to_key.items():
        graph.add_unknown(binding, gold=gold)

    tokens = [t for t in _tokenize(source, language) if t.kind != lexing.EOF]
    window = n - 1
    for t, token in enumerate(tokens):
        if token.kind != lexing.IDENT or token.text not in name_to_key:
            continue
        index = graph.index_of(name_to_key[token.text])
        if index is None:
            continue
        for offset in range(-window, window + 1):
            if offset == 0:
                continue
            j = t + offset
            if j < 0 or j >= len(tokens):
                continue
            other = tokens[j]
            rel = f"g{offset}"
            if other.kind == lexing.IDENT and other.text in name_to_key:
                other_index = graph.index_of(name_to_key[other.text])
                # Register each unknown-unknown pair once (forward offsets
                # only); add_unknown_factor stores both directions.
                if other_index is not None and other_index != index and offset > 0:
                    graph.add_unknown_factor(index, other_index, rel, f"g{-offset}")
                continue
            label = other.text if other.kind != lexing.STRING else "<str>"
            graph.add_known_factor(index, rel, label)
    return graph
