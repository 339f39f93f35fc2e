"""Linear token-stream contexts for word2vec (Table 3, row 1).

"The linear token-stream approach uses the surrounding tokens to predict
a variable name.  Surrounding tokens (e.g., values, keywords, parentheses,
dots and brackets) may implicitly hint at the syntactic relations, without
AST paths.  This is the type of context usually used in NLP [and] in the
original implementation of word2vec."

Context token: signed offset + token text within a fixed window around
each occurrence.  Other renameable names are masked with the placeholder
so gold labels cannot leak, mirroring the path-based pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.ast_model import Ast
from ..lang import lexing
from ..tasks.variable_naming import PLACEHOLDER, element_groups
from .ngram_crf import _tokenize


def token_stream_contexts(
    source: str,
    ast: Ast,
    language: str = "javascript",
    window: int = 4,
) -> Dict[str, Tuple[str, List[str]]]:
    """binding -> (gold name, linear-context tokens)."""
    groups = element_groups(ast)
    name_to_binding: Dict[str, str] = {}
    for binding, occurrences in groups.items():
        name_to_binding.setdefault(occurrences[0].value or "", binding)
    unknown_names = set(name_to_binding)

    contexts: Dict[str, List[str]] = {binding: [] for binding in groups}
    tokens = [t for t in _tokenize(source, language) if t.kind != lexing.EOF]
    for t, token in enumerate(tokens):
        if token.kind != lexing.IDENT or token.text not in name_to_binding:
            continue
        binding = name_to_binding[token.text]
        for offset in range(-window, window + 1):
            if offset == 0:
                continue
            j = t + offset
            if j < 0 or j >= len(tokens):
                continue
            other = tokens[j]
            text = other.text
            if other.kind == lexing.IDENT and text in unknown_names:
                text = PLACEHOLDER
            elif other.kind == lexing.STRING:
                text = "<str>"
            contexts[binding].append(f"t{offset}|{text}")
    return {
        binding: (groups[binding][0].value or "", contexts[binding])
        for binding in groups
    }
