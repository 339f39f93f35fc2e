"""Synthetic code-corpus substrate.

The paper trains on multi-gigabyte GitHub corpora (Table 1); offline, we
substitute a deterministic generator that emits semantically-coherent
programs in all four languages from shared semantic templates: the
templates build functions in a small IR (``ir.py``), and one renderer
(``render.py``) lowers that IR to each language from a per-language
syntax table.
"""

from .generator import CorpusConfig, CorpusFile, generate_corpus
from .dedup import deduplicate
from .splits import split_corpus

__all__ = [
    "CorpusConfig",
    "CorpusFile",
    "generate_corpus",
    "deduplicate",
    "split_corpus",
]
