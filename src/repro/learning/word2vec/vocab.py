"""Word and context vocabularies for SGNS.

Words are the labels to predict (variable names); contexts are arbitrary
tokens -- for AST paths, a context is the pair (abstract path, value at
the other end), serialised to a single string.  Infrequent words/contexts
are dropped by ``min_count``, and a unigram^0.75 table drives negative
sampling exactly as in Mikolov et al.'s implementation.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


class Vocabulary:
    """Bidirectional token <-> id map with frequency information."""

    def __init__(self, min_count: int = 1) -> None:
        self.min_count = min_count
        self.token_to_id: Dict[str, int] = {}
        self.id_to_token: List[str] = []
        self.counts: List[int] = []

    @classmethod
    def from_counter(cls, counter: Counter, min_count: int = 1) -> "Vocabulary":
        vocab = cls(min_count=min_count)
        for token, count in sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])):
            if count >= min_count:
                vocab._add(token, count)
        return vocab

    def _add(self, token: str, count: int) -> int:
        token_id = len(self.id_to_token)
        self.token_to_id[token] = token_id
        self.id_to_token.append(token)
        self.counts.append(count)
        return token_id

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def get(self, token: str) -> Optional[int]:
        return self.token_to_id.get(token)

    def token(self, token_id: int) -> str:
        return self.id_to_token[token_id]

    def negative_sampling_table(self, power: float = 0.75) -> np.ndarray:
        """Unigram^power distribution over ids, as a probability vector."""
        counts = np.asarray(self.counts, dtype=np.float64)
        probs = counts**power
        probs /= probs.sum()
        return probs


def build_vocabularies(
    pairs: Iterable[Tuple[str, str]],
    min_word_count: int = 1,
    min_context_count: int = 1,
) -> Tuple[Vocabulary, Vocabulary, List[Tuple[int, int]]]:
    """Build (word vocab, context vocab, encoded pair list) from raw pairs."""
    pair_list = list(pairs)
    word_counts = Counter(word for word, _ in pair_list)
    context_counts = Counter(context for _, context in pair_list)
    words = Vocabulary.from_counter(word_counts, min_word_count)
    contexts = Vocabulary.from_counter(context_counts, min_context_count)
    encoded: List[Tuple[int, int]] = []
    for word, context in pair_list:
        wid = words.get(word)
        cid = contexts.get(context)
        if wid is not None and cid is not None:
            encoded.append((wid, cid))
    return words, contexts, encoded
