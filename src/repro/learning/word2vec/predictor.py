"""The paper's Eq. (4) predictor.

Unlike the lexical-substitution model of Melamud et al. [31], which also
uses the original word, the paper predicts an unknown name purely from
its contexts:

``prediction = argmax_w  sum_{c in contexts} (w . c)``

Since the sum distributes, we compute ``s = sum_c vec(c)`` once and rank
all words by ``W @ s`` -- a single matrix-vector product.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from .sgns import SgnsModel


class ContextPredictor:
    """Predict a word from a bag of context tokens via Eq. (4)."""

    def __init__(self, model: SgnsModel) -> None:
        self.model = model

    def context_sum(self, contexts: Iterable[str]) -> Tuple[np.ndarray, int]:
        """Sum of known context vectors and how many were known."""
        total = np.zeros(self.model.dim)
        known = 0
        for context in contexts:
            vec = self.model.context_vector(context)
            if vec is not None:
                total += vec
                known += 1
        return total, known

    def predict(self, contexts: Iterable[str]) -> Optional[str]:
        """The single best word, or None when every context is OOV."""
        top = self.predict_topk(contexts, k=1)
        return top[0][0] if top else None

    def predict_topk(self, contexts: Iterable[str], k: int = 10) -> List[Tuple[str, float]]:
        """Top-k words by summed inner product with the context vectors."""
        total, known = self.context_sum(contexts)
        if known == 0 or len(self.model.words) == 0:
            return []
        scores = self.model.word_vectors @ total
        k = min(k, len(scores))
        top_idx = np.argpartition(-scores, k - 1)[:k]
        top_idx = top_idx[np.argsort(-scores[top_idx])]
        return [(self.model.words.token(int(i)), float(scores[i])) for i in top_idx]
