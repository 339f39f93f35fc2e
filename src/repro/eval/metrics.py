"""Evaluation metrics (Sec. 5.2).

The paper measures **exact match**, case-insensitive and ignoring
non-alphabetical characters (``totalCount`` matches ``total_count``).
For the comparison against Allamanis et al. it additionally reports
**F1 over sub-tokens** (``getFoo`` vs gold ``getBar``: precision 1/2,
recall 1/2).  Unknown test labels ("UNK") always count as incorrect, and
models never predict UNK.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: The reserved unknown-label token.
UNK = "UNK"

_NON_ALNUM = re.compile(r"[^a-z0-9]+")
_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def normalize_name(name: str) -> str:
    """Lowercase and strip non-alphanumeric characters."""
    return _NON_ALNUM.sub("", name.lower())


def exact_match(predicted: Optional[str], gold: str) -> bool:
    """Paper's exact-match: case/punctuation-insensitive equality.

    ``None`` predictions and UNK gold labels never match.
    """
    if predicted is None or gold == UNK or predicted == UNK:
        return False
    return normalize_name(predicted) == normalize_name(gold)


def subtokens(name: str) -> List[str]:
    """Split a name into lowercase subtokens.

    Handles camelCase, PascalCase, snake_case and digit boundaries:
    ``multithreadedHttpConnectionManager`` ->
    ``[multithreaded, http, connection, manager]``.
    """
    pieces: List[str] = []
    for chunk in re.split(r"[^0-9a-zA-Z]+", name):
        if not chunk:
            continue
        for piece in _CAMEL_BOUNDARY.split(chunk):
            if piece:
                pieces.append(piece.lower())
    return pieces


def subtoken_f1(predicted: Optional[str], gold: str) -> Tuple[float, float, float]:
    """(precision, recall, F1) over sub-tokens for one prediction.

    Multiset intersection, as in the method-naming literature.  A ``None``
    prediction scores zero; UNK *parts* of a gold label reduce attainable
    recall (a partial prediction can still earn partial credit).
    """
    if predicted is None:
        return (0.0, 0.0, 0.0)
    pred_tokens = subtokens(predicted)
    gold_tokens = subtokens(gold)
    if not pred_tokens or not gold_tokens:
        return (0.0, 0.0, 0.0)
    overlap = 0
    remaining = list(gold_tokens)
    for token in pred_tokens:
        if token in remaining:
            remaining.remove(token)
            overlap += 1
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    # 2pr / (p + r) in integers: one correctly rounded division, so F1
    # never rounds outside [min(p, r), max(p, r)] as the float form can.
    f1 = 2 * overlap / (len(pred_tokens) + len(gold_tokens))
    return (precision, recall, f1)


@dataclass
class AccuracyCounter:
    """Streaming exact-match accuracy."""

    correct: int = 0
    total: int = 0

    def add(self, predicted: Optional[str], gold: str) -> bool:
        hit = exact_match(predicted, gold)
        self.correct += int(hit)
        self.total += 1
        return hit

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def as_percent(self) -> float:
        return 100.0 * self.accuracy

    def merge(self, other: "AccuracyCounter") -> None:
        self.correct += other.correct
        self.total += other.total


@dataclass
class SubtokenF1Counter:
    """Streaming macro-averaged subtoken precision/recall/F1."""

    precision_sum: float = 0.0
    recall_sum: float = 0.0
    f1_sum: float = 0.0
    total: int = 0

    def add(self, predicted: Optional[str], gold: str) -> None:
        p, r, f = subtoken_f1(predicted, gold)
        self.precision_sum += p
        self.recall_sum += r
        self.f1_sum += f
        self.total += 1

    @property
    def precision(self) -> float:
        return self.precision_sum / self.total if self.total else 0.0

    @property
    def recall(self) -> float:
        return self.recall_sum / self.total if self.total else 0.0

    @property
    def f1(self) -> float:
        return self.f1_sum / self.total if self.total else 0.0


def topk_accuracy(
    predictions: Sequence[Sequence[str]], golds: Sequence[str], k: int
) -> float:
    """Fraction of golds found within the first k candidates."""
    if not golds:
        return 0.0
    hits = 0
    for candidates, gold in zip(predictions, golds):
        if any(exact_match(c, gold) for c in list(candidates)[:k]):
            hits += 1
    return hits / len(golds)
