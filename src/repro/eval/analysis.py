"""Result analysis utilities.

The paper discusses out-of-vocabulary rates (5-15% across datasets and
tasks, Sec. 5.3), the interpretability of CRF weights, and qualitative
error patterns.  This module computes those analyses for our corpora:

* :func:`oov_rate` -- fraction of test labels never seen in training,
  split into *neologisms* (composable from known subtokens) and entirely
  new names, the two OoV classes of Allamanis et al. the paper cites;
* :func:`error_breakdown` -- confusion counts between gold and predicted
  names;
* :func:`label_distribution` -- gold-label frequencies (used to sanity
  check the naive baselines).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .metrics import exact_match, normalize_name, subtokens


@dataclass
class OovReport:
    """Out-of-vocabulary statistics for one train/test label split."""

    total: int = 0
    in_vocabulary: int = 0
    neologisms: int = 0
    unknown: int = 0

    @property
    def oov_rate(self) -> float:
        if self.total == 0:
            return 0.0
        return (self.neologisms + self.unknown) / self.total

    @property
    def neologism_rate(self) -> float:
        return self.neologisms / self.total if self.total else 0.0


def oov_rate(train_labels: Iterable[str], test_labels: Iterable[str]) -> OovReport:
    """Classify test labels as in-vocabulary / neologism / unknown."""
    vocabulary = {normalize_name(label) for label in train_labels}
    subtoken_vocabulary: Set[str] = set()
    for label in vocabulary:
        subtoken_vocabulary.update(subtokens(label))

    report = OovReport()
    for label in test_labels:
        report.total += 1
        if normalize_name(label) in vocabulary:
            report.in_vocabulary += 1
        elif subtokens(label) and all(
            tok in subtoken_vocabulary for tok in subtokens(label)
        ):
            report.neologisms += 1
        else:
            report.unknown += 1
    return report


@dataclass
class ErrorBreakdown:
    """Confusions between gold and predicted labels."""

    confusions: Counter = field(default_factory=Counter)
    correct: int = 0
    total: int = 0

    def add(self, predicted: Optional[str], gold: str) -> None:
        self.total += 1
        if exact_match(predicted, gold):
            self.correct += 1
        else:
            self.confusions[(gold, predicted or "<none>")] += 1

    def top_confusions(self, n: int = 10) -> List[Tuple[Tuple[str, str], int]]:
        return self.confusions.most_common(n)

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0


def error_breakdown(
    predictions: Sequence[Optional[str]], golds: Sequence[str]
) -> ErrorBreakdown:
    """Build an :class:`ErrorBreakdown` from parallel sequences."""
    if len(predictions) != len(golds):
        raise ValueError("predictions and golds must have the same length")
    breakdown = ErrorBreakdown()
    for predicted, gold in zip(predictions, golds):
        breakdown.add(predicted, gold)
    return breakdown


def label_distribution(labels: Iterable[str]) -> List[Tuple[str, float]]:
    """(label, fraction) pairs, most frequent first."""
    counts = Counter(labels)
    total = sum(counts.values())
    if total == 0:
        return []
    return [(label, count / total) for label, count in counts.most_common()]


def majority_baseline_accuracy(
    train_labels: Iterable[str], test_labels: Iterable[str]
) -> float:
    """Accuracy of always predicting the most frequent training label."""
    counts = Counter(normalize_name(label) for label in train_labels)
    if not counts:
        return 0.0
    majority = counts.most_common(1)[0][0]
    test = [normalize_name(label) for label in test_labels]
    if not test:
        return 0.0
    return sum(1 for label in test if label == majority) / len(test)
