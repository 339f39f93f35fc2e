"""Train / validation / test splitting (Sec. 5.2).

The paper splits each corpus randomly; we do the same, deterministically
under a seed, and split *by project* by default so that near-identical
in-project code does not leak from train to test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .generator import CorpusFile


@dataclass
class CorpusSplit:
    train: List[CorpusFile]
    validation: List[CorpusFile]
    test: List[CorpusFile]

    def sizes(self) -> Tuple[int, int, int]:
        return (len(self.train), len(self.validation), len(self.test))


def split_corpus(
    files: Sequence[CorpusFile],
    train_fraction: float = 0.7,
    validation_fraction: float = 0.15,
    seed: int = 23,
    by_project: bool = False,
) -> CorpusSplit:
    """Randomly split a corpus into train/validation/test.

    ``by_project=True`` assigns whole projects to one side (stricter, no
    in-project leakage); the default splits by file like the paper.
    """
    if not (0 < train_fraction < 1) or not (0 <= validation_fraction < 1):
        raise ValueError("fractions must be in (0, 1)")
    if train_fraction + validation_fraction >= 1:
        raise ValueError("train + validation fractions must leave room for test")
    rng = random.Random(seed)

    if by_project:
        projects = sorted({f.project for f in files})
        rng.shuffle(projects)
        n_train = max(1, int(len(projects) * train_fraction))
        n_val = max(1, int(len(projects) * validation_fraction))
        train_projects = set(projects[:n_train])
        val_projects = set(projects[n_train : n_train + n_val])
        split = CorpusSplit([], [], [])
        for file in files:
            if file.project in train_projects:
                split.train.append(file)
            elif file.project in val_projects:
                split.validation.append(file)
            else:
                split.test.append(file)
        return split

    shuffled = list(files)
    rng.shuffle(shuffled)
    n_train = int(len(shuffled) * train_fraction)
    n_val = int(len(shuffled) * validation_fraction)
    return CorpusSplit(
        train=shuffled[:n_train],
        validation=shuffled[n_train : n_train + n_val],
        test=shuffled[n_train + n_val :],
    )
