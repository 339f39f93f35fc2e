"""Skip-gram with negative sampling (SGNS), trained with minibatch SGD.

The objective follows Mikolov et al. [32, 33] as generalised to arbitrary
contexts by Levy & Goldberg [26]: maximise ``log sigmoid(w·c)`` for each
observed (word, context) pair and ``log sigmoid(-w·c')`` for ``k``
sampled negative contexts.  Levy & Goldberg [27] show the optimum
factorises the PMI matrix (Eq. 3 of the paper); the property-based tests
check a coarse version of that on synthetic data.

Everything is vectorised numpy; a corpus of a few hundred thousand pairs
trains in seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ...resilience import faults
from ...resilience.checkpoint import CheckpointMismatchError, TrainerCheckpoint
from .vocab import Vocabulary, build_vocabularies


@dataclass
class SgnsConfig:
    """Hyper-parameters of the embedding trainer."""

    dim: int = 64
    epochs: int = 12
    negatives: int = 5
    learning_rate: float = 0.3
    min_learning_rate: float = 0.0001
    batch_size: int = 512
    min_word_count: int = 1
    min_context_count: int = 1
    seed: int = 41


@dataclass
class SgnsStats:
    pairs: int = 0
    epochs: int = 0
    train_seconds: float = 0.0


class SgnsModel:
    """Trained embeddings: word matrix W and context matrix C."""

    def __init__(
        self,
        words: Vocabulary,
        contexts: Vocabulary,
        word_vectors: np.ndarray,
        context_vectors: np.ndarray,
    ) -> None:
        self.words = words
        self.contexts = contexts
        self.word_vectors = word_vectors
        self.context_vectors = context_vectors

    @property
    def dim(self) -> int:
        return self.word_vectors.shape[1]

    def word_vector(self, word: str) -> Optional[np.ndarray]:
        wid = self.words.get(word)
        return None if wid is None else self.word_vectors[wid]

    def context_vector(self, context: str) -> Optional[np.ndarray]:
        cid = self.contexts.get(context)
        return None if cid is None else self.context_vectors[cid]

    def similarity(self, word_a: str, word_b: str) -> float:
        """Cosine similarity between two word embeddings (0 if OOV)."""
        va, vb = self.word_vector(word_a), self.word_vector(word_b)
        if va is None or vb is None:
            return 0.0
        denom = float(np.linalg.norm(va) * np.linalg.norm(vb))
        if denom == 0.0:
            return 0.0
        return float(va @ vb / denom)

    def most_similar(self, word: str, k: int = 10) -> List[Tuple[str, float]]:
        """Nearest word embeddings by cosine -- used for Table 4b."""
        vec = self.word_vector(word)
        if vec is None:
            return []
        matrix = self.word_vectors
        norms = np.linalg.norm(matrix, axis=1) * (np.linalg.norm(vec) or 1.0)
        norms[norms == 0.0] = 1.0
        sims = matrix @ vec / norms
        order = np.argsort(-sims)
        out: List[Tuple[str, float]] = []
        for idx in order:
            token = self.words.token(int(idx))
            if token == word:
                continue
            out.append((token, float(sims[idx])))
            if len(out) >= k:
                break
        return out


def train_sgns(
    pairs: Iterable[Tuple[str, str]],
    config: Optional[SgnsConfig] = None,
    checkpoint: Optional[TrainerCheckpoint] = None,
) -> Tuple[SgnsModel, SgnsStats]:
    """Train SGNS embeddings from raw (word, context) string pairs."""
    cfg = config or SgnsConfig()
    started = time.perf_counter()
    words, contexts, encoded = build_vocabularies(
        pairs, cfg.min_word_count, cfg.min_context_count
    )
    stats = SgnsStats(pairs=len(encoded))
    rng = np.random.default_rng(cfg.seed)

    n_words, n_contexts, dim = len(words), len(contexts), cfg.dim
    if n_words == 0 or n_contexts == 0 or not encoded:
        empty_w = np.zeros((n_words, dim))
        empty_c = np.zeros((n_contexts, dim))
        return SgnsModel(words, contexts, empty_w, empty_c), stats

    # Symmetric small random init.  (word2vec's zero-context init relies
    # on millions of tiny SGD steps; at corpus scale a symmetric init
    # converges far faster with mean-aggregated minibatch updates.)
    W = (rng.random((n_words, dim)) - 0.5) / np.sqrt(dim)
    C = (rng.random((n_contexts, dim)) - 0.5) / np.sqrt(dim)

    word_ids = np.asarray([w for w, _ in encoded], dtype=np.int64)
    context_ids = np.asarray([c for _, c in encoded], dtype=np.int64)
    neg_probs = contexts.negative_sampling_table()

    total_batches = cfg.epochs * max(1, int(np.ceil(len(encoded) / cfg.batch_size)))
    batch_counter = 0

    # Resume: the checkpoint holds both matrices (float64 round-trips
    # exactly through JSON) and the PCG64 bit-generator state, so the
    # remaining epochs draw the same permutations and negative samples
    # as the uninterrupted run -- bit-identical final embeddings.  The
    # fresh init above is harmless; restore overwrites W, C and the RNG.
    start_epoch = 0
    if checkpoint is not None and checkpoint.state is not None:
        state = checkpoint.state
        if state.get("kind") != "sgns":
            raise CheckpointMismatchError(
                f"checkpoint {checkpoint.path!r} holds "
                f"{state.get('kind')!r} trainer state, not 'sgns'"
            )
        start_epoch = stats.epochs = int(state["epochs_done"])
        batch_counter = int(state["batch_counter"])
        W = np.asarray(state["word_vectors"], dtype=np.float64).reshape(n_words, dim)
        C = np.asarray(state["context_vectors"], dtype=np.float64).reshape(
            n_contexts, dim
        )
        rng.bit_generator.state = state["rng"]

    for epoch in range(start_epoch, cfg.epochs):
        perm = rng.permutation(len(encoded))
        for start in range(0, len(encoded), cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            lr = max(
                cfg.min_learning_rate,
                cfg.learning_rate * (1.0 - batch_counter / total_batches),
            )
            batch_counter += 1
            w_idx = word_ids[batch]
            c_idx = context_ids[batch]
            b = len(batch)

            # Positive examples.
            w_vecs = W[w_idx]  # (b, d)
            c_vecs = C[c_idx]  # (b, d)
            pos_logits = np.einsum("bd,bd->b", w_vecs, c_vecs)
            pos_grad = _sigmoid(pos_logits) - 1.0  # d/d(logit) of -log(sigmoid)

            # Negative examples: (b, k) sampled contexts.
            neg_idx = rng.choice(n_contexts, size=(b, cfg.negatives), p=neg_probs)
            neg_vecs = C[neg_idx]  # (b, k, d)
            neg_logits = np.einsum("bd,bkd->bk", w_vecs, neg_vecs)
            neg_grad = _sigmoid(neg_logits)  # d/d(logit) of -log(sigmoid(-x))

            # Gradients.
            grad_w = pos_grad[:, None] * c_vecs + np.einsum(
                "bk,bkd->bd", neg_grad, neg_vecs
            )
            grad_c_pos = pos_grad[:, None] * w_vecs
            grad_c_neg = neg_grad[:, :, None] * w_vecs[:, None, :]

            # Mean-aggregated scatter updates: hot indices (a context that
            # recurs hundreds of times in one batch) take one averaged
            # step instead of a summed one, which keeps minibatch SGD as
            # stable as word2vec's original pair-at-a-time SGD.
            _mean_scatter_update(W, w_idx, grad_w, lr)
            c_all = np.concatenate([c_idx, neg_idx.reshape(-1)])
            g_all = np.concatenate([grad_c_pos, grad_c_neg.reshape(-1, dim)])
            _mean_scatter_update(C, c_all, g_all, lr)
        stats.epochs += 1
        if checkpoint is not None:
            checkpoint.save_epoch(
                epoch + 1,
                {
                    "kind": "sgns",
                    "epochs_done": epoch + 1,
                    "batch_counter": batch_counter,
                    "rng": rng.bit_generator.state,
                    "word_vectors": W.tolist(),
                    "context_vectors": C.tolist(),
                },
            )
        faults.fire("train.epoch")

    stats.train_seconds = time.perf_counter() - started
    return SgnsModel(words, contexts, W, C), stats


def _mean_scatter_update(
    matrix: np.ndarray, indices: np.ndarray, grads: np.ndarray, lr: float
) -> None:
    """``matrix[i] -= lr * mean(grads where index == i)`` per unique i."""
    unique, inverse, counts = np.unique(
        indices, return_inverse=True, return_counts=True
    )
    accumulated = np.zeros((len(unique), matrix.shape[1]))
    np.add.at(accumulated, inverse, grads)
    matrix[unique] -= lr * accumulated / counts[:, None]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out
