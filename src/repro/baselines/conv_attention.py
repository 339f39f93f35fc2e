"""Convolutional attention for method-name prediction (Allamanis et al. [7]).

A laptop-scale numpy reimplementation of the model family the paper
compares against on Java method names: token embeddings of the method
body, a 1-D convolution producing per-position attention scores, an
attention-weighted body summary, and a softmax over the method-name
vocabulary.  The original predicts sub-token sequences; like the paper we
report both exact match and sub-token F1 of the predicted name.

Trained by SGD on cross-entropy.  The paper's finding -- this model
underperforms CRFs with AST paths because it cannot learn across
projects as effectively -- is reproduced by the model's reliance on
surface token identity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.ast_model import Ast
from ..tasks.method_naming import method_elements

_PAD = "<pad>"
_UNK_TOKEN = "<unk>"


@dataclass
class ConvAttentionConfig:
    embed_dim: int = 32
    conv_window: int = 3
    max_body_tokens: int = 60
    epochs: int = 8
    learning_rate: float = 0.08
    min_token_count: int = 2
    seed: int = 29


def _body_tokens(info: Dict[str, object], max_tokens: int) -> List[str]:
    body_root = info["body_root"]
    decl = info["decl_node"]
    if body_root is None:
        return []
    tokens = [
        leaf.value or leaf.kind
        for leaf in body_root.leaves()  # type: ignore[union-attr]
        if leaf is not decl
    ]
    return tokens[:max_tokens]


class ConvAttentionModel:
    """Trained model: embeddings, conv filter, output projection."""

    def __init__(
        self,
        token_vocab: Dict[str, int],
        label_vocab: Dict[str, int],
        embeddings: np.ndarray,
        conv_filter: np.ndarray,
        output: np.ndarray,
        config: ConvAttentionConfig,
    ) -> None:
        self.token_vocab = token_vocab
        self.label_vocab = label_vocab
        self.labels = [None] * len(label_vocab)
        for label, idx in label_vocab.items():
            self.labels[idx] = label
        self.embeddings = embeddings
        self.conv_filter = conv_filter
        self.output = output
        self.config = config

    # ------------------------------------------------------------------
    def _encode(self, tokens: Sequence[str]) -> np.ndarray:
        unk = self.token_vocab[_UNK_TOKEN]
        ids = [self.token_vocab.get(t, unk) for t in tokens]
        if not ids:
            ids = [self.token_vocab[_PAD]]
        return np.asarray(ids, dtype=np.int64)

    def _attention_summary(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(summary vector, attention weights) for one token sequence."""
        E = self.embeddings[ids]  # (T, d)
        w = self.conv_window_scores(E)  # (T,)
        alpha = _softmax(w)
        summary = alpha @ E
        return summary, alpha

    def conv_window_scores(self, E: np.ndarray) -> np.ndarray:
        """1-D convolution over embeddings producing attention logits."""
        k = self.config.conv_window
        T, d = E.shape
        pad = k // 2
        padded = np.vstack([np.zeros((pad, d)), E, np.zeros((pad, d))])
        scores = np.empty(T)
        for t in range(T):
            window = padded[t : t + k].reshape(-1)
            scores[t] = window @ self.conv_filter
        return scores

    def predict(self, tokens: Sequence[str]) -> Optional[str]:
        top = self.predict_topk(tokens, k=1)
        return top[0][0] if top else None

    def predict_topk(self, tokens: Sequence[str], k: int = 5) -> List[Tuple[str, float]]:
        ids = self._encode(tokens)
        summary, _ = self._attention_summary(ids)
        logits = self.output @ summary
        order = np.argsort(-logits)[:k]
        return [(self.labels[int(i)], float(logits[i])) for i in order]


@dataclass
class ConvAttentionStats:
    examples: int = 0
    epochs: int = 0
    train_seconds: float = 0.0


def train_conv_attention(
    examples: Sequence[Tuple[List[str], str]],
    config: Optional[ConvAttentionConfig] = None,
) -> Tuple[ConvAttentionModel, ConvAttentionStats]:
    """Train from (body tokens, method name) examples."""
    cfg = config or ConvAttentionConfig()
    rng = np.random.default_rng(cfg.seed)
    started = time.perf_counter()

    token_counts: Dict[str, int] = {}
    label_vocab: Dict[str, int] = {}
    for tokens, label in examples:
        for token in tokens:
            token_counts[token] = token_counts.get(token, 0) + 1
        if label not in label_vocab:
            label_vocab[label] = len(label_vocab)
    token_vocab: Dict[str, int] = {_PAD: 0, _UNK_TOKEN: 1}
    for token, count in sorted(token_counts.items()):
        if count >= cfg.min_token_count:
            token_vocab[token] = len(token_vocab)

    d = cfg.embed_dim
    embeddings = (rng.random((len(token_vocab), d)) - 0.5) / d
    conv_filter = (rng.random(cfg.conv_window * d) - 0.5) / d
    output = (rng.random((len(label_vocab), d)) - 0.5) / d

    model = ConvAttentionModel(token_vocab, label_vocab, embeddings, conv_filter, output, cfg)
    stats = ConvAttentionStats(examples=len(examples))
    if not examples or not label_vocab:
        stats.train_seconds = time.perf_counter() - started
        return model, stats

    index_order = np.arange(len(examples))
    for epoch in range(cfg.epochs):
        rng.shuffle(index_order)
        lr = cfg.learning_rate * (1.0 - epoch / max(1, cfg.epochs))
        for idx in index_order:
            tokens, label = examples[int(idx)]
            ids = model._encode(tokens)
            E = model.embeddings[ids]
            scores = model.conv_window_scores(E)
            alpha = _softmax(scores)
            summary = alpha @ E  # (d,)
            logits = model.output @ summary
            probs = _softmax(logits)
            gold = model.label_vocab[label]

            # Gradient of cross-entropy w.r.t. logits.
            grad_logits = probs.copy()
            grad_logits[gold] -= 1.0
            # Output projection.
            grad_output = np.outer(grad_logits, summary)
            grad_summary = model.output.T @ grad_logits  # (d,)
            # Through the attention-weighted sum (treating alpha as
            # locally constant for the embedding path -- a standard
            # straight-through simplification that keeps training stable
            # at this scale).
            grad_E = np.outer(alpha, grad_summary)
            model.output -= lr * grad_output
            np.add.at(model.embeddings, ids, -lr * grad_E)
            # Attention logits gradient (exact): d summary / d alpha = E.
            grad_alpha = E @ grad_summary
            grad_scores = alpha * (grad_alpha - float(alpha @ grad_alpha))
            k = model.config.conv_window
            pad = k // 2
            padded = np.vstack([np.zeros((pad, E.shape[1])), E, np.zeros((pad, E.shape[1]))])
            grad_filter = np.zeros_like(model.conv_filter)
            for t in range(len(ids)):
                grad_filter += grad_scores[t] * padded[t : t + k].reshape(-1)
            model.conv_filter -= lr * grad_filter
        stats.epochs += 1

    stats.train_seconds = time.perf_counter() - started
    return model, stats


def method_examples(ast: Ast, max_tokens: int = 60) -> List[Tuple[List[str], str]]:
    """(body tokens, gold method name) pairs from one file."""
    out = []
    for _key, info in method_elements(ast).items():
        tokens = _body_tokens(info, max_tokens)
        if tokens:
            out.append((tokens, str(info["gold"])))
    return out


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x)
    exp = np.exp(shifted)
    return exp / exp.sum()
