"""Unit tests for the word2vec/SGNS engine and the Eq. (4) predictor."""

import numpy as np
import pytest

from repro.learning.word2vec import (
    ContextPredictor,
    SgnsConfig,
    SgnsModel,
    Vocabulary,
    build_vocabularies,
    train_sgns,
)
from repro.learning.word2vec.sgns import _sigmoid


class TestVocabulary:
    def test_from_counter_orders_by_frequency(self):
        from collections import Counter

        vocab = Vocabulary.from_counter(Counter({"a": 5, "b": 2, "c": 9}))
        assert vocab.id_to_token[0] == "c"
        assert vocab.id_to_token[1] == "a"

    def test_min_count_filters(self):
        from collections import Counter

        vocab = Vocabulary.from_counter(Counter({"a": 5, "b": 1}), min_count=2)
        assert "a" in vocab and "b" not in vocab

    def test_lookup(self):
        from collections import Counter

        vocab = Vocabulary.from_counter(Counter({"a": 1}))
        assert vocab.get("a") == 0
        assert vocab.get("zz") is None
        assert vocab.token(0) == "a"
        assert len(vocab) == 1

    def test_negative_table_is_distribution(self):
        from collections import Counter

        vocab = Vocabulary.from_counter(Counter({"a": 10, "b": 1}))
        probs = vocab.negative_sampling_table()
        assert probs.sum() == pytest.approx(1.0)
        assert probs[0] > probs[1]  # frequent token more likely
        # ^0.75 smooths: ratio less extreme than raw counts
        assert probs[0] / probs[1] < 10

    def test_build_vocabularies_encodes_pairs(self):
        words, contexts, encoded = build_vocabularies(
            [("w1", "c1"), ("w1", "c2"), ("w2", "c1")]
        )
        assert len(words) == 2 and len(contexts) == 2
        assert len(encoded) == 3


class TestSgnsTraining:
    def test_recovers_perfect_signal(self):
        rng = np.random.default_rng(3)
        pairs = []
        for _ in range(1500):
            w = int(rng.integers(0, 4))
            pairs.append((f"w{w}", f"c{w}"))
            pairs.append((f"w{w}", f"shared{int(rng.integers(0, 2))}"))
        model, stats = train_sgns(pairs, SgnsConfig(dim=16, seed=1))
        predictor = ContextPredictor(model)
        for w in range(4):
            assert predictor.predict([f"c{w}"]) == f"w{w}"
        assert stats.pairs == len(pairs)

    def test_empty_input(self):
        model, stats = train_sgns([])
        assert stats.pairs == 0
        assert ContextPredictor(model).predict(["anything"]) is None

    def test_deterministic_under_seed(self):
        pairs = [("w", "c")] * 50 + [("v", "d")] * 50
        m1, _ = train_sgns(pairs, SgnsConfig(dim=8, seed=2, epochs=3))
        m2, _ = train_sgns(pairs, SgnsConfig(dim=8, seed=2, epochs=3))
        assert np.allclose(m1.word_vectors, m2.word_vectors)

    def test_vectors_bounded(self):
        """The mean-aggregated updates must not diverge on hot contexts."""
        pairs = [("w", "hot")] * 5000 + [("v", "hot")] * 5000
        model, _ = train_sgns(pairs, SgnsConfig(dim=8, epochs=5))
        assert np.linalg.norm(model.word_vectors, axis=1).max() < 100

    def test_positive_pairs_score_above_negatives(self):
        pairs = [("flag", "ctx_flag")] * 300 + [("count", "ctx_count")] * 300
        model, _ = train_sgns(pairs, SgnsConfig(dim=8))
        w_flag = model.word_vector("flag")
        c_flag = model.context_vector("ctx_flag")
        c_count = model.context_vector("ctx_count")
        assert float(w_flag @ c_flag) > float(w_flag @ c_count)


class TestSimilarity:
    def test_words_with_shared_contexts_are_similar(self):
        """Table 4b mechanism: synonyms share contexts, hence vectors."""
        rng = np.random.default_rng(0)
        pairs = []
        for _ in range(2000):
            # 'req' and 'request' used interchangeably with ctxA.
            word = "req" if rng.random() < 0.5 else "request"
            pairs.append((word, f"ctxA{int(rng.integers(0, 3))}"))
            pairs.append(("index", f"ctxB{int(rng.integers(0, 3))}"))
        model, _ = train_sgns(pairs, SgnsConfig(dim=16))
        assert model.similarity("req", "request") > model.similarity("req", "index")

    def test_most_similar_excludes_self(self):
        pairs = [("a", "c1"), ("b", "c1"), ("d", "c2")] * 100
        model, _ = train_sgns(pairs, SgnsConfig(dim=8))
        neighbors = model.most_similar("a", k=2)
        assert all(token != "a" for token, _ in neighbors)

    def test_similarity_oov_is_zero(self):
        model, _ = train_sgns([("a", "c")] * 10, SgnsConfig(dim=4))
        assert model.similarity("a", "zzz") == 0.0


class TestPredictor:
    def test_eq4_sums_context_scores(self):
        """Eq. (4): argmax_w sum_c (w . c) == argmax_w w . sum(c)."""
        words = Vocabulary()
        contexts = Vocabulary()
        words._add("w0", 1)
        words._add("w1", 1)
        contexts._add("c0", 1)
        contexts._add("c1", 1)
        W = np.array([[1.0, 0.0], [0.0, 1.0]])
        C = np.array([[1.0, 0.2], [0.8, 0.1]])
        model = SgnsModel(words, contexts, W, C)
        predictor = ContextPredictor(model)
        top = predictor.predict_topk(["c0", "c1"], k=2)
        assert top[0][0] == "w0"
        assert top[0][1] == pytest.approx(1.8)

    def test_unknown_contexts_ignored(self):
        pairs = [("a", "c")] * 20
        model, _ = train_sgns(pairs, SgnsConfig(dim=4))
        predictor = ContextPredictor(model)
        assert predictor.predict(["nope"]) is None
        assert predictor.predict(["nope", "c"]) == "a"

    def test_topk_size(self):
        pairs = [("a", "c"), ("b", "c"), ("d", "c")] * 10
        model, _ = train_sgns(pairs, SgnsConfig(dim=4))
        predictor = ContextPredictor(model)
        assert len(predictor.predict_topk(["c"], k=2)) == 2


class TestSigmoid:
    def test_range_and_stability(self):
        x = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
        y = _sigmoid(x)
        assert np.all((y >= 0) & (y <= 1))
        assert y[2] == pytest.approx(0.5)
        assert y[0] == pytest.approx(0.0)
        assert y[4] == pytest.approx(1.0)
