"""Tests for the interning layer and the id-keyed model persistence."""

import json

import pytest

from repro.core.extraction import ExtractionConfig, PathExtractor
from repro.core.interning import (
    DEFAULT_SPACE,
    ContextVocab,
    FeatureSpace,
    FrozenVocabError,
    OverlayVocab,
    PathVocab,
    Vocab,
)
from repro.learning.crf import CrfGraph, CrfModel, CrfTrainer, TrainingConfig, map_inference
from repro.tasks.variable_naming import build_crf_graph, element_contexts
from repro.lang.base import parse_source

from fixtures import crf_artifact_round_trip


class TestVocab:
    def test_dense_first_seen_ids(self):
        vocab = Vocab()
        assert vocab.intern("a") == 0
        assert vocab.intern("b") == 1
        assert vocab.intern("a") == 0
        assert len(vocab) == 2
        assert vocab.value(1) == "b"
        assert list(vocab) == ["a", "b"]

    def test_id_of_misses_return_none(self):
        vocab = Vocab(["x"])
        assert vocab.id_of("x") == 0
        assert vocab.id_of("y") is None
        assert "x" in vocab and "y" not in vocab

    def test_round_trip(self):
        vocab = PathVocab(["A↑B", "B↓C", "*"])
        restored = PathVocab.from_list(vocab.to_list())
        assert restored.to_list() == vocab.to_list()
        assert restored.id_of("B↓C") == vocab.id_of("B↓C")


class TestFeatureSpace:
    def test_encode_decode_context(self):
        space = FeatureSpace()
        triple = space.encode_context("x", "A↑B↓C", "y")
        assert space.decode_context(triple) == ("x", "A↑B↓C", "y")

    def test_round_trip(self):
        space = FeatureSpace()
        space.encode_context("x", "A↑B", "y")
        space.encode_context("z", "B↓C", "x")
        restored = FeatureSpace.from_dict(space.to_dict())
        assert restored.to_dict() == space.to_dict()
        assert restored.paths.id_of("B↓C") == space.paths.id_of("B↓C")
        assert restored.values.id_of("z") == space.values.id_of("z")

    def test_paths_and_values_are_separate_vocabs(self):
        space = FeatureSpace()
        pid = space.paths.intern("token")
        vid = space.values.intern("token")
        assert space.paths.value(pid) == space.values.value(vid) == "token"


class TestExtractionInterning:
    def test_ids_decode_to_context_strings(self, fig1_ast):
        space = FeatureSpace()
        extractor = PathExtractor(ExtractionConfig(), space=space)
        for extracted in extractor.extract(fig1_ast):
            assert space.paths.value(extracted.rel_id) == extracted.context.path
            assert space.values.value(extracted.start_value_id) == extracted.context.start_value
            assert space.values.value(extracted.end_value_id) == extracted.context.end_value

    def test_independent_extractors_share_default_space(self, fig1_ast):
        a = PathExtractor(ExtractionConfig())
        b = PathExtractor(ExtractionConfig())
        assert a.space is DEFAULT_SPACE and b.space is DEFAULT_SPACE
        rel_a = {e.rel_id: e.context.path for e in a.extract(fig1_ast)}
        rel_b = {e.rel_id: e.context.path for e in b.extract(fig1_ast)}
        assert rel_a == rel_b

    def test_graph_interns_strings_and_ids_equivalently(self):
        space = FeatureSpace()
        graph = CrfGraph("g", space=space)
        index = graph.add_unknown("e", gold="x")
        graph.add_known_factor(index, "rel", "label")
        graph.add_known_factor(index, space.paths.intern("rel"), space.values.intern("label"))
        assert graph.unknowns[0].known[0] == graph.unknowns[0].known[1]


class TestIdKeyedModelPersistence:
    def _trained_model(self):
        sources = [
            "function f(a, b) { return a + b; }",
            "function g(x) { var y = x + 1; return y; }",
            "var d = false;\nwhile (!d) { if (someCondition()) { d = true; } }",
        ]
        space = FeatureSpace()
        extractor = PathExtractor(ExtractionConfig(), space=space)
        graphs = [
            build_crf_graph(parse_source("javascript", source), extractor)
            for source in sources
        ]
        model, _stats = CrfTrainer(TrainingConfig(epochs=3)).train(graphs)
        return model, graphs

    def test_keys_are_int_tuples(self):
        model, _graphs = self._trained_model()
        assert model.pair_weights or model.unary_weights
        for key in model.pair_weights:
            assert len(key) == 3 and all(isinstance(part, int) for part in key)
        for key in model.unary_weights:
            assert len(key) == 2 and all(isinstance(part, int) for part in key)
        for key in model.candidate_index:
            assert all(isinstance(part, int) for part in key)
        assert all(isinstance(label, int) for label in model.label_counts)

    def test_state_is_json_serializable(self, tmp_path):
        model, _graphs = self._trained_model()
        json.dumps(model.to_dict())  # plain data the codec and pruning read
        restored = crf_artifact_round_trip(model, tmp_path / "model.bin")
        assert dict(restored.pair_weights.items()) == model.pair_weights
        assert dict(restored.unary_weights.items()) == model.unary_weights

    def test_save_load_predicts_identically(self, tmp_path):
        model, graphs = self._trained_model()
        loaded = crf_artifact_round_trip(model, tmp_path / "model.bin")
        compiled, reloaded = model.compile(), loaded.compile()
        for graph in graphs:
            assert map_inference(reloaded, graph) == map_inference(compiled, graph)

    def test_model_uses_graph_space(self):
        model, graphs = self._trained_model()
        assert model.space is graphs[0].space

    def test_mixed_spaces_rejected(self):
        graph_a = CrfGraph("a", space=FeatureSpace())
        graph_b = CrfGraph("b", space=FeatureSpace())
        with pytest.raises(ValueError, match="FeatureSpace"):
            CrfTrainer(TrainingConfig(epochs=1)).train([graph_a, graph_b])


class TestW2vIdPairs:
    def test_tokens_are_id_pairs(self, fig1_ast):
        space = FeatureSpace()
        extractor = PathExtractor(ExtractionConfig(), space=space)
        contexts = element_contexts(fig1_ast, extractor)
        _gold, tokens = next(iter(contexts.values()))
        assert tokens
        for rel_id, value_id in tokens:
            assert isinstance(rel_id, int) and isinstance(value_id, int)
            assert space.paths.value(rel_id)  # decodes
            assert space.values.value(value_id)


class TestFreeze:
    def test_frozen_vocab_rejects_new_strings(self):
        vocab = Vocab(["a", "b"])
        vocab.freeze()
        assert vocab.frozen
        assert vocab.intern("a") == 0  # known strings still resolve
        with pytest.raises(FrozenVocabError):
            vocab.intern("c")

    def test_freeze_space_freezes_both_vocabs(self):
        space = FeatureSpace()
        space.encode_context("x", "A↑B", "y")
        assert not space.frozen
        space.freeze()
        assert space.frozen and space.paths.frozen and space.values.frozen
        with pytest.raises(FrozenVocabError):
            space.encode_context("x", "NEW", "y")

    def test_frozen_space_round_trips(self):
        space = FeatureSpace()
        space.encode_context("x", "A↑B", "y")
        space.freeze()
        restored = FeatureSpace.from_dict(space.to_dict())
        assert restored.to_dict() == space.to_dict()
        assert not restored.frozen  # freezing is runtime state, not data


class TestOverlay:
    def test_base_ids_preserved(self):
        base = Vocab(["a", "b"])
        overlay = OverlayVocab(base)
        assert overlay.intern("a") == 0
        assert overlay.intern("b") == 1
        assert overlay.id_of("b") == 1

    def test_unseen_strings_get_local_ids_without_touching_base(self):
        base = Vocab(["a", "b"])
        base.freeze()
        overlay = OverlayVocab(base)
        assert overlay.intern("c") == 2
        assert overlay.intern("d") == 3
        assert overlay.intern("c") == 2
        assert len(base) == 2 and "c" not in base
        assert overlay.value(2) == "c" and overlay.value(0) == "a"
        assert len(overlay) == 4
        assert list(overlay) == ["a", "b", "c", "d"]
        assert "c" in overlay and "e" not in overlay
        assert overlay.id_of("e") is None

    def test_two_overlays_are_independent(self):
        base = Vocab(["a"])
        base.freeze()
        first, second = OverlayVocab(base), OverlayVocab(base)
        assert first.intern("x") == 1
        assert second.intern("y") == 1  # local ids may collide across overlays
        assert first.id_of("y") is None and second.id_of("x") is None

    def test_space_overlay(self):
        space = FeatureSpace()
        triple = space.encode_context("x", "A↑B", "y")
        space.freeze()
        overlay = space.overlay()
        # known strings keep their base ids, new ones stay local
        assert overlay.encode_context("x", "A↑B", "y") == triple
        new_triple = overlay.encode_context("x", "NEW", "z")
        assert overlay.decode_context(new_triple) == ("x", "NEW", "z")
        assert "NEW" not in space.paths and "z" not in space.values
        assert space.frozen  # base untouched and still frozen
