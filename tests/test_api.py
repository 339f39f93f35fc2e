"""Tests for the registry-driven Pipeline API (repro.api)."""

import json

import pytest

from repro.api import (
    Pipeline,
    RunSpec,
    UnknownPluginError,
    UnsupportedSpecError,
    learners,
    representations,
    tasks,
)
from repro.eval.harness import compatible_specs

TRAIN_JS = [
    """
function wait() {
  var done = false;
  while (!done) {
    if (someCondition()) {
      done = true;
    }
  }
}
""",
    """
function poll() {
  var done = false;
  while (!done) {
    if (checkState()) {
      done = true;
    }
  }
}
""",
    """
function count(values, value) {
  var count = 0;
  for (var v of values) {
    if (v == value) { count++; }
  }
  return count;
}
""",
] * 4

TEST_JS = """
function run() {
  var d = false;
  while (!d) {
    if (someCondition()) {
      d = true;
    }
  }
}
"""

SGNS = {"dim": 16, "epochs": 12, "negatives": 1}


class TestRunSpec:
    def test_roundtrip(self):
        spec = RunSpec(
            language="javascript",
            task="variable_naming",
            representation="token-context",
            learner="word2vec",
            extraction={"window": 3},
            sgns={"dim": 8},
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_fills_defaults(self):
        spec = RunSpec.from_dict({"language": "java"})
        assert spec.task == "variable_naming"
        assert spec.representation == "ast-paths"
        assert spec.learner == "crf"
        assert spec.extraction == {} and spec.training == {} and spec.sgns == {}

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown RunSpec fields"):
            RunSpec.from_dict({"language": "java", "flavour": "mint"})

    def test_to_dict_is_json_ready(self):
        spec = RunSpec(language="python", training={"epochs": 2})
        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()

    def test_cell_name(self):
        assert RunSpec(language="java").cell() == "java/variable_naming/ast-paths/crf"


class TestValidation:
    def test_unknown_names_list_known(self):
        with pytest.raises(UnknownPluginError, match="known language"):
            Pipeline(language="cobol")
        with pytest.raises(UnknownPluginError, match="variable_naming"):
            Pipeline(language="javascript", task="poetry")
        with pytest.raises(UnknownPluginError, match="ast-paths"):
            Pipeline(language="javascript", representation="bytecode")
        with pytest.raises(UnknownPluginError, match="word2vec"):
            Pipeline(language="javascript", learner="gbdt")

    def test_view_mismatch_representation(self):
        # token-context provides only contexts; the CRF consumes graphs.
        with pytest.raises(UnsupportedSpecError, match="graph"):
            Pipeline(language="javascript", representation="token-context", learner="crf")

    def test_view_mismatch_task(self):
        # method naming has no contexts view for word2vec.
        with pytest.raises(UnsupportedSpecError, match="contexts"):
            Pipeline(language="javascript", task="method_naming", learner="word2vec")

    def test_language_restricted_task(self):
        with pytest.raises(UnsupportedSpecError, match="java"):
            Pipeline(language="python", task="type_prediction")
        Pipeline(language="java", task="type_prediction")  # ok

    def test_task_restricted_representation(self):
        from repro.api import AstPathsRepresentation

        class MethodsOnlyRepresentation(AstPathsRepresentation):
            name = "methods-only"
            tasks = ("method_naming",)

        representations.register("methods-only", MethodsOnlyRepresentation)
        try:
            with pytest.raises(UnsupportedSpecError, match="method_naming"):
                Pipeline(language="javascript", representation="methods-only")
            # ...while the supported task builds fine.
            Pipeline(language="javascript", task="method_naming", representation="methods-only")
        finally:
            del representations._entries["methods-only"]

    def test_spec_and_kwargs_are_exclusive(self):
        with pytest.raises(TypeError):
            Pipeline(RunSpec(language="javascript"), task="method_naming")

    def test_default_params_resolved_per_cell(self):
        js_config = Pipeline(language="javascript").representation.extractor.config
        assert js_config.max_length == 7
        assert js_config.max_width == 3
        java_types = Pipeline(language="java", task="type_prediction")
        assert java_types.representation.extractor.config.max_length == 4
        assert java_types.representation.extractor.config.max_width == 1

    def test_explicit_extraction_overrides_defaults(self):
        pipeline = Pipeline(
            language="javascript", extraction={"max_length": 9, "max_width": 5}
        )
        config = pipeline.representation.extractor.config
        assert config.max_length == 9
        assert config.max_width == 5


class TestBaselinesThroughApi:
    """Baseline representations run through the exact same facade."""

    def test_no_paths_crf(self):
        pipeline = Pipeline(
            language="javascript", representation="no-paths", training={"epochs": 3}
        )
        assert pipeline.representation.extractor.config.abstraction == "no-path"
        pipeline.train(TRAIN_JS)
        assert len(pipeline.predict(TEST_JS)) == 1

    def test_token_context_word2vec(self):
        pipeline = Pipeline(
            language="javascript",
            representation="token-context",
            learner="word2vec",
            extraction={"window": 4},
            sgns=SGNS,
        )
        pipeline.train(TRAIN_JS)
        predictions = pipeline.predict(TEST_JS)
        assert set(predictions) != set()

    def test_no_paths_word2vec_is_path_neighbors(self):
        # no-paths + word2vec reproduces the "path-neighbours" baseline
        # context extraction of repro.baselines.path_neighbors.  The two
        # run in different feature spaces (pipeline-private vs default),
        # so token id pairs are compared decoded.
        from repro.baselines import path_neighbor_contexts
        from repro.core.interning import DEFAULT_SPACE
        from repro.lang.base import parse_source
        from repro.tasks.variable_naming import decode_w2v_token

        pipeline = Pipeline(
            language="javascript", representation="no-paths", learner="word2vec", sgns=SGNS
        )

        def decoded(view, space):
            return {
                key: (gold, [decode_w2v_token(t, space) for t in tokens])
                for key, (gold, tokens) in view.items()
            }

        view = pipeline.view(pipeline.parse(TEST_JS))
        baseline = path_neighbor_contexts(parse_source("javascript", TEST_JS))
        assert decoded(view, pipeline.space) == decoded(baseline, DEFAULT_SPACE)


class TestPersistence:
    def test_crf_save_load_identical_predictions(self, tmp_path):
        pipeline = Pipeline(language="javascript", training={"epochs": 3})
        pipeline.train(TRAIN_JS)
        path = str(tmp_path / "model.bin")
        pipeline.save(path)
        reloaded = Pipeline.load(path)
        assert reloaded.artifact is not None
        assert reloaded.spec == pipeline.spec
        assert reloaded.predict(TEST_JS) == pipeline.predict(TEST_JS)
        # suggestion scores must round-trip bit-for-bit too
        assert reloaded.suggest(TEST_JS, k=5) == pipeline.suggest(TEST_JS, k=5)
        # the restored learner's feature space is adopted by the reloaded
        # representation, so predict-time interning matches the weights
        assert reloaded.representation.space is reloaded.learner.space
        assert reloaded.space.to_dict() == pipeline.space.to_dict()

    def test_crf_save_load_round_trips_vocab(self, tmp_path):
        pipeline = Pipeline(language="javascript", training={"epochs": 2})
        pipeline.train(TRAIN_JS)
        path = str(tmp_path / "model.bin")
        pipeline.save(path)
        reloaded = Pipeline.load(path)
        model = reloaded.learner.model
        assert dict(model.pair_weights.items()) == pipeline.learner.model.pair_weights
        for key in model.pair_weights:
            assert all(isinstance(part, int) for part in key)

    def test_word2vec_save_load_identical_predictions(self, tmp_path):
        pipeline = Pipeline(language="javascript", learner="word2vec", sgns=SGNS)
        pipeline.train(TRAIN_JS)
        path = str(tmp_path / "model.bin")
        pipeline.save(path)
        reloaded = Pipeline.load(path)
        assert reloaded.predict(TEST_JS) == pipeline.predict(TEST_JS)
        assert reloaded.suggest(TEST_JS, k=3) == pipeline.suggest(TEST_JS, k=3)

    def test_save_requires_training(self, tmp_path):
        with pytest.raises(RuntimeError):
            Pipeline(language="javascript").save(str(tmp_path / "m.bin"))

    def test_save_accepts_only_the_binary_format(self, tmp_path):
        pipeline = Pipeline(language="javascript", training={"epochs": 1})
        pipeline.train(TRAIN_JS)
        with pytest.raises(ValueError, match="unknown save format"):
            pipeline.save(str(tmp_path / "m.json"), format="json")
        assert not (tmp_path / "m.json").exists()
        pipeline.save(str(tmp_path / "m.bin"), format="binary")
        assert Pipeline.load(str(tmp_path / "m.bin")).predict(TEST_JS)

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ValueError, match="not a pigeon-model/1 artifact"):
            Pipeline.load(str(path))


class TestCellEnumeration:
    def test_known_cells_present(self):
        cells = {spec.cell() for spec in compatible_specs()}
        assert "javascript/variable_naming/ast-paths/crf" in cells
        assert "javascript/variable_naming/token-context/word2vec" in cells
        assert "java/type_prediction/ast-paths/crf" in cells

    def test_invalid_cells_absent(self):
        cells = {spec.cell() for spec in compatible_specs()}
        assert "python/type_prediction/ast-paths/crf" not in cells
        assert not any("token-context/crf" in cell for cell in cells)

    def test_axis_filters(self):
        specs = compatible_specs(languages=["python"], learners=["word2vec"])
        assert specs
        assert all(s.language == "python" and s.learner == "word2vec" for s in specs)

    def test_registries_expose_builtins(self):
        assert set(tasks.names()) == {
            "variable_naming",
            "method_naming",
            "type_prediction",
            "translate",
        }
        assert {"ast-paths", "no-paths", "token-context"} <= set(representations.names())
        assert {"crf", "word2vec"} <= set(learners.names())


class TestPipelineFlow:
    def test_train_predict_matches_pigeon_contract(self):
        pipeline = Pipeline(language="javascript", training={"epochs": 3})
        stats = pipeline.train(TRAIN_JS)
        assert stats.files_trained == len(TRAIN_JS)
        assert stats.elements_trained > 0
        predictions = pipeline.predict(TEST_JS)
        assert list(predictions.values()) == ["done"]

    def test_predict_before_train_raises(self):
        with pytest.raises(RuntimeError):
            Pipeline(language="javascript").predict(TEST_JS)

    def test_rename_rejects_nonrenameable_task(self):
        pipeline = Pipeline(language="java", task="method_naming")
        with pytest.raises(ValueError):
            pipeline.rename("class T {}")

    def test_suggest_topk(self):
        pipeline = Pipeline(language="javascript", training={"epochs": 3})
        pipeline.train(TRAIN_JS)
        ranked = list(pipeline.suggest(TEST_JS, k=3).values())[0]
        assert len(ranked) <= 3
        assert ranked[0][0] == "done"
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("k", [0, -1])
    def test_suggest_rejects_k_below_one(self, k):
        pipeline = Pipeline(language="javascript", training={"epochs": 1})
        pipeline.train(TRAIN_JS)
        with pytest.raises(ValueError, match="k must be >= 1"):
            pipeline.suggest(TEST_JS, k=k)

    def test_java_method_naming_flow(self):
        train = [
            (
                "public class T%d { public int count(java.util.List<Integer> xs, int t) {"
                " int c = 0; for (int r : xs) { if (r == t) { c++; } } return c; } }"
            )
            % i
            for i in range(6)
        ]
        pipeline = Pipeline(language="java", task="method_naming", training={"epochs": 3})
        pipeline.train(train)
        assert list(pipeline.predict(train[0]).values()) == ["count"]


class TestWord2vecFlow:
    def test_train_predict(self):
        pipeline = Pipeline(language="javascript", learner="word2vec", sgns=SGNS)
        pipeline.train(TRAIN_JS)
        predictions = pipeline.predict(TEST_JS)
        assert list(predictions.values()) == ["done"]

    def test_suggest(self):
        pipeline = Pipeline(language="javascript", learner="word2vec", sgns=SGNS)
        pipeline.train(TRAIN_JS)
        suggestions = pipeline.suggest(TEST_JS, k=2)
        assert suggestions
        assert all(len(ranked) <= 2 for ranked in suggestions.values())
