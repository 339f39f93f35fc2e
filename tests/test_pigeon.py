"""Unit tests for PIGEON's end-to-end construction and CRF flow.

PIGEON is the paper's name for the whole train/predict system; in this
repository that system is :class:`repro.api.Pipeline`.
"""

import pytest

from repro.api import Pipeline


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
] * 4 + [
    """
function spin() {
  var done = false;
  while (!done) {
    if (isReady()) {
      done = true;
    }
  }
}
"""
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


class TestConstruction:
    def test_rejects_unknown_language(self):
        with pytest.raises(ValueError):
            Pipeline(language="cobol")

    def test_rejects_unknown_task(self):
        with pytest.raises(ValueError):
            Pipeline(language="javascript", task="poetry")

    def test_rejects_unknown_learner(self):
        with pytest.raises(ValueError):
            Pipeline(language="javascript", learner="gbdt")

    def test_w2v_only_for_variable_naming(self):
        with pytest.raises(ValueError):
            Pipeline(language="javascript", task="method_naming", learner="word2vec")

    def test_types_only_for_java(self):
        with pytest.raises(ValueError):
            Pipeline(language="python", task="type_prediction")
        Pipeline(language="java", task="type_prediction")  # ok

    def test_default_parameters_follow_table2(self):
        pipeline = Pipeline(language="javascript", task="variable_naming")
        assert pipeline.representation.extractor.config.max_length == 7
        assert pipeline.representation.extractor.config.max_width == 3
        java = Pipeline(language="java", task="type_prediction")
        assert java.representation.extractor.config.max_length == 4
        assert java.representation.extractor.config.max_width == 1


class TestCrfFlow:
    def test_predict_before_train_raises(self):
        with pytest.raises(RuntimeError):
            Pipeline(language="javascript").predict(TEST_JS)

    def test_train_predict_roundtrip(self):
        pipeline = Pipeline(language="javascript", training={"epochs": 3})
        stats = pipeline.train(TRAIN_JS)
        assert stats.files_trained == len(TRAIN_JS)
        assert stats.elements_trained > 0
        predictions = pipeline.predict(TEST_JS)
        assert len(predictions) == 1
        assert list(predictions.values())[0] == "done"
