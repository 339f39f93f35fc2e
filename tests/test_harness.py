"""Integration tests for the experiment harness and reports."""

import os
import subprocess
import sys

import pytest

from repro.api import Pipeline, RunSpec
from repro.baselines import build_unuglify_graph
from repro.corpus.generator import CorpusConfig
from repro.eval.harness import (
    ExperimentResult,
    abstraction_sweep,
    build_views,
    downsampling_sweep,
    evaluate_prediction_map,
    evaluate_spec,
    evaluate_views,
    grid_search,
    prepare_language_data,
)
from repro.eval.reports import (
    format_grid,
    format_series,
    format_table,
    format_table2,
)
from repro.learning.crf import TrainingConfig


TINY = CorpusConfig(n_projects=4, files_per_project=(3, 5), seed=31)
FAST_TRAIN = TrainingConfig(epochs=2)


def paths_spec(max_length=5, max_width=2, **fields):
    """The JS variable-naming AST-paths cell at the given path limits."""
    fields.setdefault("training", {"epochs": 2})
    return RunSpec(
        language="javascript",
        extraction={"max_length": max_length, "max_width": max_width},
        **fields,
    )


W2V_SPEC = paths_spec(learner="word2vec", training={}, sgns={"dim": 16, "epochs": 3})

#: A word2vec cell large enough for its accuracy to move if any vocab
#: outlived its pipeline (SGNS orders contexts by interned id on ties).
HISTORY_CORPUS = CorpusConfig(n_projects=8, files_per_project=(4, 7), seed=31)
HISTORY_SPEC = paths_spec(learner="word2vec", training={}, sgns={"dim": 32, "epochs": 8})

#: Scores HISTORY_SPEC in a new interpreter; with argument "after", an
#: unrelated CRF cell runs first in that interpreter.
HISTORY_SCRIPT = f"""
import sys
from repro.api import RunSpec
from repro.corpus.generator import CorpusConfig
from repro.eval.harness import evaluate_spec, prepare_language_data

data = prepare_language_data("javascript", CorpusConfig(**{HISTORY_CORPUS.__dict__!r}))
if sys.argv[1:] == ["after"]:
    evaluate_spec(RunSpec(language="javascript", training={{"epochs": 2}}), data)
print(repr(evaluate_spec(RunSpec.from_dict({HISTORY_SPEC.to_dict()!r}), data).accuracy))
"""


@pytest.fixture(scope="module")
def js_data():
    return prepare_language_data("javascript", TINY)


class TestPrepare:
    def test_splits_and_asts(self, js_data):
        train, val, test = js_data.split.sizes()
        assert train > 0 and test > 0
        assert set(js_data.asts) == {
            f.path for f in js_data.split.train + js_data.split.validation + js_data.split.test
        }

    def test_language_override(self):
        data = prepare_language_data("python", CorpusConfig(language="javascript", n_projects=2, seed=1))
        assert data.language == "python"


class TestEvaluateCrf:
    def test_result_fields(self, js_data):
        result = evaluate_spec(paths_spec(), js_data, name="t")
        assert isinstance(result, ExperimentResult)
        assert result.n > 0
        assert 0.0 <= result.accuracy <= 100.0
        assert result.train_seconds > 0
        assert result.parameters > 0
        assert "t:" in result.summary()

    def test_eval_on_validation(self, js_data):
        result = evaluate_spec(
            paths_spec(), js_data, eval_files=js_data.split.validation
        )
        assert result.n == sum(
            len(view) for view in build_views(Pipeline(paths_spec()), js_data.validation)
        )

    def test_with_f1(self, js_data):
        result = evaluate_spec(paths_spec(), js_data, with_f1=True)
        assert 0.0 <= result.f1 <= 100.0


class TestEvaluateW2v:
    def test_result(self, js_data):
        result = evaluate_spec(W2V_SPEC, js_data, name="w2v")
        assert result.n > 0
        assert result.extra["pairs"] > 0

    def test_accuracy_independent_of_process_history(self):
        """A cell scores the same in a fresh interpreter, after an
        unrelated cell in the same interpreter, and in this long-lived
        test process: no vocab outlives its pipeline."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

        def run(*args):
            done = subprocess.run(
                [sys.executable, "-c", HISTORY_SCRIPT, *args],
                capture_output=True, text=True, env=env, timeout=300, check=True,
            )
            return float(done.stdout.strip())

        fresh = run()
        assert fresh > 10.0  # a cell that learns, so a vocab leak would show
        assert run("after") == fresh
        data = prepare_language_data("javascript", HISTORY_CORPUS)
        assert evaluate_spec(HISTORY_SPEC, data).accuracy == fresh


class TestEvaluateViews:
    def test_ad_hoc_views_in_the_pipeline_space(self, js_data):
        pipeline = Pipeline(paths_spec())

        def unuglify(pairs):
            return [build_unuglify_graph(a, f.path, space=pipeline.space) for f, a in pairs]

        result = evaluate_views(
            pipeline, unuglify(js_data.train), unuglify(js_data.test), name="unuglify"
        )
        assert result.n == sum(len(view) for view in unuglify(js_data.test))
        assert result.parameters > 0

    @pytest.mark.parametrize("foreign", ["train", "test"])
    def test_views_from_another_space_are_refused(self, js_data, foreign):
        pipeline, other = Pipeline(paths_spec()), Pipeline(paths_spec())
        train = build_views(other if foreign == "train" else pipeline, js_data.train)
        test = build_views(other if foreign == "test" else pipeline, js_data.test)
        with pytest.raises(ValueError, match="different FeatureSpace"):
            evaluate_views(pipeline, train, test, name="mixed")
        assert not pipeline.learner.trained


class TestSweeps:
    def test_grid_search_shape(self, js_data):
        results = grid_search(
            js_data, lengths=(3, 5), widths=(1, 2), training_config=FAST_TRAIN
        )
        assert len(results) == 4
        combos = {
            (r.extra["max_length"], r.extra["max_width"]) for r in results
        }
        assert combos == {(3.0, 1.0), (3.0, 2.0), (5.0, 1.0), (5.0, 2.0)}

    def test_downsampling_sweep(self, js_data):
        results = downsampling_sweep(
            js_data, keep_probabilities=(0.5, 1.0), training_config=FAST_TRAIN
        )
        assert [r.extra["keep_probability"] for r in results] == [0.5, 1.0]

    def test_abstraction_sweep(self, js_data):
        results = abstraction_sweep(
            js_data, abstractions=("no-path", "full"), training_config=FAST_TRAIN
        )
        assert [r.name for r in results] == ["no-path", "full"]


class TestPredictionMap:
    def test_constant_predictor(self, js_data):
        from repro.tasks.variable_naming import element_groups

        def gold_map(ast):
            return {b: occ[0].value or "" for b, occ in element_groups(ast).items()}

        def predictor(file, ast):
            return {key: "done" for key in gold_map(ast)}

        result = evaluate_prediction_map(js_data, predictor, gold_map, "const")
        assert 0.0 <= result.accuracy < 100.0


class TestReports:
    def test_format_table_alignment(self):
        text = format_table("T", [("a", "1"), ("bbbb", "22")], ("col", "n"))
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[2]

    def test_format_table2(self, js_data):
        result = evaluate_spec(paths_spec(4, 2), js_data)
        text = format_table2([("Variable names", [("AST paths", result)])])
        assert "Variable names" in text
        assert "%" in text

    def test_format_series_and_grid(self, js_data):
        results = grid_search(
            js_data, lengths=(3, 4), widths=(1,), training_config=FAST_TRAIN
        )
        series = format_series("S", results, "max_length", "len")
        assert "len" in series
        grid = format_grid("G", results)
        assert "max_width" in grid
