"""End-to-end integration tests: mini experiments across languages.

These run the full pipeline (generate -> dedup -> split -> parse ->
extract -> train -> predict -> score) at small scale and assert the
*shape* of the paper's results: learned path models beat the structure-
blind baselines.  Absolute numbers at this scale are noisy, so the
assertions use generous margins.
"""

import pytest

from repro.api import RunSpec
from repro.corpus.generator import CorpusConfig
from repro.eval.harness import evaluate_spec, prepare_language_data

SMALL = dict(files_per_project=(4, 7))
TRAIN = {"epochs": 4}


def cell(data, max_length, max_width, training=TRAIN, **fields):
    """Train and score one cell on ``data`` at the given path limits."""
    extraction = {"max_length": max_length, "max_width": max_width}
    extraction.update(fields.pop("extraction", {}))
    spec = RunSpec(
        language=data.language, extraction=extraction, training=training, **fields
    )
    return evaluate_spec(spec, data, with_f1=True)


@pytest.fixture(scope="module")
def js_data():
    return prepare_language_data(
        "javascript", CorpusConfig(language="javascript", n_projects=10, seed=42, **SMALL)
    )


@pytest.fixture(scope="module")
def java_data():
    return prepare_language_data(
        "java", CorpusConfig(language="java", n_projects=10, seed=43, **SMALL)
    )


class TestVariableNamingShape:
    def test_js_paths_beat_no_paths(self, js_data):
        paths = cell(js_data, 7, 3)
        no_paths = cell(js_data, 7, 3, extraction={"abstraction": "no-path"})
        assert paths.accuracy > no_paths.accuracy + 10

    def test_java_paths_beat_no_paths(self, java_data):
        paths = cell(java_data, 6, 3)
        no_paths = cell(java_data, 6, 3, extraction={"abstraction": "no-path"})
        assert paths.accuracy > no_paths.accuracy

    @pytest.mark.parametrize("language,seed", [("python", 44), ("csharp", 45)])
    def test_other_languages_learn(self, language, seed):
        data = prepare_language_data(
            language, CorpusConfig(language=language, n_projects=8, seed=seed, **SMALL)
        )
        result = cell(data, 7, 4)
        assert result.n > 10
        assert result.accuracy > 20.0


class TestWord2vecShape:
    def test_paths_beat_neighbors(self, js_data):
        sgns = {"dim": 32, "epochs": 8}
        paths = cell(js_data, 7, 3, training={}, learner="word2vec", sgns=sgns)
        neighbors = cell(
            js_data, 7, 3, training={}, learner="word2vec", sgns=sgns,
            representation="no-paths",
        )
        assert paths.accuracy > neighbors.accuracy


class TestMethodAndTypeTasks:
    def test_java_method_naming_learns(self, java_data):
        result = cell(java_data, 6, 2, task="method_naming")
        assert result.accuracy > 20.0
        assert result.f1 >= result.accuracy - 10  # subtokens give partial credit

    def test_java_types_beat_naive(self, java_data):
        from repro.baselines.naive_type import NAIVE_TYPE
        from repro.core.extraction import ExtractionConfig, PathExtractor
        from repro.eval.harness import evaluate_prediction_map
        from repro.tasks.type_prediction import build_type_graph

        gold_extractor = PathExtractor(
            ExtractionConfig(max_length=1, max_width=0, include_semi_paths=False)
        )

        def gold_types(ast):
            graph = build_type_graph(ast, gold_extractor)
            return {node.key: node.gold for node in graph.unknowns}

        paths = cell(java_data, 4, 1, task="type_prediction")
        naive = evaluate_prediction_map(
            java_data,
            lambda f, a: {key: NAIVE_TYPE for key in gold_types(a)},
            gold_types,
            name="naive",
        )
        assert paths.accuracy > naive.accuracy + 15


class TestCrossLanguageConsistency:
    def test_same_machinery_every_language(self):
        """The paper's generality claim: identical extraction/learning
        code runs on all four frontends."""
        for language, seed in (
            ("javascript", 50),
            ("java", 51),
            ("python", 52),
            ("csharp", 53),
        ):
            data = prepare_language_data(
                language,
                CorpusConfig(language=language, n_projects=4, seed=seed, **SMALL),
            )
            result = cell(data, 6, 3, training={"epochs": 2})
            assert result.n > 0
