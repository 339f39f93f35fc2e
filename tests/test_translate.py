"""The cross-language translation subsystem end to end.

Covers the four lifters (renderer round-trip properties), structured
rejection of unliftable constructs, prediction application (collision
safety), the ``translate`` task through training and serving (including
the cache-key separation by source/target language), and the CLI.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.api import Pipeline, RunSpec
from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.lang.base import parse_source
from repro.serving import ModelHost, PredictionServer, ServerThread, ServingClient, ServingError
from repro.translate import (
    RENDERERS,
    Translator,
    UnsupportedConstructError,
    lift,
    structural_signature,
    structurally_equivalent,
)

LANGUAGES = ("java", "python", "javascript", "csharp")


def _corpus(language, seed=7, n_projects=3):
    return [
        f
        for f in generate_corpus(
            CorpusConfig(language=language, n_projects=n_projects, seed=seed)
        )
        if f.spec is not None
    ]


# ----------------------------------------------------------------------
# Renderer round-trip properties: render -> parse -> lift == identity
# ----------------------------------------------------------------------


class TestRendererRoundTrip:
    @pytest.mark.parametrize("language", LANGUAGES)
    def test_lift_inverts_renderer_on_generated_corpus(self, language):
        files = _corpus(language)
        assert files
        for file in files:
            lifted = lift(parse_source(language, file.source))
            assert structurally_equivalent(lifted.spec, file.spec), (
                f"{language} round-trip broke on {file.spec.project}/"
                f"{file.spec.module}"
            )

    @pytest.mark.parametrize("language", LANGUAGES)
    def test_round_trip_is_stable_under_rerendering(self, language):
        """Lift -> render -> lift is a fixpoint (no drift on iteration)."""
        file = _corpus(language)[0]
        lifted = lift(parse_source(language, file.source))
        rerendered = RENDERERS[language](lifted.spec)
        again = lift(parse_source(language, rerendered))
        assert structural_signature(again.spec) == structural_signature(lifted.spec)

    @pytest.mark.parametrize("source_language", ("java", "python"))
    @pytest.mark.parametrize("target_language", LANGUAGES)
    def test_cross_language_round_trip(self, source_language, target_language):
        translator = Translator()
        for file in _corpus(source_language, seed=13, n_projects=2):
            result = translator.translate(
                file.source, target_language, language=source_language
            )
            back = lift(parse_source(target_language, result["translated_source"]))
            original = lift(parse_source(source_language, file.source))
            assert structurally_equivalent(back.spec, original.spec)

    def test_lift_exposes_symbol_table_keyed_like_the_crf(self):
        source = _corpus("java")[0].source
        lifted = lift(parse_source("java", source))
        assert lifted.slots, "no variable bindings lifted"
        assert all(":" in binding for binding in lifted.slots)
        assert lifted.methods
        assert all(key.startswith("method:") for key in lifted.methods)


# ----------------------------------------------------------------------
# Structured rejection of out-of-vocabulary constructs
# ----------------------------------------------------------------------


UNLIFTABLE = {
    "java": "class X { int f(int a) { a.frobnicate(); return a; } }",
    "python": "def f(a):\n    yield a\n",
    "javascript": "function f(a) { return a ? 1 : 2; }",
    "csharp": (
        "namespace Demo.App { class X { "
        "static int F(int a) { return a is int ? 1 : 2; } } }"
    ),
}


class TestUnsupportedConstructs:
    @pytest.mark.parametrize("language", sorted(UNLIFTABLE))
    def test_unliftable_source_raises_structured_error(self, language):
        with pytest.raises(UnsupportedConstructError) as caught:
            lift(parse_source(language, UNLIFTABLE[language]))
        error = caught.value
        assert error.language == language
        assert error.node_kind
        # The position is a root-relative node path the client can act on.
        assert "/" in error.position
        assert error.node_kind in str(error)
        assert error.position in str(error)

    def test_translator_propagates_lift_errors(self):
        with pytest.raises(UnsupportedConstructError):
            Translator().translate(UNLIFTABLE["python"], "java", language="python")


# ----------------------------------------------------------------------
# The Translator: renaming, collision safety, payload shape
# ----------------------------------------------------------------------


class _StubModel:
    """A fake pipeline returning canned predictions."""

    def __init__(self, predictions):
        self._predictions = predictions

    def predict(self, source):
        return dict(self._predictions)


class TestTranslator:
    def test_structural_translation_without_model(self):
        result = Translator().translate(
            "def add(first, second):\n    return first + second\n",
            "java",
            language="python",
        )
        assert result["source_language"] == "python"
        assert result["target_language"] == "java"
        assert "add(Object first, Object second)" in result["translated_source"]
        assert "return (first + second);" in result["translated_source"]
        assert result["identifiers"]["named"] == 0
        assert result["identifiers"]["total"] >= 3  # two params + the method

    def test_predictions_rename_variables_and_methods(self):
        source = "def add(first, second):\n    return first + second\n"
        lifted = lift(parse_source("python", source))
        bindings = sorted(lifted.slots)
        (method_key,) = lifted.methods
        model = _StubModel(
            {
                bindings[0]: "left",
                bindings[1]: "right",
                method_key: "combine",
            }
        )
        result = Translator(model).translate(source, "java", language="python")
        assert "combine(Object left, Object right)" in result["translated_source"]
        assert result["identifiers"]["named"] == 3
        assert set(result["predictions"].values()) == {"left", "right", "combine"}

    def test_colliding_predictions_fall_back_to_original_names(self):
        source = "def add(first, second):\n    return first + second\n"
        lifted = lift(parse_source("python", source))
        bindings = sorted(lifted.slots)
        # Both variables predicted to the same name, the method predicted
        # to a reserved word: neither may produce broken output.
        model = _StubModel(
            {
                bindings[0]: "value",
                bindings[1]: "value",
                list(lifted.methods)[0]: "while",
            }
        )
        result = Translator(model).translate(source, "python", language="python")
        names = list(result["predictions"].values())
        assert len(set(names)) == len(names), f"colliding output names: {names}"
        assert "while" not in names
        back = lift(parse_source("python", result["translated_source"]))
        assert structurally_equivalent(back.spec, lifted.spec)

    def test_local_calls_follow_method_renames(self):
        source = (
            "def helper(value):\n    return value + 1\n\n\n"
            "def driver(start):\n    return helper(start)\n"
        )
        lifted = lift(parse_source("python", source))
        helper_key = next(k for k in lifted.methods if k.endswith(":helper"))
        model = _StubModel({helper_key: "bump"})
        translated = Translator(model).translate(source, "python", language="python")[
            "translated_source"
        ]
        assert "def bump(value):" in translated
        assert "return bump(start)" in translated
        assert "helper" not in translated

    def test_language_argument_validation(self):
        translator = Translator()
        with pytest.raises(ValueError, match="target language"):
            translator.translate("def f():\n    pass\n", "cobol", language="python")
        with pytest.raises(ValueError, match="source language required"):
            translator.translate("def f():\n    pass\n", "java")


# ----------------------------------------------------------------------
# The translate task: training and serving
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def translate_model(tmp_path_factory):
    """A small trained java translate model, saved to disk."""
    sources = [f.source for f in _corpus("java", seed=11, n_projects=4)]
    pipeline = Pipeline(
        RunSpec(language="java", task="translate", training={"epochs": 2})
    )
    pipeline.train(sources)
    path = tmp_path_factory.mktemp("translate") / "java_translate.bin"
    pipeline.save(str(path))
    return str(path)


@pytest.fixture(scope="module")
def translate_server(translate_model):
    host = ModelHost([translate_model])
    server = PredictionServer(host, port=0, cache_size=64)
    runner = ServerThread(server)
    url = runner.__enter__()
    try:
        yield url, server
    finally:
        runner.__exit__(None, None, None)


SAMPLE = None


def _sample_source():
    global SAMPLE
    if SAMPLE is None:
        SAMPLE = _corpus("java", seed=99, n_projects=1)[0].source
    return SAMPLE


class TestTranslateTask:
    def test_trained_model_names_most_identifiers(self, translate_model):
        translator = Translator(Pipeline.load(translate_model))
        result = translator.translate(_sample_source(), "python")
        counts = result["identifiers"]
        assert counts["total"] > 0
        assert counts["named"] / counts["total"] >= 0.5
        back = lift(parse_source("python", result["translated_source"]))
        original = lift(parse_source("java", _sample_source()))
        assert structurally_equivalent(back.spec, original.spec)

    def test_served_response_is_bit_identical_to_direct(
        self, translate_model, translate_server
    ):
        url, _server = translate_server
        direct = Translator(Pipeline.load(translate_model)).translate(
            _sample_source(), "python"
        )
        with ServingClient(url) as client:
            served = client.translate(_sample_source(), "python")
        subset = {key: served[key] for key in direct}
        assert json.dumps(subset, sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

    def test_cache_separates_target_languages(self, translate_server):
        url, server = translate_server
        with ServingClient(url) as client:
            first = client.translate(_sample_source(), "javascript")
            assert first["cached"] is False
            repeat = client.translate(_sample_source(), "javascript")
            assert repeat["cached"] is True
            other_target = client.translate(_sample_source(), "csharp")
            # Same source, same digest -- a different target must miss.
            assert other_target["cached"] is False
            assert other_target["translated_source"] != repeat["translated_source"]
        for key in server.cache._entries:
            cell, language, target_language, top, fingerprint = key
            assert language == "java"
            assert target_language in RENDERERS

    def test_translate_validation_errors(self, translate_server):
        url, _server = translate_server
        with ServingClient(url) as client:
            with pytest.raises(ServingError) as no_target:
                client.predict(_sample_source(), task="translate")
            assert no_target.value.status == 400
            assert "target_language" in no_target.value.payload["error"]
            with pytest.raises(ServingError) as bad_target:
                client.translate(_sample_source(), "cobol")
            assert bad_target.value.status == 400
            with pytest.raises(ServingError) as with_top:
                client.predict(
                    _sample_source(),
                    task="translate",
                    target_language="python",
                    top=3,
                )
            assert with_top.value.status == 400

    def test_unliftable_source_is_a_structured_400(self, translate_server):
        url, server = translate_server
        cached_before = len(server.cache._entries)
        with ServingClient(url) as client:
            with pytest.raises(ServingError) as caught:
                client.translate(UNLIFTABLE["java"], "python")
        error = caught.value
        assert error.status == 400
        detail = error.payload["unsupported"]
        assert detail["language"] == "java"
        assert detail["node"] == "MethodCallExpr"
        assert "/" in detail["position"]
        # Nothing partial: no translated source rides along with an error.
        assert "translated_source" not in error.payload
        # Failures are never cached.
        assert len(server.cache._entries) == cached_before

    def test_target_language_rejected_for_other_tasks(self):
        pipeline = Pipeline(RunSpec(language="javascript", training={"epochs": 1}))
        pipeline.train(
            ["function f(a) { var b = a + 1; return b; }"] * 4
        )
        host = ModelHost.__new__(ModelHost)  # in-memory handle, no file
        handle = pipeline.scoring_handle()
        host.model_paths = []
        host.handles = {("javascript", "variable_naming"): handle}
        host.load_info = {}
        server = PredictionServer(host, port=0, cache_size=4)
        with ServerThread(server) as url:
            with ServingClient(url) as client:
                with pytest.raises(ServingError) as caught:
                    client.predict(
                        "function f(a) { return a; }", target_language="python"
                    )
        assert caught.value.status == 400
        assert "translate" in caught.value.payload["error"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _run_cli(args):
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


class TestTranslateCli:
    def test_structural_translation_to_stdout(self, tmp_path):
        path = tmp_path / "adder.py"
        path.write_text("def add(first, second):\n    return first + second\n")
        result = _run_cli(["translate", str(path), "--to", "java"])
        assert result.returncode == 0, result.stderr
        assert "add(Object first, Object second)" in result.stdout

    def test_json_payload_and_out_file(self, tmp_path, translate_model):
        source = tmp_path / "sample.java"
        source.write_text(_sample_source())
        out = tmp_path / "sample.py"
        result = _run_cli(
            [
                "translate",
                str(source),
                "--to",
                "python",
                "--model",
                translate_model,
                "--out",
                str(out),
                "--json",
            ]
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["target_language"] == "python"
        assert payload["identifiers"]["total"] > 0
        assert out.read_text() == payload["translated_source"]

    def test_unliftable_file_is_a_clean_error(self, tmp_path):
        path = tmp_path / "gen.py"
        path.write_text("def f(a):\n    yield a\n")
        result = _run_cli(["translate", str(path), "--to", "java"])
        assert result.returncode != 0
        assert "unsupported construct" in result.stderr
        assert "Traceback" not in result.stderr
