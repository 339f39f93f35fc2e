"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import _guess_language, build_parser, main

from fixtures import FIG1_JS


class TestLanguageGuessing:
    def test_by_extension(self):
        assert _guess_language("a.js", None) == "javascript"
        assert _guess_language("a.java", None) == "java"
        assert _guess_language("a.py", None) == "python"
        assert _guess_language("a.cs", None) == "csharp"

    def test_explicit_overrides(self):
        assert _guess_language("a.js", "python") == "python"

    def test_unknown_extension_exits(self):
        with pytest.raises(SystemExit):
            _guess_language("a.txt", None)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_languages_command(self, capsys):
        assert main(["languages"]) == 0
        out = capsys.readouterr().out
        assert "javascript" in out and "csharp" in out


class TestPathsCommand:
    """Printing one file's path-contexts is ``extract FILE --show``."""

    def test_prints_path_contexts(self, tmp_path, capsys):
        path = tmp_path / "fig1.js"
        path.write_text(FIG1_JS)
        argv = ["extract", str(path), "--show", "--max-length", "7", "--max-width", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "SymbolRef↑UnaryPrefix!↑While↓If↓Assign=↓SymbolRef" in out

    def test_semi_paths_flag(self, tmp_path, capsys):
        path = tmp_path / "fig1.js"
        path.write_text(FIG1_JS)
        assert main(["extract", str(path), "--show", "--semi-paths"]) == 0
        out = capsys.readouterr().out
        assert "Toplevel" in out  # semi-path endpoint kinds appear


class TestExtractCommand:
    def test_extract_files_json(self, tmp_path, capsys):
        path = tmp_path / "fig1.js"
        path.write_text(FIG1_JS)
        assert main(["extract", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["files"] == 1
        assert summary["paths"] > 0
        assert summary["unique_paths"] > 0
        assert summary["language"] == "javascript"

    def test_extract_show_prints_contexts(self, tmp_path, capsys):
        path = tmp_path / "fig1.js"
        path.write_text(FIG1_JS)
        assert main(["extract", str(path), "--show"]) == 0
        out = capsys.readouterr().out
        assert "SymbolRef↑UnaryPrefix!↑While↓If↓Assign=↓SymbolRef" in out

    def test_extract_generated_corpus(self, capsys):
        assert main(
            ["extract", "--language", "javascript", "--projects", "2", "--json"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["files"] > 1
        assert summary["nodes_per_second"] > 0

    def test_extract_without_input_exits(self):
        with pytest.raises(SystemExit):
            main(["extract"])

    def test_mixed_language_files_exit_naming_them(self, tmp_path, capsys):
        # Every file's extension counts, not just the first one's: a
        # Python file must not be parsed as JavaScript behind a .js file.
        js = tmp_path / "a.js"
        js.write_text(FIG1_JS)
        py = tmp_path / "c.py"
        py.write_text("x = 1\ny = x\n")
        files = [str(js), str(py)]
        with pytest.raises(SystemExit, match=r"mix languages.*a\.js.*c\.py"):
            main(["extract", *files])
        with pytest.raises(SystemExit, match=r"mix languages.*a\.js.*c\.py"):
            main(["shard", "build", "--out", str(tmp_path / "s"), *files])
        # An explicit --language still decides for every file.
        assert main(["extract", "--language", "javascript", "--json", *files]) == 0
        assert json.loads(capsys.readouterr().out)["files"] == 2


class TestExperimentCommand:
    def test_mini_experiment(self, capsys):
        code = main(
            [
                "experiment",
                "javascript",
                "--projects",
                "4",
                "--epochs",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AST paths" in out and "%" in out


class TestRenameCommand:
    def test_rename_rejects_unprintable_language(self, tmp_path):
        path = tmp_path / "a.java"
        path.write_text("class T {}")
        with pytest.raises(SystemExit):
            main(["rename", str(path)])

    def test_rename_js(self, tmp_path, capsys):
        path = tmp_path / "min.js"
        path.write_text(
            "function f() { var d = false; while (!d) {"
            " if (someCondition()) { d = true; } } }"
        )
        code = main(["rename", str(path), "--projects", "4", "--epochs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "function f" in out


class TestLanguageGuessingExtensions:
    """os.path.splitext semantics: only a real extension matches."""

    def test_composite_extension_does_not_misresolve(self):
        # endswith(".js") used to resolve "foo.pyjs" to javascript.
        with pytest.raises(SystemExit):
            _guess_language("foo.pyjs", None)
        with pytest.raises(SystemExit):
            _guess_language("archive.tarjs", None)

    def test_dotted_basenames_still_work(self):
        assert _guess_language("pkg/mod.test.js", None) == "javascript"
        assert _guess_language("a.b.py", None) == "python"


class TestJsonOutputs:
    def test_languages_json(self, capsys):
        assert main(["languages", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == ["csharp", "java", "javascript", "python"]

    def test_cells_lists_registry_cells(self, capsys):
        assert main(["cells", "--language", "javascript"]) == 0
        out = capsys.readouterr().out
        assert "javascript/variable_naming/ast-paths/crf" in out
        assert "javascript/variable_naming/token-context/word2vec" in out

    def test_cells_json(self, capsys):
        assert main(["cells", "--language", "java", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(spec["language"] == "java" for spec in data)
        assert any(spec["task"] == "type_prediction" for spec in data)


class TestTrainPredictCommands:
    TRAIN = [
        "function wait() { var done = false; while (!done) {"
        " if (someCondition()) { done = true; } } }",
        "function poll() { var done = false; while (!done) {"
        " if (checkState()) { done = true; } } }",
    ] * 4

    def _train(self, tmp_path, capsys):
        model = tmp_path / "model.bin"
        files = []
        for i, source in enumerate(self.TRAIN):
            path = tmp_path / f"train{i}.js"
            path.write_text(source)
            files.append(str(path))
        code = main(
            ["train", "--model", str(model), "--language", "javascript",
             "--epochs", "3", *files]
        )
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["files_trained"] == len(files)
        assert stats["spec"]["learner"] == "crf"
        return model

    def test_train_then_predict_roundtrip(self, tmp_path, capsys):
        model = self._train(tmp_path, capsys)
        target = tmp_path / "test.js"
        target.write_text(
            "function run() { var d = false; while (!d) {"
            " if (someCondition()) { d = true; } } }"
        )
        assert main(["predict", str(target), "--model", str(model)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["cell"] == "javascript/variable_naming/ast-paths/crf"
        assert list(result["predictions"].values()) == ["done"]

    def test_predict_top_k(self, tmp_path, capsys):
        model = self._train(tmp_path, capsys)
        target = tmp_path / "test.js"
        target.write_text(
            "function run() { var d = false; while (!d) {"
            " if (someCondition()) { d = true; } } }"
        )
        assert main(["predict", str(target), "--model", str(model), "--top", "3"]) == 0
        result = json.loads(capsys.readouterr().out)
        ranked = list(result["suggestions"].values())[0]
        assert ranked[0][0] == "done"
        assert len(ranked) <= 3

    def test_predict_rejects_negative_top(self, tmp_path, capsys):
        model = self._train(tmp_path, capsys)
        target = tmp_path / "test.js"
        target.write_text("function run() { var d = false; }")
        with pytest.raises(SystemExit) as caught:
            main(["predict", str(target), "--model", str(model), "--top", "-1"])
        assert caught.value.code == 2  # an argparse usage error
        assert "--top: must be >= 0" in capsys.readouterr().err


class TestShardCommands:
    TRAIN = TestTrainPredictCommands.TRAIN

    def _write_files(self, tmp_path):
        files = []
        for i, source in enumerate(self.TRAIN):
            path = tmp_path / f"train{i}.js"
            path.write_text(source)
            files.append(str(path))
        return files

    def _build(self, tmp_path, capsys):
        files = self._write_files(tmp_path)
        shards = tmp_path / "shards"
        code = main(
            ["shard", "build", "--out", str(shards), "--shard-size", "3",
             "--json", *files]
        )
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["files"] == len(files)
        assert stats["shards"] == 3
        return shards, files

    def test_build_info_merge(self, tmp_path, capsys):
        shards, _files = self._build(tmp_path, capsys)
        assert main(["shard", "info", str(shards), "--verify", "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["verified"] is True
        assert info["kind"] == "graph"
        assert info["spec"]["language"] == "javascript"
        assert len(info["shard_files"]) == info["shards"] == 3

        manifest = tmp_path / "merged.json"
        assert main(
            ["shard", "merge", str(shards), "--out", str(manifest), "--json"]
        ) == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["shards"] == 3
        assert merged["unique_paths"] > 0
        assert manifest.exists()

        # The manifest feeds straight back into streamed training.
        model = tmp_path / "from-manifest.bin"
        assert main(
            ["train", "--model", str(model), "--shards", str(shards),
             "--merged", str(manifest), "--epochs", "2"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["shards"] == 3 and model.exists()

    def test_train_from_shards_matches_in_memory_train(self, tmp_path, capsys):
        shards, files = self._build(tmp_path, capsys)
        sharded_model = tmp_path / "sharded.bin"
        assert main(
            ["train", "--model", str(sharded_model), "--shards", str(shards),
             "--epochs", "3"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["files_trained"] == len(files)
        assert stats["shards"] == 3

        in_memory_model = tmp_path / "inmem.bin"
        assert main(
            ["train", "--model", str(in_memory_model), "--language", "javascript",
             "--epochs", "3", *files]
        ) == 0
        capsys.readouterr()

        target = tmp_path / "probe.js"
        target.write_text(
            "function run() { var d = false; while (!d) {"
            " if (someCondition()) { d = true; } } }"
        )
        outputs = []
        for model in (sharded_model, in_memory_model):
            assert main(["predict", str(target), "--model", str(model)]) == 0
            outputs.append(json.loads(capsys.readouterr().out)["predictions"])
        assert outputs[0] == outputs[1]
        assert list(outputs[0].values()) == ["done"]

    def test_clean_errors(self, tmp_path, capsys):
        shards, files = self._build(tmp_path, capsys)
        # --shards plus files is a usage error.
        with pytest.raises(SystemExit, match="not both"):
            main(["train", "--model", "m.bin", "--shards", str(shards), *files])
        # Explicit axes must agree with the shard set.
        with pytest.raises(SystemExit, match="built for language"):
            main(["train", "--model", "m.bin", "--shards", str(shards),
                  "--language", "python"])
        with pytest.raises(SystemExit, match="built for learner"):
            main(["train", "--model", "m.bin", "--shards", str(shards),
                  "--learner", "word2vec"])
        # train needs either --shards or --language.
        with pytest.raises(SystemExit, match="--language"):
            main(["train", "--model", "m.bin", *files])
        # --merged without --shards is a usage error.
        with pytest.raises(SystemExit, match="--shards training only"):
            main(["train", "--model", "m.bin", "--language", "javascript",
                  "--merged", "x.json", *files])
        # Shard errors surface as one-line messages (ShardError is a
        # ValueError, so the main() handler catches it).
        with pytest.raises(SystemExit, match="no \\*.shard.json"):
            main(["shard", "info", str(tmp_path)])


class TestCleanErrors:
    """Plugin/config/file mistakes exit with one-line messages, not tracebacks."""

    def test_unknown_plugin_name(self, capsys):
        with pytest.raises(SystemExit, match="unknown task"):
            main(["train", "--model", "m.bin", "--language", "javascript",
                  "--task", "typo"])

    def test_incompatible_cell(self):
        with pytest.raises(SystemExit, match="consumes the 'graph' view"):
            main(["train", "--model", "m.bin", "--language", "javascript",
                  "--representation", "token-context"])

    def test_missing_model_file(self):
        with pytest.raises(SystemExit, match="No such file"):
            main(["predict", "x.js", "--model", "does-not-exist.bin"])

    def test_unknown_cells_language(self):
        with pytest.raises(SystemExit, match="unknown language"):
            main(["cells", "--language", "go"])
