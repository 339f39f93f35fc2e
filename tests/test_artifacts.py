"""Tests for model artifacts (`repro.artifacts`).

The contract under test: a ``pigeon-model/1`` artifact -- the only
saved-model format -- loads via mmap into a packed read-only model that
predicts **bit-identically** to the live trained pipeline on every
registry cell; pruning packs exactly what :func:`prune_state` produces
and stays within its recorded accuracy-delta budget; corrupt, torn or
foreign (e.g. JSON) files raise the structured ``CorruptArtifactError``;
and N loader processes share the artifact's pages through the OS page
cache.
"""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.api import Pipeline
from repro.artifacts import (
    MODEL_FORMAT,
    ModelArtifact,
    PackedModelError,
    artifact_info,
    pack_model,
    prune_state,
    write_state_artifact,
)
from repro.cli import main as cli_main
from repro.resilience.atomicio import CorruptArtifactError

from fixtures import FIG1_JS
from oracles import crf as crf_oracle

#: Identifiers that never occur in the generated corpora: artifact-loaded
#: pipelines must intern genuinely unseen request strings exactly like
#: the live pipeline does.
NOVEL = {
    "javascript": "var qqUnseen = 1; function qqStep(qqArg) { var qqLoc = qqArg + qqUnseen; return qqLoc; }",
    "python": "def qq_step(qq_arg):\n    qq_loc = qq_arg + 1\n    return qq_loc\n",
    "java": "public class QqMain { public int qqStep(int qqArg) { int qqLoc = qqArg + 1; return qqLoc; } }",
    "csharp": "public class QqMain { public int QqStep(int qqArg) { int qqLoc = qqArg + 1; return qqLoc; } }",
}

CORPORA = {
    "javascript": "js_corpus",
    "java": "java_corpus",
    "python": "python_corpus",
    "csharp": "csharp_corpus",
}

#: Every valid (language, task) CRF cell: 4 x variable_naming,
#: 4 x method_naming, plus Java-only type_prediction = 9 cells.
CRF_CELLS = [
    (language, task)
    for task in ("variable_naming", "method_naming")
    for language in ("javascript", "java", "python", "csharp")
] + [("java", "type_prediction")]


def _train(request, language, task="variable_naming", **kwargs):
    corpus = request.getfixturevalue(CORPORA[language])
    sources = [f.source for f in corpus]
    pipeline = Pipeline(
        language=language, task=task, training={"epochs": 2}, **kwargs
    )
    pipeline.train(sources[:10])
    return pipeline, sources[10:14]


def _save(pipeline, tmp_path, name="model.bin"):
    path = str(tmp_path / name)
    pipeline.save(path)
    return path


def _write_json_model(pipeline, path):
    """A model file in the retired ``pigeon-pipeline/2`` JSON layout."""
    payload = {
        "format": "pigeon-pipeline/2",
        "spec": pipeline.spec.to_dict(),
        "learner_state": pipeline.learner.state_dict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, default=np.ndarray.tolist)
    return path


class TestBitIdentity:
    @pytest.mark.parametrize("language,task", CRF_CELLS)
    def test_crf_binary_matches_json(self, request, tmp_path, language, task):
        """The loaded artifact matches the live pipeline that saved it."""
        pipeline, held_out = _train(request, language, task)
        from_bin = Pipeline.load(_save(pipeline, tmp_path))
        assert from_bin.artifact is not None
        probes = held_out + [NOVEL[language]]
        for source in probes:
            assert from_bin.predict(source) == pipeline.predict(source)
        assert from_bin.suggest(probes[0], k=5) == pipeline.suggest(probes[0], k=5)

    def test_crf_scalar_engine_matches_too(self, request, tmp_path):
        pipeline, held_out = _train(request, "javascript")
        from_bin = Pipeline.load(_save(pipeline, tmp_path))
        packed = from_bin.learner.model
        for source in held_out + [NOVEL["javascript"]]:
            # The scalar oracle resolves weights through the packed
            # views' binary search instead of the compiled plane.
            view = from_bin.view(from_bin.parse(source))
            assignment = crf_oracle.map_inference(packed, view)
            keys = [node.key for node in view.unknowns]
            assert dict(zip(keys, assignment)) == pipeline.predict(source)

    @pytest.mark.parametrize("representation", ["ast-paths", "token-context"])
    def test_word2vec_binary_matches_json(self, request, tmp_path, representation):
        """The loaded artifact matches the live pipeline that saved it.

        The SGNS model itself round-trips exactly: vocabularies in id
        order, embedding matrices bit for bit, and interned
        ``(rel_id, value_id)`` context tokens as int tuples (not lists or
        numpy rows), so they hit the same vocabulary entries.
        """
        corpus = request.getfixturevalue(CORPORA["javascript"])
        sources = [f.source for f in corpus]
        pipeline = Pipeline(
            language="javascript",
            learner="word2vec",
            representation=representation,
            sgns={"epochs": 2},
        )
        pipeline.train(sources[:10])
        from_bin = Pipeline.load(_save(pipeline, tmp_path))
        live, loaded = pipeline.learner.predictor.model, from_bin.learner.predictor.model
        assert loaded.words.token_to_id == live.words.token_to_id
        assert loaded.contexts.token_to_id == live.contexts.token_to_id
        assert np.array_equal(loaded.word_vectors, live.word_vectors)
        assert np.array_equal(loaded.context_vectors, live.context_vectors)
        if representation == "ast-paths":
            assert all(
                type(token) is tuple and all(type(part) is int for part in token)
                for token in loaded.contexts.id_to_token
            )
        for source in sources[10:13] + [NOVEL["javascript"]]:
            assert from_bin.predict(source) == pipeline.predict(source)
            assert from_bin.suggest(source, k=3) == pipeline.suggest(source, k=3)

    def test_scoring_handle_over_binary_model(self, request, tmp_path):
        pipeline, held_out = _train(request, "javascript")
        handle = Pipeline.load(_save(pipeline, tmp_path)).scoring_handle()
        for source in held_out + [NOVEL["javascript"]]:
            assert handle.predict(source) == pipeline.predict(source)


class TestPackedModelSemantics:
    def test_mutation_raises(self, request, tmp_path):
        pipeline, _held_out = _train(request, "javascript")
        model = Pipeline.load(_save(pipeline, tmp_path)).learner.model
        plane = model.plane
        key = next(iter(plane.as_dict()))
        with pytest.raises(PackedModelError, match="read-only"):
            plane.decay(0.5, step=1)
        for mutate in (
            lambda: plane.assign(key, 1.0),
            lambda: plane.add([key[0]], [key[1]], [key[2]], [1.0], step=1),
            lambda: plane.average(step=1),
            lambda: plane.reserve(plane.base + 1),
        ):
            with pytest.raises(PackedModelError):
                mutate()
        assert plane.as_dict()[key] == pipeline.learner.model.plane.as_dict()[key]

    def test_packed_weight_views_behave_like_dicts(self, request, tmp_path):
        """The loaded plane holds the live plane's weights, listed by kind
        in its key order."""
        pipeline, _held_out = _train(request, "javascript")
        reference = pipeline.learner.model
        packed = Pipeline.load(_save(pipeline, tmp_path)).learner.model
        weights = packed.plane.as_dict()
        assert weights == reference.plane.as_dict()
        assert (10**6, 10**6, 10**6) not in weights
        assert packed.num_parameters() == reference.num_parameters()
        pair, unary = crf_oracle.plane_rows(packed.plane)
        live_pair, live_unary = crf_oracle.plane_rows(reference.plane)
        assert sorted(pair) == sorted(live_pair) and sorted(unary) == sorted(live_unary)


class TestPruning:
    def test_pruned_model_stays_within_budget(self, request, tmp_path):
        corpus = request.getfixturevalue(CORPORA["javascript"])
        sources = [f.source for f in corpus]
        pipeline = Pipeline(language="javascript", training={"epochs": 2})
        pipeline.train(sources[:14])
        held_out = sources[14:]
        pruned_path = str(tmp_path / "pruned.bin")
        info = pack_model(_save(pipeline, tmp_path), pruned_path, prune_min_count=2)
        provenance = info["prune"]
        assert provenance["paths"]["after"] <= provenance["paths"]["before"]
        pruned = Pipeline.load(pruned_path)
        assert pruned.artifact.prune["min_rel_count"] == 2
        budget = pruned.artifact.prune["accuracy_delta_budget"]
        full_acc = _accuracy(pipeline, held_out)
        pruned_acc = _accuracy(pruned, held_out)
        assert pruned_acc >= full_acc - budget

    def test_prune_remaps_vocab_densely(self, request, tmp_path):
        pipeline, _held_out = _train(request, "javascript")
        pruned_path = str(tmp_path / "pruned.bin")
        info = pack_model(_save(pipeline, tmp_path), pruned_path, prune_min_count=2)
        artifact = ModelArtifact.open(pruned_path)
        meta = artifact.meta
        assert meta["paths"] == info["prune"]["paths"]["after"]
        assert meta["values"] == info["prune"]["values"]["after"]
        # The dense re-pack keeps only referenced ids, so the pruned
        # vocab is never larger than the original.
        assert meta["paths"] <= info["prune"]["paths"]["before"]

    @pytest.mark.parametrize("learner", ["crf", "word2vec"])
    def test_pack_prunes_exactly_the_live_state(self, request, tmp_path, learner):
        """Pruning a loaded artifact writes the same bytes as pruning the
        live model's state: the artifact loses nothing pruning reads."""
        corpus = request.getfixturevalue(CORPORA["javascript"])
        pipeline = Pipeline(
            language="javascript",
            learner=learner,
            training={"epochs": 2},
            sgns={"epochs": 2},
        )
        pipeline.train([f.source for f in corpus][:10])
        packed = str(tmp_path / "packed.bin")
        info = pack_model(_save(pipeline, tmp_path), packed, prune_min_count=2)
        state, provenance = prune_state(learner, pipeline.learner.state_dict(), 2)
        direct = str(tmp_path / "direct.bin")
        write_state_artifact(
            direct, pipeline.spec.to_dict(), learner, state, prune=provenance
        )
        assert info["prune"] == provenance
        with open(packed, "rb") as a, open(direct, "rb") as b:
            assert a.read() == b.read()

    def test_pruning_a_pruned_artifact_is_refused(self, request, tmp_path):
        pipeline, _held_out = _train(request, "javascript")
        pruned = str(tmp_path / "pruned.bin")
        pack_model(_save(pipeline, tmp_path), pruned, prune_min_count=2)
        again = str(tmp_path / "again.bin")
        with pytest.raises(ValueError, match="already pruned"):
            pack_model(pruned, again, prune_min_count=3)
        assert not os.path.exists(again)
        # The pruned artifact keeps its provenance and float32 weights.
        artifact = ModelArtifact.open(pruned)
        assert artifact.prune["min_rel_count"] == 2
        assert artifact.array("crf/weights").dtype == np.float32

    def test_saving_a_loaded_pruned_pipeline_keeps_its_provenance(
        self, request, tmp_path
    ):
        pipeline, _held_out = _train(request, "javascript")
        pruned = str(tmp_path / "pruned.bin")
        pack_model(_save(pipeline, tmp_path), pruned, prune_min_count=2)
        copy = _save(Pipeline.load(pruned), tmp_path, "copy.bin")
        artifact = ModelArtifact.open(copy)
        assert artifact.prune["min_rel_count"] == 2
        assert artifact.array("crf/weights").dtype == np.float32
        with open(pruned, "rb") as a, open(copy, "rb") as b:
            assert a.read() == b.read()

    def test_budget_outside_unit_interval_is_refused(self, request, tmp_path):
        pipeline, _held_out = _train(request, "javascript")
        bin_path = _save(pipeline, tmp_path)
        state = pipeline.learner.state_dict()
        pruned = str(tmp_path / "pruned.bin")
        for budget in (-3.0, 1.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="accuracy_delta_budget"):
                prune_state("crf", state, 2, accuracy_delta_budget=budget)
            with pytest.raises(ValueError, match="accuracy_delta_budget"):
                pack_model(
                    bin_path, pruned, prune_min_count=2, accuracy_delta_budget=budget
                )
            assert not os.path.exists(pruned)

    def test_word2vec_string_contexts_refuse_pruning(self, request, tmp_path):
        corpus = request.getfixturevalue(CORPORA["javascript"])
        sources = [f.source for f in corpus]
        pipeline = Pipeline(
            language="javascript",
            learner="word2vec",
            representation="token-context",
            sgns={"epochs": 1},
        )
        pipeline.train(sources[:6])
        bin_path = _save(pipeline, tmp_path, "w2v.bin")
        with pytest.raises(ValueError, match="relation ids"):
            pack_model(bin_path, str(tmp_path / "w2v.pruned.bin"), prune_min_count=2)


def _accuracy(pipeline, sources):
    total = correct = 0
    for source in sources:
        view = pipeline.view(pipeline.parse(source))
        gold = {node.key: node.gold for node in view.unknowns}
        predictions = pipeline.predict(source)
        for key, label in gold.items():
            total += 1
            correct += predictions.get(key) == label
    return correct / max(1, total)


class TestIntegrity:
    @pytest.fixture()
    def saved(self, request, tmp_path):
        pipeline, _held_out = _train(request, "javascript")
        return pipeline, _save(pipeline, tmp_path)

    def test_json_model_file_is_refused(self, saved, tmp_path):
        pipeline, _bin_path = saved
        json_path = _write_json_model(pipeline, str(tmp_path / "model.json"))
        with pytest.raises(CorruptArtifactError, match=MODEL_FORMAT):
            Pipeline.load(json_path)
        with pytest.raises(CorruptArtifactError, match=MODEL_FORMAT):
            ModelArtifact.open(json_path)

    def test_truncated_artifact_raises_structured_error(self, saved, tmp_path):
        _pipeline, bin_path = saved
        data = open(bin_path, "rb").read()
        torn = str(tmp_path / "torn.bin")
        with open(torn, "wb") as handle:
            handle.write(data[: len(data) - 128])
        with pytest.raises(CorruptArtifactError, match="truncated"):
            Pipeline.load(torn)

    def test_flipped_header_byte_raises_on_open(self, saved, tmp_path):
        _pipeline, bin_path = saved
        data = bytearray(open(bin_path, "rb").read())
        data[40] ^= 0xFF  # inside the JSON header
        bad = str(tmp_path / "bad-header.bin")
        open(bad, "wb").write(bytes(data))
        with pytest.raises(CorruptArtifactError):
            ModelArtifact.open(bad)

    def test_flipped_payload_byte_caught_by_verify(self, saved, tmp_path):
        _pipeline, bin_path = saved
        data = bytearray(open(bin_path, "rb").read())
        data[-3] ^= 0xFF  # inside the last section
        bad = str(tmp_path / "bad-payload.bin")
        open(bad, "wb").write(bytes(data))
        artifact = ModelArtifact.open(bad)  # bare open is O(header): passes
        with pytest.raises(CorruptArtifactError, match="retrain or restore"):
            artifact.verify()
        # Loading a pipeline hashes the payload, so the flip never serves.
        with pytest.raises(CorruptArtifactError, match="retrain or restore"):
            Pipeline.load(bad)

    def test_json_garbage_raises_structured_error(self, tmp_path):
        bad = str(tmp_path / "garbage.json")
        open(bad, "w").write('{"format": "pigeon-pipeline/2", "spe')
        with pytest.raises(CorruptArtifactError):
            Pipeline.load(bad)

    def test_artifact_info_both_formats(self, saved, tmp_path):
        """``artifact_info`` summarises an artifact and refuses JSON."""
        pipeline, bin_path = saved
        binfo = artifact_info(bin_path)
        assert binfo["format"] == MODEL_FORMAT
        assert binfo["learner"] == "crf"
        assert binfo["spec"]["language"] == "javascript"
        assert any(s["name"] == "crf/weights" for s in binfo["sections"])
        json_path = _write_json_model(pipeline, str(tmp_path / "model.json"))
        with pytest.raises(CorruptArtifactError, match=MODEL_FORMAT):
            artifact_info(json_path)


class TestServingIntegration:
    def test_model_host_reports_load_info_for_both_formats(self, request, tmp_path):
        """The host reports path and load time for an artifact; a JSON
        model fails at startup with the structured error."""
        from repro.serving import ModelHost

        pipeline, held_out = _train(request, "javascript")
        bin_path = _save(pipeline, tmp_path)
        host = ModelHost([bin_path])
        cell = "javascript/variable_naming/ast-paths/crf"
        info = host.model_stats()[cell]
        assert set(info) == {"path", "load_ms"}
        assert info["path"] == bin_path
        assert info["load_ms"] > 0
        handle = host.resolve("javascript", "variable_naming")
        assert handle.predict(held_out[0]) == pipeline.predict(held_out[0])
        json_path = _write_json_model(pipeline, str(tmp_path / "model.json"))
        with pytest.raises(CorruptArtifactError, match=MODEL_FORMAT):
            ModelHost([json_path])

    def test_server_stats_expose_models_for_binary_artifact(self, request, tmp_path):
        from repro.serving import (
            ModelHost,
            PredictionServer,
            ServerThread,
            ServingClient,
        )

        pipeline, _held_out = _train(request, "javascript")
        bin_path = _save(pipeline, tmp_path)
        host = ModelHost([bin_path])
        server = PredictionServer(host, port=0, batch_size=2, batch_wait_ms=1.0)
        with ServerThread(server) as url:
            with ServingClient(url) as client:
                client.predict(NOVEL["javascript"])
                stats = client.stats()
        cell = "javascript/variable_naming/ast-paths/crf"
        assert stats["models"][cell]["path"] == bin_path
        assert stats["models"][cell]["load_ms"] > 0

    def test_fleet_reload_accepts_binary_artifact(self, request, tmp_path):
        from repro.fleet.replicas import ReplicaSet

        pipeline, held_out = _train(request, "javascript")
        first = _save(pipeline, tmp_path, "first.bin")
        second = _save(pipeline, tmp_path, "second.bin")
        fleet = ReplicaSet.in_process([first], count=1)
        fleet.start()
        try:
            fleet.wait_healthy(timeout_s=30.0)
            replica = next(iter(fleet))
            fleet.restart(replica.name, model_paths=[second])
            fleet.wait_healthy(timeout_s=30.0)
            from repro.serving import ServingClient

            with ServingClient(replica.url) as client:
                response = client.predict(held_out[0])
                stats = client.stats()
            assert response["predictions"] == pipeline.predict(held_out[0])
            cell = "javascript/variable_naming/ast-paths/crf"
            assert stats["models"][cell]["path"] == second
        finally:
            fleet.stop()


class TestCli:
    def _train_cli(self, tmp_path, capsys):
        source = tmp_path / "a.js"
        source.write_text(FIG1_JS)
        model = str(tmp_path / "m.bin")
        argv = ["train", "--model", model, "--language", "javascript",
                "--projects", "2", "--epochs", "1", str(source)]
        assert cli_main(argv) == 0
        return model, json.loads(capsys.readouterr().out)

    def test_train_format_binary_and_model_group(self, tmp_path, capsys):
        """``train`` writes a pigeon-model/1 artifact; ``model`` prunes,
        describes and verifies it."""
        model, report = self._train_cli(tmp_path, capsys)
        assert report["model"] == model
        assert "format" not in report
        assert ModelArtifact.open(model).learner == "crf"

        packed = str(tmp_path / "m.packed.bin")
        assert cli_main(["model", "pack", model, packed, "--prune-min-count", "2"]) == 0
        pack_report = json.loads(capsys.readouterr().out)
        assert pack_report["prune"]["min_rel_count"] == 2

        assert cli_main(["model", "info", packed, "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["format"] == MODEL_FORMAT
        assert info["prune"]["min_rel_count"] == 2

        assert cli_main(["model", "verify", packed]) == 0
        assert "OK" in capsys.readouterr().out

    def test_model_pack_refusals(self, tmp_path, capsys):
        """``model pack`` needs a floor (without one it would only copy
        the artifact, and a budget would silently do nothing), a budget
        in [0, 1] and an unpruned input; ``--format`` is gone."""
        model, _report = self._train_cli(tmp_path, capsys)
        out = str(tmp_path / "out.bin")
        for argv in (
            ["model", "pack", model, out],
            ["model", "pack", model, out, "--accuracy-delta-budget", "0.1"],
            ["model", "pack", model, out, "--prune-min-count", "2", "--format", "json"],
            ["train", "--model", out, "--format", "binary", "--language", "javascript"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                cli_main(argv)
            assert excinfo.value.code == 2, argv
        assert "--prune-min-count" in capsys.readouterr().err
        with pytest.raises(SystemExit, match="accuracy_delta_budget"):
            cli_main(
                ["model", "pack", model, out,
                 "--prune-min-count", "2", "--accuracy-delta-budget", "-3.0"]
            )
        assert not os.path.exists(out)
        assert cli_main(["model", "pack", model, out, "--prune-min-count", "2"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="already pruned"):
            cli_main(
                ["model", "pack", out, str(tmp_path / "again.bin"),
                 "--prune-min-count", "2"]
            )

    def test_model_verify_rejects_corrupt_file(self, tmp_path, capsys):
        model, _report = self._train_cli(tmp_path, capsys)
        data = bytearray(open(model, "rb").read())
        data[-3] ^= 0xFF
        open(model, "wb").write(bytes(data))
        with pytest.raises(SystemExit, match="corrupt"):
            cli_main(["model", "verify", model])


def _load_and_report_smaps(path, source, barrier, queue):
    """Child process body: load, predict, then report the artifact mapping."""
    try:
        pipeline = Pipeline.load(path)
        pipeline.predict(source)  # fault weight pages in
        barrier.wait(timeout=60)  # both processes resident now
        entry = _smaps_entry(path)
        barrier.wait(timeout=60)  # hold the mapping until both have read
        queue.put(entry)
    except Exception as error:  # pragma: no cover - surfaced by the assert
        queue.put({"error": repr(error)})


def _smaps_entry(path):
    """Aggregate /proc/self/smaps fields for mappings of ``path``."""
    totals = {"Rss": 0, "Shared_Clean": 0, "Shared_Dirty": 0, "Private_Dirty": 0}
    in_mapping = False
    found = False
    with open("/proc/self/smaps", "r", encoding="utf-8") as handle:
        for line in handle:
            if "-" in line.split(" ", 1)[0] and ":" not in line.split(" ", 1)[0]:
                in_mapping = line.rstrip("\n").endswith(path)
                found = found or in_mapping
            elif in_mapping:
                field = line.split(":", 1)
                if field[0] in totals:
                    totals[field[0]] += int(field[1].strip().split()[0])
    totals["found"] = found
    return totals


@pytest.mark.skipif(
    not os.path.exists("/proc/self/smaps"), reason="needs Linux smaps accounting"
)
def test_replica_processes_share_artifact_pages(request, tmp_path):
    """N loaders of one artifact share its pages through the page cache.

    Two forked processes mmap the same binary model, predict (faulting
    the weight sections in), and read their own smaps for the mapping:
    the pages must show up as Shared (mapped by both) and the mapping
    must never be dirtied (zero-copy -- no process materialises a
    private copy of the weights).
    """
    corpus = request.getfixturevalue(CORPORA["javascript"])
    sources = [f.source for f in corpus]
    pipeline = Pipeline(language="javascript", training={"epochs": 2})
    pipeline.train(sources[:10])
    bin_path = str(tmp_path / "shared.bin")
    pipeline.save(bin_path)

    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    queue = ctx.Queue()
    workers = [
        ctx.Process(
            target=_load_and_report_smaps,
            args=(bin_path, sources[10], barrier, queue),
        )
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    reports = [queue.get(timeout=120) for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
    for report in reports:
        assert "error" not in report, report
        assert report["found"], "artifact mapping missing from smaps"
        assert report["Rss"] > 0, "no artifact pages resident"
        # Zero-copy: a read-only mapping is never dirtied.
        assert report["Private_Dirty"] == 0, report
        # Shared: the page-cache copy is mapped by both processes.
        assert report["Shared_Clean"] + report["Shared_Dirty"] > 0, report
