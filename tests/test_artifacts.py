"""Tests for binary model artifacts (`repro.artifacts`).

The contract under test: an unpruned ``pigeon-model/1`` artifact loads
via mmap into a packed read-only model that predicts **bit-identically**
to the JSON-loaded pipeline on every registry cell; pruned artifacts
stay within their recorded accuracy-delta budget; corrupt or torn files
of either format raise the structured ``CorruptArtifactError``; and N
loader processes share the artifact's pages through the OS page cache.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.api import Pipeline
from repro.artifacts import (
    MODEL_FORMAT,
    ModelArtifact,
    PackedModelError,
    artifact_info,
    is_model_artifact,
    pack_model,
    sniff_format,
)
from repro.cli import main as cli_main
from repro.resilience.atomicio import CorruptArtifactError

from fixtures import FIG1_JS
from oracles import crf as crf_oracle

#: Identifiers that never occur in the generated corpora: binary-loaded
#: pipelines must intern genuinely unseen request strings exactly like
#: the JSON path does.
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


def _save_both(pipeline, tmp_path):
    json_path = str(tmp_path / "model.json")
    bin_path = str(tmp_path / "model.bin")
    pipeline.save(json_path)
    pipeline.save(bin_path, format="binary")
    return json_path, bin_path


class TestBitIdentity:
    @pytest.mark.parametrize("language,task", CRF_CELLS)
    def test_crf_binary_matches_json(self, request, tmp_path, language, task):
        pipeline, held_out = _train(request, language, task)
        json_path, bin_path = _save_both(pipeline, tmp_path)
        from_json = Pipeline.load(json_path)
        from_bin = Pipeline.load(bin_path)
        assert from_bin.artifact is not None
        probes = held_out + [NOVEL[language]]
        for source in probes:
            assert from_bin.predict(source) == from_json.predict(source)
        assert from_bin.suggest(probes[0], k=5) == from_json.suggest(probes[0], k=5)

    def test_crf_scalar_engine_matches_too(self, request, tmp_path):
        pipeline, held_out = _train(request, "javascript")
        json_path, bin_path = _save_both(pipeline, tmp_path)
        from_json = Pipeline.load(json_path)
        from_bin = Pipeline.load(bin_path)
        packed = from_bin.learner.model
        for source in held_out + [NOVEL["javascript"]]:
            # The scalar oracle resolves weights through the packed
            # views' binary search instead of the compiled plane.
            view = from_bin.view(from_bin.parse(source))
            assignment = crf_oracle.map_inference(packed, view)
            keys = [node.key for node in view.unknowns]
            assert dict(zip(keys, assignment)) == from_json.predict(source)

    @pytest.mark.parametrize("representation", ["ast-paths", "token-context"])
    def test_word2vec_binary_matches_json(self, request, tmp_path, representation):
        corpus = request.getfixturevalue(CORPORA["javascript"])
        sources = [f.source for f in corpus]
        pipeline = Pipeline(
            language="javascript",
            learner="word2vec",
            representation=representation,
            sgns={"epochs": 2},
        )
        pipeline.train(sources[:10])
        json_path, bin_path = _save_both(pipeline, tmp_path)
        from_json = Pipeline.load(json_path)
        from_bin = Pipeline.load(bin_path)
        for source in sources[10:13] + [NOVEL["javascript"]]:
            assert from_bin.predict(source) == from_json.predict(source)
            assert from_bin.suggest(source, k=3) == from_json.suggest(source, k=3)

    def test_scoring_handle_over_binary_model(self, request, tmp_path):
        pipeline, held_out = _train(request, "javascript")
        json_path, bin_path = _save_both(pipeline, tmp_path)
        reference = Pipeline.load(json_path)
        handle = Pipeline.load(bin_path).scoring_handle()
        for source in held_out + [NOVEL["javascript"]]:
            assert handle.predict(source) == reference.predict(source)


class TestPackedModelSemantics:
    def test_mutation_raises(self, request, tmp_path):
        pipeline, _held_out = _train(request, "javascript")
        _json_path, bin_path = _save_both(pipeline, tmp_path)
        model = Pipeline.load(bin_path).learner.model
        with pytest.raises(PackedModelError, match="read-only"):
            model.add_pair((0, 0, 0), 1.0)
        with pytest.raises(PackedModelError):
            model.add_unary((0, 0), 1.0)
        with pytest.raises(PackedModelError):
            model.l2_decay(0.5)
        with pytest.raises(PackedModelError):
            model.observe_training_node(None, None)

    def test_binary_to_json_repack_is_identical(self, request, tmp_path):
        pipeline, held_out = _train(request, "javascript")
        json_path, bin_path = _save_both(pipeline, tmp_path)
        back = str(tmp_path / "back.json")
        info = pack_model(bin_path, back, format="json")
        assert info["source_format"] == "binary"
        reference = Pipeline.load(json_path)
        repacked = Pipeline.load(back)
        for source in held_out:
            assert repacked.predict(source) == reference.predict(source)

    def test_packed_weight_views_behave_like_dicts(self, request, tmp_path):
        pipeline, _held_out = _train(request, "javascript")
        _json_path, bin_path = _save_both(pipeline, tmp_path)
        reference = pipeline.learner.model
        packed = Pipeline.load(bin_path).learner.model
        assert len(packed.pair_weights) == len(reference.pair_weights)
        assert len(packed.unary_weights) == len(reference.unary_weights)
        assert dict(packed.pair_weights.items()) == dict(reference.pair_weights)
        assert dict(packed.unary_weights.items()) == dict(reference.unary_weights)
        some_key = next(iter(reference.pair_weights))
        assert some_key in packed.pair_weights
        assert packed.pair_weights[some_key] == reference.pair_weights[some_key]
        assert (10**6, 10**6, 10**6) not in packed.pair_weights
        assert packed.num_parameters() == reference.num_parameters()


class TestPruning:
    def test_pruned_model_stays_within_budget(self, request, tmp_path):
        corpus = request.getfixturevalue(CORPORA["javascript"])
        sources = [f.source for f in corpus]
        pipeline = Pipeline(language="javascript", training={"epochs": 2})
        pipeline.train(sources[:14])
        held_out = sources[14:]
        json_path = str(tmp_path / "model.json")
        pipeline.save(json_path)
        pruned_path = str(tmp_path / "pruned.bin")
        info = pack_model(json_path, pruned_path, prune_min_count=2)
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
        json_path = str(tmp_path / "model.json")
        pipeline.save(json_path)
        pruned_path = str(tmp_path / "pruned.bin")
        info = pack_model(json_path, pruned_path, prune_min_count=2)
        artifact = ModelArtifact.open(pruned_path)
        meta = artifact.meta
        assert meta["paths"] == info["prune"]["paths"]["after"]
        assert meta["values"] == info["prune"]["values"]["after"]
        # The dense re-pack keeps only referenced ids, so the pruned
        # vocab is never larger than the original.
        assert meta["paths"] <= info["prune"]["paths"]["before"]

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
        json_path = str(tmp_path / "w2v.json")
        pipeline.save(json_path)
        with pytest.raises(ValueError, match="relation ids"):
            pack_model(json_path, str(tmp_path / "w2v.bin"), prune_min_count=2)


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
        return _save_both(pipeline, tmp_path)

    def test_sniffing(self, saved):
        json_path, bin_path = saved
        assert sniff_format(json_path) == "json"
        assert sniff_format(bin_path) == "binary"
        assert is_model_artifact(bin_path)
        assert not is_model_artifact(json_path)
        assert not is_model_artifact(json_path + ".does-not-exist")

    def test_truncated_artifact_raises_structured_error(self, saved, tmp_path):
        _json_path, bin_path = saved
        data = open(bin_path, "rb").read()
        torn = str(tmp_path / "torn.bin")
        with open(torn, "wb") as handle:
            handle.write(data[: len(data) - 128])
        with pytest.raises(CorruptArtifactError, match="truncated"):
            Pipeline.load(torn)

    def test_flipped_header_byte_raises_on_open(self, saved, tmp_path):
        _json_path, bin_path = saved
        data = bytearray(open(bin_path, "rb").read())
        data[40] ^= 0xFF  # inside the JSON header
        bad = str(tmp_path / "bad-header.bin")
        open(bad, "wb").write(bytes(data))
        with pytest.raises(CorruptArtifactError):
            ModelArtifact.open(bad)

    def test_flipped_payload_byte_caught_by_verify(self, saved, tmp_path):
        _json_path, bin_path = saved
        data = bytearray(open(bin_path, "rb").read())
        data[-3] ^= 0xFF  # inside the last section
        bad = str(tmp_path / "bad-payload.bin")
        open(bad, "wb").write(bytes(data))
        artifact = ModelArtifact.open(bad)  # open is O(header): passes
        with pytest.raises(CorruptArtifactError, match="re-pack"):
            artifact.verify()

    def test_json_garbage_raises_structured_error(self, tmp_path):
        bad = str(tmp_path / "garbage.json")
        open(bad, "w").write('{"format": "pigeon-pipeline/2", "spe')
        with pytest.raises(CorruptArtifactError):
            Pipeline.load(bad)

    def test_artifact_info_both_formats(self, saved):
        json_path, bin_path = saved
        binfo = artifact_info(bin_path)
        assert binfo["kind"] == "binary"
        assert binfo["format"] == MODEL_FORMAT
        assert binfo["learner"] == "crf"
        assert any(s["name"] == "crf/weights" for s in binfo["sections"])
        jinfo = artifact_info(json_path)
        assert jinfo["kind"] == "json"
        assert jinfo["spec"]["language"] == "javascript"


class TestServingIntegration:
    def test_model_host_reports_load_info_for_both_formats(self, request, tmp_path):
        from repro.serving import ModelHost

        pipeline, held_out = _train(request, "javascript")
        json_path, bin_path = _save_both(pipeline, tmp_path)
        for path, expected_format in ((json_path, "json"), (bin_path, "binary")):
            host = ModelHost([path])
            cell = "javascript/variable_naming/ast-paths/crf"
            info = host.model_stats()[cell]
            assert info["format"] == expected_format
            assert info["path"] == path
            assert info["load_ms"] > 0
            handle = host.resolve("javascript", "variable_naming")
            assert handle.predict(held_out[0]) == pipeline.predict(held_out[0])

    def test_server_stats_expose_models_for_binary_artifact(self, request, tmp_path):
        from repro.serving import (
            ModelHost,
            PredictionServer,
            ServerThread,
            ServingClient,
        )

        pipeline, _held_out = _train(request, "javascript")
        _json_path, bin_path = _save_both(pipeline, tmp_path)
        host = ModelHost([bin_path])
        server = PredictionServer(host, port=0, batch_size=2, batch_wait_ms=1.0)
        with ServerThread(server) as url:
            with ServingClient(url) as client:
                client.predict(NOVEL["javascript"])
                stats = client.stats()
        cell = "javascript/variable_naming/ast-paths/crf"
        assert stats["models"][cell]["format"] == "binary"
        assert stats["models"][cell]["load_ms"] > 0

    def test_fleet_reload_accepts_binary_artifact(self, request, tmp_path):
        from repro.fleet.replicas import ReplicaSet

        pipeline, held_out = _train(request, "javascript")
        json_path, bin_path = _save_both(pipeline, tmp_path)
        fleet = ReplicaSet.in_process([json_path], count=1)
        fleet.start()
        try:
            fleet.wait_healthy(timeout_s=30.0)
            replica = next(iter(fleet))
            fleet.restart(replica.name, model_paths=[bin_path])
            fleet.wait_healthy(timeout_s=30.0)
            from repro.serving import ServingClient

            with ServingClient(replica.url) as client:
                response = client.predict(held_out[0])
                stats = client.stats()
            assert response["predictions"] == pipeline.predict(held_out[0])
            cell = "javascript/variable_naming/ast-paths/crf"
            assert stats["models"][cell]["format"] == "binary"
        finally:
            fleet.stop()


class TestCli:
    def test_train_format_binary_and_model_group(self, tmp_path, capsys):
        source = tmp_path / "a.js"
        source.write_text(FIG1_JS)
        model = str(tmp_path / "m.bin")
        assert (
            cli_main(
                [
                    "train",
                    "--model",
                    model,
                    "--format",
                    "binary",
                    "--language",
                    "javascript",
                    "--projects",
                    "2",
                    "--epochs",
                    "1",
                    str(source),
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == "binary"
        assert is_model_artifact(model)

        packed = str(tmp_path / "m.packed.bin")
        assert cli_main(["model", "pack", model, packed, "--prune-min-count", "2"]) == 0
        pack_report = json.loads(capsys.readouterr().out)
        assert pack_report["prune"]["min_rel_count"] == 2

        assert cli_main(["model", "info", packed, "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["kind"] == "binary"
        assert info["prune"]["min_rel_count"] == 2

        assert cli_main(["model", "verify", packed]) == 0
        assert "OK" in capsys.readouterr().out

    def test_model_verify_rejects_corrupt_file(self, tmp_path, capsys):
        source = tmp_path / "a.js"
        source.write_text(FIG1_JS)
        model = str(tmp_path / "m.bin")
        cli_main(
            [
                "train", "--model", model, "--format", "binary",
                "--language", "javascript", "--projects", "2", "--epochs", "1",
                str(source),
            ]
        )
        capsys.readouterr()
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
    pipeline.save(bin_path, format="binary")

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
