"""Tests for the sharded corpus store (repro.shards).

Covers the subsystem's contracts: shard files round-trip bit-exactly and
fail loudly when corrupted or version-mismatched; parallel builds equal
sequential builds byte for byte; vocabulary merging is deterministic and
independent of the order shards are discovered in; and training from
shards is interchangeable with in-memory training -- same vocab, same
serialized model, same predictions.
"""

import json
import os

import pytest

from repro.api import Pipeline, RunSpec
from repro.core.extraction import ExtractionConfig
from repro.core.service import ExtractionService
from repro.corpus import deduplicate, generate_corpus
from repro.corpus.generator import CorpusConfig
from repro.shards import (
    ShardError,
    ShardFormatError,
    ShardIntegrityError,
    ShardMismatchError,
    ShardReader,
    ShardSet,
    ShardWriter,
    ShardedCorpus,
    VocabMerger,
    build_spec_shards,
    gather_shards,
    load_manifest,
    merge_shards,
    parse_partition,
    partition_plan,
    plan_shards,
    save_manifest,
)


def shard_names(directory):
    """The directory's shard files (the build journal rides alongside)."""
    return sorted(n for n in os.listdir(directory) if n.endswith(".shard.json"))


@pytest.fixture(scope="module")
def corpus_sources():
    kept, _removed = deduplicate(
        generate_corpus(CorpusConfig(language="javascript", n_projects=5, seed=8))
    )
    return [f.source for f in kept]


@pytest.fixture(scope="module")
def crf_spec():
    return RunSpec(language="javascript", training={"epochs": 2})


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory, crf_spec, corpus_sources):
    out = tmp_path_factory.mktemp("shards")
    build_spec_shards(crf_spec, corpus_sources, str(out), shard_size=6)
    return str(out)


class TestPlanShards:
    def test_covers_everything_contiguously(self):
        assert plan_shards(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert plan_shards(3, 10) == [(0, 3)]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ShardError, match="shard_size"):
            plan_shards(10, 0)
        with pytest.raises(ShardError, match="empty"):
            plan_shards(0, 4)


class TestShardFileFormat:
    def test_header_is_parsed_without_payload(self, shard_dir):
        path = shard_names(shard_dir)[0]
        reader = ShardReader(os.path.join(shard_dir, path))
        assert reader.kind == "graph"
        assert reader.shard_index == 0
        assert reader.files > 0
        assert not reader.loaded

    def test_verify_passes_on_intact_files(self, shard_dir):
        for name in shard_names(shard_dir):
            ShardReader(os.path.join(shard_dir, name)).verify()

    def test_corrupted_payload_raises_clear_error(self, shard_dir, tmp_path):
        source = os.path.join(shard_dir, shard_names(shard_dir)[0])
        target = tmp_path / "corrupt.shard.json"
        header, payload = open(source, "r", encoding="utf-8").read().split("\n", 1)
        # Flip one character inside the payload -- still valid JSON.
        target.write_text(header + "\n" + payload.replace('"records"', '"recordz"', 1))
        reader = ShardReader(str(target))
        with pytest.raises(ShardIntegrityError, match="truncated or corrupted"):
            reader.load()
        with pytest.raises(ShardIntegrityError):
            reader.verify()

    def test_tampered_header_meta_raises(self, shard_dir, tmp_path):
        # The digest covers the header meta too: inflating the file count
        # (or swapping shard indices) must fail like payload corruption.
        source = os.path.join(shard_dir, shard_names(shard_dir)[0])
        header, payload = open(source, "r", encoding="utf-8").read().split("\n", 1)
        doctored = json.loads(header)
        doctored["meta"]["files"] = 999
        target = tmp_path / "doctored.shard.json"
        target.write_text(json.dumps(doctored, separators=(",", ":")) + "\n" + payload)
        with pytest.raises(ShardIntegrityError):
            ShardReader(str(target)).verify()

    def test_truncated_payload_raises(self, shard_dir, tmp_path):
        source = os.path.join(shard_dir, shard_names(shard_dir)[0])
        data = open(source, "rb").read()
        target = tmp_path / "truncated.shard.json"
        target.write_bytes(data[: int(len(data) * 0.8)])
        with pytest.raises(ShardIntegrityError):
            ShardReader(str(target)).load()

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "future.shard.json"
        path.write_text(
            json.dumps({"format": "pigeon-shard/99", "digest": "", "meta": {}})
            + "\n{}\n"
        )
        with pytest.raises(ShardFormatError, match="pigeon-shard/99"):
            ShardReader(str(path))

    def test_non_shard_file_raises(self, tmp_path):
        path = tmp_path / "not-a-shard.json"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(ShardFormatError, match="no format tag"):
            ShardReader(str(path))
        garbage = tmp_path / "garbage.bin"
        garbage.write_bytes(b"\x00\x01\x02 not json")
        with pytest.raises(ShardFormatError, match="unparsable header"):
            ShardReader(str(garbage))

    def test_writer_rejects_unknown_kind(self, tmp_path):
        with pytest.raises(ShardFormatError, match="unknown shard kind"):
            ShardWriter(str(tmp_path / "x.shard.json"), {"kind": "nonsense"})


class TestShardSet:
    def test_open_directory_orders_by_index(self, shard_dir):
        shard_set = ShardSet.open(shard_dir)
        assert [r.shard_index for r in shard_set] == list(range(len(shard_set)))
        assert shard_set.files > 0

    def test_open_accepts_pathlib_paths(self, shard_dir):
        from pathlib import Path

        shard_set = ShardSet.open(Path(shard_dir))
        assert shard_set.files > 0
        listed = [Path(shard_dir) / name for name in shard_names(shard_dir)]
        assert ShardSet.open(listed).files == shard_set.files

    def test_shuffled_path_order_is_normalised(self, shard_dir):
        paths = [os.path.join(shard_dir, name) for name in shard_names(shard_dir)]
        shuffled = ShardSet.open(list(reversed(paths)))
        ordered = ShardSet.open(paths)
        assert [r.path for r in shuffled] == [r.path for r in ordered]

    def test_missing_shard_raises(self, shard_dir):
        paths = [os.path.join(shard_dir, name) for name in shard_names(shard_dir)]
        assert len(paths) >= 3
        with pytest.raises(ShardMismatchError, match="missing shards"):
            ShardSet([ShardReader(p) for p in (paths[0], paths[2])])

    def test_mixed_corpora_raise(self, shard_dir, corpus_sources, tmp_path):
        other = RunSpec(language="javascript", extraction={"max_length": 4})
        build_spec_shards(other, corpus_sources[:6], str(tmp_path), shard_size=6)
        mixed = [
            os.path.join(shard_dir, shard_names(shard_dir)[1]),
            os.path.join(str(tmp_path), shard_names(str(tmp_path))[0]),
        ]
        with pytest.raises(ShardMismatchError, match="disagrees"):
            ShardSet.open(mixed)

    def test_empty_set_raises(self, tmp_path):
        with pytest.raises(ShardError, match="no \\*.shard.json"):
            ShardSet.open(str(tmp_path))


class TestPartitionedBuild:
    def test_parse_partition(self):
        assert parse_partition("1/1") == (1, 1)
        assert parse_partition("2/4") == (2, 4)
        for bad in ("0/4", "5/4", "x/2", "3", "2/0", "-1/2", "2/-4", "/"):
            with pytest.raises(ShardError, match="partition"):
                parse_partition(bad)

    def test_partition_plan_is_complete_disjoint_and_balanced(self):
        slices = [partition_plan(10, (i, 3)) for i in (1, 2, 3)]
        covered = sorted(index for indices in slices for index in indices)
        assert covered == list(range(10))  # complete and disjoint
        sizes = [len(indices) for indices in slices]
        assert max(sizes) - min(sizes) <= 1  # round-robin balance

    def test_partitions_gather_byte_identical_to_full_build(
        self, crf_spec, corpus_sources, shard_dir, tmp_path
    ):
        partitions = []
        for index in (1, 2, 3):
            out = tmp_path / f"part{index}"
            result = build_spec_shards(
                crf_spec,
                corpus_sources,
                str(out),
                shard_size=6,
                partition=(index, 3),
            )
            assert result.partition == f"{index}/3"
            assert result.planned_shards == len(shard_names(shard_dir))
            assert result.summary()["partition"] == f"{index}/3"
            partitions.append(str(out))
        gathered = tmp_path / "gathered"
        summary = gather_shards(partitions, str(gathered))
        assert summary["partitions"] == 3
        full_names = shard_names(shard_dir)
        assert shard_names(str(gathered)) == full_names
        assert summary["shards"] == len(full_names)
        for name in full_names:
            with open(os.path.join(shard_dir, name), "rb") as full:
                with open(str(gathered / name), "rb") as part:
                    assert full.read() == part.read()

    def test_gather_rejects_overlapping_partitions(self, shard_dir, tmp_path):
        with pytest.raises(ShardError, match="disjoint"):
            gather_shards([shard_dir, shard_dir], str(tmp_path / "out"))

    def test_gather_detects_a_missing_partition(
        self, crf_spec, corpus_sources, tmp_path
    ):
        only = tmp_path / "part1"
        build_spec_shards(
            crf_spec, corpus_sources, str(only), shard_size=6, partition=(1, 2)
        )
        with pytest.raises(ShardMismatchError, match="missing shards"):
            gather_shards([str(only)], str(tmp_path / "out"))

    def test_gather_requires_existing_nonempty_partitions(self, tmp_path):
        with pytest.raises(ShardError, match="does not exist"):
            gather_shards([str(tmp_path / "nope")], str(tmp_path / "out"))
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ShardError, match="no shard files"):
            gather_shards([str(empty)], str(tmp_path / "out"))
        with pytest.raises(ShardError, match="at least one"):
            gather_shards([], str(tmp_path / "out"))

    def test_triples_build_supports_partitions(self, corpus_sources, tmp_path):
        service = ExtractionService(config=ExtractionConfig())
        full = tmp_path / "full"
        service.index_to_shards(corpus_sources[:8], "javascript", str(full), shard_size=3)
        parts = []
        for index in (1, 2):
            out = tmp_path / f"p{index}"
            service.index_to_shards(
                corpus_sources[:8],
                "javascript",
                str(out),
                shard_size=3,
                partition=(index, 2),
            )
            parts.append(str(out))
        gathered = tmp_path / "g"
        gather_shards(parts, str(gathered))
        for name in shard_names(str(full)):
            with open(str(full / name), "rb") as a, open(str(gathered / name), "rb") as b:
                assert a.read() == b.read()

    def test_gather_rejects_nonempty_output_directory(self, shard_dir, tmp_path):
        out = tmp_path / "occupied"
        out.mkdir()
        (out / "precious.txt").write_text("do not clobber")
        with pytest.raises(ShardError, match="not empty"):
            gather_shards([shard_dir], str(out))
        assert (out / "precious.txt").read_text() == "do not clobber"

    def test_failed_gather_leaves_no_output(
        self, crf_spec, corpus_sources, tmp_path
    ):
        only = tmp_path / "p1"
        build_spec_shards(
            crf_spec, corpus_sources, str(only), shard_size=6, partition=(1, 2)
        )
        out = tmp_path / "gathered"
        with pytest.raises(ShardMismatchError, match="missing shards"):
            gather_shards([str(only)], str(out))
        # Validation failed after staging: the staging directory was
        # removed and the output path never appeared -- a failed gather
        # is indistinguishable from one that never ran.
        assert not out.exists()
        assert not [n for n in os.listdir(tmp_path) if n.startswith(".gather-")]


class TestBuildResume:
    def test_resume_skips_verified_and_rebuilds_missing(
        self, crf_spec, corpus_sources, tmp_path
    ):
        out = str(tmp_path / "build")
        first = build_spec_shards(crf_spec, corpus_sources, out, shard_size=6)
        assert first.resumed is False
        originals = {
            name: open(os.path.join(out, name), "rb").read()
            for name in shard_names(out)
        }

        # Nothing to do: every shard verifies, every shard is skipped.
        complete = build_spec_shards(
            crf_spec, corpus_sources, out, shard_size=6, resume=True
        )
        assert complete.resumed is True
        assert complete.skipped == first.shards
        assert "skipped" in complete.summary()

        # Delete one shard (the crash-mid-build shape): resume rebuilds
        # exactly that shard, byte-identical, and skips the rest.
        victim = shard_names(out)[1]
        os.unlink(os.path.join(out, victim))
        repaired = build_spec_shards(
            crf_spec, corpus_sources, out, shard_size=6, resume=True
        )
        assert repaired.resumed is True
        assert repaired.skipped == first.shards - 1
        for name, body in originals.items():
            assert open(os.path.join(out, name), "rb").read() == body

    def test_resume_refuses_a_different_invocation(
        self, crf_spec, corpus_sources, tmp_path
    ):
        out = str(tmp_path / "build")
        build_spec_shards(crf_spec, corpus_sources, out, shard_size=6)
        with pytest.raises(ShardMismatchError, match="journal disagrees"):
            build_spec_shards(
                crf_spec, corpus_sources, out, shard_size=4, resume=True
            )
        with pytest.raises(ShardMismatchError, match="journal disagrees"):
            build_spec_shards(
                crf_spec, corpus_sources[:6], out, shard_size=6, resume=True
            )


class TestDeterministicBuild:
    def test_parallel_build_equals_sequential_bytes(
        self, crf_spec, corpus_sources, tmp_path
    ):
        sequential = tmp_path / "seq"
        parallel = tmp_path / "par"
        r1 = build_spec_shards(
            crf_spec, corpus_sources, str(sequential), shard_size=6, workers=1
        )
        r2 = build_spec_shards(
            crf_spec, corpus_sources, str(parallel), shard_size=6, workers=4
        )
        assert r1.shards == r2.shards > 1
        for a, b in zip(sorted(r1.paths), sorted(r2.paths)):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_merge_ignores_discovery_order(self, shard_dir):
        paths = [os.path.join(shard_dir, name) for name in shard_names(shard_dir)]
        forward = merge_shards(paths)
        backward = merge_shards(list(reversed(paths)))
        assert forward.space.to_dict() == backward.space.to_dict()
        assert [r.paths for r in forward.remaps] == [r.paths for r in backward.remaps]

    def test_merged_vocab_equals_sequential_interning(
        self, crf_spec, corpus_sources, shard_dir
    ):
        # The merged space must be exactly what one in-memory pass over
        # the same files interns, ids and order included.
        pipeline = Pipeline(crf_spec)
        for i, source in enumerate(corpus_sources):
            pipeline.view(pipeline.parse(source, name=f"train:{i}"))
        merged = merge_shards(shard_dir)
        assert merged.space.to_dict() == pipeline.space.to_dict()

    def test_manifest_round_trip(self, shard_dir, tmp_path):
        shard_set = ShardSet.open(shard_dir)
        merged = VocabMerger().merge(shard_set)
        manifest = tmp_path / "merged.json"
        save_manifest(str(manifest), shard_set, merged)
        restored = load_manifest(str(manifest))
        assert restored.space.to_dict() == merged.space.to_dict()
        assert [r.values for r in restored.remaps] == [
            r.values for r in merged.remaps
        ]
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"format": "something-else"}')
        with pytest.raises(ShardFormatError, match="not a merge manifest"):
            load_manifest(str(bogus))


class TestShardedCorpus:
    def test_views_match_in_memory_builds(self, crf_spec, corpus_sources, shard_dir):
        corpus = ShardedCorpus(ShardSet.open(shard_dir))
        pipeline = Pipeline(crf_spec)
        assert len(corpus) == len(corpus_sources)
        for i, source in enumerate(corpus_sources):
            expected = pipeline.view(pipeline.parse(source, name=f"train:{i}"))
            decoded = corpus[i]
            assert decoded.name == expected.name
            assert decoded.space is corpus.space
            assert [n.key for n in decoded.unknowns] == [
                n.key for n in expected.unknowns
            ]
            assert [n.gold for n in decoded.unknowns] == [
                n.gold for n in expected.unknowns
            ]
            for got, want in zip(decoded.unknowns, expected.unknowns):
                assert got.known == want.known
                assert got.edges == want.edges
                assert got.unary == want.unary

    def test_iteration_matches_random_access(self, shard_dir):
        corpus = ShardedCorpus(ShardSet.open(shard_dir))
        streamed = [g.name for g in corpus]
        assert streamed == [corpus[i].name for i in range(len(corpus))]
        assert corpus[-1].name == streamed[-1]
        with pytest.raises(IndexError):
            corpus[len(corpus)]

    def test_residency_is_bounded_by_the_lru(self, shard_dir):
        corpus = ShardedCorpus(ShardSet.open(shard_dir), cache_shards=1)
        assert len(corpus.shards) > 1
        for index in range(len(corpus)):  # touches every shard
            corpus[index]
        assert corpus.resident_shards() == 1
        for _view in corpus:
            assert corpus.resident_shards() <= 1

    def test_triples_kind_cannot_stream_views(self, corpus_sources, tmp_path):
        service = ExtractionService(config=ExtractionConfig())
        service.index_to_shards(
            corpus_sources[:4], "javascript", str(tmp_path), shard_size=2
        )
        corpus = ShardedCorpus(ShardSet.open(str(tmp_path)))
        # triples shards stream id-triples (not trainable views) ...
        triples = corpus[0]
        assert all(len(t) == 3 for t in triples)
        # ... and refuse to train.
        pipeline = Pipeline(RunSpec(language="javascript"))
        with pytest.raises(ShardMismatchError, match="carry no spec"):
            pipeline.train(shards=str(tmp_path))


class TestIndexToShards:
    def test_round_trips_index_sources_ids(self, corpus_sources, tmp_path):
        sources = corpus_sources[:6]
        reference = ExtractionService(config=ExtractionConfig())
        expected = reference.index_sources(sources, "javascript")

        service = ExtractionService(config=ExtractionConfig())
        result = service.index_to_shards(
            sources, "javascript", str(tmp_path), shard_size=2
        )
        assert result.shards == 3
        assert result.files == len(sources)

        corpus = ShardedCorpus(ShardSet.open(str(tmp_path)))
        # Merged global ids equal the one-process interning ids, so the
        # decoded triples match index_sources exactly, file by file.
        assert corpus.space.to_dict() == expected.space.to_dict()
        for i, contexts in enumerate(expected.contexts):
            assert corpus[i] == contexts


class TestTrainFromShards:
    def test_crf_training_is_bit_identical(
        self, crf_spec, corpus_sources, shard_dir
    ):
        in_memory = Pipeline(crf_spec)
        in_memory.train(corpus_sources)
        sharded = Pipeline(crf_spec)
        stats = sharded.train(shards=shard_dir)

        assert stats.files_trained == len(corpus_sources)
        assert stats.elements_trained == in_memory.stats.elements_trained
        assert sharded.space.to_dict() == in_memory.space.to_dict()
        assert json.dumps(sharded.learner.state_dict(), sort_keys=True) == json.dumps(
            in_memory.learner.state_dict(), sort_keys=True
        )
        novel = "function probe(alpha, beta) { return alpha + beta * 2; }"
        assert sharded.predict(novel) == in_memory.predict(novel)
        assert sharded.suggest(novel, k=3) == in_memory.suggest(novel, k=3)

    def test_word2vec_training_is_bit_identical(
        self, corpus_sources, tmp_path
    ):
        spec = RunSpec(
            language="javascript", learner="word2vec", sgns={"epochs": 3, "dim": 16}
        )
        build_spec_shards(spec, corpus_sources, str(tmp_path), shard_size=6)
        in_memory = Pipeline(spec)
        in_memory.train(corpus_sources)
        sharded = Pipeline(spec)
        sharded.train(shards=str(tmp_path))
        assert json.dumps(sharded.learner.state_dict(), sort_keys=True) == json.dumps(
            in_memory.learner.state_dict(), sort_keys=True
        )
        assert sharded.predict(corpus_sources[0]) == in_memory.predict(
            corpus_sources[0]
        )

    def test_manifest_reuse_skips_the_merge_bit_identically(
        self, crf_spec, corpus_sources, shard_dir, tmp_path
    ):
        shard_set = ShardSet.open(shard_dir)
        merged = VocabMerger().merge(shard_set)
        manifest = tmp_path / "merged.json"
        save_manifest(str(manifest), shard_set, merged)

        from_manifest = Pipeline(crf_spec)
        from_manifest.train(shards=shard_dir, merged=str(manifest))
        remerged = Pipeline(crf_spec)
        remerged.train(shards=shard_dir)
        assert json.dumps(
            from_manifest.learner.state_dict(), sort_keys=True
        ) == json.dumps(remerged.learner.state_dict(), sort_keys=True)

    def test_manifest_from_other_shards_is_rejected(
        self, crf_spec, corpus_sources, shard_dir, tmp_path
    ):
        # A manifest saved from a different build (here: fewer files, so
        # different digests) must not be replayed against this set.
        other_dir = tmp_path / "other"
        build_spec_shards(crf_spec, corpus_sources[:12], str(other_dir), shard_size=6)
        other_set = ShardSet.open(str(other_dir))
        manifest = tmp_path / "merged.json"
        save_manifest(str(manifest), other_set, VocabMerger().merge(other_set))
        pipeline = Pipeline(crf_spec)
        with pytest.raises(ShardMismatchError, match="different\\s+shards"):
            pipeline.train(shards=shard_dir, merged=str(manifest))

    def test_merged_without_shards_is_rejected(self, crf_spec):
        with pytest.raises(TypeError, match="merged= only applies"):
            Pipeline(crf_spec).train(["var a = 1;"], merged="merged.json")

    def test_saved_sharded_model_round_trips(
        self, crf_spec, corpus_sources, shard_dir, tmp_path
    ):
        sharded = Pipeline(crf_spec)
        sharded.train(shards=shard_dir)
        path = tmp_path / "model.bin"
        sharded.save(str(path))
        reloaded = Pipeline.load(str(path))
        novel = "function probe(alpha, beta) { return alpha + beta * 2; }"
        assert reloaded.predict(novel) == sharded.predict(novel)

    def test_train_requires_exactly_one_input(self, crf_spec, shard_dir):
        pipeline = Pipeline(crf_spec)
        with pytest.raises(TypeError, match="either sources or shards"):
            pipeline.train()
        with pytest.raises(TypeError, match="either sources or shards"):
            pipeline.train(["var a = 1;"], shards=shard_dir)

    def test_spec_mismatch_raises(self, shard_dir):
        wrong_task = Pipeline(RunSpec(language="javascript", task="method_naming"))
        with pytest.raises(ShardMismatchError, match="task"):
            wrong_task.train(shards=shard_dir)
        wrong_language = Pipeline(RunSpec(language="python"))
        with pytest.raises(ShardMismatchError, match="language"):
            wrong_language.train(shards=shard_dir)

    def test_extraction_mismatch_raises(self, corpus_sources, shard_dir):
        tweaked = Pipeline(
            RunSpec(language="javascript", extraction={"max_length": 4})
        )
        with pytest.raises(ShardMismatchError, match="extraction"):
            tweaked.train(shards=shard_dir)
