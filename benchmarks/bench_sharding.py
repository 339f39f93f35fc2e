"""Sharding benchmark: bit-identical streamed training, bounded memory.

Exercises the ``repro.shards`` subsystem end to end and gates its two
contracts:

* **Equality** -- training a pipeline from a sharded corpus
  (``Pipeline.train(shards=...)``) must produce the *same model* as
  in-memory training over the same sources: identical serialized learner
  state, and bit-identical predictions on held-out programs.
* **Bounded memory** -- a full pass over a :class:`ShardedCorpus`
  (decoding every graph, the shape of a streamed training epoch) must
  allocate a near-constant peak however large the corpus grows, while
  the in-memory path's peak grows linearly.  Measured with
  ``tracemalloc`` around the pass, so the numbers are allocation-exact
  and hardware-independent.

Emits ``BENCH_sharding.json`` (tracked by ``compare_bench.py`` against
the committed baseline) and runs in the CI smoke job.
"""

import os
import tempfile
import tracemalloc

from conftest import emit, emit_json
from fixtures import states_equal
from repro.api import Pipeline, RunSpec
from repro.corpus import deduplicate, generate_corpus
from repro.corpus.generator import CorpusConfig
from repro.shards import ShardSet, ShardedCorpus, build_spec_shards

#: One cell, trained both ways.  Few epochs: equality is exact from the
#: first update, more epochs only cost CI time.
SPEC = {"language": "javascript", "training": {"epochs": 3}}

#: Files per shard; small enough that the small corpus already spans
#: several shards.
SHARD_SIZE = 8

#: Project counts of the two corpus sizes the memory gate compares.
SMALL_PROJECTS = 6
LARGE_PROJECTS = 18


def _sources(n_projects, seed=9):
    files = generate_corpus(
        CorpusConfig(language="javascript", n_projects=n_projects, seed=seed)
    )
    kept, _removed = deduplicate(files)
    return [f.source for f in kept]


def _in_memory_peak(sources):
    """Peak allocations while holding every training view (the old path)."""
    pipeline = Pipeline(RunSpec(**SPEC))
    tracemalloc.start()
    programs = [
        pipeline.parse(source, name=f"train:{i}") for i, source in enumerate(sources)
    ]
    views = [pipeline.view(program) for program in programs]
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(views) == len(sources)
    return peak


def _stream_peak(shard_dir):
    """Peak allocations of merge + one full shard pass.

    The vocab merge is measured too (it runs inside every
    ``Pipeline.train(shards=...)``), so a merge that materialised the
    corpus would blow this number up, not hide outside the window.
    """
    tracemalloc.start()
    corpus = ShardedCorpus(ShardSet.open(shard_dir))
    decoded = sum(1 for _view in corpus)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert decoded == len(corpus)
    return peak, corpus.resident_shards()


def _measure_size(sources, shard_dir):
    build = build_spec_shards(
        RunSpec(**SPEC), sources, shard_dir, shard_size=SHARD_SIZE
    )
    stream_peak, resident = _stream_peak(shard_dir)
    return {
        "files": len(sources),
        "shards": build.shards,
        "build_seconds": round(build.seconds, 4),
        "build_files_per_second": round(len(sources) / build.seconds, 1),
        "stream_peak_kb": round(stream_peak / 1024, 1),
        "in_memory_peak_kb": round(_in_memory_peak(sources) / 1024, 1),
        "resident_shards": resident,
    }


def _equality(sources, shard_dir, eval_sources):
    """Train both ways; count prediction mismatches (must be zero)."""
    in_memory = Pipeline(RunSpec(**SPEC))
    in_memory.train(sources)
    sharded = Pipeline(RunSpec(**SPEC))
    sharded.train(shards=shard_dir)

    state_identical = states_equal(
        in_memory.learner.state_dict(), sharded.learner.state_dict()
    )

    mismatches = 0
    predictions = 0
    for source in eval_sources:
        expected = in_memory.predict(source)
        actual = sharded.predict(source)
        predictions += len(expected)
        if expected != actual:
            mismatches += 1
    return {
        "state_identical": state_identical,
        "eval_files": len(eval_sources),
        "predictions": predictions,
        "mismatched_files": mismatches,
    }


def run_all():
    small_sources = _sources(SMALL_PROJECTS)
    large_sources = _sources(LARGE_PROJECTS)
    eval_sources = _sources(3, seed=31)

    with tempfile.TemporaryDirectory() as tmp:
        small_dir = os.path.join(tmp, "small")
        large_dir = os.path.join(tmp, "large")
        small = _measure_size(small_sources, small_dir)
        large = _measure_size(large_sources, large_dir)
        equality = _equality(small_sources, small_dir, eval_sources)

    corpus_factor = large["files"] / small["files"]
    stream_growth = large["stream_peak_kb"] / small["stream_peak_kb"]
    in_memory_growth = large["in_memory_peak_kb"] / small["in_memory_peak_kb"]
    report = {
        "small": small,
        "large": large,
        "equality": equality,
        "memory": {
            "corpus_factor": round(corpus_factor, 2),
            "stream_growth": round(stream_growth, 2),
            "in_memory_growth": round(in_memory_growth, 2),
            # Headroom the stream keeps over materialising the corpus;
            # grows with corpus size -- the headline bounded-memory metric.
            "stream_headroom": round(
                large["in_memory_peak_kb"] / large["stream_peak_kb"], 2
            ),
        },
    }

    table = "\n".join(
        [
            "Sharded corpus store: streamed vs in-memory training (JS corpus)",
            f"small  {small['files']:>4} files {small['shards']:>3} shards | "
            f"stream peak {small['stream_peak_kb']:>9.1f} KiB | "
            f"in-memory {small['in_memory_peak_kb']:>9.1f} KiB",
            f"large  {large['files']:>4} files {large['shards']:>3} shards | "
            f"stream peak {large['stream_peak_kb']:>9.1f} KiB | "
            f"in-memory {large['in_memory_peak_kb']:>9.1f} KiB",
            f"corpus x{corpus_factor:.1f} -> stream peak x{stream_growth:.2f}, "
            f"in-memory peak x{in_memory_growth:.2f} "
            f"(headroom {report['memory']['stream_headroom']:.1f}x)",
            f"equality: state_identical={equality['state_identical']} "
            f"mismatched_files={equality['mismatched_files']}"
            f"/{equality['eval_files']}",
        ]
    )
    return table, report


def test_sharding(benchmark):
    table, report = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit("sharding", table)
    emit_json("BENCH_sharding", report)

    # CI gate 1: sharded training is interchangeable with in-memory
    # training -- same serialized model, zero prediction mismatches.
    assert report["equality"]["state_identical"], "learner state diverged"
    assert report["equality"]["mismatched_files"] == 0, report["equality"]
    assert report["equality"]["predictions"] > 0

    # CI gate 2: bounded memory.  The corpus grows ~3x; one streamed
    # shard pass must not grow anywhere near with it (its residency is a
    # couple of shards), while the in-memory path tracks corpus size.
    memory = report["memory"]
    assert memory["corpus_factor"] >= 2.0, memory
    assert memory["stream_growth"] <= 1.8, (
        f"streamed shard-pass peak grew {memory['stream_growth']}x on a "
        f"{memory['corpus_factor']}x corpus -- residency is not bounded: {memory}"
    )
    assert memory["stream_headroom"] >= 1.5, memory
