"""Artifact benchmark: the pigeon-model/1 artifact, unpruned and pruned.

Trains one JS variable-naming model on a mid-size corpus, saves it as a
``pigeon-model/1`` artifact, prunes that artifact
(``min_rel_count=2``), then measures what the artifact and pruning buy:

* **size**: bytes on disk of the unpruned and pruned artifacts, and the
  compression ratio pruning achieves;
* **load-to-first-prediction**: wall time from a cold ``Pipeline.load``
  to the first completed ``predict`` (median of several runs), for both
  artifacts (reported, not gated: the perfbench ``setup_s`` metric
  gates load cost end to end);
* **identity**: loaded-artifact predictions compared against the live
  trained pipeline across the held-out set;
* **accuracy**: held-out exact-match accuracy of the full vs the pruned
  model, against the budget recorded in the pruned artifact's header.

Emitted as ``BENCH_artifacts.json``; this file runs in the CI smoke job.

Gates:

* loaded-artifact predictions are **bit-identical** to the live
  pipeline (0 mismatches);
* the pruned artifact is at least **1.1x** smaller than the unpruned one
  (the committed baseline measures 1.21x);
* the pruned model's accuracy delta stays within the declared budget.
"""

import statistics
import time

from conftest import emit, emit_json, results_dir
from repro.api import Pipeline
from repro.artifacts import pack_model
from repro.corpus import deduplicate, generate_corpus
from repro.corpus.generator import CorpusConfig

CORPUS = CorpusConfig(language="javascript", n_projects=14, seed=11)
EPOCHS = 3
HELD_OUT = 10
PRUNE_MIN_COUNT = 2
LOAD_ROUNDS = 5


def _train(tmp_dir):
    kept, _removed = deduplicate(generate_corpus(CORPUS))
    sources = [f.source for f in kept]
    split = max(1, len(sources) - HELD_OUT)
    train, test = sources[:split], sources[split:]
    pipeline = Pipeline(
        language="javascript", task="variable_naming", training={"epochs": EPOCHS}
    )
    pipeline.train(train)
    binary_path = f"{tmp_dir}/artifact_model.bin"
    pruned_path = f"{tmp_dir}/artifact_model.pruned.bin"
    pipeline.save(binary_path)
    prune_info = pack_model(binary_path, pruned_path, prune_min_count=PRUNE_MIN_COUNT)
    return pipeline, test, binary_path, pruned_path, prune_info


def _load_to_first_prediction_ms(path, source, rounds=LOAD_ROUNDS):
    """Median cold-load-then-predict wall time over several rounds."""
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        pipeline = Pipeline.load(path)
        pipeline.predict(source)
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


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


def _file_bytes(path):
    import os

    return os.path.getsize(path)


def run_all():
    tmp_dir = results_dir()
    trained, test, binary_path, pruned_path, prune_info = _train(tmp_dir)

    binary_bytes = _file_bytes(binary_path)
    pruned_bytes = _file_bytes(pruned_path)

    from_binary = Pipeline.load(binary_path)
    mismatches = sum(
        1 for source in test if from_binary.predict(source) != trained.predict(source)
    )

    binary_ms = _load_to_first_prediction_ms(binary_path, test[0])
    pruned_ms = _load_to_first_prediction_ms(pruned_path, test[0])

    pruned = Pipeline.load(pruned_path)
    budget = pruned.artifact.prune["accuracy_delta_budget"]
    accuracy_full = _accuracy(trained, test)
    accuracy_pruned = _accuracy(pruned, test)
    delta = accuracy_full - accuracy_pruned

    report = {
        "model": {
            "language": "javascript",
            "task": "variable_naming",
            "train_files": CORPUS.n_projects,
            "epochs": EPOCHS,
            "held_out": len(test),
            "parameters": trained.learner.model.num_parameters(),
        },
        "size": {
            "binary_bytes": binary_bytes,
            "pruned_binary_bytes": pruned_bytes,
            "pruned_vs_binary_ratio": round(binary_bytes / pruned_bytes, 2),
        },
        "load": {
            "binary_ms": round(binary_ms, 2),
            "pruned_binary_ms": round(pruned_ms, 2),
        },
        "identity": {"held_out_sources": len(test), "mismatches": mismatches},
        "accuracy": {
            "full": round(accuracy_full, 4),
            "pruned": round(accuracy_pruned, 4),
            "delta": round(delta, 4),
            "budget": budget,
            "within_budget": delta <= budget,
        },
        "prune": prune_info["prune"],
    }

    table = "\n".join(
        [
            "Model artifacts: pigeon-model/1, unpruned vs pruned",
            f"size    binary {binary_bytes:>9,}B  pruned {pruned_bytes:>9,}B  "
            f"({report['size']['pruned_vs_binary_ratio']:.2f}x smaller)",
            f"load    binary {binary_ms:>8.1f}ms  pruned {pruned_ms:>8.1f}ms",
            f"parity  {mismatches} mismatched prediction(s) over {len(test)} held-out sources",
            f"prune   accuracy {accuracy_full:.3f} -> {accuracy_pruned:.3f} "
            f"(delta {delta:+.3f}, budget {budget})",
        ]
    )
    return table, report


def test_model_artifacts(benchmark):
    table, report = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit("model_artifacts", table)
    emit_json("BENCH_artifacts", report)

    # Gate 1: the loaded artifact is the live pipeline, bit for bit.
    assert report["identity"]["mismatches"] == 0, (
        "artifact-loaded predictions diverged from the live pipeline"
    )
    # Gate 2: pruning must genuinely shrink the artifact.
    assert report["size"]["pruned_vs_binary_ratio"] >= 1.1, (
        f"pruned artifact only {report['size']['pruned_vs_binary_ratio']}x "
        f"smaller than the unpruned one: {report['size']}"
    )
    # Gate 3: the pruned model honours its recorded accuracy budget.
    assert report["accuracy"]["within_budget"], (
        f"pruned accuracy delta {report['accuracy']['delta']} exceeds "
        f"budget {report['accuracy']['budget']}"
    )
