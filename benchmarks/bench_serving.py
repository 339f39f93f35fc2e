"""Serving benchmark: the async batched server vs one-at-a-time predict.

Trains one small model per task (JS variable naming, JS method naming,
Java type prediction), then drives a synthetic workload -- unique
sources plus a duplicated mix, across all three tasks -- at an
**in-process** server (no network beyond loopback, no worker processes),
from several keep-alive client threads.

Measured and emitted as ``BENCH_serving.json``:

* throughput (req/s) for the unique and the duplicated workload;
* p50/p95 request latency;
* response-cache hit rate and coalesced duplicate count;
* the sequential baseline: the same duplicated workload through direct
  ``Pipeline.predict`` calls, one at a time.

Gates (this file runs in the CI smoke job):

* server responses are **bit-identical** to direct ``Pipeline.predict``;
* duplicated-workload server throughput is at least **1.5x** the
  sequential baseline (micro-batching + the fingerprint cache must buy
  real speed, not just architecture).
"""

import random
import threading
import time

from conftest import emit, emit_json, results_dir
from repro.api import Pipeline
from repro.corpus import deduplicate, generate_corpus
from repro.corpus.generator import CorpusConfig
from repro.serving import ModelHost, PredictionServer, ServerThread, ServingClient

#: (task, language, corpus) per served model; corpora stay small so the
#: smoke job trains three models in seconds.
MODEL_CELLS = [
    ("variable_naming", "javascript", CorpusConfig(language="javascript", n_projects=5, seed=4)),
    ("method_naming", "javascript", CorpusConfig(language="javascript", n_projects=5, seed=14)),
    ("type_prediction", "java", CorpusConfig(language="java", n_projects=4, seed=2)),
]

EPOCHS = 3
#: Unique test sources drawn per task.
UNIQUE_PER_TASK = 8
#: Every unique source appears this many times in the duplicated mix.
DUPLICATION = 5
CLIENT_THREADS = 6


def _train_models(tmp_dir):
    """Train + save one pipeline per cell; return per-task metadata."""
    models = []
    for task, language, corpus in MODEL_CELLS:
        kept, _removed = deduplicate(generate_corpus(corpus))
        sources = [f.source for f in kept]
        split = max(1, len(sources) - UNIQUE_PER_TASK)
        train, test = sources[:split], sources[split:][:UNIQUE_PER_TASK]
        pipeline = Pipeline(language=language, task=task, training={"epochs": EPOCHS})
        pipeline.train(train)
        path = f"{tmp_dir}/serve_{language}_{task}.bin"
        pipeline.save(path)
        models.append({"task": task, "language": language, "path": path, "test": test})
    return models


def _workloads(models):
    """(unique, duplicated) lists of (task, language, source) requests."""
    unique = [
        (model["task"], model["language"], source)
        for model in models
        for source in model["test"]
    ]
    duplicated = unique * DUPLICATION
    random.Random(17).shuffle(duplicated)
    return unique, duplicated


def _drive(url, workload, threads=CLIENT_THREADS):
    """Fire a workload from keep-alive client threads; return timings."""
    latencies = []
    responses = {}
    lock = threading.Lock()
    errors = []

    def worker(index):
        client = ServingClient(url)
        try:
            for position in range(index, len(workload), threads):
                task, language, source = workload[position]
                started = time.perf_counter()
                response = client.predict(source, language=language, task=task)
                elapsed = time.perf_counter() - started
                with lock:
                    latencies.append(elapsed)
                    responses[(task, source)] = response["predictions"]
        except Exception as error:  # noqa: BLE001 - re-raised on the main thread
            with lock:
                errors.append(error)
        finally:
            client.close()

    pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    started = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return wall, latencies, responses


def _sequential_direct(models, workload):
    """The baseline: every request through Pipeline.predict, one at a time."""
    pipelines = {
        model["task"]: Pipeline.load(model["path"]) for model in models
    }
    predictions = {}
    started = time.perf_counter()
    for task, _language, source in workload:
        predictions[(task, source)] = pipelines[task].predict(source)
    return time.perf_counter() - started, predictions


def _percentile(values, fraction):
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(fraction * len(ranked)))]


def _phase_report(wall, latencies, cache_stats):
    return {
        "requests": len(latencies),
        "seconds": round(wall, 4),
        "requests_per_second": round(len(latencies) / wall, 1),
        "latency_p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
        "latency_p95_ms": round(_percentile(latencies, 0.95) * 1000, 3),
        "cache_hit_rate": cache_stats["hit_rate"],
        "cache_hits": cache_stats["hits"],
    }


def run_all():
    tmp_dir = results_dir()
    models = _train_models(tmp_dir)
    unique, duplicated = _workloads(models)
    host = ModelHost([model["path"] for model in models])

    sequential_seconds, direct_predictions = _sequential_direct(models, duplicated)

    # Fresh server (and therefore a cold cache) per phase, so the
    # duplicated phase's numbers are not subsidised by the unique phase.
    server_unique = PredictionServer(host, port=0, batch_size=8, batch_wait_ms=2.0)
    with ServerThread(server_unique) as url:
        wall_u, lat_u, _responses = _drive(url, unique)
        unique_report = _phase_report(wall_u, lat_u, server_unique.cache.stats())

    server_dup = PredictionServer(host, port=0, batch_size=8, batch_wait_ms=2.0)
    with ServerThread(server_dup) as url:
        wall_d, lat_d, responses = _drive(url, duplicated)
        dup_report = _phase_report(wall_d, lat_d, server_dup.cache.stats())
        dup_report["coalesced"] = server_dup.stats()["coalesced"]

    mismatched = sum(
        1
        for key, predictions in responses.items()
        if direct_predictions[key] != predictions
    )
    sequential_rps = len(duplicated) / sequential_seconds
    speedup = dup_report["requests_per_second"] / sequential_rps

    report = {
        "workload": {
            "unique_sources": len(unique),
            "duplicated_requests": len(duplicated),
            "duplication": DUPLICATION,
            "tasks": sorted({task for task, _lang, _src in unique}),
            "client_threads": CLIENT_THREADS,
        },
        "sequential": {
            "requests": len(duplicated),
            "seconds": round(sequential_seconds, 4),
            "requests_per_second": round(sequential_rps, 1),
        },
        "server_unique": unique_report,
        "server_duplicated": dup_report,
        "speedup_vs_sequential": round(speedup, 2),
        "mismatched_predictions": mismatched,
    }

    table = "\n".join(
        [
            "Serving: async batched server vs sequential Pipeline.predict",
            f"sequential     {len(duplicated):>4} req "
            f"{sequential_seconds:>7.2f}s  {sequential_rps:>7.1f} req/s",
            f"server unique  {unique_report['requests']:>4} req "
            f"{unique_report['seconds']:>7.2f}s  "
            f"{unique_report['requests_per_second']:>7.1f} req/s  "
            f"p50 {unique_report['latency_p50_ms']:.1f}ms  "
            f"p95 {unique_report['latency_p95_ms']:.1f}ms",
            f"server dup x{DUPLICATION}  {dup_report['requests']:>4} req "
            f"{dup_report['seconds']:>7.2f}s  "
            f"{dup_report['requests_per_second']:>7.1f} req/s  "
            f"p50 {dup_report['latency_p50_ms']:.1f}ms  "
            f"p95 {dup_report['latency_p95_ms']:.1f}ms  "
            f"cache {dup_report['cache_hit_rate']:.0%}",
            f"speedup vs sequential: {speedup:.2f}x",
        ]
    )
    return table, report


def test_serving_throughput(benchmark):
    table, report = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit("serving_throughput", table)
    emit_json("BENCH_serving", report)

    # Gate 1: the served predictions are the direct path's predictions.
    assert report["mismatched_predictions"] == 0, (
        "server responses diverged from direct Pipeline.predict"
    )
    # Gate 2: batching + caching must beat one-at-a-time predict on the
    # duplicated workload by a clear margin.
    assert report["speedup_vs_sequential"] >= 1.5, (
        f"server throughput only {report['speedup_vs_sequential']}x the "
        f"sequential baseline: {report['server_duplicated']}"
    )
