"""Fleet benchmark: 3 consistent-hash replicas vs one server, same cache.

Trains one small JS variable-naming model, builds a duplicated, shuffled
workload whose **unique working set is larger than a single server's
response cache**, then drives it twice from keep-alive client threads:

* once at a lone :class:`PredictionServer` (cache thrashes: every
  eviction turns a would-be hit back into a full predict);
* once at a 3-replica fleet behind :class:`FleetRouter`, where each
  replica keeps the *same* per-server cache but consistent hashing
  partitions the keyspace, so each replica's slice of the working set
  fits -- aggregate capacity grows with the fleet instead of being
  duplicated N times.

Everything runs in-process on loopback sockets (no worker processes),
which is exactly the regime of the 1-CPU CI smoke runner: the speedup
gate below must come from cache-capacity partitioning, not parallelism.

Measured and emitted as ``BENCH_fleet.json``: throughput and p50/p95
latency per tier, cache hit rates (single vs fleet-aggregate), the
router's per-replica routing spread, and failover/rejection counters.

Gates (this file runs in the CI smoke job):

* fleet responses are **bit-identical** to direct ``Pipeline.predict``;
* fleet throughput is at least **1.8x** the single server on the
  duplicated workload;
* cache-partition effectiveness: the fleet's aggregate hit rate is
  within 10 points of the single server's (in practice it is far above,
  because the partitions fit).
"""

import random
import threading
import time

from conftest import emit, emit_json, results_dir
from repro.api import Pipeline
from repro.corpus import deduplicate, generate_corpus
from repro.corpus.generator import CorpusConfig
from repro.fleet import FleetRouter, ReplicaSet
from repro.serving import ModelHost, PredictionServer, ServerThread, ServingClient

REPLICAS = 3
EPOCHS = 3
#: Response-cache capacity per server -- identical for the lone server
#: and for every replica; only the fleet's *aggregate* differs.
CACHE_PER_SERVER = 20
#: Unique working set: bigger than one cache, smaller than REPLICAS of them.
UNIQUE_SOURCES = 48
#: Every unique source appears this many times in the shuffled mix.
#: High enough that the fleet's compulsory first-touch misses wash out
#: (its partitions fit, so steady state is all hits) while the lone
#: server keeps thrashing at the same eviction-bound hit rate.
DUPLICATION = 10
CLIENT_THREADS = 6


def _train_model(tmp_dir):
    kept, _removed = deduplicate(
        generate_corpus(CorpusConfig(language="javascript", n_projects=6, seed=21))
    )
    sources = [f.source for f in kept]
    pipeline = Pipeline(language="javascript", training={"epochs": EPOCHS})
    pipeline.train(sources[:20])
    path = f"{tmp_dir}/fleet_model.bin"
    pipeline.save(path)
    return path, sources[20:]


#: Held-out files concatenated per workload entry.  Module-weight
#: requests keep a cache miss expensive relative to a hit now that the
#: compiled inference core scores file-sized programs in well under a
#: millisecond -- the gate below measures cache-capacity partitioning,
#: so the working set has to cost something to recompute.
FILES_PER_SOURCE = 3


def _unique_workload(held_out):
    """``UNIQUE_SOURCES`` structurally distinct programs of module weight.

    Held-out corpus files are cycled in overlapping windows of
    ``FILES_PER_SOURCE``, each padded with one unique tiny function so
    every entry has its own structural digest (and so its own cache key
    and ring position).
    """
    return [
        "\n\n".join(
            held_out[(i + offset) % len(held_out)]
            for offset in range(FILES_PER_SOURCE)
        )
        + f"\nfunction bfPad{i}(bfArg{i}) {{ return bfArg{i} + {i}; }}\n"
        for i in range(UNIQUE_SOURCES)
    ]


def _duplicated(unique):
    workload = unique * DUPLICATION
    random.Random(29).shuffle(workload)
    return workload


def _drive(url, workload, threads=CLIENT_THREADS):
    """Fire the workload from keep-alive client threads; return timings."""
    latencies = []
    responses = {}
    lock = threading.Lock()
    errors = []

    def worker(index):
        client = ServingClient(url)
        try:
            for position in range(index, len(workload), threads):
                source = workload[position]
                started = time.perf_counter()
                response = client.predict(source)
                elapsed = time.perf_counter() - started
                with lock:
                    latencies.append(elapsed)
                    responses[source] = response["predictions"]
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
        "cache_evictions": cache_stats["evictions"],
    }


def run_all():
    tmp_dir = results_dir()
    model_path, held_out = _train_model(tmp_dir)
    unique = _unique_workload(held_out)
    workload = _duplicated(unique)

    direct = Pipeline.load(model_path)
    direct_predictions = {source: direct.predict(source) for source in unique}

    # Tier 1: the lone server.  Its cache holds CACHE_PER_SERVER of the
    # UNIQUE_SOURCES-entry working set, so the shuffled duplicates keep
    # evicting entries they are about to need again.
    host = ModelHost([model_path])
    single_server = PredictionServer(
        host, port=0, batch_size=8, batch_wait_ms=2.0, cache_size=CACHE_PER_SERVER
    )
    with ServerThread(single_server) as url:
        wall_s, lat_s, responses_s = _drive(url, workload)
        single = _phase_report(wall_s, lat_s, single_server.cache.stats())

    # Tier 2: the fleet.  Same per-replica cache; the ring sends each
    # digest to one owner, so each replica caches only its own third.
    replicas = ReplicaSet.in_process(
        [model_path],
        REPLICAS,
        batch_size=8,
        batch_wait_ms=2.0,
        cache_size=CACHE_PER_SERVER,
    )
    replicas.start()
    try:
        router = FleetRouter(replicas, port=0)
        with ServerThread(router) as url:
            wall_f, lat_f, responses_f = _drive(url, workload)
            with ServingClient(url) as client:
                stats = client.fleet_stats()
        fleet = _phase_report(wall_f, lat_f, stats["merged"]["cache"])
        fleet["routed"] = stats["router"]["routed"]
        fleet["failovers"] = stats["router"]["failovers"]
        fleet["rejected"] = stats["router"]["rejected"]
    finally:
        replicas.stop()

    mismatched = sum(
        1
        for source, predictions in direct_predictions.items()
        if responses_s[source] != predictions or responses_f[source] != predictions
    )
    speedup = fleet["requests_per_second"] / single["requests_per_second"]
    hit_rate_delta = round(fleet["cache_hit_rate"] - single["cache_hit_rate"], 4)

    report = {
        "workload": {
            "unique_sources": len(unique),
            "duplicated_requests": len(workload),
            "duplication": DUPLICATION,
            "cache_per_server": CACHE_PER_SERVER,
            "replicas": REPLICAS,
            "client_threads": CLIENT_THREADS,
        },
        "single": single,
        "fleet": fleet,
        "speedup_fleet_vs_single": round(speedup, 2),
        "hit_rate_delta": hit_rate_delta,
        "mismatched_predictions": mismatched,
    }

    table = "\n".join(
        [
            f"Fleet: {REPLICAS} hash-partitioned replicas vs one server "
            f"(cache {CACHE_PER_SERVER}/server, {len(unique)} unique keys)",
            f"single  {single['requests']:>4} req {single['seconds']:>7.2f}s  "
            f"{single['requests_per_second']:>7.1f} req/s  "
            f"p50 {single['latency_p50_ms']:.1f}ms  "
            f"p95 {single['latency_p95_ms']:.1f}ms  "
            f"cache {single['cache_hit_rate']:.0%} "
            f"({single['cache_evictions']} evictions)",
            f"fleet   {fleet['requests']:>4} req {fleet['seconds']:>7.2f}s  "
            f"{fleet['requests_per_second']:>7.1f} req/s  "
            f"p50 {fleet['latency_p50_ms']:.1f}ms  "
            f"p95 {fleet['latency_p95_ms']:.1f}ms  "
            f"cache {fleet['cache_hit_rate']:.0%} "
            f"({fleet['cache_evictions']} evictions)",
            f"speedup fleet vs single: {speedup:.2f}x  "
            f"hit-rate delta: {hit_rate_delta:+.0%}  "
            f"failovers: {fleet['failovers']}",
        ]
    )
    return table, report


def test_fleet_throughput(benchmark):
    table, report = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit("fleet_throughput", table)
    emit_json("BENCH_fleet", report)

    # Gate 1: every routed answer is the direct path's answer, bit for bit.
    assert report["mismatched_predictions"] == 0, (
        "fleet or single-server responses diverged from direct Pipeline.predict"
    )
    # Gate 2: partitioned cache capacity must buy real throughput.
    assert report["speedup_fleet_vs_single"] >= 1.8, (
        f"fleet only {report['speedup_fleet_vs_single']}x the single server: "
        f"{report['fleet']}"
    )
    # Gate 3: partitioning the keyspace must not cost cache effectiveness.
    assert report["hit_rate_delta"] >= -0.10, (
        f"fleet aggregate hit rate fell {-report['hit_rate_delta']:.0%} below "
        f"the single server's"
    )
