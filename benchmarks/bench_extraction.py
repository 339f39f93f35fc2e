"""Extraction engine benchmark: single-pass vs the all-pairs reference.

The reference is the oracle in ``tests/oracles/extraction.py``: the
all-pairs extractor, and for graphs its per-path view builder.

Times the leafwise hot path and the end-to-end graph build under both
extractors on the synthetic JavaScript corpus, at two granularities:

* **file** -- the corpus files as generated (tens of terminals each);
* **module** -- each project's files concatenated (hundreds of
  terminals), where the all-pairs loop's quadratic term dominates.

Emits ``BENCH_extraction.json`` (into the gitignored results directory,
see ``conftest.results_dir``) with nodes/sec for both engines and the
speedup, and **fails if the single-pass engine is slower than the
reference** -- this file runs in the CI smoke job as the perf gate for
the extraction engine, and ``compare_bench.py`` tracks its numbers
against the committed baselines.
"""

import time
from collections import defaultdict

from conftest import emit, emit_json
from oracles import extraction as oracle
from oracles.extraction import ReferencePathExtractor
from repro.core.extraction import ExtractionConfig, PathExtractor
from repro.lang.base import parse_source
from repro.tasks.variable_naming import build_crf_graph


def _module_sources(data):
    """One concatenated source per project (module-sized units)."""
    projects = defaultdict(list)
    for file in data.split.train + data.split.validation + data.split.test:
        projects[file.path.split("/")[0]].append(file.source)
    return ["\n".join(sources) for sources in projects.values()]


def _time_extract(extractor_cls, asts, repeats=3):
    config = ExtractionConfig(max_length=7, max_width=3)
    best = float("inf")
    paths = 0
    for _ in range(repeats):
        extractor = extractor_cls(config)
        started = time.perf_counter()
        paths = sum(len(extractor.extract(ast)) for ast in asts)
        best = min(best, time.perf_counter() - started)
    return best, paths


def _time_graphs(extractor_cls, build, asts, repeats=3):
    config = ExtractionConfig(max_length=7, max_width=3)
    best = float("inf")
    for _ in range(repeats):
        extractor = extractor_cls(config)
        started = time.perf_counter()
        for ast in asts:
            build(ast, extractor)
        best = min(best, time.perf_counter() - started)
    return best


def run_all(js_data):
    granularities = {
        "file": [ast for _f, ast in js_data.train + js_data.validation + js_data.test],
        "module": [
            parse_source("javascript", source)
            for source in _module_sources(js_data)
        ],
    }

    report = {}
    rows = []
    for granularity, asts in granularities.items():
        nodes = sum(ast.size() for ast in asts)
        new_seconds, new_paths = _time_extract(PathExtractor, asts)
        old_seconds, old_paths = _time_extract(ReferencePathExtractor, asts)
        assert new_paths == old_paths, "engines disagree on the path set"
        graph_new = _time_graphs(PathExtractor, build_crf_graph, asts)
        graph_old = _time_graphs(ReferencePathExtractor, oracle.build_crf_graph, asts)
        report[granularity] = {
            "asts": len(asts),
            "nodes": nodes,
            "paths": new_paths,
            "extract_seconds_single_pass": round(new_seconds, 4),
            "extract_seconds_reference": round(old_seconds, 4),
            "extract_nodes_per_second_single_pass": round(nodes / new_seconds, 1),
            "extract_nodes_per_second_reference": round(nodes / old_seconds, 1),
            "extract_speedup": round(old_seconds / new_seconds, 2),
            "graph_seconds_single_pass": round(graph_new, 4),
            "graph_seconds_reference": round(graph_old, 4),
            "graph_speedup": round(graph_old / graph_new, 2),
        }
        rows.append(
            f"{granularity:<8} {len(asts):>4} ASTs {new_paths:>8} paths | "
            f"extract {old_seconds:.3f}s -> {new_seconds:.3f}s "
            f"({old_seconds / new_seconds:.2f}x) | "
            f"graphs {graph_old:.3f}s -> {graph_new:.3f}s "
            f"({graph_old / graph_new:.2f}x)"
        )

    table = "\n".join(
        ["Extraction engine: single-pass vs all-pairs reference (JS corpus)"]
        + rows
    )
    return table, report


def test_extraction_speed(benchmark, js_data):
    table, report = benchmark.pedantic(run_all, args=(js_data,), rounds=1, iterations=1)
    emit("extraction_engine", table)
    emit_json("BENCH_extraction", report)

    # CI gate: the single-pass engine must never be slower than the
    # reference, at either granularity.
    for granularity, stats in report.items():
        assert stats["extract_speedup"] >= 1.0, (
            f"single-pass extraction slower than the reference on the "
            f"{granularity} corpus: {stats}"
        )
    # On module-sized units the asymptotic gap must be visible.
    assert report["module"]["extract_speedup"] >= 2.0
