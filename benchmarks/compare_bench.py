"""Benchmark trend gate: current ``BENCH_*.json`` vs committed baselines.

CI runs the benchmark suite, uploads every ``BENCH_*.json`` as a
workflow artifact, then runs this script.  For each baseline committed
under ``benchmarks/baselines/`` it loads the matching report from the
results directory and compares the **tracked metrics** (all
higher-is-better: nodes/sec, req/s, speedups, cache hit rate).  A
current value more than ``--tolerance`` (default 25%) below its baseline
fails the build -- that is the regression alarm for the hot paths.

Baselines are committed deliberately *below* healthy values (roughly
half of what a development machine measures for absolute rates) so
slower CI runners do not flake, while the relative metrics (speedups,
hit rate) sit close to their real floors, because they are
hardware-independent.  When a PR makes a hot path durably faster,
ratchet the baseline up in the same PR.

Usage::

    python benchmarks/compare_bench.py            # after running benchmarks
    python benchmarks/compare_bench.py --results DIR --tolerance 0.25
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BASELINES = os.path.join(HERE, "baselines")
DEFAULT_RESULTS = os.environ.get(
    "PIGEON_BENCH_RESULTS", os.path.join(HERE, "results")
)

#: Tracked metrics per report: dotted paths into the JSON, higher = better.
TRACKED: Dict[str, List[str]] = {
    "BENCH_extraction.json": [
        "file.extract_nodes_per_second_single_pass",
        "module.extract_nodes_per_second_single_pass",
        "module.extract_speedup",
        "module.graph_speedup",
    ],
    "BENCH_inference.json": [
        "file.map_nodes_per_second_compiled",
        "module.map_nodes_per_second_compiled",
        "module.map_speedup",
    ],
    "BENCH_serving.json": [
        "sequential.requests_per_second",
        "server_duplicated.requests_per_second",
        "server_duplicated.cache_hit_rate",
        "speedup_vs_sequential",
    ],
    "BENCH_sharding.json": [
        "large.build_files_per_second",
        "memory.stream_headroom",
    ],
    "BENCH_artifacts.json": [
        "size.pruned_vs_binary_ratio",
        "accuracy.pruned",
    ],
    "BENCH_fleet.json": [
        "single.requests_per_second",
        "fleet.requests_per_second",
        "fleet.cache_hit_rate",
        "speedup_fleet_vs_single",
    ],
    "BENCH_translate.json": [
        "roundtrip.java_to_python",
        "roundtrip.python_to_java",
        "naming.crf_named_rate",
        "serving.bit_identical",
    ],
}


def dig(payload: dict, dotted: str):
    value = payload
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def compare(
    baselines_dir: str, results_dir: str, tolerance: float
) -> int:
    if not os.path.isdir(baselines_dir):
        print(f"no baselines directory at {baselines_dir}", file=sys.stderr)
        return 2
    baseline_files = sorted(
        name for name in os.listdir(baselines_dir) if name.endswith(".json")
    )
    if not baseline_files:
        print(f"no *.json baselines in {baselines_dir}", file=sys.stderr)
        return 2

    failures = 0
    rows = []
    for name in baseline_files:
        with open(os.path.join(baselines_dir, name), "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        current_path = os.path.join(results_dir, name)
        if not os.path.exists(current_path):
            rows.append((name, "<report missing>", None, None, "FAIL"))
            failures += 1
            continue
        with open(current_path, "r", encoding="utf-8") as fh:
            current = json.load(fh)
        for dotted in TRACKED.get(name, []):
            base_value = dig(baseline, dotted)
            if base_value is None:
                continue  # metric not pinned by this baseline
            value = dig(current, dotted)
            if value is None:
                rows.append((name, dotted, base_value, None, "FAIL"))
                failures += 1
                continue
            floor = base_value * (1.0 - tolerance)
            ok = value >= floor
            if not ok:
                failures += 1
            rows.append((name, dotted, base_value, value, "ok" if ok else "FAIL"))

    width = max((len(r[1]) for r in rows), default=20)
    print(f"benchmark trend gate (tolerance -{tolerance:.0%} vs baseline)")
    for name, metric, base_value, value, status in rows:
        shown = "missing" if value is None else f"{value:>10}"
        base_shown = "" if base_value is None else f"baseline {base_value:>10}"
        delta = ""
        if isinstance(value, (int, float)) and isinstance(base_value, (int, float)) and base_value:
            delta = f"{(value / base_value - 1.0):+8.1%}"
        print(f"  {status:>4}  {name:<24} {metric:<{width}} {base_shown} current {shown} {delta}")
    if failures:
        print(
            f"{failures} tracked metric(s) regressed more than "
            f"{tolerance:.0%} below baseline",
            file=sys.stderr,
        )
        return 1
    print("all tracked metrics within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--baselines", default=DEFAULT_BASELINES)
    parser.add_argument(
        "--results",
        default=DEFAULT_RESULTS,
        help="where the benchmarks wrote BENCH_*.json "
        "(honours PIGEON_BENCH_RESULTS)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fraction below baseline before failing (default 0.25)",
    )
    args = parser.parse_args(argv)
    return compare(args.baselines, args.results, args.tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
