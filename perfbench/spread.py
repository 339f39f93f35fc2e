"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload stdlib-train-predict --seeds 1-10 --seconds 40

For every metric it prints the median of the runs and the distance
between their first and third quartile as a share of that median, which
is how steadiness is judged against a metric's bound in BENCHMARK.json.
Runs go one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench.stats import quartile_spread  # noqa: E402


def seed_range(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args(argv)

    bounds = {
        m["name"]: m.get("bound")
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    values = {}
    for seed in args.seeds:
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(
            f"seed {seed}: {time.perf_counter() - started:.1f} s wall, "
            f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
            flush=True,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':<40} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        median = statistics.median(series)
        spread = quartile_spread(series) if len(series) >= 2 and median else float("nan")
        bound = bounds.get(name)
        print(f"{name:<40} {median:>12.6g} {spread:>8.3f} {bound if bound is not None else '':>6}")
        if args.verbose:
            print("    " + " ".join(f"{value:.4g}" for value in series))
    return 0


if __name__ == "__main__":
    sys.exit(main())
