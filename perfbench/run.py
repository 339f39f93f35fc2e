"""Run one benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload stdlib-train-predict --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one process each

Run it from the root of a checkout.  The program is imported from
``src/``; scratch files go to ``.perfbench/`` and are removed at the end,
except the span dump of a traced run.  Standard output is a table of
every metric with its unit and sample count, then, as the last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import the benchmark as a package from the checkout root (so none of its
# module names shadow another top-level module) and the program from src/.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

WORKLOAD_NAMES = ("stdlib-train-predict", "js-serve-suggest")
SCRATCH = ROOT / ".perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    from perfbench.workloads import WORKLOADS

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key, value in result.info.items():
        print(f"  {key:<24} {value}")
    if result.spans:
        dump = SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(dump, "w", encoding="utf-8") as handle:
            for span in result.spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")
        print(f"  {'span dump':<24} {dump.relative_to(ROOT)} ({len(result.spans)} spans)")
    print(f"  {'metric':<40} {'value':>14}  {'unit':<8} samples")
    for name, (value, unit) in result.metrics.items():
        count = result.samples.get(name, "")
        print(f"  {name:<40} {value:>14.6g}  {unit:<8} {count}")
    print(
        f"  {'failed_frac':<40} {result.failed / result.attempted:>14.6g}  "
        f"{'ratio':<8} {result.attempted}"
    )
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    summary = {}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode != 0 or not lines:
            status = completed.returncode or 1
            continue
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
