"""Tests of the benchmark's own arithmetic, inputs and tracing.

    python -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs
from perfbench.spans import Span, Tracer, current_bindings, layer_metrics, self_times, targets
from perfbench.stats import MIN_TAIL_SAMPLES, percentile

ROOT = Path(__file__).resolve().parents[2]
MAIN = 1
SERVER = 2


def span(name, span_id, parent, start, end, thread=MAIN):
    return Span(name, span_id, parent, None, thread, start, end)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    # api.score [0, 100) holds build_graph [10, 60), which holds extract
    # [15, 45); map [60, 95) holds two score calls.
    spans = [
        span("api.score", 1, None, 0, 100),
        span("tasks.build_graph", 2, 1, 10, 60),
        span("core.extraction.extract", 3, 2, 15, 45),
        span("learning.crf.map", 4, 1, 60, 95),
        span("learning.crf.score", 5, 4, 62, 70),
        span("learning.crf.score", 6, 4, 75, 90),
    ]
    assert self_times(spans) == {1: 15, 2: 20, 3: 30, 4: 12, 5: 8, 6: 15}
    # The self times of one tree add up to its root's duration.
    assert sum(self_times(spans).values()) == 100

    metrics = layer_metrics(spans, {}, base_ns=125, caller_threads={MAIN})
    assert metrics["learning.crf.score.calls"] == 2
    assert metrics["learning.crf.score.self_ms"] == pytest.approx(23e-6)
    assert metrics["api.score.share"] == pytest.approx(15 / 125)
    assert metrics["learning.crf.topk.calls"] == 0
    assert metrics["trace.unaccounted_share"] == pytest.approx(25 / 125)


def test_served_time_splits_into_spans_and_serving_self():
    # Set-up on the caller's thread; two requests the clients timed at
    # 40 and 50 units, of which server-thread spans cover 30.
    spans = [
        span("artifacts.load", 1, None, 0, 10),
        span("lang.parse", 2, None, 20, 25, SERVER),
        span("api.score", 3, None, 30, 55, SERVER),
        span("learning.crf.map", 4, 3, 32, 50, SERVER),
    ]
    metrics = layer_metrics(
        spans, {}, base_ns=110, caller_threads={MAIN},
        client_latency_ns=90, client_requests=2,
    )
    assert metrics["serving.self.self_ms"] == pytest.approx(60e-6)
    assert metrics["serving.self.calls"] == 2
    accounted = sum(v for k, v in metrics.items() if k.endswith(".share"))
    assert accounted + metrics["trace.unaccounted_share"] == pytest.approx(1.0)
    assert metrics["trace.unaccounted_share"] == pytest.approx(10 / 110)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_tail_needs_ten_samples_above_it():
    values = list(range(1, 101))
    assert percentile(values, 0.9) == 90
    assert sum(v > 90 for v in values) == MIN_TAIL_SAMPLES
    assert percentile(values[:99], 0.9) is None
    assert percentile(list(range(1, 22)), 0.5) == 11
    assert percentile(list(range(1, 20)), 0.5) is None


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_seed_fixes_inputs():
    first = inputs.js_rounds(7, rounds=2, units_per_round=3, files_per_unit=2)
    again = inputs.js_rounds(7, rounds=2, units_per_round=3, files_per_unit=2)
    other = inputs.js_rounds(8, rounds=2, units_per_round=3, files_per_unit=2)
    sources = lambda rounds: [[u.source for u in units] for units in rounds]  # noqa: E731
    assert sources(first) == sources(again)
    assert sources(first) != sources(other)
    assert all(unit.gold for units in first for unit in units)
    # Every seed serves the same units, dealt differently.
    assert sorted(sum(sources(first), [])) == sorted(sum(sources(other), []))
    # Each serving of a round has its own order, fixed by the seed.
    order = inputs.send_order(7, 0, 1, units=4, duplication=3)
    assert order == inputs.send_order(7, 0, 1, units=4, duplication=3)
    assert order != inputs.send_order(8, 0, 1, units=4, duplication=3)
    assert order != inputs.send_order(7, 0, 2, units=4, duplication=3)
    assert sorted(order) == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]

    names = [f"m{i}" for i in range(20)]
    assert inputs.shuffled(names, 7, "pass0") == inputs.shuffled(names, 7, "pass0")
    assert inputs.shuffled(names, 7, "pass0") != inputs.shuffled(names, 8, "pass0")


def test_stdlib_split_is_stable_and_disjoint():
    corpus = inputs.load_stdlib()
    assert corpus.modules_used + len(corpus.modules_skipped) == len(inputs.STDLIB_MODULES)
    train = {u.name.split(".")[0] for u in corpus.train}
    held_out = {u.name.split(".")[0] for u in corpus.held_out}
    assert train and held_out and not train & held_out
    assert all(inputs.name_hash(m) % inputs.HELD_OUT_BUCKETS == 0 for m in held_out)
    assert all(u.gold and u.lines <= inputs.MAX_UNIT_LINES for u in corpus.held_out)


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def test_installed_wraps_and_always_restores():
    from repro.api import Pipeline

    before = current_bindings(targets())
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.installed():
            during = current_bindings(targets())
            assert all(a is not b for a, b in zip(during, before))
            Pipeline(language="javascript").parse("var a = 1;")
            raise KeyError("leave the block early")
    assert all(a is b for a, b in zip(current_bindings(targets()), before))
    assert [s.name for s in tracer.spans] == ["lang.parse"]


UNTRACED_RUN = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[1] + "/src"]
from perfbench import workloads
workloads.MIN_CYCLES, workloads.ROUNDS, workloads.UNITS_PER_ROUND = 1, 2, 10
workloads.FILES_PER_UNIT = 1
import repro.api, repro.serving
def is_function(value):
    return callable(value) or isinstance(value, (classmethod, staticmethod))
def bindings():
    # Every function of the program's modules and classes, by where it is bound.
    found = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("repro."):
            for attr, value in vars(module).items():
                if is_function(value):
                    found[(name, attr)] = value
                if isinstance(value, type):
                    for key, member in vars(value).items():
                        if is_function(member):
                            found[(name, attr, key)] = member
    return found
before = bindings()
result = workloads.js_serve_suggest(1, 0.0, False, Path(sys.argv[2]))
after = bindings()
print(json.dumps({
    "failed": result.failed,
    "tracer_imported": "perfbench.spans" in sys.modules,
    "changed": [repr(k) for k, v in before.items() if after.get(k) is not v],
}))
"""


def test_untraced_run_leaves_the_program_as_it_found_it(tmp_path):
    completed = subprocess.run(
        [sys.executable, "-c", UNTRACED_RUN, str(ROOT), str(tmp_path)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=300,
    )
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report == {"failed": 0, "tracer_imported": False, "changed": []}
