"""Ablation: unary factors (Sec. 5.1).

The paper's unary-factor extension to Nice2Predict -- paths between
occurrences of the same element become single-node factors -- "increases
accuracy by about 1.5%".  This benchmark trains the JS variable-naming
CRF with and without unary factors.
"""

from dataclasses import replace

from conftest import BENCH_TRAINING, emit, spec
from repro.eval.harness import evaluate_spec
from repro.eval.reports import format_comparison_rows


def run_all(js_data):
    with_unary = evaluate_spec(
        spec(js_data, replace(BENCH_TRAINING, use_unary=True)),
        js_data,
        name="with unary factors",
    )
    without_unary = evaluate_spec(
        spec(js_data, replace(BENCH_TRAINING, use_unary=False)),
        js_data,
        name="without unary factors",
    )
    table = format_comparison_rows(
        [
            ("with unary factors", with_unary),
            ("without unary factors", without_unary),
        ],
        "Ablation: unary factors (paper: +1.5% accuracy)",
    )
    return table, with_unary, without_unary


def test_ablation_unary(benchmark, js_data):
    table, with_unary, without_unary = benchmark.pedantic(
        run_all, args=(js_data,), rounds=1, iterations=1
    )
    emit("ablation_unary", table)
    assert with_unary.accuracy >= without_unary.accuracy - 2.0
