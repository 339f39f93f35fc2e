"""Ablation: internal-only vs internal+external method paths (Sec. 5.3.2).

For method naming the paper uses internal paths (from the method-name
leaf into the implementation) plus external paths from same-file
invocations, and observes that internal-only loses only about one
accuracy point.

Internal + external paths is the ``method_naming`` registry cell;
internal-only builds the same cell's graphs with ``use_external=False``
through the pipeline's extraction service.
"""

from conftest import emit, evaluate_graphs, spec
from repro.eval.harness import evaluate_spec
from repro.eval.reports import format_comparison_rows
from repro.tasks.method_naming import build_method_graph


def run_all(java_data):
    both = evaluate_spec(
        spec(java_data, task="method_naming"),
        java_data,
        name="internal + external paths",
    )
    internal_only = evaluate_graphs(
        java_data,
        lambda pipeline, f, a: build_method_graph(
            a, pipeline.service, f.path, use_external=False
        ),
        task="method_naming",
        name="internal paths only",
    )
    table = format_comparison_rows(
        [
            ("internal + external paths", both),
            ("internal paths only", internal_only),
        ],
        "Ablation: method-naming path sources (paper: internal-only ~1% lower)",
    )
    return table, both, internal_only


def test_ablation_method_paths(benchmark, java_data):
    table, both, internal_only = benchmark.pedantic(
        run_all, args=(java_data,), rounds=1, iterations=1
    )
    emit("ablation_method_paths", table)
    # Shape: removing external paths must not help much.
    assert internal_only.accuracy <= both.accuracy + 5.0
