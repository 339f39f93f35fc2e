"""Table 2 (bottom): full-type prediction in Java.

Paper: naive ``java.lang.String`` baseline 24.1%; AST paths (4/1) 69.1%.
"""

from conftest import emit, spec
from repro.baselines.naive_type import NAIVE_TYPE
from repro.core.extraction import ExtractionConfig, PathExtractor
from repro.eval.harness import evaluate_prediction_map, evaluate_spec
from repro.eval.reports import format_table
from repro.tasks.type_prediction import build_type_graph

_GOLD_EXTRACTOR = PathExtractor(
    ExtractionConfig(max_length=1, max_width=0, include_semi_paths=False)
)


def _gold_types(ast):
    graph = build_type_graph(ast, _GOLD_EXTRACTOR)
    return {node.key: node.gold for node in graph.unknowns}


def run_all(java_data, java_module_data):
    naive = evaluate_prediction_map(
        java_data,
        lambda f, a: {key: NAIVE_TYPE for key in _gold_types(a)},
        _gold_types,
        name="naive String",
    )
    paths = evaluate_spec(
        spec(java_data, task="type_prediction"), java_data, name="type paths"
    )
    paths_mod = evaluate_spec(
        spec(java_module_data, task="type_prediction"), java_module_data,
        name="type paths (modules)",
    )
    rows = [
        ("naive java.lang.String", f"{naive.accuracy:.1f}%", "24.1%"),
        ("AST paths (4/1)", f"{paths.accuracy:.1f}%", "69.1%"),
        ("AST paths (4/1), modules", f"{paths_mod.accuracy:.1f}%", "-"),
    ]
    return format_table(
        "Table 2 (bottom): full type prediction, Java",
        rows,
        ("Model", "Measured", "Paper"),
    )


def test_table2_types(benchmark, java_data, java_module_data):
    table = benchmark.pedantic(
        run_all, args=(java_data, java_module_data), rounds=1, iterations=1
    )
    emit("table2_types", table)
    assert "java.lang.String" in table
    assert "modules" in table
