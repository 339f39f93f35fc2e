"""Table 2 (top): variable-name prediction accuracy with CRFs.

Rows per language, exactly as in the paper:

* JavaScript: no-paths / UnuglifyJS-style features / AST paths (7/3)
* Java:       rule-based / CRFs + 4-grams / AST paths (6/3)
* Python:     no-paths / AST paths (7/4)
* C#:         AST paths (7/4)

Paper reference numbers: JS 24.9 / 60.0 / 67.3; Java 23.7 / 50.1 / 58.2;
Python 35.2 / 56.7; C# 56.1.

The representation rows (no-paths vs AST paths) run as registry cells
through :func:`repro.eval.harness.evaluate_spec` -- the tuned per-cell
path parameters come from the task plugin, not from this file.  The
UnuglifyJS-features and n-gram rows are feature ablations the paper
implements as bespoke graph builders, not representations of the plugin
API: they build their graphs in a pipeline's space and are scored by the
same :func:`repro.eval.harness.evaluate_views` core.
"""

from conftest import emit, evaluate_graphs, spec
from repro.baselines import (
    build_ngram_graph,
    build_unuglify_graph,
    rule_based_predictions,
)
from repro.eval.harness import evaluate_prediction_map, evaluate_spec
from repro.eval.reports import format_table
from repro.tasks.variable_naming import element_groups


def _cell(representation, data, name):
    return evaluate_spec(spec(data, representation=representation), data, name=name)


def _gold_variables(ast):
    return {b: occ[0].value or "" for b, occ in element_groups(ast).items()}


def run_all(js_data, java_data, python_data, csharp_data, js_module_data):
    rows = []

    # --- JavaScript ---------------------------------------------------
    no_paths = _cell("no-paths", js_data, "js no-paths")
    unuglify = evaluate_graphs(
        js_data,
        lambda pipeline, f, a: build_unuglify_graph(a, f.path, space=pipeline.space),
        name="js unuglify",
    )
    paths_js = _cell("ast-paths", js_data, "js paths")
    rows.append(("JavaScript  no-paths", f"{no_paths.accuracy:.1f}%", "24.9%"))
    rows.append(("JavaScript  UnuglifyJS feats", f"{unuglify.accuracy:.1f}%", "60.0%"))
    rows.append(("JavaScript  AST paths (7/3)", f"{paths_js.accuracy:.1f}%", "67.3%"))

    # --- Java -----------------------------------------------------------
    rule = evaluate_prediction_map(
        java_data, lambda f, a: rule_based_predictions(a), _gold_variables,
        name="java rule-based",
    )
    # n is tuned on the validation set, as in the paper (they chose
    # n = 4 for their corpus; ours peaks at n = 6).
    ngram = evaluate_graphs(
        java_data,
        lambda pipeline, f, a: build_ngram_graph(
            f.source, a, "java", 6, f.path, space=pipeline.space
        ),
        name="java ngram",
    )
    paths_java = _cell("ast-paths", java_data, "java paths")
    rows.append(("Java        rule-based", f"{rule.accuracy:.1f}%", "23.7%"))
    rows.append(("Java        CRFs + n-grams", f"{ngram.accuracy:.1f}%", "50.1%"))
    rows.append(("Java        AST paths (6/3)", f"{paths_java.accuracy:.1f}%", "58.2%"))

    # --- Python ---------------------------------------------------------
    no_paths_py = _cell("no-paths", python_data, "python no-paths")
    paths_py = _cell("ast-paths", python_data, "python paths")
    rows.append(("Python      no-paths", f"{no_paths_py.accuracy:.1f}%", "35.2%"))
    rows.append(("Python      AST paths (7/4)", f"{paths_py.accuracy:.1f}%", "56.7%"))

    # --- C# --------------------------------------------------------------
    paths_cs = _cell("ast-paths", csharp_data, "csharp paths")
    rows.append(("C#          AST paths (7/4)", f"{paths_cs.accuracy:.1f}%", "56.1%"))

    # --- Module-sized units ----------------------------------------------
    # The same headline cell at the granularity of the paper's real files
    # (each project's files concatenated; hundreds of terminals per unit).
    paths_js_mod = _cell("ast-paths", js_module_data, "js paths (modules)")
    rows.append(
        ("JavaScript  AST paths, modules", f"{paths_js_mod.accuracy:.1f}%", "-")
    )

    return format_table(
        "Table 2 (top): variable name prediction with CRFs",
        rows,
        ("Language / model", "Measured", "Paper"),
    )


def test_table2_variables(
    benchmark, js_data, java_data, python_data, csharp_data, js_module_data
):
    table = benchmark.pedantic(
        run_all, args=(js_data, java_data, python_data, csharp_data, js_module_data),
        rounds=1, iterations=1,
    )
    emit("table2_variables", table)
    assert "AST paths" in table
    assert "modules" in table
