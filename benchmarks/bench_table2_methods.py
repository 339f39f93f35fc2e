"""Table 2 (middle): method-name prediction.

Rows, as in the paper:

* JavaScript: no-paths 44.1 -> AST paths (12/4) 53.1
* Java:       ConvAttention (Allamanis et al.) 16.5 / F1 33.9
              -> AST paths (6/2) 47.3 / F1 49.9
* Python:     no-paths 41.6 -> AST paths (10/6) 51.1

The CRF rows are ``method_naming`` registry cells; the per-language path
limits come from the task plugin.
"""

from conftest import emit, spec
from repro.baselines.conv_attention import (
    ConvAttentionConfig,
    method_examples,
    train_conv_attention,
)
from repro.eval.harness import evaluate_spec
from repro.eval.metrics import AccuracyCounter, SubtokenF1Counter
from repro.eval.reports import format_table


def _cell(representation, data, name, with_f1=False):
    cell = spec(data, task="method_naming", representation=representation)
    return evaluate_spec(cell, data, name=name, with_f1=with_f1)


def eval_conv_attention(java_data):
    examples = []
    for _file, ast in java_data.train:
        examples.extend(method_examples(ast))
    model, _stats = train_conv_attention(
        examples, ConvAttentionConfig(embed_dim=32, epochs=6)
    )
    accuracy = AccuracyCounter()
    f1 = SubtokenF1Counter()
    for _file, ast in java_data.test:
        for tokens, gold in method_examples(ast):
            predicted = model.predict(tokens)
            accuracy.add(predicted, gold)
            f1.add(predicted, gold)
    return accuracy.as_percent(), 100.0 * f1.f1


def run_all(js_data, java_data, python_data, js_module_data):
    rows = []

    js_no_paths = _cell("no-paths", js_data, "js methods no-paths")
    js_paths = _cell("ast-paths", js_data, "js methods paths")
    rows.append(("JavaScript  no-paths", f"{js_no_paths.accuracy:.1f}%", "", "44.1%"))
    rows.append(("JavaScript  AST paths (12/4)", f"{js_paths.accuracy:.1f}%", "", "53.1%"))

    conv_acc, conv_f1 = eval_conv_attention(java_data)
    java_paths = _cell("ast-paths", java_data, "java methods paths", with_f1=True)
    rows.append(
        ("Java        ConvAttention", f"{conv_acc:.1f}%", f"F1 {conv_f1:.1f}", "16.5% / F1 33.9")
    )
    rows.append(
        (
            "Java        AST paths (6/2)",
            f"{java_paths.accuracy:.1f}%",
            f"F1 {java_paths.f1:.1f}",
            "47.3% / F1 49.9",
        )
    )

    js_paths_mod = _cell("ast-paths", js_module_data, "js methods paths (modules)")
    rows.append(
        ("JavaScript  AST paths, modules", f"{js_paths_mod.accuracy:.1f}%", "", "-")
    )

    py_no_paths = _cell("no-paths", python_data, "python methods no-paths")
    py_paths = _cell("ast-paths", python_data, "python methods paths")
    rows.append(("Python      no-paths", f"{py_no_paths.accuracy:.1f}%", "", "41.6%"))
    rows.append(("Python      AST paths (10/6)", f"{py_paths.accuracy:.1f}%", "", "51.1%"))

    return format_table(
        "Table 2 (middle): method name prediction",
        rows,
        ("Language / model", "Measured", "Subtokens", "Paper"),
    )


def test_table2_methods(benchmark, js_data, java_data, python_data, js_module_data):
    table = benchmark.pedantic(
        run_all, args=(js_data, java_data, python_data, js_module_data),
        rounds=1, iterations=1,
    )
    emit("table2_methods", table)
    assert "ConvAttention" in table
    assert "modules" in table
