"""Fig. 10: accuracy vs max_length and max_width (JS variable naming).

The paper sweeps max_length in 3..7 for max_width in {1,2,3} and plots
UnuglifyJS (60.0%) as the reference line.  The expected shape: accuracy
grows substantially with length (long paths are fundamental), grows
mildly with width, and AST paths dominate the hand-crafted features.
"""

from conftest import SWEEP_TRAINING, emit, evaluate_graphs
from repro.baselines import build_unuglify_graph
from repro.eval.harness import grid_search
from repro.eval.reports import format_grid


def run_all(js_data):
    results = grid_search(
        js_data,
        lengths=(3, 4, 5, 6, 7),
        widths=(1, 2, 3),
        training_config=SWEEP_TRAINING,
        on_validation=False,
    )
    unuglify = evaluate_graphs(
        js_data,
        lambda pipeline, f, a: build_unuglify_graph(a, f.path, space=pipeline.space),
        training=SWEEP_TRAINING,
        name="UnuglifyJS reference",
    )
    grid = format_grid(
        "Fig. 10: accuracy by (max_length, max_width), JS variable naming",
        results,
    )
    reference = (
        f"\nUnuglifyJS reference line: {unuglify.accuracy:.1f}% "
        f"(paper: 60.0%)"
    )
    return grid + reference, results, unuglify.accuracy


def test_fig10_length_width(benchmark, js_data):
    table, results, unuglify_accuracy = benchmark.pedantic(
        run_all, args=(js_data,), rounds=1, iterations=1
    )
    emit("fig10_length_width", table)
    # Fig. 10's headline shape: AST paths dominate the hand-crafted
    # UnuglifyJS features across the parameter grid.  (The paper's
    # secondary trend -- accuracy rising with max_length up to 7 -- is
    # corpus-scale dependent: per the bias-variance discussion of
    # Sec. 4.2, long sparse paths overfit small corpora, and our optimum
    # sits at length 3-4; see EXPERIMENTS.md.)
    best = max(r.accuracy for r in results)
    assert best > unuglify_accuracy
