"""Formatting of results into the paper's tables and figure series."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .harness import ExperimentResult


def format_table(
    title: str,
    rows: Sequence[Tuple[str, ...]],
    headers: Sequence[str],
) -> str:
    """Plain-text table with aligned columns."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))

    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(cells))

    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    lines = [title, sep, fmt_row(headers), sep]
    lines.extend(fmt_row(row) for row in rows)
    lines.append(sep)
    return "\n".join(lines)


def accuracy_cell(result: Optional[ExperimentResult]) -> str:
    if result is None:
        return "-"
    return f"{result.accuracy:.1f}%"


def format_table2(
    sections: Sequence[Tuple[str, Sequence[Tuple[str, ExperimentResult]]]],
) -> str:
    """Table 2 layout: task sections, baseline vs AST-paths rows."""
    rows: List[Tuple[str, ...]] = []
    for section, entries in sections:
        rows.append((f"-- {section} --", "", ""))
        for label, result in entries:
            f1 = f"F1: {result.f1:.1f}" if result.f1 else ""
            rows.append((label, accuracy_cell(result), f1))
    return format_table(
        "Table 2: accuracy comparison (CRFs)",
        rows,
        ("Task / model", "Accuracy", ""),
    )


def format_series(
    title: str,
    results: Sequence[ExperimentResult],
    x_key: str,
    x_label: str,
) -> str:
    """A figure reported as a (x, accuracy, train-time) series."""
    rows = [
        (
            f"{r.extra.get(x_key, i):g}",
            f"{r.accuracy:.1f}%",
            f"{r.train_seconds:.1f}s",
            f"{r.n}",
        )
        for i, r in enumerate(results)
    ]
    return format_table(title, rows, (x_label, "Accuracy", "Train time", "n"))


def format_grid(
    title: str, results: Sequence[ExperimentResult]
) -> str:
    """Fig. 10 layout: accuracy by (max_length, max_width)."""
    lengths = sorted({int(r.extra["max_length"]) for r in results})
    widths = sorted({int(r.extra["max_width"]) for r in results})
    cell: Dict[Tuple[int, int], float] = {
        (int(r.extra["max_length"]), int(r.extra["max_width"])): r.accuracy
        for r in results
    }
    headers = ["max_width \\ max_length"] + [str(l) for l in lengths]
    rows = []
    for width in widths:
        row = [str(width)] + [
            f"{cell.get((length, width), float('nan')):.1f}%" for length in lengths
        ]
        rows.append(tuple(row))
    return format_table(title, rows, tuple(headers))


def format_comparison_rows(
    results: Sequence[Tuple[str, ExperimentResult]], title: str
) -> str:
    rows = [
        (label, accuracy_cell(result), f"{result.train_seconds:.1f}s", str(result.n))
        for label, result in results
    ]
    return format_table(title, rows, ("Model", "Accuracy", "Train time", "n"))
