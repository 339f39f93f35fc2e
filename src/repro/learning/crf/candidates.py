"""The CRF's one candidate store: count columns from pass 0 to the artifact.

Nice2Predict keeps MAP inference tractable with a beam of candidate
names drawn from the contexts a node was seen in during training
(Sec. 5.1).  :class:`CandidateIndex` holds that evidence as three count
tables, each in CSR columns:

* ``cand_*``: pair contexts ``(rel, other)`` -- ``other`` is a known
  neighbour's value id or an unknown neighbour's gold label id;
* ``ucand_*``: unary contexts ``rel``;
* ``label_ids`` / ``label_freqs``: the global gold-label frequencies.

Contexts are listed in the order training first observed them, and each
context's labels and counts in ``most_common`` order: count descending,
ties broken by first observation.  Any prefix of a context's row is
therefore exactly what ``Counter.most_common(n)`` returns for the same
observations.

The column names are the artifact's section names (``crf/<name>``), and
the dtypes are the sections' dtypes.  The trainer builds the index once
(:meth:`CandidateIndex.observe`), the artifact codec writes its columns
as they are, and a loaded artifact's index is its mmapped sections.  The
index never changes after it is built;
:meth:`CandidateTables.freeze <repro.learning.crf.compiled.CandidateTables.freeze>`
turns it into the sorted tables the compiled engine ranks beams from.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, Tuple

import numpy as np

from .graph import ColumnarGraph, CrfGraph
from .weights import first_seen


def _gold_ids(graph: CrfGraph, cols: ColumnarGraph, values) -> np.ndarray:
    """Every node's gold label id.

    New labels intern in the order observation reads them: node after
    node, its own gold first, then each edge neighbour's.  This order is
    part of the value vocabulary, and so of the artifact.
    """
    n = cols.n_nodes
    nodes = np.arange(n, dtype=np.int64)
    reads = np.concatenate((nodes, cols.edge_other))
    owner = np.concatenate((nodes, np.repeat(nodes, np.diff(cols.edge_off))))
    reads = reads[np.argsort(owner, kind="stable")]
    first, _ = first_seen(reads)
    order = reads[first]
    unknowns = graph.unknowns
    ids = np.empty(n, dtype=np.int64)
    ids[order] = [values.intern(unknowns[i].gold) for i in order.tolist()]
    return ids


def _count_table(
    contexts: np.ndarray, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Count each ``(context, label)`` observation.

    Returns where each distinct context first occurs (in that order), the
    CSR offsets of its row, and the rows' labels and counts in
    ``most_common`` order.
    """
    first, context = first_seen(contexts)
    width = int(labels.max()) + 1 if len(labels) else 1
    entries, entry = first_seen(context * width + labels)
    counts = np.bincount(entry, minlength=len(entries))
    owner = context[entries]
    # Entries are numbered first-seen, so the last key breaks count ties
    # by first observation.
    order = np.lexsort((np.arange(len(entries)), -counts, owner))
    offsets = np.zeros(len(first) + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=len(first)), out=offsets[1:])
    return (
        first,
        offsets,
        labels[entries][order].astype(np.int32),
        counts[order].astype(np.int32),
    )


@dataclass(frozen=True, eq=False)
class CandidateIndex:
    """The candidate counts of one model, in the artifact's section layout.

    Context ``r`` of the pair table is ``cand_ctx[r]`` (a ``(rel,
    other)`` row) and its labels and counts are
    ``cand_labels[cand_off[r]:cand_off[r + 1]]`` / ``cand_counts[...]``;
    the unary table keys its rows by ``ucand_rel``.  ``label_ids`` /
    ``label_freqs`` list every gold label once, in ``most_common`` order.
    """

    cand_ctx: np.ndarray
    cand_off: np.ndarray
    cand_labels: np.ndarray
    cand_counts: np.ndarray
    ucand_rel: np.ndarray
    ucand_off: np.ndarray
    ucand_labels: np.ndarray
    ucand_counts: np.ndarray
    label_ids: np.ndarray
    label_freqs: np.ndarray

    @classmethod
    def observe(cls, graphs: Iterable[CrfGraph], values) -> "CandidateIndex":
        """Count the contexts of every gold-labelled node of ``graphs``.

        A node is observed with each of its known factors and each edge
        (whose context is the neighbour's gold label), in that order, and
        with each unary factor; nodes are observed graph after graph.
        ``values`` interns the gold labels (:func:`_gold_ids`).
        """
        empty = np.zeros(0, dtype=np.int64)
        pair, unary, gold = [(empty,) * 3], [(empty,) * 2], [empty]
        for graph in graphs:
            cols = graph.columnar()
            if not cols.n_nodes:
                continue
            labels = _gold_ids(graph, cols, values)
            nodes = np.arange(cols.n_nodes)
            # Owners ascend in both kinds, so a stable sort lists each
            # node's known contexts, then its edges'.
            owner = np.concatenate(
                (
                    np.repeat(nodes, np.diff(cols.known_off)),
                    np.repeat(nodes, np.diff(cols.edge_off)),
                )
            )
            order = np.argsort(owner, kind="stable")
            pair.append(
                (
                    np.concatenate((cols.known_rel, cols.edge_rel))[order],
                    np.concatenate((cols.known_label, labels[cols.edge_other]))[order],
                    labels[owner[order]],
                )
            )
            unary.append(
                (cols.unary_rel, labels[np.repeat(nodes, np.diff(cols.unary_off))])
            )
            gold.append(labels)
        rel, other, pair_labels = (np.concatenate(column) for column in zip(*pair))
        unary_rel, unary_labels = (np.concatenate(column) for column in zip(*unary))
        labels = np.concatenate(gold)

        width = int(other.max()) + 1 if len(other) else 1
        first, cand_off, cand_labels, cand_counts = _count_table(
            rel * width + other, pair_labels
        )
        ufirst, ucand_off, ucand_labels, ucand_counts = _count_table(unary_rel, unary_labels)
        _, _, label_ids, label_freqs = _count_table(np.zeros_like(labels), labels)
        return cls(
            np.stack((rel[first], other[first]), axis=1).astype(np.int32),
            cand_off,
            cand_labels,
            cand_counts,
            unary_rel[ufirst].astype(np.int32),
            ucand_off,
            ucand_labels,
            ucand_counts,
            label_ids,
            label_freqs,
        )

    @classmethod
    def empty(cls) -> "CandidateIndex":
        """The index of a model that observed nothing."""
        return cls.observe((), None)

    def columns(self) -> Dict[str, np.ndarray]:
        """Every column by section name, in section order."""
        return {field.name: getattr(self, field.name) for field in fields(self)}
