"""The candidate index as ``Counter`` objects: the reference for the columns.

:class:`~repro.learning.crf.candidates.CandidateIndex` counts a whole
training corpus in one numpy pass and stores the result as CSR columns
in ``most_common`` order; the artifact codec writes those columns as they
are, and pruning filters them with masks.  This module keeps the slow,
obvious spelling of each step, for the tests to hold the columns to:

* :func:`observe` -- pass 0 one gold node at a time into ``Counter`` objects,
  interning labels in the order the trainer must (node gold, then each
  edge neighbour's gold);
* :func:`most_common_order` and :func:`pack_counter_table` -- a counter
  table laid out as the artifact stores it;
* :func:`candidate_index` -- the test-only constructor: an index holding
  hand-written counters, for models built by hand;
* :func:`counters` -- any model's index read back into counters (what
  the scalar CRF oracle ranks candidates from);
* :func:`list_state` and :func:`prune_crf` -- a CRF ``state_dict`` in
  per-entry lists, and the list-based pruner over it.
"""

from __future__ import annotations

import weakref
from collections import Counter, defaultdict
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Tuple

import numpy as np

from repro.learning.crf.candidates import CandidateIndex
from repro.learning.crf.weights import UNARY_OTHER


class Counters(NamedTuple):
    """A candidate index as counters, contexts in first-observed order."""

    #: (rel_id, other_value_id) -> Counter of gold label ids.
    pair: Dict[Tuple[int, int], Counter]
    #: rel_id -> Counter of gold label ids.
    unary: Dict[int, Counter]
    #: Global gold label-id frequencies (the fallback candidates).
    labels: Counter


def observe(graphs: Iterable) -> Counters:
    """Count every gold node's contexts, one node and one context at a time."""
    pair: Dict[Tuple[int, int], Counter] = defaultdict(Counter)
    unary: Dict[int, Counter] = defaultdict(Counter)
    labels: Counter = Counter()
    for graph in graphs:
        values = graph.space.values
        cols = graph.columnar()
        for node in graph.unknowns:
            i = node.index
            gold = values.intern(node.gold)
            labels[gold] += 1
            ks, ke = cols.known_off[i], cols.known_off[i + 1]
            for context in zip(
                cols.known_rel[ks:ke].tolist(), cols.known_label[ks:ke].tolist()
            ):
                pair[context][gold] += 1
            es, ee = cols.edge_off[i], cols.edge_off[i + 1]
            for rel, other in zip(
                cols.edge_rel[es:ee].tolist(), cols.edge_other[es:ee].tolist()
            ):
                pair[(rel, values.intern(graph.unknowns[other].gold))][gold] += 1
            for rel in cols.unary_rel[cols.unary_off[i]:cols.unary_off[i + 1]].tolist():
                unary[rel][gold] += 1
    return Counters(dict(pair), dict(unary), labels)


def most_common_order(items: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Counter items re-ordered as ``most_common()`` would emit them.

    ``Counter.most_common`` is a stable descending sort over insertion
    order, so sorting the (insertion-ordered) items stably by ``-count``
    reproduces every ``most_common(n)`` prefix exactly.
    """
    return sorted(
        ((int(label), int(count)) for label, count in items),
        key=lambda pair: -pair[1],
    )


def pack_counter_table(counters: Iterable) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A table's ``offsets + (labels, counts)`` sections, one row per counter."""
    offsets = [0]
    labels: List[int] = []
    counts: List[int] = []
    for counter in counters:
        for label, count in most_common_order(counter.items()):
            labels.append(label)
            counts.append(count)
        offsets.append(len(labels))
    return (
        np.asarray(offsets, dtype=np.int64),
        np.asarray(labels, dtype=np.int32),
        np.asarray(counts, dtype=np.int32),
    )


def candidate_index(
    pair: Mapping[Tuple[int, int], Counter] = (),
    unary: Mapping[int, Counter] = (),
    labels: Mapping[int, int] = (),
) -> CandidateIndex:
    """The index holding these counters (contexts and entries in insertion order)."""
    pair, unary = dict(pair), dict(unary)
    cand_off, cand_labels, cand_counts = pack_counter_table(pair.values())
    ucand_off, ucand_labels, ucand_counts = pack_counter_table(unary.values())
    _, label_ids, label_freqs = pack_counter_table([Counter(dict(labels))])
    return CandidateIndex(
        np.asarray(list(pair), dtype=np.int32).reshape(len(pair), 2),
        cand_off,
        cand_labels,
        cand_counts,
        np.asarray(list(unary), dtype=np.int32),
        ucand_off,
        ucand_labels,
        ucand_counts,
        label_ids,
        label_freqs,
    )


def _rows(off: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> List[Counter]:
    return [
        Counter(dict(zip(labels[a:b].tolist(), counts[a:b].tolist())))
        for a, b in zip(off[:-1].tolist(), off[1:].tolist())
    ]


_COUNTERS: "weakref.WeakKeyDictionary[CandidateIndex, Counters]" = (
    weakref.WeakKeyDictionary()
)


def counters(model) -> Counters:
    """``model.candidates`` as counters, each in ``most_common`` order.

    A counter's ``most_common(n)`` is a stable sort of its items, so
    counters filled in stored order rank exactly like the ones training
    filled.  Cached per index (an index never changes).
    """
    index = model.candidates
    cached = _COUNTERS.get(index)
    if cached is None:
        contexts = map(tuple, index.cand_ctx.tolist())
        cached = Counters(
            dict(zip(contexts, _rows(index.cand_off, index.cand_labels, index.cand_counts))),
            dict(
                zip(
                    index.ucand_rel.tolist(),
                    _rows(index.ucand_off, index.ucand_labels, index.ucand_counts),
                )
            ),
            Counter(dict(zip(index.label_ids.tolist(), index.label_freqs.tolist()))),
        )
        _COUNTERS[index] = cached
    return cached


# ----------------------------------------------------------------------
# Pruning
# ----------------------------------------------------------------------
def list_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """A CRF ``state_dict`` as per-entry lists (rows in stored order)."""
    weights = [state["weights"][name].tolist() for name in ("label", "rel", "other", "value")]
    cand = state["candidates"]
    pair_counters = _rows(cand["cand_off"], cand["cand_labels"], cand["cand_counts"])
    unary_counters = _rows(cand["ucand_off"], cand["ucand_labels"], cand["ucand_counts"])
    return {
        "space": {key: list(value) for key, value in state["space"].items()},
        "pair_weights": [
            [l, r, o, w] for l, r, o, w in zip(*weights) if o != UNARY_OTHER
        ],
        "unary_weights": [[l, r, w] for l, r, o, w in zip(*weights) if o == UNARY_OTHER],
        "candidate_index": [
            [r, o, [list(item) for item in counter.items()]]
            for (r, o), counter in zip(cand["cand_ctx"].tolist(), pair_counters)
        ],
        "unary_candidate_index": [
            [r, [list(item) for item in counter.items()]]
            for r, counter in zip(cand["ucand_rel"].tolist(), unary_counters)
        ],
        "label_counts": [
            [l, c] for l, c in zip(cand["label_ids"].tolist(), cand["label_freqs"].tolist())
        ],
        "use_unary": state["use_unary"],
    }


def _remap(ids: Iterable[int], strings: List[str]) -> Tuple[Dict[int, int], List[str]]:
    """Dense old-id -> new-id map over ``ids``, ascending old-id order."""
    kept = sorted(set(int(i) for i in ids))
    return {old: new for new, old in enumerate(kept)}, [strings[old] for old in kept]


def prune_crf(
    model: Dict[str, Any], min_rel_count: int, budget: float
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The list-based pruner over a :func:`list_state`; returns ``(model, provenance)``."""
    space = model.get("space", {})
    old_paths: List[str] = list(space.get("paths", ()))
    old_values: List[str] = list(space.get("values", ()))

    rel_counts: Counter = Counter()
    for rel, _other, items in model.get("candidate_index", ()):
        rel_counts[int(rel)] += sum(int(count) for _label, count in items)
    for rel, items in model.get("unary_candidate_index", ()):
        rel_counts[int(rel)] += sum(int(count) for _label, count in items)
    kept_rels = {rel for rel, count in rel_counts.items() if count >= min_rel_count}

    pair = [
        entry for entry in model.get("pair_weights", ()) if int(entry[1]) in kept_rels
    ]
    unary = [
        entry for entry in model.get("unary_weights", ()) if int(entry[1]) in kept_rels
    ]
    cand = [
        entry
        for entry in model.get("candidate_index", ())
        if int(entry[0]) in kept_rels
    ]
    ucand = [
        entry
        for entry in model.get("unary_candidate_index", ())
        if int(entry[0]) in kept_rels
    ]
    label_counts = model.get("label_counts", ())

    used_paths: set = set()
    used_values: set = set()
    for label, rel, other, _weight in pair:
        used_paths.add(int(rel))
        used_values.add(int(label))
        used_values.add(int(other))
    for label, rel, _weight in unary:
        used_paths.add(int(rel))
        used_values.add(int(label))
    for rel, other, items in cand:
        used_paths.add(int(rel))
        used_values.add(int(other))
        used_values.update(int(label) for label, _count in items)
    for rel, items in ucand:
        used_paths.add(int(rel))
        used_values.update(int(label) for label, _count in items)
    # The global label frequencies survive pruning in full.
    used_values.update(int(label) for label, _count in label_counts)

    path_map, new_paths = _remap(used_paths, old_paths)
    value_map, new_values = _remap(used_values, old_values)

    pruned_model = {
        "space": {"paths": new_paths, "values": new_values},
        "pair_weights": [
            [value_map[int(l)], path_map[int(r)], value_map[int(o)], w]
            for l, r, o, w in pair
        ],
        "unary_weights": [
            [value_map[int(l)], path_map[int(r)], w] for l, r, w in unary
        ],
        "candidate_index": [
            [
                path_map[int(r)],
                value_map[int(o)],
                [[value_map[int(l)], int(c)] for l, c in items],
            ]
            for r, o, items in cand
        ],
        "unary_candidate_index": [
            [path_map[int(r)], [[value_map[int(l)], int(c)] for l, c in items]]
            for r, items in ucand
        ],
        "label_counts": [
            [value_map[int(l)], int(c)] for l, c in label_counts
        ],
        "use_unary": model.get("use_unary", True),
    }
    provenance = {
        "min_rel_count": int(min_rel_count),
        "accuracy_delta_budget": float(budget),
        "pair_weights": {
            "before": len(model.get("pair_weights", ())),
            "after": len(pair),
        },
        "unary_weights": {
            "before": len(model.get("unary_weights", ())),
            "after": len(unary),
        },
        "contexts": {
            "before": len(model.get("candidate_index", ()))
            + len(model.get("unary_candidate_index", ())),
            "after": len(cand) + len(ucand),
        },
        "paths": {"before": len(old_paths), "after": len(new_paths)},
        "values": {"before": len(old_values), "after": len(new_values)},
    }
    return pruned_model, provenance
