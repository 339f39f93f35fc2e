"""Offline model pruning: corpus-frequency floors + dense vocab re-pack.

Operates on the plain ``learner.state_dict()`` snapshot (never on live
models); :func:`repro.artifacts.pack_model` prunes a loaded artifact's
state and packs the result into a new artifact.

The floor is a **relation observation count**: a relation (abstract path
id) observed fewer than ``min_rel_count`` times across the training
corpus -- summed over its candidate-index entries, the model's record of
every training observation -- is dropped, along with every weight,
candidate entry and (for word2vec) context column keyed by it.  Rare
relations carry little evidence and most of the long tail of the weight
planes; dropping them shrinks artifacts far more than it moves accuracy.

After filtering, the vocabularies re-pack **densely**: only ids still
referenced survive, remapped in ascending old-id order (the same remap
discipline as ``shards/merge.py``).  Preserving relative order keeps
every retained string's position stable with respect to the others, so
candidate tie-breaks (ranked by label *string*) are unaffected by the
remap itself -- any accuracy delta comes from the dropped evidence, not
from id shuffling.

The declared ``accuracy_delta_budget`` (a fraction in [0, 1]) is
recorded in the returned provenance and thus in the artifact header;
``benchmarks/bench_artifacts.py`` measures the actual delta against it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default declared ceiling on the pruned model's accuracy drop
#: (absolute fraction of held-out predictions allowed to change for the
#: worse).  Recorded in the artifact header; benchmarks gate against it.
DEFAULT_ACCURACY_DELTA_BUDGET = 0.05


def _remap(ids: Sequence[int], strings: List[str]) -> Tuple[Dict[int, int], List[str]]:
    """Dense old-id -> new-id map over ``ids``, ascending old-id order."""
    kept = sorted(set(int(i) for i in ids))
    return {old: new for new, old in enumerate(kept)}, [strings[old] for old in kept]


def _prune_crf(
    state: Dict[str, Any], min_rel_count: int, budget: float
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    model = state["model"]
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
    # The global label frequencies survive pruning in full: they are the
    # candidate fallback for nodes whose every context was pruned away.
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
    return {"model": pruned_model}, provenance


def _prune_word2vec(
    state: Dict[str, Any], min_rel_count: int, budget: float
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    contexts = state["contexts"]
    if any(not isinstance(token, (list, tuple)) for token in contexts):
        raise ValueError(
            "pruning a word2vec model requires interned (rel, value) "
            "context pairs; string-token contexts carry no relation ids "
            "to threshold"
        )
    space = state.get("space")
    if space is None:
        raise ValueError(
            "pruning a word2vec model requires its feature space (the "
            "model was saved without one)"
        )
    context_counts = [int(count) for count in state["context_counts"]]

    rel_counts: Counter = Counter()
    for (rel, _value), count in zip(contexts, context_counts):
        rel_counts[int(rel)] += count
    kept_rows = [
        i
        for i, (rel, _value) in enumerate(contexts)
        if rel_counts[int(rel)] >= min_rel_count
    ]

    used_paths = {int(contexts[i][0]) for i in kept_rows}
    used_values = {int(contexts[i][1]) for i in kept_rows}
    old_paths = list(space.get("paths", ()))
    old_values = list(space.get("values", ()))
    path_map, new_paths = _remap(used_paths, old_paths)
    value_map, new_values = _remap(used_values, old_values)

    context_vectors = state["context_vectors"]
    pruned = dict(state)
    pruned["contexts"] = [
        [path_map[int(contexts[i][0])], value_map[int(contexts[i][1])]]
        for i in kept_rows
    ]
    pruned["context_counts"] = [context_counts[i] for i in kept_rows]
    pruned["context_vectors"] = [context_vectors[i] for i in kept_rows]
    pruned["space"] = {"paths": new_paths, "values": new_values}
    provenance = {
        "min_rel_count": int(min_rel_count),
        "accuracy_delta_budget": float(budget),
        "contexts": {"before": len(contexts), "after": len(kept_rows)},
        "paths": {"before": len(old_paths), "after": len(new_paths)},
        "values": {"before": len(old_values), "after": len(new_values)},
    }
    return pruned, provenance


_PRUNERS = {"crf": _prune_crf, "word2vec": _prune_word2vec}


def prune_state(
    learner: str,
    state: Dict[str, Any],
    min_rel_count: int,
    accuracy_delta_budget: Optional[float] = None,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Prune one learner state; returns ``(pruned_state, provenance)``.

    ``provenance`` records the floor, the declared accuracy-delta budget
    and before/after sizes; it rides in the artifact header so a loaded
    model knows how (and how much) it was pruned.
    """
    pruner = _PRUNERS.get(learner)
    if pruner is None:
        raise ValueError(f"pruning is not supported for learner {learner!r}")
    if min_rel_count < 1:
        raise ValueError("min_rel_count must be >= 1")
    budget = (
        DEFAULT_ACCURACY_DELTA_BUDGET
        if accuracy_delta_budget is None
        else float(accuracy_delta_budget)
    )
    if not (math.isfinite(budget) and 0.0 <= budget <= 1.0):
        raise ValueError(
            f"accuracy_delta_budget must be a fraction in [0, 1], got {budget}"
        )
    return pruner(state, int(min_rel_count), budget)
