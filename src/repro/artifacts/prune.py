"""Offline model pruning: corpus-frequency floors + dense vocab re-pack.

Operates on the ``learner.state_dict()`` snapshot (never on live
models): masks over its numpy columns filter the weights and candidate
rows, and ``np.unique`` / ``searchsorted`` renumber the ids that remain.
:func:`repro.artifacts.pack_model` prunes a loaded artifact's state and
packs the result into a new artifact.

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
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..learning.crf.weights import UNARY_OTHER

#: Default declared ceiling on the pruned model's accuracy drop
#: (absolute fraction of held-out predictions allowed to change for the
#: worse).  Recorded in the artifact header; benchmarks gate against it.
DEFAULT_ACCURACY_DELTA_BUDGET = 0.05


def _remap(used: List[np.ndarray], strings: List[str]) -> Tuple[np.ndarray, List[str]]:
    """The ids still used, ascending (the new id is the position), and their strings."""
    kept = np.unique(np.concatenate(used).astype(np.int64))
    return kept, [strings[old] for old in kept.tolist()]


def _observed(n_paths: int, *observations: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Every relation's summed count over ``(rels, counts)`` column pairs."""
    observed = np.zeros(n_paths, dtype=np.int64)
    for rels, counts in observations:
        np.add.at(observed, rels, counts)
    return observed


def _renumber(kept: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``ids`` (each one in ``kept``) as new dense ids, in their own dtype."""
    return np.searchsorted(kept, ids).astype(ids.dtype)


def _prune_rows(
    keep: np.ndarray, off: np.ndarray, *columns: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Keep the CSR rows where ``keep``; returns the new offsets and columns."""
    lengths = np.diff(off)[keep]
    entries = np.repeat(keep, np.diff(off))
    new_off = np.zeros(len(lengths) + 1, dtype=off.dtype)
    np.cumsum(lengths, out=new_off[1:])
    return (new_off,) + tuple(column[entries] for column in columns)


def _prune_crf(
    state: Dict[str, Any], min_rel_count: int, budget: float
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    space = state["space"]
    old_paths: List[str] = list(space.get("paths", ()))
    old_values: List[str] = list(space.get("values", ()))
    weights, cand = state["weights"], state["candidates"]
    pair_rel = cand["cand_ctx"][:, 0]
    unary_rel = cand["ucand_rel"]

    observed = _observed(
        len(old_paths),
        (np.repeat(pair_rel, np.diff(cand["cand_off"])), cand["cand_counts"]),
        (np.repeat(unary_rel, np.diff(cand["ucand_off"])), cand["ucand_counts"]),
    )
    kept_rels = observed >= min_rel_count

    keep = kept_rels[weights["rel"]]
    label, rel, other, value = (
        weights[name][keep] for name in ("label", "rel", "other", "value")
    )
    pair = other != UNARY_OTHER
    keep_pair, keep_unary = kept_rels[pair_rel], kept_rels[unary_rel]
    ctx = cand["cand_ctx"][keep_pair]
    cand_off, cand_labels, cand_counts = _prune_rows(
        keep_pair, cand["cand_off"], cand["cand_labels"], cand["cand_counts"]
    )
    ucand_rel = unary_rel[keep_unary]
    ucand_off, ucand_labels, ucand_counts = _prune_rows(
        keep_unary, cand["ucand_off"], cand["ucand_labels"], cand["ucand_counts"]
    )

    paths, new_paths = _remap([rel, ctx[:, 0], ucand_rel], old_paths)
    # The global label frequencies survive pruning in full: they are the
    # candidate fallback for nodes whose every context was pruned away.
    values, new_values = _remap(
        [label, other[pair], ctx[:, 1], cand_labels, ucand_labels, cand["label_ids"]],
        old_values,
    )
    pruned = {
        "space": {"paths": new_paths, "values": new_values},
        "use_unary": state["use_unary"],
        "weights": {
            "label": _renumber(values, label),
            "rel": _renumber(paths, rel),
            "other": np.where(pair, _renumber(values, other), other),
            "value": value,
        },
        "candidates": {
            "cand_ctx": np.stack(
                (_renumber(paths, ctx[:, 0]), _renumber(values, ctx[:, 1])), axis=1
            ),
            "cand_off": cand_off,
            "cand_labels": _renumber(values, cand_labels),
            "cand_counts": cand_counts,
            "ucand_rel": _renumber(paths, ucand_rel),
            "ucand_off": ucand_off,
            "ucand_labels": _renumber(values, ucand_labels),
            "ucand_counts": ucand_counts,
            "label_ids": _renumber(values, cand["label_ids"]),
            "label_freqs": cand["label_freqs"],
        },
    }
    n_pair = int(np.count_nonzero(weights["other"] != UNARY_OTHER))
    provenance = {
        "min_rel_count": int(min_rel_count),
        "accuracy_delta_budget": float(budget),
        "pair_weights": {"before": n_pair, "after": int(np.count_nonzero(pair))},
        "unary_weights": {
            "before": len(weights["other"]) - n_pair,
            "after": len(pair) - int(np.count_nonzero(pair)),
        },
        "contexts": {
            "before": len(pair_rel) + len(unary_rel),
            "after": len(ctx) + len(ucand_rel),
        },
        "paths": {"before": len(old_paths), "after": len(new_paths)},
        "values": {"before": len(old_values), "after": len(new_values)},
    }
    return pruned, provenance


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
    old_paths = list(space.get("paths", ()))
    old_values = list(space.get("values", ()))
    pairs = np.asarray(contexts, dtype=np.int64).reshape(len(contexts), 2)
    observed = _observed(len(old_paths), (pairs[:, 0], state["context_counts"]))
    kept_rows = np.flatnonzero(observed[pairs[:, 0]] >= min_rel_count)
    kept = pairs[kept_rows]
    paths, new_paths = _remap([kept[:, 0]], old_paths)
    values, new_values = _remap([kept[:, 1]], old_values)

    pruned = dict(state)
    pruned["contexts"] = list(
        zip(
            _renumber(paths, kept[:, 0]).tolist(),
            _renumber(values, kept[:, 1]).tolist(),
        )
    )
    pruned["context_counts"] = state["context_counts"][kept_rows]
    pruned["context_vectors"] = state["context_vectors"][kept_rows]
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
