"""The scalar CRF engine: the bit-identity oracle for compiled inference.

Weights are resolved one dict lookup per ``(label, factor)`` pair,
candidates are merged one context at a time into a dict of counts, and
the ICM sweep runs on label strings -- deliberately simple, so the
vectorised :class:`~repro.learning.crf.compiled.CompiledCrfModel` path
in :mod:`repro.learning.crf.inference` can be checked against it
exactly: candidate lists, assignments, top-k scores, tie-breaks and
fallbacks, float-equal.

Every function takes the :class:`~repro.learning.crf.model.CrfModel`
(or a packed, memory-mapped one) as its first argument and reads only
its dict-style state: the weight mappings, the candidate counters
(``get(key).most_common(n)``), ``label_counts`` and the vocabulary.
Nothing here calls the compiled engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.learning.crf.graph import CrfGraph, UnknownNode
from repro.learning.crf.inference import UNKNOWN_LABEL
from repro.learning.crf.model import CrfModel


#: Labels one context proposes, and global fallback labels per beam.
PER_CONTEXT = 12
GLOBAL_FALLBACK = 8


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------
def node_score(
    model: CrfModel,
    node: UnknownNode,
    label: str,
    assignment: Sequence[str],
) -> float:
    """Score of ``label`` for one node given the current assignment."""
    values = model.space.values
    lid = values.id_of(label)
    if lid is None:
        return 0.0  # a label never seen in training matches no feature
    score = 0.0
    pair = model.pair_weights
    for factor in node.known:
        key = (lid, factor.rel, factor.label)
        if key in pair:
            score += pair[key]
    for edge in node.edges:
        other_id = values.id_of(assignment[edge.other])
        if other_id is None:
            continue
        key = (lid, edge.rel, other_id)
        if key in pair:
            score += pair[key]
    if model.use_unary:
        unary = model.unary_weights
        for rel in node.unary:
            key = (lid, rel)
            if key in unary:
                score += unary[key]
    return score


def assignment_score(
    model: CrfModel, graph: CrfGraph, assignment: Sequence[str]
) -> float:
    """Total (directionally double-counted, consistent) graph score."""
    return sum(
        node_score(model, node, assignment[i], assignment)
        for i, node in enumerate(graph.unknowns)
    )


def candidates_for(
    model: CrfModel,
    node: UnknownNode,
    assignment: Sequence[str],
    beam: int = 48,
) -> List[str]:
    """Candidate labels for one node given its neighbourhood.

    Every context of the node (each known factor, each edge whose
    neighbour's label the model knows, and with unary factors on each
    unary factor) adds the counts of its counter's ``most_common(12)``;
    the global ``most_common(8)`` labels join with their global counts
    unless a context proposed them; labels rank by ``(-count, label
    string)`` and the first ``beam`` are kept.
    """
    values = model.space.values
    counts: Dict[int, int] = {}

    def propose(counter) -> None:
        if counter:
            for label, count in counter.most_common(PER_CONTEXT):
                counts[int(label)] = counts.get(int(label), 0) + int(count)

    for factor in node.known:
        propose(model.candidate_index.get((factor.rel, factor.label)))
    for edge in node.edges:
        other = values.id_of(assignment[edge.other])
        if other is not None:
            propose(model.candidate_index.get((edge.rel, other)))
    if model.use_unary:
        for rel in node.unary:
            propose(model.unary_candidate_index.get(rel))
    for label, count in model.label_counts.most_common(GLOBAL_FALLBACK):
        counts.setdefault(int(label), int(count))
    ranked = sorted(counts, key=lambda label: (-counts[label], values.value(label)))
    return [values.value(label) for label in ranked[:beam]]


# ----------------------------------------------------------------------
# Inference
# ----------------------------------------------------------------------
def map_inference(
    model: CrfModel,
    graph: CrfGraph,
    max_sweeps: int = 8,
    beam: int = 48,
    loss_augmented: bool = False,
    gold: Optional[Sequence[str]] = None,
) -> List[str]:
    """Approximate MAP assignment for all unknown nodes of a graph."""
    if loss_augmented and gold is None:
        raise ValueError("loss-augmented inference requires the gold assignment")

    assignment: List[str] = [UNKNOWN_LABEL] * len(graph)
    candidate_cache: List[List[str]] = [[] for _ in range(len(graph))]

    # Greedy initialisation in order of decreasing known-degree, so highly
    # constrained nodes anchor their neighbours.
    order = sorted(
        range(len(graph)),
        key=lambda i: -(len(graph.unknowns[i].known) + len(graph.unknowns[i].unary)),
    )
    for i in order:
        node = graph.unknowns[i]
        candidates = candidates_for(model, node, assignment, beam=beam)
        candidate_cache[i] = candidates
        assignment[i] = _best_label(
            model, graph, i, candidates, assignment, loss_augmented, gold
        )

    # ICM sweeps.
    for _ in range(max_sweeps):
        changed = False
        for i in range(len(graph)):
            node = graph.unknowns[i]
            # Refresh candidates: neighbour labels may have changed.
            candidates = candidates_for(model, node, assignment, beam=beam)
            merged = list(dict.fromkeys(candidate_cache[i] + candidates))
            candidate_cache[i] = merged[:beam]
            best = _best_label(
                model, graph, i, candidate_cache[i], assignment, loss_augmented, gold
            )
            if best != assignment[i]:
                assignment[i] = best
                changed = True
        if not changed:
            break
    return assignment


def _best_label(
    model: CrfModel,
    graph: CrfGraph,
    index: int,
    candidates: Sequence[str],
    assignment: Sequence[str],
    loss_augmented: bool,
    gold: Optional[Sequence[str]],
) -> str:
    node = graph.unknowns[index]
    if not candidates:
        # Explicit empty-beam fallback: score the unknown sentinel (an
        # unseen label scores exactly 0.0) rather than keeping whatever
        # the assignment happened to hold.  Both engines share this rule.
        candidates = (UNKNOWN_LABEL,)
    best_label = candidates[0]
    best_score = float("-inf")
    for label in candidates:
        score = node_score(model, node, label, assignment)
        if loss_augmented and gold is not None and label != gold[index]:
            score += 1.0
        if score > best_score:
            best_score = score
            best_label = label
    return best_label


def topk_for_node(
    model: CrfModel,
    graph: CrfGraph,
    index: int,
    k: int = 8,
    assignment: Optional[Sequence[str]] = None,
    beam: int = 96,
) -> List[Tuple[str, float]]:
    """Top-k candidate labels for one node, with their scores."""
    if assignment is None:
        assignment = map_inference(model, graph)
    node = graph.unknowns[index]
    candidates = candidates_for(model, node, assignment, beam=beam)
    scored = [
        (label, node_score(model, node, label, assignment)) for label in candidates
    ]
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored[:k]
