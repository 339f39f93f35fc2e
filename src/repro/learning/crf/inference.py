"""MAP inference and top-k suggestion for the CRF.

MAP inference uses iterated conditional modes (ICM) over per-node
candidate beams: initialise every unknown node greedily from its known
neighbourhood, then sweep the nodes, moving each to its best label given
the current assignment, until a sweep changes nothing.  This is the same
family of greedy candidate-swap inference Nice2Predict uses.

``topk_for_node`` implements the paper's top-k extension (Sec. 5.1,
adopted into Nice2Predict): conditioned on the MAP assignment of the rest
of the graph, rank the candidate labels of one node.

Both run on a :class:`~repro.learning.crf.compiled.CompiledCrfModel`
(``CrfModel.compile()``): ids end-to-end (labels decode only at the
return boundary); one graph compile per call, which also merges every
node's known and unary candidate counts; per node and sweep, candidate
beams ranked from the compiled candidate table with only the edges
resolved (``CrfModel.candidate_ids_for``), and whole beams scored per
numpy call over only the node's *live* factors (those whose group holds
any weight; the rest add ``+0.0`` to every candidate, so dropping them
is exact).  Nodes whose neighbourhood has not changed since they were
last scored are skipped outright (their candidates and best label are
pure functions of the neighbour ids, so skipping is exact, not
approximate).  The trainer's loss-augmented inference and serving share
this one path.

The results are bit-identical -- tie-breaks included -- to the scalar
string-based sweep kept in ``tests/oracles/crf.py``;
``tests/test_crf_compiled.py`` holds that oracle suite.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .compiled import CompiledCrfModel
from .graph import CrfGraph

#: Label used to initialise nodes before the first sweep, and the
#: explicit fallback candidate when a node's beam comes back empty.
UNKNOWN_LABEL = "?"


def map_inference(
    compiled: CompiledCrfModel,
    graph: CrfGraph,
    max_sweeps: int = 8,
    beam: int = 48,
    loss_augmented: bool = False,
    gold: Optional[Sequence[str]] = None,
) -> List[str]:
    """Approximate MAP assignment for all unknown nodes of a graph.

    With ``loss_augmented=True`` (training only) a unit reward is added to
    every label different from the gold one, so the returned assignment is
    the margin violator required by structured max-margin updates.
    """
    if loss_augmented and gold is None:
        raise ValueError("loss-augmented inference requires the gold assignment")
    n = len(graph)
    if n == 0:
        return []
    model = compiled.model
    values = model.space.values
    cg = compiled.compile_graph(graph)
    cols = cg.cols

    # The id of the initialisation sentinel: the interned id when "?" is
    # a real (trained) label, else -1 -- which scores 0.0 and reads as
    # "unseen" to the candidate index, exactly like an unseen label string.
    unknown_id = values.id_of(UNKNOWN_LABEL)
    fill = unknown_id if unknown_id is not None else -1
    assignment = np.full(n, fill, dtype=np.int64)

    gold_ids: Optional[List[int]] = None
    if loss_augmented:
        assert gold is not None
        gold_ids = []
        for label in gold:
            gid = values.id_of(label)
            if gid is None:
                # Unseen gold: "?" must compare equal to the fallback
                # sentinel; any other unseen string can match no candidate.
                gid = fill if label == UNKNOWN_LABEL else -2
            gold_ids.append(gid)

    candidate_cache: List[List[int]] = [[] for _ in range(n)]
    # Last-scored neighbour snapshot per node; a node whose snapshot is
    # unchanged would merge identical candidates and pick the identical
    # best label, so the sweep skips it.
    last_key: List[Optional[Tuple[int, ...]]] = [None] * n
    edge_off = cg.edge_off
    edge_other = cols.edge_other

    def neighbor_key(i: int) -> Tuple[int, ...]:
        start, end = edge_off[i], edge_off[i + 1]
        if end == start:
            return ()
        return tuple(assignment[edge_other[start:end]].tolist())

    known_off, unary_off = cg.known_off, cg.unary_off
    order = sorted(
        range(n),
        key=lambda i: -(
            known_off[i + 1] - known_off[i] + unary_off[i + 1] - unary_off[i]
        ),
    )
    for i in order:
        candidates = model.candidate_ids_for(cg, i, assignment, beam=beam)
        candidate_cache[i] = candidates
        assignment[i] = _best_id(
            compiled, cg, i, candidates, assignment, loss_augmented, gold_ids, fill
        )
        last_key[i] = neighbor_key(i)

    for _ in range(max_sweeps):
        changed = False
        for i in range(n):
            key = neighbor_key(i)
            if key == last_key[i]:
                continue
            candidates = model.candidate_ids_for(cg, i, assignment, beam=beam)
            merged = list(dict.fromkeys(candidate_cache[i] + candidates))[:beam]
            candidate_cache[i] = merged
            best = _best_id(
                compiled, cg, i, merged, assignment, loss_augmented, gold_ids, fill
            )
            last_key[i] = key
            if best != assignment[i]:
                assignment[i] = best
                changed = True
        if not changed:
            break
    return [
        values.value(label_id) if label_id >= 0 else UNKNOWN_LABEL
        for label_id in assignment.tolist()
    ]


def _best_id(
    compiled: CompiledCrfModel,
    cg,
    index: int,
    candidate_ids: Sequence[int],
    assignment: np.ndarray,
    loss_augmented: bool,
    gold_ids: Optional[List[int]],
    fill: int,
) -> int:
    if not candidate_ids:
        # Explicit empty-beam fallback: score the unknown sentinel (an
        # unseen label scores exactly 0.0) rather than keeping whatever
        # the assignment happened to hold.
        candidate_ids = [fill]
    candidates = np.asarray(candidate_ids, dtype=np.int64)
    scores = compiled.score_candidates(cg, index, candidates, assignment)
    if loss_augmented:
        assert gold_ids is not None
        scores = scores + np.where(candidates != gold_ids[index], 1.0, 0.0)
    return int(candidates[int(np.argmax(scores))])


def topk_for_node(
    compiled: CompiledCrfModel,
    graph: CrfGraph,
    index: int,
    k: int = 8,
    assignment: Optional[Sequence[str]] = None,
    beam: int = 96,
    assignment_ids: Optional[np.ndarray] = None,
) -> List[Tuple[str, float]]:
    """Top-k candidate labels for one node, with their scores.

    The rest of the graph is fixed to ``assignment`` (computed by MAP
    inference when not provided).  This is the API the paper used for the
    qualitative study of Table 4a.  A caller ranking every node of one
    graph converts the assignment once, with :func:`label_ids`, and
    passes it as ``assignment_ids``.
    """
    model = compiled.model
    values = model.space.values
    if assignment_ids is None:
        if assignment is None:
            assignment = map_inference(compiled, graph)
        assignment_ids = label_ids(compiled, assignment)
    cg = compiled.compile_graph(graph)
    candidate_ids = model.candidate_ids_for(cg, index, assignment_ids, beam=beam)
    if not candidate_ids:
        return []
    candidates = np.asarray(candidate_ids, dtype=np.int64)
    scores = compiled.score_candidates(cg, index, candidates, assignment_ids)
    scored = [
        (values.value(label_id), score)
        for label_id, score in zip(candidate_ids, scores.tolist())
    ]
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored[:k]


def label_ids(compiled: CompiledCrfModel, assignment: Sequence[str]) -> np.ndarray:
    """An assignment's labels as value ids (``-1`` outside the vocab)."""
    values = compiled.model.space.values
    return np.fromiter(
        (
            -1 if (lid := values.id_of(label)) is None else lid
            for label in assignment
        ),
        dtype=np.int64,
        count=len(assignment),
    )
