"""Max-margin training for the CRF (structured perceptron with margin).

For every training graph we run loss-augmented MAP inference under the
current weights and take a subgradient step on the structured hinge loss:
features of the gold assignment are rewarded, features of the margin
violator penalised.  Averaged weights (the usual polyak-style trick,
implemented with lazy timestamps) give the stability of an SVM at
perceptron cost -- appropriate here because the paper treats the learning
engine as an off-the-shelf component and varies only the representation.

The weights, and the lazy averages while training, live in the model's
one :class:`~repro.learning.crf.weights.WeightPlane`.  Each update is one
batch of ``+1`` (gold) and ``-1`` (violator) deltas, listed in the order
a key-by-key update would apply them, so batching changes no bit; the
compiled scorer reads the same plane, so the next inference call sees
the update with nothing rebuilt.  Weight decay banks every key's average
before it scales the weights.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ...resilience import faults
from ...resilience.checkpoint import CheckpointMismatchError, TrainerCheckpoint
from .candidates import CandidateIndex
from .graph import CrfGraph
from .inference import map_inference
from .model import CrfModel
from .weights import UNARY_OTHER, WeightPlane


@dataclass
class TrainingConfig:
    """Knobs of the trainer; defaults work for corpus-scale experiments.

    The graphs are shuffled before every epoch, by a generator seeded
    with ``seed``.
    """

    epochs: int = 5
    #: Multiplicative decay applied once per epoch (L2-style shrinkage).
    weight_decay: float = 1.0
    seed: int = 13
    #: ICM beam during training inference.
    beam: int = 32
    max_sweeps: int = 4
    use_unary: bool = True
    #: Average weights over updates (recommended).
    average: bool = True


@dataclass
class TrainingStats:
    """What happened during training (reported by benchmarks)."""

    epochs: int = 0
    updates: int = 0
    graphs: int = 0
    train_seconds: float = 0.0
    parameters: int = 0


class CrfTrainer:
    """Trains a :class:`CrfModel` from gold-labelled graphs."""

    def __init__(self, config: Optional[TrainingConfig] = None) -> None:
        self.config = config or TrainingConfig()

    def train(
        self,
        graphs: Sequence[CrfGraph],
        checkpoint: Optional[TrainerCheckpoint] = None,
    ) -> Tuple[CrfModel, TrainingStats]:
        cfg = self.config
        # The model shares the graphs' feature space: factor ids in the
        # graphs index directly into the model's weight keys.  A corpus
        # that knows its own space (a streaming ShardedCorpus, which
        # decodes every graph against one merged space) skips the
        # per-graph identity scan -- scanning would force a full decode
        # pass just to verify what the corpus guarantees by construction.
        space = getattr(graphs, "space", None)
        if space is None:
            space = graphs[0].space if len(graphs) else None
            for graph in graphs:
                if graph.space is not space:
                    raise ValueError(
                        "all training graphs must share one FeatureSpace; got "
                        "graphs built by extractors with different spaces"
                    )
        model = CrfModel(use_unary=cfg.use_unary, space=space)
        stats = TrainingStats(graphs=len(graphs))
        started = time.perf_counter()

        # Pass 0: count the candidate index from the gold labels.
        model.candidates = CandidateIndex.observe(graphs, model.space.values)

        step = 0
        rng = random.Random(cfg.seed)
        order = list(range(len(graphs)))

        # Resume: the checkpoint snapshot is the complete mid-training
        # state -- the weight plane with its lazy averages, the shuffle
        # RNG *and* the order list it permutes in place (epoch N+1's
        # permutation depends on epoch N's) -- so finishing the remaining
        # epochs writes a model bit-identical to the uninterrupted run.
        start_epoch = 0
        if checkpoint is not None and checkpoint.state is not None:
            state = checkpoint.state
            if state.get("kind") != "crf":
                raise CheckpointMismatchError(
                    f"checkpoint {checkpoint.path!r} holds "
                    f"{state.get('kind')!r} trainer state, not 'crf'"
                )
            if "plane" not in state:
                raise CheckpointMismatchError(
                    f"checkpoint {checkpoint.path!r} holds CRF weights as "
                    f"dicts, not as a weight plane; delete it and restart "
                    f"the run"
                )
            step = int(state["step"])
            stats.updates = int(state["updates"])
            stats.epochs = start_epoch = int(state["epochs_done"])
            saved_rng = state["rng"]
            rng.setstate((saved_rng[0], tuple(saved_rng[1]), saved_rng[2]))
            order = [int(i) for i in state["order"]]
            model.plane = WeightPlane.from_state(state["plane"])

        def snapshot(epochs_done: int) -> dict:
            rng_state = rng.getstate()
            return {
                "kind": "crf",
                "epochs_done": epochs_done,
                "step": step,
                "updates": stats.updates,
                "rng": [rng_state[0], list(rng_state[1]), rng_state[2]],
                "order": list(order),
                "plane": model.plane.state(),
            }

        # The scorer, built after pass 0 / checkpoint restore (when the
        # vocab and any restored weights are in place), reads the plane
        # every update writes, so each loss-augmented inference call
        # scores the current weights.
        compiled = model.compile()

        for epoch in range(start_epoch, cfg.epochs):
            rng.shuffle(order)
            for graph_index in order:
                graph = graphs[graph_index]
                if not len(graph):
                    continue
                gold = graph.gold_assignment()
                step += 1
                predicted = map_inference(
                    compiled,
                    graph,
                    max_sweeps=cfg.max_sweeps,
                    beam=cfg.beam,
                    loss_augmented=True,
                    gold=gold,
                )
                if predicted == gold:
                    continue
                stats.updates += 1
                self._apply_update(model, graph, gold, predicted, step, cfg.use_unary)
            if cfg.weight_decay < 1.0:
                model.plane.decay(cfg.weight_decay, step)
            stats.epochs += 1
            if checkpoint is not None:
                checkpoint.save_epoch(epoch + 1, snapshot(epoch + 1))
            faults.fire("train.epoch")

        if cfg.average and step > 0:
            model.plane.average(step)

        stats.train_seconds = time.perf_counter() - started
        stats.parameters = model.num_parameters()
        return model, stats

    # ------------------------------------------------------------------
    @staticmethod
    def _apply_update(
        model: CrfModel,
        graph: CrfGraph,
        gold: Sequence[str],
        predicted: Sequence[str],
        step: int,
        use_unary: bool,
    ) -> None:
        """Subgradient step: phi(gold) - phi(predicted), as one batch.

        Keys are listed node by node -- known factors, then edges, then
        unary factors -- each gold key right before its predicted twin:
        the order a key-by-key update bumps them in, which fixes the
        plane's insertion order and every weight's addition sequence.  A
        known or unary key differs between gold and prediction exactly
        when the node's label does; an edge key also when its
        neighbour's does.
        """
        intern = model.label_id
        g = np.array([intern(label) for label in gold], dtype=np.int64)
        p = np.array([intern(label) for label in predicted], dtype=np.int64)
        cols = graph.columnar()
        nodes = np.arange(cols.n_nodes)
        differs = g != p
        known_owner = np.repeat(nodes, np.diff(cols.known_off))
        edge_owner = np.repeat(nodes, np.diff(cols.edge_off))
        gold_other, pred_other = g[cols.edge_other], p[cols.edge_other]
        known = np.flatnonzero(differs[known_owner])
        edges = np.flatnonzero(differs[edge_owner] | (gold_other != pred_other))
        # Per kind: owner, relation, and the gold and predicted neighbour.
        parts = [
            (known_owner[known], cols.known_rel[known],
             cols.known_label[known], cols.known_label[known]),
            (edge_owner[edges], cols.edge_rel[edges],
             gold_other[edges], pred_other[edges]),
        ]
        if use_unary:
            unary_owner = np.repeat(nodes, np.diff(cols.unary_off))
            unary = np.flatnonzero(differs[unary_owner])
            sentinel = np.full(len(unary), UNARY_OTHER)
            parts.append((unary_owner[unary], cols.unary_rel[unary], sentinel, sentinel))
        owner, rel, gold_ctx, pred_ctx = (np.concatenate(column) for column in zip(*parts))
        kind = np.repeat(np.arange(len(parts)), [len(part[0]) for part in parts])
        order = np.argsort(owner * len(parts) + kind, kind="stable")
        owner, rel = owner[order], rel[order]
        model.plane.add(
            np.stack((g[owner], p[owner]), axis=1).ravel(),
            np.repeat(rel, 2),
            np.stack((gold_ctx[order], pred_ctx[order]), axis=1).ravel(),
            np.tile([1.0, -1.0], len(owner)),
            step,
        )
