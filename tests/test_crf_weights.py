"""The CRF weight plane: batch updates, lazy averages, re-keying, loading.

The plane is the model's only weight store, so its edge cases are the
trainer's and the scorer's:

* a batch update equals the same deltas applied key by key -- values,
  insertion order and lazy averages -- even on non-integer weights;
* a key whose deltas cancel within one update stays at ``0.0`` and
  counts as a parameter;
* new groups take the next rows, and no row ever moves;
* an id at or above the base (a ``"?"`` an update interns) re-keys the
  plane, and scoring follows it;
* averaged weights equal the eager mean of the per-step weights, with
  and without weight decay;
* a loaded plane refuses every mutation;
* a checkpoint in the older weight-dict layout is refused.
"""

import json
import random

import numpy as np
import pytest

from repro.core.interning import FeatureSpace
from repro.learning.crf import (
    CrfGraph,
    CrfModel,
    CrfTrainer,
    TrainingConfig,
    map_inference,
    training,
)
from repro.learning.crf.inference import UNKNOWN_LABEL
from repro.learning.crf.weights import (
    UNARY_OTHER,
    PackedModelError,
    WeightPlane,
    group_keys,
)
from repro.resilience.checkpoint import CheckpointMismatchError, TrainerCheckpoint

from fixtures import crf_artifact_round_trip
from oracles import candidates as reference
from oracles import crf as oracle

LABELS = [f"lbl{i}" for i in range(24)]
RELS = [f"rel{i}" for i in range(10)]


def _random_graph(space, n_nodes=20, seed=3):
    rng = random.Random(seed)
    graph = CrfGraph(f"g{seed}", space=space)
    for i in range(n_nodes):
        graph.add_unknown(f"k{i}", gold=rng.choice(LABELS))
    for i in range(n_nodes):
        for _ in range(rng.randint(0, 3)):
            graph.add_known_factor(i, rng.choice(RELS), rng.choice(LABELS))
        for _ in range(rng.randint(0, 2)):
            j = rng.randrange(n_nodes)
            if j != i:
                graph.add_unknown_factor(i, j, rng.choice(RELS), rng.choice(RELS))
        for _ in range(rng.randint(0, 2)):
            graph.add_unary_factor(i, rng.choice(RELS))
    return graph


def _key_by_key(state, keys, deltas, step):
    """The reference update: one dict bump per key, in order."""
    weights, totals, stamp = state
    for key, delta in zip(keys, deltas):
        weight = weights.get(key, 0.0)
        totals[key] = totals.get(key, 0.0) + weight * (step - stamp.get(key, 0))
        stamp[key] = step
        weights[key] = weight + delta


class TestBatchUpdates:
    def test_batch_update_matches_key_by_key(self):
        rng = random.Random(1)
        plane = WeightPlane()
        state = ({}, {}, {})
        for step in range(1, 60):
            keys = [
                (rng.randrange(9), rng.randrange(5), rng.choice([UNARY_OTHER, 0, 3, 7]))
                for _ in range(rng.randrange(0, 12))
            ]
            deltas = [rng.choice([1.0, -1.0]) for _ in keys]
            columns = [np.array([key[i] for key in keys], dtype=np.int64) for i in range(3)]
            plane.add(*columns, np.array(deltas), step)
            _key_by_key(state, keys, deltas, step)
            if step % 7 == 0:
                # Decay makes the weights non-integer, so the addition
                # sequence shows in the bits.
                plane.decay(0.7, step)
                weights, totals, stamp = state
                for key in weights:
                    totals[key] += weights[key] * (step - stamp[key])
                    stamp[key] = step
                    weights[key] *= 0.7
        weights, totals, stamp = state
        assert plane.as_dict() == weights
        assert list(plane.as_dict()) == list(weights)  # insertion order
        inserted = np.argsort(plane.born)
        assert plane.totals[inserted].tolist() == list(totals.values())
        assert plane.stamp[inserted].tolist() == list(stamp.values())
        assert np.all(np.diff(plane.keys) > 0)

    def test_cancelling_deltas_keep_the_key_at_zero(self):
        plane = WeightPlane()
        key = np.array([4]), np.array([2]), np.array([7])
        plane.add(*(np.repeat(column, 2) for column in key), np.array([1.0, -1.0]), 1)
        assert plane.as_dict() == {(4, 2, 7): 0.0}
        assert len(plane) == 1

    def test_update_whose_gold_and_violator_keys_cancel(self):
        """Swapped labels across an edge pair: node a's gold edge key is
        node b's predicted one, so it nets to 0.0 and is still kept."""
        graph = CrfGraph("swap")
        a = graph.add_unknown("a", gold="x")
        b = graph.add_unknown("b", gold="y")
        graph.add_unknown_factor(a, b, "r", "r")
        model = CrfModel(space=graph.space)
        CrfTrainer._apply_update(model, graph, ["x", "y"], ["y", "x"], 1, True)
        x, y, r = model.label_id("x"), model.label_id("y"), model.rel_id("r")
        assert model.plane.as_dict() == {(x, r, y): 0.0, (y, r, x): 0.0}
        assert model.num_parameters() == 2
        assert oracle.plane_rows(model.plane)[0] == [[x, r, y, 0.0], [y, r, x, 0.0]]


class TestGroupsAndBase:
    def test_new_groups_take_the_next_rows(self):
        plane = WeightPlane()
        plane.add(np.array([1, 2, 1]), np.array([5, 3, 5]), np.array([0, UNARY_OTHER, 2]),
                  np.ones(3), 1)
        assert plane.groups.tolist() == [[5, 0], [3, UNARY_OTHER], [5, 2]]
        before = plane.groups.tolist()
        plane.add(np.array([0, 0]), np.array([1, 5]), np.array([1, 2]), np.ones(2), 2)
        assert plane.groups.tolist() == before + [[1, 1]]
        rel, other = plane.groups[:, 0], plane.groups[:, 1]
        assert plane.group_rows(group_keys(rel, other, plane.base)).tolist() == [0, 1, 2, 3]

    def test_id_beyond_the_base_rekeys(self):
        plane = WeightPlane()
        plane.add(np.array([1, 2]), np.array([0, 1]), np.array([2, UNARY_OTHER]),
                  np.array([1.0, 2.0]), 1)
        assert plane.base == 3
        before = plane.as_dict()
        plane.add(np.array([9]), np.array([0]), np.array([2]), np.array([4.0]), 2)
        assert plane.base == 10
        assert plane.as_dict() == {**before, (9, 0, 2): 4.0}
        assert np.all(np.diff(plane.keys) > 0)
        gathered = plane.gather(np.array([0, 1]), np.array([1, 2, 9]))
        assert gathered.tolist() == [[1.0, 0.0, 4.0], [0.0, 2.0, 0.0]]

    def test_unknown_label_interned_by_an_update_rekeys(self):
        """A violator of "?" interns a new label mid-training: the plane
        re-keys, the candidate tables follow, and scoring matches the
        oracle with "?" as a neighbour's label."""
        space = FeatureSpace()
        graph = _random_graph(space, seed=5)
        model = CrfModel(space=space)
        model.candidates = reference.candidate_index(*reference.observe([graph]))
        compiled = model.compile()
        base = compiled.label_base
        assert space.values.id_of(UNKNOWN_LABEL) is None
        predicted = [UNKNOWN_LABEL] * len(graph)
        CrfTrainer._apply_update(model, graph, graph.gold_assignment(), predicted, 1, True)
        assert space.values.id_of(UNKNOWN_LABEL) == base
        assert compiled.label_base == base + 1
        assert map_inference(compiled, graph) == oracle.map_inference(model, graph)
        assignment = [UNKNOWN_LABEL] * len(graph)
        cg = compiled.compile_graph(graph)
        assert cg.base == base + 1
        ids = np.full(len(graph), base, dtype=np.int64)
        candidates = np.arange(-1, base + 2, dtype=np.int64)
        for index in range(len(graph)):
            scores = compiled.score_candidates(cg, index, candidates, ids)
            assert scores.tolist() == [
                oracle.node_score(model, graph, index, model.label_of(c), assignment)
                if 0 <= c <= base
                else 0.0
                for c in candidates.tolist()
            ]


class TestAveraging:
    @pytest.mark.parametrize("decay", [1.0, 0.5])
    def test_averages_equal_the_eager_mean(self, monkeypatch, decay):
        """Each inference call sees the weights of one step; the averaged
        weights are their mean over every step, decayed ones included."""
        space = FeatureSpace()
        graphs = [_random_graph(space, seed=s) for s in range(8)]
        snapshots = []
        real_map = training.map_inference

        def recording_map(compiled, graph, **kwargs):
            snapshots.append(compiled.model.plane.as_dict())
            return real_map(compiled, graph, **kwargs)

        monkeypatch.setattr(training, "map_inference", recording_map)
        config = TrainingConfig(epochs=3, weight_decay=decay, average=True)
        model, stats = CrfTrainer(config).train(graphs)
        assert stats.updates > 0 and len(snapshots) == 3 * len(graphs)
        averaged = model.plane.as_dict()
        eager = {
            key: sum(snapshot.get(key, 0.0) for snapshot in snapshots) / len(snapshots)
            for key in averaged
        }
        assert averaged == eager


class TestLoadedPlane:
    def test_loaded_plane_refuses_mutation(self, tmp_path):
        space = FeatureSpace()
        graph = _random_graph(space, seed=9)
        model, _ = CrfTrainer(TrainingConfig(epochs=2)).train([graph])
        loaded = crf_artifact_round_trip(model, tmp_path / "model.bin")
        plane = loaded.plane
        assert not plane.writable and plane.as_dict() == model.plane.as_dict()
        key = next(iter(plane.as_dict()))
        for mutate in (
            lambda: plane.add([key[0]], [key[1]], [key[2]], [1.0], 1),
            lambda: plane.assign(key, 2.0),
            lambda: plane.decay(0.5, 1),
            lambda: plane.average(1),
            lambda: plane.reserve(plane.base + 1),
        ):
            with pytest.raises(PackedModelError, match="read-only"):
                mutate()
        assert plane.as_dict() == model.plane.as_dict()

    def test_build_numbers_pair_groups_first(self):
        """The artifact layout: groups first-seen over the listed rows,
        keys sorted, insertion order kept for the snapshot."""
        plane = WeightPlane.build(
            [1, 0, 2, 1], [4, 3, 4, 3], [UNARY_OTHER, 5, 5, 5], [0.5, 1.0, -1.0, 2.0], 6
        )
        assert plane.groups.tolist() == [[4, UNARY_OTHER], [3, 5], [4, 5]]
        assert np.all(np.diff(plane.keys) > 0)
        assert oracle.plane_rows(plane) == (
            [[0, 3, 5, 1.0], [2, 4, 5, -1.0], [1, 3, 5, 2.0]],
            [[1, 4, 0.5]],
        )


class TestCheckpoints:
    def test_plane_state_round_trips_through_json(self):
        space = FeatureSpace()
        model, _ = CrfTrainer(TrainingConfig(epochs=1, average=True)).train(
            [_random_graph(space, seed=s) for s in range(3)]
        )
        plane = model.plane
        restored = WeightPlane.from_state(json.loads(json.dumps(plane.state())))
        for column in ("groups", "keys", "weights", "totals", "stamp", "born"):
            assert getattr(restored, column).tobytes() == getattr(plane, column).tobytes()
        assert restored.base == plane.base

    def test_weight_dict_checkpoint_is_refused(self, tmp_path):
        """A checkpoint from the dict-backed trainer names no plane: resume
        refuses it instead of failing on a missing key."""
        space = FeatureSpace()
        graphs = [_random_graph(space, seed=s) for s in range(3)]
        rng_state = random.Random(13).getstate()
        path = str(tmp_path / "ckpt.json")
        TrainerCheckpoint.fresh(path, spec={}, corpus="c").save_epoch(
            1,
            {
                "kind": "crf",
                "epochs_done": 1,
                "step": 3,
                "updates": 1,
                "rng": [rng_state[0], list(rng_state[1]), rng_state[2]],
                "order": [2, 0, 1],
                "pair_weights": [[0, 0, 1, 1.0]],
                "unary_weights": [],
                "pair_totals": [[0, 0, 1, 0.0]],
                "pair_stamp": [[0, 0, 1, 2]],
                "unary_totals": [],
                "unary_stamp": [],
            },
        )
        checkpoint = TrainerCheckpoint.resume(path, spec={}, corpus="c")
        with pytest.raises(CheckpointMismatchError, match="weight plane"):
            CrfTrainer(TrainingConfig(epochs=2)).train(graphs, checkpoint=checkpoint)
