"""Oracle suite: compiled candidate generation and the packed lookups.

The compiled engine ranks a node's candidate beam from sorted tables
(per-graph static counts for the known and unary contexts, one
``searchsorted`` per call for the edges), resolves edge groups against
sorted group keys, and gathers weights with one ``searchsorted``.
Every list and score here must equal the scalar
oracle's (``tests/oracles/crf.py``) bit for bit:

* candidate lists on random graphs under random assignments, with unary
  factors on and off, at beams of 48 and 96, with ``-1`` and
  overlay-local (``>= label_base``) neighbours;
* nodes with only fallback candidates, and count ties;
* an in-memory model against the same model loaded from its artifact;
* every candidate call the trainer's loss-augmented inference makes;
* the key plane's dtype: no needle wraps, and none forces a conversion;
* two planes that number the same groups differently (the trainer's
  first-insertion rows and an artifact's) score alike;
* edge groups born after the graph was compiled;
* a weight naming an id beyond the label base, which re-keys the plane
  at once and re-freezes the candidate tables in the grown base;
* the gather on a block with duplicate and descending rows and invalid
  candidates.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.core.interning import FeatureSpace
from repro.learning.crf import (
    CrfGraph,
    CrfModel,
    CrfTrainer,
    TrainingConfig,
    map_inference,
    topk_for_node,
)
from repro.learning.crf import training
from repro.learning.crf.inference import label_ids
from repro.learning.crf.weights import UNARY_OTHER, WeightPlane, group_keys

from fixtures import crf_artifact_round_trip
from oracles import candidates as reference
from oracles import crf as oracle

LABELS = [f"name{i:02d}" for i in range(30)]
RELS = [f"rel{i}" for i in range(8)]
#: An assignment string no vocabulary holds: how the oracle sees a
#: ``-1`` or overlay-local id.
UNSEEN = "\x00unseen"


def _random_graph(space, n_nodes=25, seed=3):
    rng = random.Random(seed)
    graph = CrfGraph(f"g{seed}", space=space)
    for i in range(n_nodes):
        graph.add_unknown(f"k{i}", gold=rng.choice(LABELS))
    for i in range(n_nodes):
        for _ in range(rng.randint(0, 4)):
            graph.add_known_factor(i, rng.choice(RELS), rng.choice(LABELS))
        for _ in range(rng.randint(0, 3)):
            j = rng.randrange(n_nodes)
            if j != i:
                graph.add_unknown_factor(i, j, rng.choice(RELS), rng.choice(RELS))
        for _ in range(rng.randint(0, 2)):
            graph.add_unary_factor(i, rng.choice(RELS))
    return graph


def _random_model(space, use_unary=True, seed=7):
    """Observed random graphs plus random weights; small counts, so ties
    between contexts and with the fallback are common."""
    rng = random.Random(seed)
    model = CrfModel(space=space, use_unary=use_unary)
    graphs = [_random_graph(space, seed=s) for s in range(5)]
    model.candidates = reference.candidate_index(*reference.observe(graphs))
    n_values, n_paths = len(space.values), len(space.paths)
    for _ in range(500):
        key = (rng.randrange(n_values), rng.randrange(n_paths), rng.randrange(n_values))
        model.plane.assign(key, rng.uniform(-2.0, 2.0))
    for _ in range(120):
        weight = rng.uniform(-2.0, 2.0)
        key = (rng.randrange(n_values), rng.randrange(n_paths), UNARY_OTHER)
        model.plane.assign(key, weight)
    return model


def _has_group(plane, rel, other):
    return plane.group_rows(group_keys(np.array([rel]), other, plane.base))[0] >= 0


def _strings(model, assignment_ids, base):
    values = model.space.values
    return [values.value(i) if 0 <= i < base else UNSEEN for i in assignment_ids]


def _assert_candidates_match(model, compiled, graph, assignment_ids, beam):
    """Product and oracle candidate lists agree for every node."""
    cg = compiled.compile_graph(graph)
    assignment = _strings(model, assignment_ids.tolist(), compiled.label_base)
    values = model.space.values
    for index in range(len(graph)):
        product = model.candidate_ids_for(cg, index, assignment_ids, beam=beam)
        expected = oracle.candidates_for(model, graph, index, assignment, beam=beam)
        assert [values.value(label) for label in product] == expected


class TestRandomGraphs:
    @pytest.mark.parametrize("use_unary", [True, False])
    @pytest.mark.parametrize("beam", [48, 96])
    def test_candidates_bit_identical(self, use_unary, beam):
        space = FeatureSpace()
        model = _random_model(space, use_unary=use_unary)
        compiled = model.compile()
        base = compiled.label_base
        rng = np.random.default_rng(beam + use_unary)
        for seed in range(20, 26):
            graph = _random_graph(space, seed=seed)
            for _ in range(3):
                # -1 (unassigned or unseen) and overlay-local ids beyond
                # the vocabulary mix with real labels.
                assignment = rng.integers(-1, base + 4, size=len(graph))
                _assert_candidates_match(model, compiled, graph, assignment, beam)

    def test_overlay_and_unassigned_neighbours_match_no_context(self):
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        graph = _random_graph(space, seed=31)
        base = compiled.label_base
        for fill in (-1, base, base + 1000):
            assignment = np.full(len(graph), fill, dtype=np.int64)
            _assert_candidates_match(model, compiled, graph, assignment, 48)
            # No edge context can match, so every list is the static one.
            cg = compiled.compile_graph(graph)
            static = [
                model.candidate_ids_for(cg, i, np.full(len(graph), -1), beam=48)
                for i in range(len(graph))
            ]
            assert [
                model.candidate_ids_for(cg, i, assignment, beam=48)
                for i in range(len(graph))
            ] == static

    def test_graph_built_under_an_overlay(self):
        """Known factors whose neighbour or relation is overlay-local."""
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        graph = _random_graph(space.overlay(), seed=32)
        index = graph.add_unknown("local")
        graph.add_known_factor(index, "request-local-rel", "request-local-name")
        graph.add_known_factor(index, RELS[0], "request-local-name")
        graph.add_unknown_factor(index, 0, "request-local-rel", RELS[1])
        known_labels = [
            f.label for i in range(len(graph)) for f in oracle.factors_of(graph, i).known
        ]
        assert max(known_labels) >= compiled.label_base
        assignment = np.random.default_rng(5).integers(
            -1, compiled.label_base + 3, size=len(graph)
        )
        _assert_candidates_match(model, compiled, graph, assignment, 96)


class TestFallbackAndTies:
    def _model(self):
        space = FeatureSpace()
        model = CrfModel(space=space)
        rel, ctx = model.rel_id("rel"), model.label_id("ctx")
        # Insertion order differs from string order, and counts tie.
        counter = Counter()
        for label, count in (("ddd", 3), ("bbb", 3), ("ccc", 2), ("aaa", 3)):
            counter[model.label_id(label)] = count
        # A fallback label ties with context counts; another is proposed
        # by the context too and must keep its summed count only.
        labels = {
            model.label_id("eee"): 3,
            model.label_id("bbb"): 9,
            model.label_id("fff"): 1,
        }
        model.candidates = reference.candidate_index({(rel, ctx): counter}, labels=labels)
        return model

    def test_only_fallback_candidates(self):
        model = self._model()
        graph = CrfGraph(space=model.space)
        lonely = graph.add_unknown("lonely")
        graph.add_known_factor(lonely, "rel", "no-such-context")
        other = graph.add_unknown("other")
        graph.add_unknown_factor(lonely, other, "rel", "rel")
        compiled = model.compile()
        cg = compiled.compile_graph(graph)
        unassigned = np.full(len(graph), -1, dtype=np.int64)
        ranked = model.candidate_ids_for(cg, lonely, unassigned, beam=48)
        names = [model.label_of(label) for label in ranked]
        assert names == ["bbb", "eee", "fff"]
        assert names == oracle.candidates_for(model, graph, lonely, ["?", "?"])

    def test_count_ties_break_on_the_label_string(self):
        model = self._model()
        graph = CrfGraph(space=model.space)
        a = graph.add_unknown("a")
        b = graph.add_unknown("b")
        graph.add_known_factor(a, "rel", "ctx")
        graph.add_unknown_factor(b, a, "rel", "back")
        compiled = model.compile()
        cg = compiled.compile_graph(graph)
        ctx = model.space.values.id_of("ctx")
        for assignment in ([-1, -1], [ctx, ctx]):
            ids = np.array(assignment, dtype=np.int64)
            strings = _strings(model, assignment, compiled.label_base)
            for index in (a, b):
                product = [
                    model.label_of(label)
                    for label in model.candidate_ids_for(cg, index, ids, beam=48)
                ]
                expected = oracle.candidates_for(model, graph, index, strings)
                assert product == expected
        # Node b's edge points at "ctx" only in the second assignment.
        ids = np.array([ctx, ctx], dtype=np.int64)
        assert [
            model.label_of(label) for label in model.candidate_ids_for(cg, b, ids)
        ] == ["aaa", "bbb", "ddd", "eee", "ccc", "fff"]


class TestLoadedModel:
    def test_in_memory_and_loaded_agree_with_the_oracle(self, tmp_path):
        space = FeatureSpace()
        model = _random_model(space)
        loaded = crf_artifact_round_trip(model, tmp_path / "model.bin")
        compiled, reloaded = model.compile(), loaded.compile()
        assert reloaded.plane.keys.dtype == np.int32  # the narrow plane stays narrow
        rng = np.random.default_rng(11)
        for seed in (40, 41, 42):
            graph = _random_graph(space, seed=seed)
            cg, rcg = compiled.compile_graph(graph), reloaded.compile_graph(graph)
            assignment = rng.integers(-1, compiled.label_base + 2, size=len(graph))
            strings = _strings(model, assignment.tolist(), compiled.label_base)
            for index in range(len(graph)):
                for beam in (48, 96):
                    live = model.candidate_ids_for(cg, index, assignment, beam=beam)
                    packed = loaded.candidate_ids_for(rcg, index, assignment, beam=beam)
                    assert packed == live
                    names = [model.label_of(label) for label in live]
                    assert names == oracle.candidates_for(model, graph, index, strings, beam)
                    assert names == oracle.candidates_for(loaded, graph, index, strings, beam)
                candidates = np.array(live + [-1, compiled.label_base], dtype=np.int64)
                packed_scores = reloaded.score_candidates(
                    rcg, index, candidates, assignment
                )
                live_scores = compiled.score_candidates(
                    cg, index, candidates, assignment
                )
                assert packed_scores.tobytes() == live_scores.tobytes()
            assert map_inference(reloaded, graph) == oracle.map_inference(loaded, graph)


class TestTraining:
    def test_mid_training_loss_augmented_calls(self, monkeypatch):
        """Every candidate list the trainer's inference asks for, with the
        weights mid-update, equals the oracle's."""
        space = FeatureSpace()
        graphs = [_random_graph(space, n_nodes=15, seed=s) for s in range(6)]
        current = {}
        real_map = training.map_inference
        real_candidates = CrfModel.candidate_ids_for
        checked = []

        def traced_map(compiled, graph, **kwargs):
            assert kwargs["loss_augmented"]
            current["graph"] = graph
            return real_map(compiled, graph, **kwargs)

        def checked_candidates(self, cg, index, assignment_ids, beam=48):
            ranked = real_candidates(self, cg, index, assignment_ids, beam=beam)
            strings = _strings(self, assignment_ids.tolist(), len(self.space.values))
            expected = oracle.candidates_for(self, current["graph"], index, strings, beam=beam)
            assert [self.label_of(label) for label in ranked] == expected
            checked.append(index)
            return ranked

        monkeypatch.setattr(training, "map_inference", traced_map)
        monkeypatch.setattr(CrfModel, "candidate_ids_for", checked_candidates)
        model, stats = CrfTrainer(TrainingConfig(epochs=2)).train(graphs)
        assert stats.updates > 0 and len(checked) > 100


class TestKeyPlaneDtype:
    def _loaded(self, tmp_path):
        space = FeatureSpace()
        model = _random_model(space)
        loaded = crf_artifact_round_trip(model, tmp_path / "model.bin")
        return model, loaded, loaded.compile()

    def test_needles_share_the_narrow_planes_dtype(self, tmp_path, monkeypatch):
        model, loaded, reloaded = self._loaded(tmp_path)
        keys = reloaded.plane.keys
        assert keys.dtype == np.int32
        # The largest needle a scoring call can build fits the plane.
        largest = len(reloaded.plane.groups) * reloaded.label_base - 1
        assert largest <= np.iinfo(np.int32).max
        real = np.searchsorted
        seen = []

        def spy(haystack, needles, *args, **kwargs):
            if haystack is keys:
                seen.append(np.asarray(needles).dtype)
            return real(haystack, needles, *args, **kwargs)

        graph = _random_graph(model.space, seed=60)
        expected = oracle.map_inference(loaded, graph)  # its lookups are scalar
        monkeypatch.setattr(np, "searchsorted", spy)
        assert map_inference(reloaded, graph) == expected
        assert seen and set(seen) == {np.dtype(np.int32)}

    def test_no_needle_wraps(self):
        """A narrow plane whose largest possible needle overflows its dtype
        is widened at load: a wrapped needle would alias a real key."""
        groups = np.array([[0, 0], [1, 0], [2, 0]], dtype=np.int32)
        keys = np.array([5], dtype=np.int32)  # row 0, label 5
        weights = np.array([1.5])
        wide = WeightPlane(groups, keys, weights, 2**31, writable=False)
        assert wide.keys.dtype == np.int64
        # Row 2, label 5 is 2 * 2**32 + 5 -- as int32 it would wrap to 5.
        rows = np.array([0, 2], dtype=np.int64)
        gathered = wide.gather(rows, np.array([5], dtype=np.int64))
        assert gathered.tolist() == [[1.5], [0.0]]
        fits = WeightPlane(groups, keys, weights, 2**29, writable=False)
        assert fits.keys is keys  # 3 * 2**29 - 1 fits: no copy


class TestLookupRegressions:
    def test_repack_renumbering_rows_keeps_scores_exact(self):
        """The same weights with every group row renumbered -- the trainer
        numbers groups by first insertion, an artifact pair groups first
        -- score exactly alike."""
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        graph = _random_graph(space, seed=70)
        pair, unary = oracle.plane_rows(model.plane)
        rows = pair + [[label, rel, UNARY_OTHER, w] for label, rel, w in unary]
        renumbered = CrfModel(space=space, candidates=model.candidates)
        renumbered.plane = WeightPlane.build(*zip(*rows[::-1]), compiled.label_base)
        assert renumbered.plane.as_dict() == model.plane.as_dict()
        assert renumbered.plane.groups.tolist() != model.plane.groups.tolist()
        other = renumbered.compile()
        assignment = oracle.map_inference(model, graph)
        assert map_inference(other, graph) == assignment
        ids = label_ids(compiled, assignment)
        cg = other.compile_graph(graph)
        candidates = np.arange(-1, compiled.label_base + 1, dtype=np.int64)
        for index in range(len(graph)):
            scores = other.score_candidates(cg, index, candidates, ids)
            expected = [
                oracle.node_score(model, graph, index, model.label_of(c), assignment)
                if 0 <= c < compiled.label_base
                else 0.0
                for c in candidates.tolist()
            ]
            assert scores.tolist() == expected
            assert topk_for_node(
                other, graph, index, k=5, assignment=assignment
            ) == oracle.topk_for_node(model, graph, index, k=5, assignment=assignment)

    def test_negative_zero_weights_score_positive_zero(self):
        """Rule 1: the scalar loop starts at +0.0, so weights of -0.0
        sum to +0.0; accumulate starts at the first row and needs the
        final ``+ 0.0``."""
        graph = CrfGraph()
        a = graph.add_unknown("a", gold="x")
        graph.add_known_factor(a, "r1", "ctx")
        graph.add_known_factor(a, "r2", "ctx")
        model = CrfModel(space=graph.space)
        for rel in ("r1", "r2"):
            model.plane.assign(model.pair_key("x", rel, "ctx"), -0.0)
        compiled = model.compile()
        cg = compiled.compile_graph(graph)
        x = model.space.values.id_of("x")
        scores = compiled.score_candidates(
            cg, a, np.array([x], dtype=np.int64), np.array([-1], dtype=np.int64)
        )
        assert oracle.node_score(model, graph, a, "x", ["?"]) == 0.0
        assert scores.tobytes() == np.zeros(1).tobytes()

    def test_edge_groups_born_after_compile(self):
        """An edge group born after the graph was compiled resolves at the
        next compile, as the oracle's dict lookup does."""
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        graph = _random_graph(space, seed=72)
        assignment = oracle.map_inference(model, graph)
        ids = label_ids(compiled, assignment)
        cg = compiled.compile_graph(graph)
        compiled.score_candidates(cg, 0, np.array([0]), ids)
        missing = [
            (index, edge.rel, ids[edge.other])
            for index, node in enumerate(graph.unknowns)
            for edge in oracle.factors_of(graph, node.index).edges
            if ids[edge.other] >= 0
            and not _has_group(model.plane, edge.rel, ids[edge.other])
        ]
        assert len(missing) >= 2
        candidates = np.arange(-1, compiled.label_base + 1, dtype=np.int64)
        for step, (index, rel, other) in enumerate(missing[:2]):
            key = (int(candidates[step + 3]), rel, int(other))
            model.plane.assign(key, 3.0 + step)
            cg = compiled.compile_graph(graph)
            scores = compiled.score_candidates(cg, index, candidates, ids)
            assert scores.tolist() == [
                oracle.node_score(model, graph, index, model.label_of(c), assignment)
                if 0 <= c < compiled.label_base
                else 0.0
                for c in candidates.tolist()
            ]
        assert map_inference(compiled, graph) == oracle.map_inference(model, graph)

    def test_weight_beyond_the_label_base_rekeys(self):
        """A weight naming an id interned after the compile re-keys the
        plane at once, and the candidate tables follow the grown base:
        graphs key their edges in one base for both lookups."""
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        base = compiled.label_base
        graph = _random_graph(space, seed=73)
        late = model.label_id("late-label")
        assert late == base
        index = next(i for i in range(len(graph)) if oracle.factors_of(graph, i).edges)
        edge = oracle.factors_of(graph, index).edges[0]
        key = (late, edge.rel, late)
        before = model.plane.as_dict()
        model.plane.assign(key, 2.5)
        assert compiled.label_base == base + 1
        assert model.plane.as_dict() == {**before, key: 2.5}
        assert np.all(np.diff(model.plane.keys) > 0)
        assignment = oracle.map_inference(model, graph)
        assignment[edge.other] = "late-label"
        ids = label_ids(compiled, assignment)
        _assert_candidates_match(model, compiled, graph, ids, 48)
        assert compiled._candidates.base == base + 1
        cg = compiled.compile_graph(graph)
        scores = compiled.score_candidates(cg, index, np.array([late]), ids)
        expected = oracle.node_score(model, graph, index, "late-label", assignment)
        assert scores.tolist() == [expected] and expected != 0.0

    def test_gather_with_duplicate_and_descending_rows(self):
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        base = compiled.label_base
        n_rows = len(compiled.plane.groups)
        rng = np.random.default_rng(3)
        # Duplicate rows, a descending run, and invalid candidates.
        rows = np.concatenate(
            (
                np.arange(n_rows - 1, n_rows - 30, -1),
                rng.integers(0, n_rows, 30),
                [4, 4, 4],
            )
        ).astype(np.int64)
        candidates = np.concatenate(
            (rng.integers(0, base, 36), [-1, base, base + 7, 0, 0])
        ).astype(np.int64)
        valid = (candidates >= 0) & (candidates < base)
        safe = np.where(valid, candidates, 0)
        weight_of = dict(zip(compiled.plane.keys.tolist(), compiled.plane.weights.tolist()))
        expected = [
            [weight_of.get(row * base + c, 0.0) for c in safe.tolist()]
            for row in rows.tolist()
        ]
        assert compiled.plane.gather(rows, safe).tolist() == expected

        # End to end: every node's live rows with the same candidates.
        graph = _random_graph(space, seed=71)
        assignment = oracle.map_inference(model, graph)
        ids = label_ids(compiled, assignment)
        cg = compiled.compile_graph(graph)
        for index in range(len(graph)):
            scores = compiled.score_candidates(cg, index, candidates, ids)
            assert scores.tolist() == [
                oracle.node_score(model, graph, index, model.label_of(c), assignment)
                if ok
                else 0.0
                for c, ok in zip(candidates.tolist(), valid.tolist())
            ]
