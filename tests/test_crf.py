"""Unit tests for the CRF engine: graph, model, inference, training."""

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

from fixtures import crf_artifact_round_trip
from oracles import candidates as reference
from oracles import crf as oracle

#: One space for every hand-built graph and model here, so their ids agree.
SPACE = FeatureSpace()


def tiny_graph(gold_a="done", gold_b="count"):
    graph = CrfGraph("tiny", space=SPACE)
    a = graph.add_unknown("elem:a", gold=gold_a)
    b = graph.add_unknown("elem:b", gold=gold_b)
    graph.add_known_factor(a, "relA", "true")
    graph.add_known_factor(b, "relB", "0")
    graph.add_unknown_factor(a, b, "relAB", "relBA")
    graph.add_unary_factor(a, "selfA")
    return graph


class TestGraph:
    def test_add_unknown_dedupes_by_key(self):
        graph = CrfGraph(space=SPACE)
        i = graph.add_unknown("x", gold="a")
        j = graph.add_unknown("x", gold="ignored")
        assert i == j
        assert len(graph) == 1
        assert graph.unknowns[0].gold == "a"

    def test_index_of(self):
        graph = tiny_graph()
        assert graph.index_of("elem:a") == 0
        assert graph.index_of("missing") is None

    def test_unknown_factor_stores_both_directions(self):
        graph = tiny_graph()
        edge_ab = oracle.factors_of(graph, 0).edges[0]
        edge_ba = oracle.factors_of(graph, 1).edges[0]
        assert graph.decode_rel(edge_ab.rel) == "relAB"
        assert edge_ab.other == 1
        assert graph.decode_rel(edge_ba.rel) == "relBA"
        assert edge_ba.other == 0

    def test_self_edge_rejected(self):
        graph = tiny_graph()
        with pytest.raises(ValueError):
            graph.add_unknown_factor(0, 0, "r", "r")

    def test_factor_count_and_gold(self):
        graph = tiny_graph()
        assert graph.factor_count() == 5  # 2 known + 2 directional + 1 unary
        assert graph.gold_assignment() == ["done", "count"]

    def test_interleaved_factors_come_back_per_node_in_append_order(self):
        graph = CrfGraph(space=SPACE)
        a, b, c = (graph.add_unknown(key) for key in ("a", "b", "c"))
        graph.add_known_factor(b, "r1", "x")
        graph.add_unary_factor(c, "u1")
        graph.add_known_factor(a, "r2", "y")
        graph.add_unknown_factor(c, a, "ca", "ac")
        graph.add_known_factor(b, "r3", "z")
        graph.add_unary_factor(a, "u2")
        graph.add_known_factor(a, "r4", "x")
        graph.add_unknown_factor(b, c, "bc", "cb")
        graph.add_unary_factor(c, "u3")

        def decoded(index):
            factors = oracle.factors_of(graph, index)
            return (
                [
                    (graph.decode_rel(f.rel), graph.decode_value(f.label))
                    for f in factors.known
                ],
                [(graph.decode_rel(e.rel), e.other) for e in factors.edges],
                [graph.decode_rel(rel) for rel in factors.unary],
            )

        assert decoded(a) == ([("r2", "y"), ("r4", "x")], [("ac", c)], ["u2"])
        assert decoded(b) == ([("r1", "x"), ("r3", "z")], [("bc", c)], [])
        assert decoded(c) == ([], [("ca", a), ("cb", b)], ["u1", "u3"])

    def test_degrees_sum_to_the_row_count(self):
        graph = tiny_graph()
        graph.add_unknown("lonely")
        cols = graph.columnar()
        rows = len(cols.known_rel) + len(cols.edge_rel) + len(cols.unary_rel)
        assert [graph.degree(i) for i in range(len(graph))] == [3, 2, 0]
        assert sum(graph.degree(i) for i in range(len(graph))) == rows == 5
        assert graph.factor_count() == rows

    def test_factor_on_a_missing_node_rejected(self):
        graph = tiny_graph()
        with pytest.raises(IndexError):
            graph.add_known_factor(2, "r", "x")
        with pytest.raises(IndexError):
            graph.add_unknown_factor(0, -1, "r", "r")
        assert graph.factor_count() == 5


class TestModelScoring:
    def test_node_score_sums_matching_weights(self):
        graph = tiny_graph()
        model = CrfModel(space=SPACE)
        model.plane.assign(model.pair_key("done", "relA", "true"), 2.0)
        model.plane.assign(model.unary_key("done", "selfA"), 0.5)
        score = oracle.node_score(model, graph, 0, "done", ["done", "count"])
        # pairwise known + unknown edge (weight 0) + unary
        assert score == pytest.approx(2.5)

    def test_unary_disabled(self):
        graph = tiny_graph()
        model = CrfModel(use_unary=False, space=SPACE)
        model.plane.assign(model.unary_key("done", "selfA"), 5.0)
        score = oracle.node_score(model, graph, 0, "done", ["done", "count"])
        assert score == 0.0

    def test_assignment_score(self):
        graph = tiny_graph()
        model = CrfModel(space=SPACE)
        model.plane.assign(model.pair_key("done", "relA", "true"), 1.0)
        model.plane.assign(model.pair_key("count", "relB", "0"), 1.0)
        assert oracle.assignment_score(model, graph, ["done", "count"]) == pytest.approx(
            2.0
        )

    def test_candidates_come_from_observed_contexts(self):
        graph = tiny_graph()
        model = CrfModel(space=SPACE)
        model.candidates = reference.candidate_index(*reference.observe([graph]))
        candidates = oracle.candidates_for(model, graph, 0, ["?", "?"])
        assert "done" in candidates

    def test_top_features_interpretability(self):
        model = CrfModel(space=SPACE)
        model.plane.assign(model.pair_key("done", "rel", "true"), 3.0)
        model.plane.assign(model.unary_key("done", "self"), -1.0)
        top = model.top_features(2)
        assert "done" in top[0][0]
        assert top[0][1] == 3.0


class TestModelPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        model = CrfModel(space=SPACE)
        model.plane.assign(model.pair_key("a", "r", "b"), 1.5)
        model.plane.assign(model.unary_key("a", "u"), -0.5)
        model.candidates = reference.candidate_index(labels={model.label_id("a"): 3})
        loaded = crf_artifact_round_trip(model, tmp_path / "model.bin")
        weights = loaded.plane.as_dict()
        assert weights[loaded.pair_key("a", "r", "b")] == 1.5
        assert weights[loaded.unary_key("a", "u")] == -0.5
        assert reference.counters(loaded).labels[loaded.label_id("a")] == 3

    def test_num_parameters(self):
        model = CrfModel(space=SPACE)
        model.plane.assign(model.pair_key("a", "r", "b"), 1.0)
        model.plane.assign(model.unary_key("a", "u"), 1.0)
        assert model.num_parameters() == 2


class TestInference:
    def test_map_recovers_planted_signal(self):
        graph = tiny_graph()
        model = CrfModel(space=SPACE)
        model.candidates = reference.candidate_index(*reference.observe([graph]))
        model.plane.assign(model.pair_key("done", "relA", "true"), 2.0)
        model.plane.assign(model.pair_key("count", "relB", "0"), 2.0)
        assignment = map_inference(model.compile(), graph)
        assert assignment == ["done", "count"]

    def test_loss_augmented_requires_gold(self):
        graph = tiny_graph()
        model = CrfModel(space=SPACE)
        with pytest.raises(ValueError):
            map_inference(model.compile(), graph, loss_augmented=True)

    def test_pairwise_consistency_via_edges(self):
        """Unknown-unknown factors couple the two predictions."""
        graph = tiny_graph()
        model = CrfModel(space=SPACE)
        model.candidates = reference.candidate_index(*reference.observe([graph]))
        # Strong coupling: 'done' with 'count' across the edge.
        model.plane.assign(model.pair_key("done", "relAB", "count"), 5.0)
        model.plane.assign(model.pair_key("count", "relBA", "done"), 5.0)
        assignment = map_inference(model.compile(), graph)
        assert assignment == ["done", "count"]

    def test_topk_ranked_descending(self):
        graph = tiny_graph()
        model = CrfModel(space=SPACE)
        pair, unary, labels = reference.observe([graph])
        model.plane.assign(model.pair_key("done", "relA", "true"), 2.0)
        model.plane.assign(model.pair_key("flag", "relA", "true"), 1.0)
        labels[model.label_id("flag")] = 1
        model.candidates = reference.candidate_index(pair, unary, labels)
        ranked = topk_for_node(model.compile(), graph, 0, k=3)
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)
        assert ranked[0][0] == "done"

    def test_predict_wrapper(self):
        graph = tiny_graph()
        model = CrfModel(space=SPACE)
        model.candidates = reference.candidate_index(*reference.observe([graph]))
        assert len(map_inference(model.compile(), graph)) == 2


def synthetic_graphs(n=30):
    """Graphs where the relation determines the gold label exactly."""
    graphs = []
    for i in range(n):
        graph = CrfGraph(f"g{i}", space=SPACE)
        a = graph.add_unknown(f"a{i}", gold="done" if i % 2 == 0 else "count")
        rel = "flagrel" if i % 2 == 0 else "countrel"
        graph.add_known_factor(a, rel, "neighbor")
        graphs.append(graph)
    return graphs


class TestTraining:
    def test_learns_separable_signal(self):
        graphs = synthetic_graphs()
        model, stats = CrfTrainer(TrainingConfig(epochs=3)).train(graphs)
        assert stats.epochs == 3
        correct = 0
        compiled = model.compile()
        for graph in graphs:
            assignment = map_inference(compiled, graph)
            correct += int(assignment == graph.gold_assignment())
        assert correct == len(graphs)

    def test_empty_graphs_are_skipped(self):
        model, stats = CrfTrainer(TrainingConfig(epochs=1)).train([CrfGraph("empty", space=SPACE)])
        assert stats.updates == 0

    def test_unary_ablation_toggles(self):
        graphs = []
        for i in range(20):
            graph = CrfGraph(f"g{i}", space=SPACE)
            a = graph.add_unknown(f"a{i}", gold="x" if i % 2 == 0 else "y")
            graph.add_unary_factor(a, "ux" if i % 2 == 0 else "uy")
            graphs.append(graph)
        with_unary, _ = CrfTrainer(TrainingConfig(epochs=3, use_unary=True)).train(graphs)
        without_unary, _ = CrfTrainer(TrainingConfig(epochs=3, use_unary=False)).train(graphs)
        hits_with = sum(
            map_inference(with_unary.compile(), g) == g.gold_assignment()
            for g in graphs
        )
        hits_without = sum(
            map_inference(without_unary.compile(), g) == g.gold_assignment()
            for g in graphs
        )
        assert hits_with > hits_without

    def test_determinism_under_seed(self):
        graphs = synthetic_graphs()
        m1, _ = CrfTrainer(TrainingConfig(epochs=2, seed=5)).train(graphs)
        m2, _ = CrfTrainer(TrainingConfig(epochs=2, seed=5)).train(graphs)
        assert oracle.snapshot(m1) == oracle.snapshot(m2)

    def test_weight_decay_shrinks(self):
        graphs = synthetic_graphs()
        decayed, _ = CrfTrainer(
            TrainingConfig(epochs=2, weight_decay=0.5, average=False)
        ).train(graphs)
        plain, _ = CrfTrainer(
            TrainingConfig(epochs=2, weight_decay=1.0, average=False)
        ).train(graphs)
        total_decayed = sum(abs(w) for w in decayed.plane.as_dict().values())
        total_plain = sum(abs(w) for w in plain.plane.as_dict().values())
        assert total_decayed <= total_plain
