"""Additional CRF behaviour: candidate beams, caches, interpretability."""

from collections import Counter

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

from oracles import candidates as reference
from oracles import crf as oracle

#: One space for every hand-built graph and model here, so their ids agree.
SPACE = FeatureSpace()


def chain_graph(n=5):
    """A chain of unknowns, each coupled to the next; gold alternates."""
    graph = CrfGraph("chain", space=SPACE)
    for i in range(n):
        graph.add_unknown(f"e{i}", gold="a" if i % 2 == 0 else "b")
    for i in range(n - 1):
        graph.add_unknown_factor(i, i + 1, "next", "prev")
    graph.add_known_factor(0, "anchor", "start")
    return graph


class TestCandidates:
    def test_beam_limits_candidate_count(self):
        graph = CrfGraph(space=SPACE)
        index = graph.add_unknown("e", gold="g")
        graph.add_known_factor(index, "rel", "neighbor")
        model = CrfModel(space=SPACE)
        context = (model.rel_id("rel"), model.label_id("neighbor"))
        counter = Counter()
        for i in range(100):
            counter[model.label_id(f"label{i}")] = 100 - i
        model.candidates = reference.candidate_index({context: counter})
        candidates = oracle.candidates_for(model, graph.unknowns[0], ["?"], beam=10)
        assert len(candidates) == 10
        assert candidates[0] == "label0"

    def test_global_fallback_provides_candidates(self):
        graph = CrfGraph(space=SPACE)
        graph.add_unknown("e", gold="g")
        model = CrfModel(space=SPACE)
        model.candidates = reference.candidate_index(
            labels={model.label_id("common"): 50, model.label_id("rare"): 1}
        )
        candidates = oracle.candidates_for(model, graph.unknowns[0], ["?"])
        assert "common" in candidates

    def test_unary_candidates_used(self):
        graph = CrfGraph(space=SPACE)
        index = graph.add_unknown("e", gold="g")
        graph.add_unary_factor(index, "selfrel")
        model = CrfModel(space=SPACE)
        rel = model.rel_id("selfrel")
        model.candidates = reference.candidate_index(
            unary={rel: Counter({model.label_id("fromunary"): 5})}
        )
        candidates = oracle.candidates_for(model, graph.unknowns[0], ["?"])
        assert "fromunary" in candidates


class TestChainPropagation:
    def test_anchored_chain_resolves(self):
        """Label information propagates along unknown-unknown edges."""
        graphs = [chain_graph() for _ in range(20)]
        model, _ = CrfTrainer(TrainingConfig(epochs=4)).train(graphs)
        assignment = map_inference(model.compile(), chain_graph())
        assert assignment == ["a", "b", "a", "b", "a"]

    def test_more_sweeps_never_hurt_convergence(self):
        graphs = [chain_graph() for _ in range(10)]
        model, _ = CrfTrainer(TrainingConfig(epochs=3)).train(graphs)
        compiled = model.compile()
        one = map_inference(compiled, chain_graph(), max_sweeps=1)
        many = map_inference(compiled, chain_graph(), max_sweeps=16)
        score_one = oracle.assignment_score(model, chain_graph(), one)
        score_many = oracle.assignment_score(model, chain_graph(), many)
        assert score_many >= score_one


class TestTopkExtras:
    def test_topk_respects_k(self):
        graph = chain_graph()
        model, _ = CrfTrainer(TrainingConfig(epochs=2)).train([chain_graph()])
        ranked = topk_for_node(model.compile(), graph, 0, k=1)
        assert len(ranked) == 1

    def test_topk_computes_assignment_when_missing(self):
        graph = chain_graph()
        model, _ = CrfTrainer(TrainingConfig(epochs=2)).train([chain_graph()])
        ranked = topk_for_node(model.compile(), graph, 2, k=3)
        assert ranked


class TestInterpretability:
    def test_trained_weights_explain_predictions(self):
        """Sec. 5.3: CRF weights are interpretable a posteriori.

        Perceptron-style training only moves weights on mistakes, so the
        setup forces competition: two gold labels share a relation but
        each has a private disambiguating context.
        """
        graphs = []
        for i in range(30):
            graph = CrfGraph(f"g{i}", space=SPACE)
            gold = "done" if i % 2 == 0 else "count"
            index = graph.add_unknown(f"e{i}", gold=gold)
            graph.add_known_factor(index, "shared", "true")
            private = "while-negated-cond" if gold == "done" else "for-loop"
            graph.add_known_factor(index, private, "true")
            graphs.append(graph)
        model, _ = CrfTrainer(TrainingConfig(epochs=3)).train(graphs)
        top = model.top_features(10)
        assert top  # mistakes occurred and weights were learned
        assert any(
            ("done" in name and "while-negated-cond" in name)
            or ("count" in name and "for-loop" in name)
            for name, _ in top
        )
