"""Oracle suite: the compiled CRF engine against the scalar oracle.

The contract under test is *bit-identity*: for every graph, the
vectorised :class:`~repro.learning.crf.compiled.CompiledCrfModel` must
reproduce the scalar oracle's (``tests/oracles/crf.py``) MAP
assignments, top-k suggestion scores, loss-augmented margin violators,
tie-break order, and fallbacks exactly -- float-equal, not
approximately.  Covered here:

* real models across all four language frontends and every task
  (variable naming, method naming, Java type prediction);
* a model trained on real stdlib definitions, scored on held-out views
  built the serving way (under an overlay of the frozen base space),
  where most factors hold no weight and scoring skips them;
* loss-augmented inference (the trainer's inner loop) and full trainer
  parity (the trainer with the oracle swapped in for its inference
  trains the same weights, including weight decay and averaging);
* edge cases: empty candidate beams, labels outside the trained vocab,
  count-and-score ties, weights assigned and decayed after compile,
  stale compiled graphs, a group born after compile, all-dead graphs.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.api import Pipeline
from repro.corpus import deduplicate, generate_corpus
from repro.corpus.generator import CorpusConfig
from repro.core.interning import FeatureSpace
from repro.learning.crf import (
    CompiledCrfModel,
    CrfGraph,
    CrfModel,
    CrfTrainer,
    TrainingConfig,
    map_inference,
    topk_for_node,
)
from repro.learning.crf.inference import UNKNOWN_LABEL, _best_id, label_ids
from repro.learning.crf.weights import UNARY_OTHER, group_keys

from fixtures import stdlib_definitions
from oracles import candidates as reference
from oracles import crf as oracle

#: One cell per language, both graph tasks, plus the Java-only task.
CELLS = [
    ("javascript", "variable_naming"),
    ("python", "variable_naming"),
    ("java", "method_naming"),
    ("csharp", "method_naming"),
    ("java", "type_prediction"),
]


def _sources(language, n_projects=4, seed=11):
    files = generate_corpus(
        CorpusConfig(
            language=language,
            n_projects=n_projects,
            files_per_project=(3, 5),
            seed=seed,
        )
    )
    kept, _ = deduplicate(files)
    return [f.source for f in kept]


@pytest.fixture(scope="module", params=CELLS, ids=lambda cell: "-".join(cell))
def trained_cell(request):
    language, task = request.param
    sources = _sources(language)
    assert len(sources) >= 12, "corpus generator produced too few files"
    pipeline = Pipeline(language=language, task=task, training={"epochs": 2})
    pipeline.train(sources[:9])
    model = pipeline.learner.model
    graphs = [
        pipeline.view(pipeline.parse(source, name=f"held:{i}"))
        for i, source in enumerate(sources[9:12])
    ]
    graphs = [graph for graph in graphs if len(graph)]
    assert graphs, "held-out sources produced no unknown nodes"
    return pipeline, model, model.compile(), graphs


class TestRealModels:
    def test_map_inference_bit_identical(self, trained_cell):
        _, model, compiled, graphs = trained_cell
        for graph in graphs:
            assert map_inference(compiled, graph) == oracle.map_inference(model, graph)

    def test_loss_augmented_bit_identical(self, trained_cell):
        _, model, compiled, graphs = trained_cell
        for graph in graphs:
            gold = graph.gold_assignment()
            scalar = oracle.map_inference(model, graph, loss_augmented=True, gold=gold)
            vector = map_inference(compiled, graph, loss_augmented=True, gold=gold)
            assert vector == scalar

    def test_topk_scores_bit_identical(self, trained_cell):
        _, model, compiled, graphs = trained_cell
        for graph in graphs:
            assignment = oracle.map_inference(model, graph)
            for index in range(len(graph)):
                scalar = oracle.topk_for_node(
                    model, graph, index, k=5, assignment=assignment
                )
                vector = topk_for_node(
                    compiled, graph, index, k=5, assignment=assignment
                )
                assert vector == scalar  # labels AND float scores, exactly

    def test_learner_matches_oracle(self, trained_cell):
        """The served read path (the learner's predict/suggest) too."""
        pipeline, model, _, graphs = trained_cell
        learner = pipeline.learner
        for graph in graphs:
            assignment = oracle.map_inference(model, graph)
            keys = [node.key for node in graph.unknowns]
            assert learner.predict(graph) == dict(zip(keys, assignment))
            assert learner.suggest(graph, k=3) == {
                key: oracle.topk_for_node(model, graph, i, k=3, assignment=assignment)
                for i, key in enumerate(keys)
            }


@pytest.fixture(scope="module")
def stdlib_texts():
    texts = stdlib_definitions()
    if len(texts) < 12:
        pytest.skip("too few of the pinned stdlib modules are installed")
    return texts


@pytest.fixture(scope="module")
def stdlib_cell(stdlib_texts):
    """A Python model trained on real stdlib definitions; held-out views
    built as :class:`~repro.api.pipeline.ScoringHandle` builds them, each
    under a fresh overlay of the frozen base space."""
    held_out = stdlib_texts[::3]
    training = [text for i, text in enumerate(stdlib_texts) if i % 3]
    pipeline = Pipeline(language="python", training={"epochs": 2})
    pipeline.train(training)
    handle = pipeline.scoring_handle()  # freezes the base space
    base = pipeline.space
    graphs = []
    for text in held_out:
        pipeline.representation.bind_space(base.overlay())
        graphs.append((text, pipeline.view(pipeline.parse(text))))
    pipeline.representation.bind_space(base)
    graphs = [(text, graph) for text, graph in graphs if len(graph)]
    assert len(graphs) >= 4, "held-out definitions produced too few graphs"
    model = pipeline.learner.model
    return handle, model, model.compile(), graphs


class TestRealCode:
    def test_most_known_factors_are_dead(self, stdlib_cell):
        """The cell exercises the skip: at least half of its known
        factors hold no weight, and some do."""
        _, _, compiled, graphs = stdlib_cell
        known = live = 0
        for _, graph in graphs:
            cg = compiled.compile_graph(graph)
            known += len(cg.cols.known_rel)
            live += len(cg.live_known.rows)
        assert 0 < live <= known // 2

    def test_map_and_loss_augmented_bit_identical(self, stdlib_cell):
        _, model, compiled, graphs = stdlib_cell
        for _, graph in graphs:
            assert map_inference(compiled, graph) == oracle.map_inference(model, graph)
            gold = graph.gold_assignment()
            assert map_inference(
                compiled, graph, loss_augmented=True, gold=gold
            ) == oracle.map_inference(model, graph, loss_augmented=True, gold=gold)

    def test_topk_labels_and_scores_bit_identical(self, stdlib_cell):
        _, model, compiled, graphs = stdlib_cell
        for _, graph in graphs:
            assignment = oracle.map_inference(model, graph)
            for index in range(len(graph)):
                scalar = oracle.topk_for_node(
                    model, graph, index, k=5, assignment=assignment
                )
                vector = topk_for_node(
                    compiled, graph, index, k=5, assignment=assignment
                )
                assert vector == scalar  # labels AND float scores, exactly

    def test_trainer_bit_identical(self, stdlib_texts, monkeypatch):
        """Training scores through the same live rows, on the plane each
        update has just written."""

        def train():
            pipeline = Pipeline(language="python")
            graphs = [pipeline.view(pipeline.parse(text)) for text in stdlib_texts]
            return CrfTrainer(TrainingConfig(epochs=2)).train(graphs)

        compiled_model, compiled_stats = train()
        monkeypatch.setattr(
            "repro.learning.crf.training.map_inference",
            lambda compiled, graph, **kwargs: oracle.map_inference(
                compiled.model, graph, **kwargs
            ),
        )
        scalar_model, scalar_stats = train()
        assert compiled_stats.updates == scalar_stats.updates > 0
        assert oracle.snapshot(compiled_model) == oracle.snapshot(scalar_model)

    def test_scoring_handle_matches_oracle(self, stdlib_cell):
        handle, model, _, graphs = stdlib_cell
        for text, graph in graphs:
            assignment = oracle.map_inference(model, graph)
            keys = [node.key for node in graph.unknowns]
            assert handle.predict(text) == dict(zip(keys, assignment))
            assert handle.suggest(text, k=5) == {
                key: oracle.topk_for_node(model, graph, i, k=5, assignment=assignment)
                for i, key in enumerate(keys)
            }


# ----------------------------------------------------------------------
# Synthetic graphs: randomized parity + targeted edge cases
# ----------------------------------------------------------------------
LABELS = [f"lbl{i}" for i in range(24)]
RELS = [f"rel{i}" for i in range(10)]


def _random_graph(space, n_nodes=30, seed=3):
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


def _has_group(plane, rel, other):
    return plane.group_rows(group_keys(np.array([rel]), other, plane.base))[0] >= 0


def _random_model(space, seed=7, use_unary=True):
    rng = random.Random(seed)
    model = CrfModel(space=space, use_unary=use_unary)
    graphs = [_random_graph(space, seed=s) for s in range(4)]
    model.candidates = reference.candidate_index(*reference.observe(graphs))
    n_values, n_paths = len(space.values), len(space.paths)
    for _ in range(600):
        key = (
            rng.randrange(n_values),
            rng.randrange(n_paths),
            rng.randrange(n_values),
        )
        model.plane.assign(key, rng.uniform(-2.0, 2.0))
    for _ in range(150):
        weight = rng.uniform(-2.0, 2.0)
        key = (rng.randrange(n_values), rng.randrange(n_paths), UNARY_OTHER)
        model.plane.assign(key, weight)
    return model


class TestSyntheticParity:
    @pytest.mark.parametrize("use_unary", [True, False])
    def test_randomized_graphs(self, use_unary):
        space = FeatureSpace()
        model = _random_model(space, use_unary=use_unary)
        compiled = model.compile()
        for seed in range(20, 30):
            graph = _random_graph(space, seed=seed)
            assert map_inference(compiled, graph) == oracle.map_inference(model, graph)
            gold = graph.gold_assignment()
            assert map_inference(
                compiled, graph, loss_augmented=True, gold=gold
            ) == oracle.map_inference(model, graph, loss_augmented=True, gold=gold)

    def test_unseen_gold_labels_in_loss_augmented(self):
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        graph = _random_graph(space, seed=41)
        # Gold labels the model has never interned, plus the "?" sentinel:
        # the +1 margin must apply identically in engine and oracle.
        gold = ["never-seen-label"] * (len(graph) - 1) + [UNKNOWN_LABEL]
        assert map_inference(
            compiled, graph, loss_augmented=True, gold=gold
        ) == oracle.map_inference(model, graph, loss_augmented=True, gold=gold)

    def test_unseen_assignment_labels_in_topk(self):
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        graph = _random_graph(space, seed=42)
        # Fix the rest of the graph to strings outside the vocab (what an
        # overlay-interned serving request looks like to the base model).
        assignment = [f"request-local-{i}" for i in range(len(graph))]
        for index in (0, 1, len(graph) - 1):
            assert topk_for_node(
                compiled, graph, index, k=6, assignment=assignment
            ) == oracle.topk_for_node(model, graph, index, k=6, assignment=assignment)


class TestEdgeCases:
    def test_empty_beam_falls_back_to_unknown_not_stale(self):
        """Satellite fix: no candidates -> the explicit "?" fallback.

        The old scalar code initialised ``best_label`` from
        ``assignment[index]``, which *looked* like a stale-value fallback;
        engine and oracle now share one explicit rule.
        """
        graph = CrfGraph()
        graph.add_unknown("a", gold="x")
        model = CrfModel(space=graph.space)  # no candidate index at all
        stale = ["something-stale"]
        assert (
            oracle._best_label(model, graph, 0, [], stale, False, None)
            == UNKNOWN_LABEL
        )
        compiled = model.compile()
        cg = compiled.compile_graph(graph)
        assignment = np.array([-1], dtype=np.int64)
        assert _best_id(compiled, cg, 0, [], assignment, False, None, -1) == -1
        # End to end: an untrained-index model predicts "?" everywhere.
        assert oracle.map_inference(model, graph) == [UNKNOWN_LABEL]
        assert map_inference(compiled, graph) == [UNKNOWN_LABEL]

    def test_tie_break_prefers_first_candidate(self):
        """Equal counts and equal (0.0) scores: the label-string order of
        the candidate ranking decides, identically in engine and oracle."""
        graph = CrfGraph()
        a = graph.add_unknown("a", gold="aaa")
        graph.add_known_factor(a, "rel", "ctx")
        model = CrfModel(space=graph.space)
        rel = model.rel_id("rel")
        ctx = model.label_id("ctx")
        counts = {}
        for label in ("bbb", "aaa"):  # insertion order != string order
            counts[model.label_id(label)] = 3
        model.candidates = reference.candidate_index(
            {(rel, ctx): Counter(counts)}, labels=counts
        )
        assert oracle.candidates_for(model, graph.unknowns[0], ["?"]) == ["aaa", "bbb"]
        compiled = model.compile()
        assert oracle.map_inference(model, graph) == ["aaa"]
        assert map_inference(compiled, graph) == ["aaa"]

    def test_plane_updates_between_calls(self):
        """Weights assigned after compile -- existing keys, new keys, new
        groups -- score like the oracle on the next call, with no rebuild."""
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        rng = random.Random(5)
        n_values, n_paths = len(space.values), len(space.paths)
        for step in range(600):
            key = (
                rng.randrange(n_values),
                rng.randrange(n_paths),
                rng.randrange(n_values),
            )
            model.plane.assign(key, rng.uniform(-1.0, 1.0))
            ukey = (rng.randrange(n_values), rng.randrange(n_paths), UNARY_OTHER)
            model.plane.assign(ukey, rng.uniform(-1.0, 1.0))
            if step % 150 == 0:
                graph = _random_graph(space, seed=step)
                assert map_inference(compiled, graph) == oracle.map_inference(model, graph)
        graph = _random_graph(space, seed=999)
        assert map_inference(compiled, graph) == oracle.map_inference(model, graph)

    def test_decay_between_calls(self):
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        graph = _random_graph(space, seed=77)
        cg = compiled.compile_graph(graph)
        model.plane.decay(0.5, step=1)
        assert compiled.compile_graph(graph) is cg  # no group moved
        assert map_inference(compiled, graph) == oracle.map_inference(model, graph)

    def test_stale_compiled_graph_raises(self):
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        graph = _random_graph(space, seed=50)
        cg = compiled.compile_graph(graph)
        model.plane.assign((0, model.rel_id("a-new-relation"), 0), 1.0)
        fresh = compiled.compile_graph(graph)
        assert fresh.groups == cg.groups + 1
        with pytest.raises(RuntimeError, match="compile_graph"):
            compiled.score_candidates(
                cg, 0, np.array([0], dtype=np.int64),
                np.zeros(len(graph), dtype=np.int64),
            )

    def test_group_born_after_compile(self):
        """A weight in a group the plane lacked -- what an update does to
        a group first seen mid-epoch -- turns a dead factor live: the old
        CompiledGraph refuses to score, and a recompile scores that
        factor exactly as the oracle does."""
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        graph = _random_graph(space, seed=53)
        assignment = oracle.map_inference(model, graph)
        assignment_ids = label_ids(compiled, assignment)
        cg = compiled.compile_graph(graph)
        index, factor = next(
            (i, factor)
            for i, node in enumerate(graph.unknowns)
            for factor in oracle.factors_of(graph, node.index).known
            if not _has_group(model.plane, factor.rel, factor.label)
        )
        node = graph.unknowns[index]
        label = model.candidate_ids_for(cg, index, assignment_ids, beam=96)[0]
        name = space.values.value(label)
        before = oracle.node_score(model, node, name, assignment)
        model.plane.assign((label, factor.rel, factor.label), 5.0)
        candidates = np.array([label], dtype=np.int64)
        with pytest.raises(RuntimeError, match="groups"):
            compiled.score_candidates(cg, index, candidates, assignment_ids)

        fresh = compiled.compile_graph(graph)
        assert fresh is not cg
        assert len(fresh.live_known.rows) > len(cg.live_known.rows)
        expected = oracle.node_score(model, node, name, assignment)
        assert expected != before
        score = compiled.score_candidates(fresh, index, candidates, assignment_ids)
        assert score.tolist() == [expected]
        assert map_inference(compiled, graph) == oracle.map_inference(model, graph)
        assert topk_for_node(
            compiled, graph, index, k=8, assignment=assignment
        ) == oracle.topk_for_node(model, graph, index, k=8, assignment=assignment)

    def test_compile_graph_reused_until_graph_or_pack_changes(self):
        """The resolution is reused until the graph changes or the plane
        gains a group; weight changes in existing groups keep it."""
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        graph = _random_graph(space, seed=51)
        first = compiled.compile_graph(graph)
        assert compiled.compile_graph(graph) is first
        other = _random_graph(space, seed=52)
        assert compiled.compile_graph(other) is not first
        assert compiled.compile_graph(graph) is not first  # memo holds one graph
        again = compiled.compile_graph(graph)
        graph.add_unary_factor(0, "fresh-relation")
        changed = compiled.compile_graph(graph)
        assert changed is not again
        assert len(changed.cols.unary_rel) == len(again.cols.unary_rel) + 1
        model.plane.assign(next(iter(model.plane.as_dict())), 9.0)
        assert compiled.compile_graph(graph) is changed
        model.plane.assign((0, model.rel_id("fresh-relation"), UNARY_OTHER), 1.0)
        assert compiled.compile_graph(graph).groups == changed.groups + 1

    def test_columnar_view_caches_and_invalidates(self):
        space = FeatureSpace()
        graph = _random_graph(space, seed=60)
        first = graph.columnar()
        assert graph.columnar() is first  # cached
        assert first.n_nodes == len(graph)
        assert len(first.known_rel) == sum(
            len(oracle.factors_of(graph, i).known) for i in range(len(graph))
        )
        graph.add_unary_factor(0, "another-rel")
        second = graph.columnar()
        assert second is not first  # mutation invalidated the cache
        assert len(second.unary_rel) == len(first.unary_rel) + 1


class TestTrainerParity:
    @pytest.mark.parametrize(
        "decay,average", [(1.0, True), (0.9, True), (1.0, False)]
    )
    def test_compiled_training_bit_identical(self, monkeypatch, decay, average):
        def train():
            space = FeatureSpace()
            graphs = [_random_graph(space, n_nodes=20, seed=s) for s in range(8)]
            config = TrainingConfig(epochs=3, weight_decay=decay, average=average)
            model, stats = CrfTrainer(config).train(graphs)
            return model, stats

        compiled_model, compiled_stats = train()
        # The oracle scores the trainer's live model, whose plane every
        # update writes, so it sees every weight the compiled scorer sees.
        oracle_calls = []

        def oracle_map(compiled, graph, **kwargs):
            oracle_calls.append(graph)
            return oracle.map_inference(compiled.model, graph, **kwargs)

        monkeypatch.setattr(
            "repro.learning.crf.training.map_inference", oracle_map
        )
        scalar_model, scalar_stats = train()
        assert oracle_calls
        assert oracle.snapshot(compiled_model) == oracle.snapshot(scalar_model)
        assert compiled_stats.updates == scalar_stats.updates


class TestCompiledModelShape:
    def test_pack_is_sorted_and_parallel(self):
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        keys = compiled.plane.keys
        assert keys.dtype == np.int64
        assert compiled.plane.weights.dtype == np.float64
        assert len(keys) == len(compiled.plane.weights)
        assert len(keys) == model.num_parameters()
        assert np.all(np.diff(keys) > 0)  # strictly sorted, unique

    def test_label_base_masks_out_of_vocab_candidates(self):
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        graph = _random_graph(space, seed=30)
        cg = compiled.compile_graph(graph)
        assignment = np.zeros(len(graph), dtype=np.int64)
        beyond = compiled.label_base + 5  # an overlay-interned id
        scores = compiled.score_candidates(
            cg, 0, np.array([-1, beyond], dtype=np.int64), assignment
        )
        assert scores.tolist() == [0.0, 0.0]

    def test_all_dead_graph_scores_positive_zero(self):
        """Every factor misses the pack: nothing is live, and every
        candidate scores exactly +0.0 (bit pattern, so -0.0 fails)."""
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        graph = CrfGraph("dead", space=space)
        a = graph.add_unknown("a")
        b = graph.add_unknown("b")
        graph.add_known_factor(a, "dead-rel", "dead-neighbour")
        graph.add_known_factor(b, "dead-rel", LABELS[0])
        graph.add_unknown_factor(a, b, "dead-ab", "dead-ba")
        graph.add_unary_factor(a, "dead-unary")
        graph.add_unary_factor(b, "dead-unary")
        cg = compiled.compile_graph(graph)
        for live in (cg.live_known, cg.live_unary):
            assert len(live.rows) == 0
            assert live.off == [0, 0, 0]
        candidates = np.arange(-1, compiled.label_base + 2, dtype=np.int64)
        zeros = np.zeros(len(candidates), dtype=np.float64).tobytes()
        for assigned in (0, space.values.id_of(LABELS[3])):
            assignment = np.full(len(graph), assigned, dtype=np.int64)
            for index in (a, b):
                scores = compiled.score_candidates(cg, index, candidates, assignment)
                assert scores.dtype == np.float64
                assert scores.tobytes() == zeros
        assert map_inference(compiled, graph) == oracle.map_inference(model, graph)
