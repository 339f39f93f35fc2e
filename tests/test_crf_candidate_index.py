"""Oracle suite: the CRF's candidate store against its ``Counter`` reference.

:class:`~repro.learning.crf.candidates.CandidateIndex` counts the gold
graphs in one numpy pass, the codec writes its columns as they are, and
pruning filters them with masks.  ``tests/oracles/candidates.py`` keeps
the one-node-at-a-time spelling of each step; here the columns must
match it exactly:

* the built index lists the reference counters' contexts in their
  insertion order and each context's labels in ``most_common`` order,
  count ties included, and interns the gold labels in the same order --
  on generated corpora in all four languages and on the stdlib split the
  ``perfbench`` training workload uses;
* a pruned state equals the list-based pruner's output, provenance
  included, for floors 1, 2 and 5;
* save -> load -> save writes the same sections.
"""

import importlib.util
import os
import random
import sys

import pytest

from repro.api import Pipeline
from repro.artifacts import ModelArtifact, prune_state
from repro.core.interning import FeatureSpace
from repro.learning.crf import CrfGraph
from repro.learning.crf.candidates import CandidateIndex

from oracles import candidates as reference

CORPORA = ("js_corpus", "java_corpus", "python_corpus", "csharp_corpus")
LANGUAGES = dict(zip(CORPORA, ("javascript", "java", "python", "csharp")))


def _views(language, sources):
    """One pipeline's training graphs (each call builds a fresh space)."""
    pipeline = Pipeline(language=language)
    return pipeline, [pipeline.view(pipeline.parse(source)) for source in sources]


def _rows(off, labels, counts):
    return [
        list(zip(labels[a:b].tolist(), counts[a:b].tolist()))
        for a, b in zip(off[:-1].tolist(), off[1:].tolist())
    ]


def _assert_index_equals(index, expected):
    """Contexts in insertion order, rows in ``most_common`` order, dtypes."""
    assert [tuple(context) for context in index.cand_ctx.tolist()] == list(expected.pair)
    assert _rows(index.cand_off, index.cand_labels, index.cand_counts) == [
        counter.most_common() for counter in expected.pair.values()
    ]
    assert index.ucand_rel.tolist() == list(expected.unary)
    assert _rows(index.ucand_off, index.ucand_labels, index.ucand_counts) == [
        counter.most_common() for counter in expected.unary.values()
    ]
    assert list(zip(index.label_ids.tolist(), index.label_freqs.tolist())) == (
        expected.labels.most_common()
    )
    # The columns are the artifact's sections, in their dtypes.
    assert {name: column.dtype.str for name, column in index.columns().items()} == {
        name: column.dtype.str
        for name, column in reference.candidate_index(*expected).columns().items()
    }


def _assert_matches_reference(language, sources):
    """Observe the same graphs both ways, each in its own (identical) space."""
    product_pipeline, product_graphs = _views(language, sources)
    reference_pipeline, reference_graphs = _views(language, sources)
    index = CandidateIndex.observe(product_graphs, product_pipeline.space.values)
    expected = reference.observe(reference_graphs)
    assert product_pipeline.space.to_dict() == reference_pipeline.space.to_dict()
    _assert_index_equals(index, expected)
    return expected


def _has_ties(counters):
    return any(
        counts[i] == counts[i + 1]
        for counter in counters
        for counts in [[count for _, count in counter.most_common()]]
        for i in range(len(counts) - 1)
    )


class TestObserve:
    @pytest.mark.parametrize("corpus", CORPORA)
    def test_generated_corpora(self, request, corpus):
        sources = [f.source for f in request.getfixturevalue(corpus)]
        expected = _assert_matches_reference(LANGUAGES[corpus], sources)
        assert _has_ties(expected.pair.values())

    def test_stdlib_training_split(self, monkeypatch):
        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "perfbench",
            "inputs.py",
        )
        spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
        inputs = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclasses look it up
        spec.loader.exec_module(inputs)
        train = inputs.load_stdlib().train
        if len(train) < 12:
            pytest.skip("too few of the pinned stdlib modules are installed")
        expected = _assert_matches_reference("python", [unit.source for unit in train])
        assert _has_ties(expected.pair.values())

    def test_ties_break_by_first_observation_not_by_id(self):
        """Labels interned in one order and first observed in another."""
        space = FeatureSpace()
        for label in ("late", "early"):
            space.values.intern(label)
        graph = CrfGraph(space=space)
        for i, gold in enumerate(("early", "late", "late", "early", "mid")):
            node = graph.add_unknown(f"k{i}", gold=gold)
            graph.add_known_factor(node, "rel", "ctx")
        index = CandidateIndex.observe([graph], space.values)
        early, late, mid = (space.values.id_of(v) for v in ("early", "late", "mid"))
        assert _rows(index.cand_off, index.cand_labels, index.cand_counts) == [
            [(early, 2), (late, 2), (mid, 1)]
        ]
        assert index.label_ids.tolist() == [early, late, mid]

    def test_edge_neighbours_intern_after_their_owner(self):
        """Node 0's gold, then its edge neighbour's, then node 1's."""
        space = FeatureSpace()
        graph = CrfGraph(space=space)
        a = graph.add_unknown("a", gold="first")
        b = graph.add_unknown("b", gold="third")
        c = graph.add_unknown("c", gold="second")
        graph.add_unknown_factor(a, c, "next", "prev")
        graph.add_unary_factor(b, "self")
        before = len(space.values)
        index = CandidateIndex.observe([graph], space.values)
        assert space.values.to_list()[before:] == ["first", "second", "third"]
        first, second, third = range(before, before + 3)
        assert [tuple(c) for c in index.cand_ctx.tolist()] == [
            (space.paths.id_of("next"), second),
            (space.paths.id_of("prev"), first),
        ]
        assert index.ucand_rel.tolist() == [space.paths.id_of("self")]
        assert _rows(index.ucand_off, index.ucand_labels, index.ucand_counts) == [
            [(third, 1)]
        ]

    def test_random_graphs_with_many_ties(self):
        space = FeatureSpace()
        rng = random.Random(4)
        graphs = []
        for g in range(6):
            graph = CrfGraph(f"g{g}", space=space)
            for i in range(20):
                graph.add_unknown(f"k{i}", gold=rng.choice("abcdefg"))
            for i in range(20):
                for _ in range(rng.randint(0, 3)):
                    graph.add_known_factor(i, rng.choice("rs"), rng.choice("xyz"))
                for _ in range(rng.randint(0, 2)):
                    j = rng.randrange(20)
                    if j != i:
                        graph.add_unknown_factor(i, j, rng.choice("rs"), rng.choice("rs"))
                if rng.random() < 0.5:
                    graph.add_unary_factor(i, rng.choice("uv"))
            graphs.append(graph)
        graphs.append(CrfGraph("empty", space=space))
        expected = reference.observe(graphs)
        index = CandidateIndex.observe(graphs, space.values)
        _assert_index_equals(index, expected)
        assert _has_ties(expected.pair.values())

    def test_empty_index(self):
        index = CandidateIndex.empty()
        assert index.cand_ctx.shape == (0, 2)
        assert all(len(column) == 0 for name, column in index.columns().items()
                   if not name.endswith("_off"))
        assert index.cand_off.tolist() == index.ucand_off.tolist() == [0]


@pytest.fixture(scope="module")
def trained(js_corpus):
    pipeline = Pipeline(language="javascript", training={"epochs": 1})
    pipeline.train([f.source for f in js_corpus][:14])
    return pipeline


class TestPrune:
    @pytest.mark.parametrize("floor", [1, 2, 5])
    def test_matches_the_list_based_pruner(self, trained, floor, tmp_path):
        path = str(tmp_path / "model.bin")
        trained.save(path)
        for state in (trained.learner.state_dict(), Pipeline.load(path).learner.state_dict()):
            pruned, provenance = prune_state("crf", state, floor, 0.1)
            expected, expected_provenance = reference.prune_crf(
                reference.list_state(state), floor, 0.1
            )
            assert reference.list_state(pruned) == expected
            assert provenance == expected_provenance
            for name, column in pruned["candidates"].items():
                assert column.dtype == state["candidates"][name].dtype
        if floor > 1:
            assert provenance["contexts"]["after"] < provenance["contexts"]["before"]


class TestSaveLoadSave:
    def test_sections_are_identical(self, trained, tmp_path):
        first, second = str(tmp_path / "first.bin"), str(tmp_path / "second.bin")
        trained.save(first)
        Pipeline.load(first).save(second)
        a, b = ModelArtifact.open(first), ModelArtifact.open(second)
        names = [entry["name"] for entry in a.header["sections"]]
        assert names == [entry["name"] for entry in b.header["sections"]]
        for name in names:
            x, y = a.array(name), b.array(name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        assert a.meta == b.meta
        with open(first, "rb") as handle_a, open(second, "rb") as handle_b:
            assert handle_a.read() == handle_b.read()

    def test_loaded_index_is_the_mapped_sections(self, trained, tmp_path):
        path = str(tmp_path / "model.bin")
        trained.save(path)
        loaded = Pipeline.load(path)
        live = trained.learner.model.candidates.columns()
        for name, column in loaded.learner.model.candidates.columns().items():
            assert not column.flags.owndata
            assert (column.dtype, column.tobytes()) == (live[name].dtype, live[name].tobytes())
