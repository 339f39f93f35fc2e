"""View identity: the path table and its direct builders vs the per-path oracle.

The product resolves relation ids straight from the bottom-up pass
(chain-keyed shape cache, reversed relation = swapped key) and builds the
variable-naming views from the path table.  The oracle in
``tests/oracles/extraction.py`` extracts path by path, builds every
string context eagerly, reverses relations through
``AstPath.reversed()`` and adds one factor per path.  The two intern
different *sets* of strings (the product never interns a relation seen
only between two non-element terminals), so ids differ; every view
compared here is decoded back to strings first, node by node and in
factor order.

Corpora: generated programs in all four languages and top-level
definitions from pinned stdlib modules present in CPython 3.10-3.13.
"""

import os
import sysconfig

import pytest

from repro.core.extraction import ExtractionConfig, PathExtractor
from repro.core.interning import FeatureSpace
from repro.corpus import generate_corpus
from repro.corpus.generator import CorpusConfig
from repro.lang.base import parse_source
from repro.learning.crf import CrfTrainer, TrainingConfig
from repro.learning.crf.inference import map_inference, topk_for_node
from repro.tasks import translate, variable_naming

from fixtures import STDLIB_MODULES, stdlib_definitions
from oracles import extraction as oracle

LANGUAGES = ("javascript", "java", "python", "csharp")

SETTINGS = {
    "default": {},
    "downsample": {"downsample_p": 0.5, "seed": 5},
    "leaf-filter": {"leaf_filter": lambda leaf: not (leaf.value or "").startswith(tuple("aeiou"))},
    "no-semi-paths": {"include_semi_paths": False},
    "semi-min-2": {"semi_path_min_length": 2},
    "narrow": {"max_length": 4, "max_width": 1},
    "callable": {"abstraction": lambda path: path.encode()[::-1]},
    **{
        f"abstraction-{name}": {"abstraction": name}
        for name in ("no-arrows", "forget-order", "first-top-last", "first-last", "top", "no-path")
    },
}


def _generated(language, n_projects=2, seed=11):
    files = generate_corpus(CorpusConfig(language=language, n_projects=n_projects, seed=seed))
    return [parse_source(language, f.source) for f in files]


def _stdlib_definitions():
    return [parse_source("python", text) for text in stdlib_definitions()]


@pytest.fixture(scope="module")
def corpora():
    found = {language: _generated(language) for language in LANGUAGES}
    found["stdlib"] = _stdlib_definitions()
    return found


def _extractors(**settings):
    config = ExtractionConfig(**settings)
    return (
        PathExtractor(config, space=FeatureSpace()),
        oracle.ReferencePathExtractor(config, space=FeatureSpace()),
    )


def decoded_graph(graph):
    """Per node, in factor order: known (rel, label), edges (rel, peer), unary rels."""
    paths, values = graph.space.paths, graph.space.values
    return [
        (
            node.key,
            node.gold,
            [(paths.value(f.rel), values.value(f.label)) for f in node.known],
            [(paths.value(e.rel), e.other) for e in node.edges],
            [paths.value(rel) for rel in node.unary],
        )
        for node in graph.unknowns
    ]


def decoded_contexts(contexts, space):
    return {
        binding: (
            gold,
            [(space.paths.value(rel), space.values.value(other)) for rel, other in tokens],
        )
        for binding, (gold, tokens) in contexts.items()
    }


def assert_views_identical(asts, **settings):
    product, reference = _extractors(**settings)
    for ast in asts:
        assert decoded_graph(variable_naming.build_crf_graph(ast, product)) == decoded_graph(
            oracle.build_crf_graph(ast, reference)
        )
        assert decoded_contexts(
            variable_naming.element_contexts(ast, product), product.space
        ) == decoded_contexts(oracle.element_contexts(ast, reference), reference.space)
        assert decoded_graph(translate.build_translate_graph(ast, product)) == decoded_graph(
            oracle.build_translate_graph(ast, reference)
        )


def test_stdlib_slice_is_large_enough(corpora):
    root = sysconfig.get_paths()["stdlib"]
    modules = [m for m in STDLIB_MODULES if os.path.exists(os.path.join(root, m + ".py"))]
    assert len(modules) >= 10
    assert len(corpora["stdlib"]) >= 30


@pytest.mark.parametrize("corpus", LANGUAGES + ("stdlib",))
def test_views_identical_at_default_limits(corpora, corpus):
    assert_views_identical(corpora[corpus])


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_views_identical_under_setting(corpora, setting):
    assert_views_identical(corpora["javascript"] + corpora["stdlib"][:12], **SETTINGS[setting])


def test_table_rows_materialise_like_the_oracle(corpora):
    """Reading every row in order assigns the oracle's ids exactly."""
    for ast in corpora["java"][:4] + corpora["stdlib"][:6]:
        product, reference = _extractors()
        rows = [
            (id(e.start), id(e.end), e.rel_id, e.start_value_id, e.end_value_id, e.context)
            for e in product.extract(ast)
        ]
        expected = [
            (id(e.start), id(e.end), e.rel_id, e.start_value_id, e.end_value_id, e.context)
            for e in reference.extract(ast)
        ]
        assert rows == expected
        assert product.space.to_dict() == reference.space.to_dict()


def test_view_vocab_holds_only_element_relations(corpora):
    """Relations seen only between non-element terminals are never interned."""
    product, reference = _extractors()
    for ast in corpora["javascript"]:
        variable_naming.build_crf_graph(ast, product)
        oracle.build_crf_graph(ast, reference)
    assert set(product.space.paths) < set(reference.space.paths)


def _decoded_weights(model):
    paths, values = model.space.paths, model.space.values
    pairs = {
        (values.value(label), paths.value(rel), values.value(other)): weight
        for (label, rel, other), weight in model.pair_weights.items()
    }
    unary = {
        (values.value(label), paths.value(rel)): weight
        for (label, rel), weight in model.unary_weights.items()
    }
    return pairs, unary


def _predictions(model, graphs):
    compiled = model.compile()
    out = []
    for graph in graphs:
        assignment = map_inference(compiled, graph)
        out.append(assignment)
        out.append(
            [
                topk_for_node(compiled, graph, i, k=5, assignment=assignment)
                for i in range(len(graph))
            ]
        )
    return out


@pytest.mark.parametrize("corpus", ["javascript", "stdlib"])
def test_trained_models_identical(corpora, corpus):
    asts = corpora[corpus]
    split = (2 * len(asts)) // 3
    product, reference = _extractors()
    product_graphs = [variable_naming.build_crf_graph(ast, product) for ast in asts]
    reference_graphs = [oracle.build_crf_graph(ast, reference) for ast in asts]
    config = TrainingConfig(epochs=2)
    product_model, _ = CrfTrainer(config).train(product_graphs[:split])
    reference_model, _ = CrfTrainer(config).train(reference_graphs[:split])

    assert product_model.num_parameters() > 0
    assert _decoded_weights(product_model) == _decoded_weights(reference_model)
    assert _predictions(product_model, product_graphs[split:]) == _predictions(
        reference_model, reference_graphs[split:]
    )
