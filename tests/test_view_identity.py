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
factor order.  The method-naming and type-prediction graphs read the
product's anchored rows (``extract_between``); their oracles connect the
same elements path by path through the reference ``paths_from``, with
the method oracle also finding call sites by one walk per method.

Corpora: generated programs in all four languages and top-level
definitions from pinned stdlib modules present in CPython 3.10-3.13.

The serving section checks the string-free relation ids of a loaded
model (the ``full`` abstraction over a per-request overlay) against the
string route, on the two ``perfbench`` models.
"""

import importlib.util
import os
import sys
import sysconfig

import pytest

from repro.api import Pipeline
from repro.core import extraction
from repro.core.extraction import ExtractionConfig, PathExtractor
from repro.core.interning import FeatureSpace
from repro.corpus import generate_corpus
from repro.corpus.generator import CorpusConfig
from repro.lang.base import parse_source
from repro.learning.crf import CrfTrainer, TrainingConfig
from repro.learning.crf.inference import map_inference, topk_for_node
from repro.tasks import method_naming, type_prediction, variable_naming

from fixtures import STDLIB_MODULES, stdlib_definitions
from oracles import extraction as oracle
from oracles.crf import factors_of, plane_rows

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
    decoded = []
    for i, node in enumerate(graph.unknowns):
        factors = factors_of(graph, i)
        decoded.append(
            (
                node.key,
                node.gold,
                [(paths.value(f.rel), values.value(f.label)) for f in factors.known],
                [(paths.value(e.rel), e.other) for e in factors.edges],
                [paths.value(rel) for rel in factors.unary],
            )
        )
    return decoded


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
        for use_external in (True, False):
            assert decoded_graph(
                method_naming.build_method_graph(ast, product, use_external=use_external)
            ) == decoded_graph(
                oracle.build_method_graph(ast, reference, use_external=use_external)
            )


def assert_type_views_identical(asts, **settings):
    product, reference = _extractors(**settings)
    for ast in asts:
        assert decoded_graph(type_prediction.build_type_graph(ast, product)) == decoded_graph(
            oracle.build_type_graph(ast, reference)
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
    assert_type_views_identical(corpora["java"], **SETTINGS[setting])


def test_type_views_identical_at_default_limits(corpora):
    graphs = [type_prediction.build_type_graph(ast, PathExtractor()) for ast in corpora["java"]]
    assert sum(len(graph) for graph in graphs) > 0
    assert any(
        factors_of(graph, i).unary for graph in graphs for i in range(len(graph))
    )
    assert_type_views_identical(corpora["java"])
    # The tuned cell of Table 2: paths of length 1 from each expression.
    assert_type_views_identical(
        corpora["java"], max_length=1, max_width=0, include_semi_paths=False
    )


def test_table_rows_materialise_like_the_oracle(corpora):
    """Reading every row in order assigns the oracle's ids exactly."""
    for ast in corpora["java"][:4] + corpora["stdlib"][:6]:
        product, reference = _extractors()
        rows = [
            (id(e.start), id(e.end), e.rel_id, e.start_value_id, e.end_value_id, e.context)
            for e in oracle.table_rows(product.extract(ast))
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
    pair_rows, unary_rows = plane_rows(model.plane)
    pairs = {
        (values.value(label), paths.value(rel), values.value(other)): weight
        for label, rel, other, weight in pair_rows
    }
    unary = {
        (values.value(label), paths.value(rel)): weight
        for label, rel, weight in unary_rows
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


# ----------------------------------------------------------------------
# Serving: relation ids without path strings
# ----------------------------------------------------------------------

#: Requests per model: enough unseen relations to exercise every route.
SERVED_UNITS = 40


def _perfbench_inputs():
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "inputs.py"
    )
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, spec.name, inputs)  # its dataclasses look it up
        spec.loader.exec_module(inputs)
        stdlib = inputs.load_stdlib()
        js = (inputs.js_training_sources(), inputs.js_eval_units(4))
    return stdlib, js


@pytest.fixture(scope="module")
def serving_models(tmp_path_factory):
    """model -> (artifact path, request sources, training sources) for the
    perfbench models."""
    stdlib, (js_train, js_units) = _perfbench_inputs()
    cells = {
        "javascript": ("javascript", js_train, js_units),
        "stdlib": ("python", [u.source for u in stdlib.train], stdlib.held_out),
    }
    models = {}
    for name, (language, train, units) in cells.items():
        if len(units) < SERVED_UNITS // 4:
            continue  # too few of the pinned stdlib modules are installed
        pipeline = Pipeline(language=language, training={"epochs": 1})
        pipeline.train(train)
        path = str(tmp_path_factory.mktemp("serving") / f"{name}.pmod")
        pipeline.save(path)
        models[name] = (path, [u.source for u in units[:SERVED_UNITS]], train)
    return models


def _model(serving_models, name):
    if name not in serving_models:
        pytest.skip("too few of the pinned stdlib modules are installed")
    return serving_models[name]


def _string_route(pipeline):
    """``pipeline`` with its extractor interning every missed path string."""
    pipeline.representation.extractor._full = False
    return pipeline


def _count_row_paths(monkeypatch):
    calls = []
    real = extraction._row_path

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(extraction, "_row_path", counted)
    return calls


@pytest.mark.parametrize("name", ["stdlib", "javascript"])
def test_string_free_serving_matches_the_string_route(serving_models, name, monkeypatch):
    path, sources, _ = _model(serving_models, name)
    calls = _count_row_paths(monkeypatch)
    reference = _string_route(Pipeline.load(path)).scoring_handle()
    predicted = [reference.predict(source) for source in sources]
    suggested = [reference.suggest(source, k=5) for source in sources]
    assert calls  # the requests meet relations the model never saw
    calls.clear()

    loaded = Pipeline.load(path)
    handle = loaded.scoring_handle()
    assert [handle.predict(source) for source in sources] == predicted
    assert [handle.suggest(source, k=5) for source in sources] == suggested
    extractor = loaded.representation.extractor
    assert extractor._base_split == len(loaded.space.paths)  # the index was split
    again = Pipeline.load(path).scoring_handle()
    assert [again.suggest(source, k=5) for source in sources] == suggested
    assert [again.predict(source) for source in sources] == predicted
    # Each fresh handle's first request builds the index from the key
    # that missed; that request must resolve the key through the index.
    for source, expected in zip(sources[:10], suggested):
        assert Pipeline.load(path).scoring_handle().suggest(source, k=5) == expected
    assert calls == []  # no AstPath on any request, the first included


def _factor_rows(graph):
    return [list(rows) for rows in (graph.known_factors, graph.edge_factors, graph.unary_factors)]


def test_unseen_relations_decode_on_demand(serving_models, monkeypatch):
    path, sources, _ = _model(serving_models, "stdlib")

    def overlay_views(pipeline):
        base = pipeline.space
        views = []
        for source in sources:
            pipeline.representation.bind_space(base.overlay())
            try:
                views.append(pipeline.view(pipeline.parse(source)))
            finally:
                pipeline.representation.bind_space(base)
        return views

    reference = overlay_views(_string_route(Pipeline.load(path)))
    expected = [decoded_graph(view) for view in reference]
    calls = _count_row_paths(monkeypatch)
    spelled = []
    spell = extraction._spell_shape
    monkeypatch.setattr(
        extraction, "_spell_shape", lambda trie, key: spelled.append(key) or spell(trie, key)
    )
    views = overlay_views(Pipeline.load(path))
    assert not spelled
    # The same ids, in the same first-miss order, as the string route.
    assert [_factor_rows(view) for view in views] == [_factor_rows(view) for view in reference]
    assert [decoded_graph(view) for view in views] == expected
    assert calls == []
    assert spelled  # the unseen relations, spelled from their shapes


def test_a_live_pipeline_needs_no_split(serving_models):
    path, sources, train = _model(serving_models, "javascript")
    pipeline = Pipeline.load(path)
    trained = Pipeline(pipeline.spec)
    trained.train(train)
    expected = [pipeline.suggest(source, k=5) for source in sources]
    assert [trained.suggest(source, k=5) for source in sources] == expected
    extractor = trained.representation.extractor
    assert extractor._base_split == 0
    assert len(extractor._base_shape_cache) == len(trained.space.paths)


@pytest.mark.parametrize(
    "abstraction",
    ["first-top-last", "no-arrows", lambda path: path.encode()],
    ids=["first-top-last", "no-arrows", "callable"],
)
def test_other_abstractions_keep_the_string_route(serving_models, abstraction, monkeypatch):
    _, sources, train = _model(serving_models, "javascript")
    pipeline = Pipeline(
        language="javascript", extraction={"abstraction": abstraction}, training={"epochs": 1}
    )
    pipeline.train(train)

    def refuse(self):
        raise AssertionError("the base index is only for the full abstraction")

    monkeypatch.setattr(PathExtractor, "_index_base", refuse)
    calls = _count_row_paths(monkeypatch)
    for source in sources:
        pipeline.predict(source)
        pipeline.suggest(source, k=5)
    assert calls  # every request spells its unseen relations out
