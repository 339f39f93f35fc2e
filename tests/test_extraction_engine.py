"""Property tests: the single-pass engine vs the all-pairs oracle.

The single-pass extractor must produce *exactly* the reference path set
-- same endpoints, same encoded paths, same widths, same emission order,
same interned ids -- across random corpus ASTs, every language frontend,
and a range of (max_length, max_width) settings.  Downsampling must keep
the same subset (same RNG stream), and the per-AST reseeding must make
each tree's sample independent of processing order.
"""

import inspect
import textwrap

import pytest

from repro.core.extraction import ExtractionConfig, PathExtractor, PathTable, ast_fingerprint
from repro.core.interning import FeatureSpace
from repro.corpus import generate_corpus
from repro.corpus.generator import CorpusConfig
from repro.lang.base import parse_source
from repro.tasks.variable_naming import build_crf_graph

from oracles.extraction import ReferencePathExtractor, row_nodes, table_rows

LANGUAGES = ("javascript", "java", "python", "csharp")

SETTINGS = [
    (7, 3),
    (4, 1),
    (12, 4),
    (2, 2),
    (1, 1),
    (6, 100),  # effectively unbounded width
]


def corpus_sources(language, n_projects=3, seed=11):
    files = generate_corpus(CorpusConfig(language=language, n_projects=n_projects, seed=seed))
    return [f.source for f in files]


def corpus_asts(language, n_projects=3, seed=11):
    return [parse_source(language, source) for source in corpus_sources(language, n_projects, seed)]


def signature(extracted):
    """Per row: endpoints, context strings, geometry and interned ids."""
    if isinstance(extracted, PathTable):
        extracted = table_rows(extracted)
    return [
        (
            id(e.start),
            id(e.end),
            e.context.path,
            e.context.start_value,
            e.context.end_value,
            e.path.length,
            e.path.width,
            e.rel_id,
            e.start_value_id,
            e.end_value_id,
        )
        for e in extracted
    ]


class TestOracleEquivalence:
    @pytest.mark.parametrize("language", LANGUAGES)
    def test_exact_match_across_settings(self, language):
        asts = corpus_asts(language)
        space = FeatureSpace()
        for max_length, max_width in SETTINGS:
            config = ExtractionConfig(
                max_length=max_length, max_width=max_width, include_semi_paths=True
            )
            engine = PathExtractor(config, space=space)
            oracle = ReferencePathExtractor(config, space=space)
            for ast in asts:
                assert signature(engine.extract(ast)) == signature(oracle.extract(ast)), (
                    f"mismatch for {language} at length={max_length} width={max_width}"
                )

    def test_abstractions_match(self):
        asts = corpus_asts("javascript", n_projects=2)
        space = FeatureSpace()
        for abstraction in ("no-arrows", "forget-order", "first-top-last", "no-path"):
            config = ExtractionConfig(abstraction=abstraction)
            engine = PathExtractor(config, space=space)
            oracle = ReferencePathExtractor(config, space=space)
            for ast in asts:
                assert signature(engine.extract(ast)) == signature(oracle.extract(ast))

    def test_leaf_filter_matches(self, fig1_ast):
        config = ExtractionConfig(leaf_filter=lambda leaf: leaf.value == "d")
        space = FeatureSpace()
        engine = PathExtractor(config, space=space)
        oracle = ReferencePathExtractor(config, space=space)
        assert signature(engine.extract(fig1_ast)) == signature(oracle.extract(fig1_ast))

    def test_downsampling_keeps_identical_subset(self):
        asts = corpus_asts("python", n_projects=2)
        config = ExtractionConfig(downsample_p=0.35, seed=3)
        space = FeatureSpace()
        engine = PathExtractor(config, space=space)
        oracle = ReferencePathExtractor(config, space=space)
        for ast in asts:
            assert signature(engine.extract(ast)) == signature(oracle.extract(ast))


class TestPerAstDeterminism:
    def test_sample_independent_of_processing_order(self):
        """Satellite fix: the downsample of one AST must not depend on how
        many other ASTs the extractor processed before it."""
        asts = corpus_asts("javascript", n_projects=2)
        config = ExtractionConfig(downsample_p=0.5, seed=21)

        space = FeatureSpace()
        first_alone = signature(PathExtractor(config, space=space).extract(asts[0]))
        extractor = PathExtractor(config, space=space)
        for ast in asts[1:]:
            extractor.extract(ast)  # burn through other trees first
        assert signature(extractor.extract(asts[0])) == first_alone

    def test_fingerprint_stable_and_content_sensitive(self):
        ast_a = parse_source("javascript", "var x = 1;")
        ast_b = parse_source("javascript", "var x = 1;")
        ast_c = parse_source("javascript", "var y = 1;")
        assert ast_fingerprint(ast_a) == ast_fingerprint(ast_b)
        assert ast_fingerprint(ast_a) != ast_fingerprint(ast_c)

    def test_different_seeds_differ(self, fig1_ast):
        space = FeatureSpace()

        def sample(seed):
            config = ExtractionConfig(downsample_p=0.5, seed=seed)
            return signature(PathExtractor(config, space=space).extract(fig1_ast))

        assert sample(1) == sample(1)
        assert sample(1) != sample(2) or len(sample(1)) == 0


class TestReversedRelations:
    def test_reversed_rel_id_matches_recomputation(self):
        """The swapped shape key must agree with computing alpha(reversed(p))."""
        asts = corpus_asts("javascript", n_projects=2)
        for abstraction in ("full", "no-arrows", "forget-order", "first-last"):
            config = ExtractionConfig(abstraction=abstraction)
            alpha = config.resolve_abstraction()
            extractor = PathExtractor(config, space=FeatureSpace())
            for ast in asts:
                table = extractor.extract(ast)
                for row, extracted in zip(table.rows, table_rows(table)):
                    _, s, e, up, down, top = row
                    rid = table.rel_id(e, s, down, up, top)
                    assert extractor.space.paths.value(rid) == alpha(extracted.path.reversed())
                    assert table.rel_id(s, e, up, down, top) == extracted.rel_id

    def test_callable_abstraction_not_cached_but_correct(self, fig1_ast):
        extractor = PathExtractor(
            ExtractionConfig(abstraction=lambda p: p.encode()), space=FeatureSpace()
        )
        table = extractor.extract(fig1_ast)
        for (_, s, e, up, down, top), extracted in zip(table.rows, table_rows(table)):
            rid = table.rel_id(e, s, down, up, top)
            assert extractor.space.paths.value(rid) == extracted.path.reversed().encode()
        assert extractor.cache_stats()["shape_entries"] == 0


class TestAnchoredRows:
    """``extract_between`` against the reference ``paths_from``: same
    pairs, in (source, target) order, with the same ids once every row is
    resolved in order."""

    @staticmethod
    def both(config=None, **settings):
        config = config or ExtractionConfig(**settings)
        return (
            PathExtractor(config, space=FeatureSpace()),
            ReferencePathExtractor(config, space=FeatureSpace()),
        )

    def test_mixed_endpoints_match_oracle(self):
        asts = corpus_asts("java", n_projects=1)[:3]
        engine, oracle = self.both()
        for ast in asts:
            nodes = list(ast.root.walk())
            sources = nodes[::7]
            targets = nodes[::3]
            for enforce in (True, False):
                table = engine.extract_between(sources, targets, enforce)
                assert signature(table) == signature(oracle.paths_from(sources, targets, enforce))

    def test_source_ancestor_of_target(self, fig1_ast):
        engine, oracle = self.both()
        source = next(n for n in fig1_ast.root.walk() if n.kind == "If")
        targets = list(source.leaves())
        table = engine.extract_between([source], targets)
        rows = row_nodes(table)
        assert len(table) == len(targets) and {up for _, _, up, _, _ in rows} == {0}
        assert {top for *_, top in rows} == {source}
        assert signature(table) == signature(oracle.paths_from([source], targets))

    def test_target_ancestor_of_source(self, fig1_ast):
        engine, oracle = self.both(max_length=3)
        leaf = max(fig1_ast.leaves, key=lambda node: node.depth())
        ancestors = list(leaf.ancestors())
        assert len(ancestors) > 3
        table = engine.extract_between([leaf], ancestors)
        rows = row_nodes(table)
        assert [end for _, end, *_ in rows] == ancestors[:3]
        assert {down for _, _, _, down, _ in rows} == {0}
        assert signature(table) == signature(oracle.paths_from([leaf], ancestors))

    def test_node_never_paired_with_itself(self, fig1_ast):
        engine, oracle = self.both()
        leaves = fig1_ast.leaves
        table = engine.extract_between(leaves[:3], leaves[:3])
        assert len(table) == 6
        assert all(start is not end for start, end, *_ in row_nodes(table))
        assert signature(table) == signature(oracle.paths_from(leaves[:3], leaves[:3]))

    def test_limits_off_keeps_long_and_wide_paths(self, fig1_ast):
        engine, oracle = self.both(max_length=2, max_width=1)
        leaves = fig1_ast.leaves
        limited = engine.extract_between(leaves[:1], leaves)
        unlimited = engine.extract_between(leaves[:1], leaves, enforce_limits=False)
        assert len(limited) < len(unlimited) == len(leaves) - 1
        assert max(up + down for _, _, _, up, down, _ in unlimited.rows) > 2
        assert signature(unlimited) == signature(
            oracle.paths_from(leaves[:1], leaves, enforce_limits=False)
        )

    def test_width_pruning(self):
        """var a,b,c,d: the a--d path has width 3."""
        ast = parse_source("javascript", "var a, b, c, d;")
        a = next(leaf for leaf in ast.leaves if leaf.value == "a")
        for width in (2, 3):
            engine, oracle = self.both(max_length=4, max_width=width)
            table = engine.extract_between([a], ast.leaves)
            reached = {end.value for _, end, *_ in row_nodes(table)}
            assert ("d" in reached) == (width >= 3)
            assert signature(table) == signature(oracle.paths_from([a], ast.leaves))

    def test_downsampling_draws_in_pair_order(self):
        asts = corpus_asts("javascript", n_projects=1)[:4]
        engine, oracle = self.both(downsample_p=0.5, seed=9)
        kept = total = 0
        for ast in asts:
            for source in ast.leaves[::5]:
                table = engine.extract_between([source], ast.leaves)
                expected = oracle.paths_from([source], ast.leaves)
                assert signature(table) == signature(expected)
                kept += len(table)
                total += len(PathExtractor().extract_between([source], ast.leaves))
        assert 0 < kept < total


class TestShapeMemo:
    """A table resolves each shape key through the extractor once: the
    rows after the first that share a key read the table's memo."""

    @pytest.mark.parametrize(
        "language, source",
        [
            ("python", inspect.getsource(textwrap.dedent)),
            ("javascript", corpus_sources("javascript", n_projects=1, seed=5)[0]),
        ],
        ids=["stdlib-definition", "javascript-file"],
    )
    def test_extractor_resolves_each_shape_key_once(self, language, source, monkeypatch):
        keys = []
        resolve = PathExtractor._rel

        def counted(self, space, key, *rest):
            keys.append(key)
            return resolve(self, space, key, *rest)

        monkeypatch.setattr(PathExtractor, "_rel", counted)
        graph = build_crf_graph(parse_source(language, source), PathExtractor(space=FeatureSpace()))
        assert keys and len(keys) == len(set(keys))
        # Each known and unary row resolves one relation, each edge row
        # pair two: most of them were memo hits.
        known, edges, unary = graph.known_factors, graph.edge_factors, graph.unary_factors
        resolved = len(known) // 3 + len(edges) // 3 + len(unary) // 2
        assert resolved > len(keys)
