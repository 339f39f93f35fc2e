"""Property tests: the single-pass engine vs the all-pairs oracle.

The single-pass extractor must produce *exactly* the reference path set
-- same endpoints, same encoded paths, same widths, same emission order,
same interned ids -- across random corpus ASTs, every language frontend,
and a range of (max_length, max_width) settings.  Downsampling must keep
the same subset (same RNG stream), and the per-AST reseeding must make
each tree's sample independent of processing order.
"""

import pytest

from repro.core.extraction import ExtractionConfig, PathExtractor, ast_fingerprint
from repro.core.interning import FeatureSpace
from repro.corpus import generate_corpus
from repro.corpus.generator import CorpusConfig
from repro.lang.base import parse_source

from oracles.extraction import ReferencePathExtractor

LANGUAGES = ("javascript", "java", "python", "csharp")

SETTINGS = [
    (7, 3),
    (4, 1),
    (12, 4),
    (2, 2),
    (1, 1),
    (6, 100),  # effectively unbounded width
]


def corpus_asts(language, n_projects=3, seed=11):
    files = generate_corpus(CorpusConfig(language=language, n_projects=n_projects, seed=seed))
    return [parse_source(language, f.source) for f in files]


def signature(extracted):
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
        for max_length, max_width in SETTINGS:
            config = ExtractionConfig(
                max_length=max_length, max_width=max_width, include_semi_paths=True
            )
            engine = PathExtractor(config)
            oracle = ReferencePathExtractor(config)
            for ast in asts:
                assert signature(engine.extract(ast)) == signature(oracle.extract(ast)), (
                    f"mismatch for {language} at length={max_length} width={max_width}"
                )

    def test_abstractions_match(self):
        asts = corpus_asts("javascript", n_projects=2)
        for abstraction in ("no-arrows", "forget-order", "first-top-last", "no-path"):
            config = ExtractionConfig(abstraction=abstraction)
            engine = PathExtractor(config)
            oracle = ReferencePathExtractor(config)
            for ast in asts:
                assert signature(engine.extract(ast)) == signature(oracle.extract(ast))

    def test_leaf_filter_matches(self, fig1_ast):
        config = ExtractionConfig(leaf_filter=lambda leaf: leaf.value == "d")
        engine = PathExtractor(config)
        oracle = ReferencePathExtractor(config)
        assert signature(engine.extract(fig1_ast)) == signature(oracle.extract(fig1_ast))

    def test_downsampling_keeps_identical_subset(self):
        asts = corpus_asts("python", n_projects=2)
        config = ExtractionConfig(downsample_p=0.35, seed=3)
        engine = PathExtractor(config)
        oracle = ReferencePathExtractor(config)
        for ast in asts:
            assert signature(engine.extract(ast)) == signature(oracle.extract(ast))


class TestPerAstDeterminism:
    def test_sample_independent_of_processing_order(self):
        """Satellite fix: the downsample of one AST must not depend on how
        many other ASTs the extractor processed before it."""
        asts = corpus_asts("javascript", n_projects=2)
        config = ExtractionConfig(downsample_p=0.5, seed=21)

        first_alone = signature(PathExtractor(config).extract(asts[0]))
        extractor = PathExtractor(config)
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
        def sample(seed):
            config = ExtractionConfig(downsample_p=0.5, seed=seed)
            return signature(PathExtractor(config).extract(fig1_ast))

        assert sample(1) == sample(1)
        assert sample(1) != sample(2) or len(sample(1)) == 0


class TestReversedRelations:
    def test_reversed_rel_id_matches_recomputation(self):
        """The swapped shape key must agree with computing alpha(reversed(p))."""
        asts = corpus_asts("javascript", n_projects=2)
        for abstraction in ("full", "no-arrows", "forget-order", "first-last"):
            extractor = PathExtractor(
                ExtractionConfig(abstraction=abstraction), space=FeatureSpace()
            )
            for ast in asts:
                table = extractor.extract(ast)
                for i, extracted in enumerate(table):
                    rid = table.reversed_rel_id(i)
                    expected = extractor.context_for(extracted.path.reversed()).path
                    assert extractor.space.paths.value(rid) == expected
                    assert table.rel_id(i) == extracted.rel_id

    def test_callable_abstraction_not_cached_but_correct(self, fig1_ast):
        extractor = PathExtractor(
            ExtractionConfig(abstraction=lambda p: p.encode()), space=FeatureSpace()
        )
        table = extractor.extract(fig1_ast)
        for i, extracted in enumerate(table):
            rid = table.reversed_rel_id(i)
            assert extractor.space.paths.value(rid) == extracted.path.reversed().encode()
        assert extractor.cache_stats()["shape_entries"] == 0
