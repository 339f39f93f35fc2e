"""Tests for the corpus-level ExtractionService."""

import pytest

from repro.core.extraction import ExtractionConfig, PathExtractor
from repro.core.interning import FeatureSpace
from repro.core.paths import path_between
from repro.core.service import ExtractionService
from repro.corpus import generate_corpus
from repro.corpus.generator import CorpusConfig
from repro.lang.base import parse_source

from oracles.extraction import row_nodes


def corpus_sources(language="javascript", n_projects=2, seed=13):
    files = generate_corpus(CorpusConfig(language=language, n_projects=n_projects, seed=seed))
    return [f.source for f in files]


class TestMemoization:
    def test_repeat_extraction_hits_cache(self, fig1_ast):
        service = ExtractionService(config=ExtractionConfig())
        first = service.extract(fig1_ast)
        second = service.extract(fig1_ast)
        assert second is first
        assert service.stats.asts == 1
        assert service.stats.cache_hits == 1

    @pytest.mark.parametrize("max_width", [3, 0], ids=["pairs", "no-pairs"])
    def test_counts_every_node_once(self, fig1_ast, max_width):
        service = ExtractionService(config=ExtractionConfig(max_width=max_width))
        service.extract(fig1_ast)
        service.extract(fig1_ast)  # a memo hit walks nothing
        assert service.stats.nodes == fig1_ast.size()

    def test_results_match_bare_extractor(self, fig1_ast):
        space = FeatureSpace()
        service = ExtractionService(config=ExtractionConfig(), space=space)
        bare = PathExtractor(ExtractionConfig(), space=space)
        a = service.extract(fig1_ast).triples()
        b = bare.extract(fig1_ast).triples()
        assert a == b

    def test_bind_space_drops_memo(self, fig1_ast):
        service = ExtractionService(config=ExtractionConfig())
        first = service.extract(fig1_ast)
        service.bind_space(FeatureSpace())
        second = service.extract(fig1_ast)
        assert second is not first
        assert service.stats.asts == 2

    def test_extract_many_shares_vocab(self):
        sources = corpus_sources(n_projects=1)
        service = ExtractionService(config=ExtractionConfig(), space=FeatureSpace())
        asts = [parse_source("javascript", s) for s in sources]
        tables = [service.extract(ast) for ast in asts]
        assert service.stats.asts == len(asts) > 1
        # Every emitted id, from every AST, decodes through the one
        # shared space.
        for table in tables:
            for (start, end, *_), (_start_id, rel_id, _end_id) in zip(
                row_nodes(table), table.triples()
            ):
                assert service.space.paths.value(rel_id) == path_between(start, end).encode()


class TestExtractorFacade:
    def test_duck_types_as_extractor(self, fig1_ast):
        from repro.tasks.variable_naming import build_crf_graph

        service = ExtractionService(config=ExtractionConfig(), space=FeatureSpace())
        graph = build_crf_graph(fig1_ast, service)
        assert graph.space is service.space
        assert len(graph) == 1

    def test_extract_between_forwards_without_memo(self, fig1_ast):
        space = FeatureSpace()
        service = ExtractionService(config=ExtractionConfig(), space=space)
        bare = PathExtractor(ExtractionConfig(), space=space)
        leaves = fig1_ast.leaves
        table = service.extract_between(leaves[:2], leaves)
        assert table.triples() == bare.extract_between(leaves[:2], leaves).triples()
        assert service.stats.asts == 0 and service.memo_stats()["memoized_asts"] == 0

    def test_config_and_space_exposed(self):
        service = ExtractionService(config=ExtractionConfig(max_length=5))
        assert service.config.max_length == 5
        assert service.space is service.extractor.space

    def test_extractor_and_config_are_exclusive(self):
        with pytest.raises(ValueError):
            ExtractionService(
                extractor=PathExtractor(ExtractionConfig()),
                config=ExtractionConfig(),
            )
