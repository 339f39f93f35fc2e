"""Unit tests for path-context extraction (Sec. 4.2, 5.5)."""

import pytest

from repro.core.extraction import (
    ExtractionConfig,
    PathExtractor,
    extract_path_contexts,
)
from repro.lang.javascript import parse_js

from fixtures import FIG1_JS, FIG5_JS
from oracles.extraction import table_rows


class TestLimits:
    def test_max_length_respected(self, fig1_ast):
        for max_length in (1, 2, 4, 7):
            extractor = PathExtractor(
                ExtractionConfig(max_length=max_length, include_semi_paths=False)
            )
            for extracted in table_rows(extractor.extract(fig1_ast)):
                assert extracted.path.length <= max_length

    def test_max_width_respected(self, fig1_ast):
        for max_width in (0, 1, 2):
            extractor = PathExtractor(
                ExtractionConfig(max_width=max_width, include_semi_paths=False)
            )
            for extracted in table_rows(extractor.extract(fig1_ast)):
                assert extracted.path.width <= max_width

    def test_wider_limits_extract_supersets(self, fig1_ast):
        def contexts(length, width):
            extractor = PathExtractor(
                ExtractionConfig(max_length=length, max_width=width, include_semi_paths=False)
            )
            return {
                (id(e.start), id(e.end)) for e in table_rows(extractor.extract(fig1_ast))
            }

        narrow = contexts(3, 1)
        wide = contexts(7, 3)
        assert narrow <= wide

    def test_fig5_width_filter(self):
        """var a,b,c,d: the a--d path (width 3) needs max_width >= 3."""
        ast = parse_js(FIG5_JS)
        def pairs(width):
            extractor = PathExtractor(
                ExtractionConfig(max_length=4, max_width=width, include_semi_paths=False)
            )
            return {
                (e.start.value, e.end.value) for e in table_rows(extractor.extract(ast))
            }
        assert ("a", "d") not in pairs(2)
        assert ("a", "d") in pairs(3)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PathExtractor(ExtractionConfig(max_length=0))
        with pytest.raises(ValueError):
            PathExtractor(ExtractionConfig(max_width=-1))
        with pytest.raises(ValueError):
            PathExtractor(ExtractionConfig(downsample_p=0.0))
        with pytest.raises(ValueError):
            PathExtractor(ExtractionConfig(downsample_p=1.5))


class TestSemiPaths:
    def test_semi_paths_flagged(self, fig1_ast):
        extractor = PathExtractor(ExtractionConfig(include_semi_paths=True))
        semis = [e for e in table_rows(extractor.extract(fig1_ast)) if e.is_semi]
        assert semis
        for extracted in semis:
            assert extracted.start.is_terminal
            assert not extracted.end.is_terminal
            assert extracted.path.length <= extractor.config.max_length

    def test_semi_paths_can_be_disabled(self, fig1_ast):
        extractor = PathExtractor(ExtractionConfig(include_semi_paths=False))
        assert all(not e.is_semi for e in table_rows(extractor.extract(fig1_ast)))


class TestDownsampling:
    def test_p_one_keeps_everything(self, fig1_ast):
        base = PathExtractor(ExtractionConfig(downsample_p=1.0, include_semi_paths=False))
        assert len(base.extract(fig1_ast)) > 0

    def test_downsampling_reduces_count(self, fig1_ast):
        full = len(PathExtractor(ExtractionConfig(include_semi_paths=False)).extract(fig1_ast))
        sampled = len(
            PathExtractor(
                ExtractionConfig(downsample_p=0.3, seed=1, include_semi_paths=False)
            ).extract(fig1_ast)
        )
        assert sampled < full

    def test_downsampling_deterministic_under_seed(self, fig1_ast):
        def run(seed):
            extractor = PathExtractor(
                ExtractionConfig(downsample_p=0.5, seed=seed, include_semi_paths=False)
            )
            return [
                (e.context.start_value, e.context.path, e.context.end_value)
                for e in table_rows(extractor.extract(fig1_ast))
            ]

        assert run(7) == run(7)
        assert run(7) != run(8) or len(run(7)) == 0


class TestLeafFilter:
    def test_filter_restricts_endpoints(self, fig1_ast):
        extractor = PathExtractor(
            ExtractionConfig(
                leaf_filter=lambda leaf: leaf.value == "d",
                include_semi_paths=False,
            )
        )
        for extracted in table_rows(extractor.extract(fig1_ast)):
            assert extracted.start.value == "d"
            assert extracted.end.value == "d"


class TestConvenience:
    def test_extract_path_contexts(self, fig1_ast):
        contexts = extract_path_contexts(fig1_ast, max_length=7, max_width=3)
        encodings = {c.path for c in contexts}
        assert "SymbolRef↑UnaryPrefix!↑While↓If↓Assign=↓SymbolRef" in encodings

    def test_abstraction_option(self, fig1_ast):
        contexts = extract_path_contexts(fig1_ast, abstraction="no-path")
        assert {c.path for c in contexts} == {"*"}

    def test_overrides_via_kwargs(self, fig1_ast):
        extractor = PathExtractor(ExtractionConfig(max_length=3), max_length=5)
        assert extractor.config.max_length == 5
