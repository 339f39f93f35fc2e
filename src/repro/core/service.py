"""Corpus-level extraction: memoization and a shared vocab.

:class:`ExtractionService` wraps a :class:`~repro.core.extraction.PathExtractor`
with the two things every corpus-scale caller needs:

* **per-AST memoization** -- a program whose graph view and contexts view
  are both built (or that appears in several sweeps) is extracted once.
  The memo holds the AST's :class:`~repro.core.extraction.PathTable`,
  whose ids resolve on demand into the service's space, so it is
  dropped whenever the space is rebound;
* **a shared feature space** -- every AST that flows through one service
  interns into the same vocabularies, so ids are corpus-consistent.

The service duck-types as an extractor (``extract`` /
``extract_between`` / ``config`` / ``space``), so task graph builders
accept either.  Anchored rows (``extract_between``) are forwarded, not
memoized: they depend on the caller's sources and targets, and they draw
from the extractor's lifetime RNG when downsampling.  Corpora scale out
through view shards (:mod:`repro.shards`), not through the service.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Optional

from .ast_model import Ast
from .extraction import ExtractionConfig, PathExtractor, PathTable
from .interning import FeatureSpace


@dataclass
class ExtractionStats:
    """Aggregate counters for one service (monotonic over its lifetime)."""

    asts: int = 0
    cache_hits: int = 0
    paths: int = 0
    nodes: int = 0
    seconds: float = 0.0

    @property
    def nodes_per_second(self) -> float:
        return self.nodes / self.seconds if self.seconds > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON-ready counters (what the serving ``/stats`` route reports)."""
        return {
            "asts": self.asts,
            "cache_hits": self.cache_hits,
            "paths": self.paths,
            "nodes": self.nodes,
            "seconds": round(self.seconds, 4),
            "nodes_per_second": round(self.nodes_per_second, 1),
        }


class ExtractionService:
    """Memoized extraction over many ASTs with one shared vocab."""

    def __init__(
        self,
        extractor: Optional[PathExtractor] = None,
        config: Optional[ExtractionConfig] = None,
        space: Optional[FeatureSpace] = None,
    ) -> None:
        if extractor is None:
            # A private vocab unless one is given, as for any extractor:
            # corpus stats (unique paths/values) describe this corpus alone.
            extractor = PathExtractor(config or ExtractionConfig(), space=space)
        elif config is not None:
            raise ValueError("pass either an extractor or a config, not both")
        elif space is not None:
            extractor.bind_space(space)
        self.extractor = extractor
        self.stats = ExtractionStats()
        self._memo: "weakref.WeakKeyDictionary[Ast, PathTable]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    # Extractor facade
    # ------------------------------------------------------------------
    @property
    def config(self) -> ExtractionConfig:
        return self.extractor.config

    @property
    def space(self) -> FeatureSpace:
        return self.extractor.space

    def bind_space(self, space: FeatureSpace) -> None:
        """Re-target the shared vocab (drops memoized id-bearing records)."""
        self.extractor.bind_space(space)
        self._memo.clear()

    def memo_stats(self) -> dict:
        """Lifetime counters plus the live memo size.

        The serving layer shares this snapshot through ``/stats``: a
        response-cache hit never reaches the service, so ``asts`` staying
        flat across duplicate requests is the observable proof that
        cached responses skip extraction entirely.
        """
        return dict(self.stats.to_dict(), memoized_asts=len(self._memo))

    def extract_between(self, sources, targets, enforce_limits: bool = True) -> PathTable:
        return self.extractor.extract_between(sources, targets, enforce_limits)

    # ------------------------------------------------------------------
    # Memoized extraction
    # ------------------------------------------------------------------
    def extract(self, ast: Ast) -> PathTable:
        """One AST's path table, cached for the AST's lifetime."""
        cached = self._memo.get(ast)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        started = time.perf_counter()
        extracted = self.extractor.extract(ast)
        self.stats.seconds += time.perf_counter() - started
        self.stats.asts += 1
        self.stats.paths += len(extracted)
        self.stats.nodes += extracted.tree_size
        self._memo[ast] = extracted
        return extracted
