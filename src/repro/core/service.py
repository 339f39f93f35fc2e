"""Corpus-level extraction: memoization, a shared vocab, optional fan-out.

:class:`ExtractionService` wraps a :class:`~repro.core.extraction.PathExtractor`
with the three things every corpus-scale caller needs:

* **per-AST memoization** -- a program whose graph view and contexts view
  are both built (or that appears in several sweeps) is extracted once.
  The memo holds the AST's :class:`~repro.core.extraction.PathTable`,
  whose ids resolve on demand into the service's space, so it is
  dropped whenever the space is rebound;
* **a shared feature space** -- every AST that flows through one service
  interns into the same vocabularies, so ids are corpus-consistent;
* **batched / parallel source extraction** -- :meth:`index_sources`
  parses and extracts many source texts, optionally fanning out over a
  ``multiprocessing`` pool.  Workers return plain string triples (node
  objects never cross process boundaries); the parent interns them into
  the shared space, so the resulting ids are identical to a sequential
  run.

The service duck-types as an extractor (``extract`` / ``paths_from`` /
``context_for`` / ``config`` / ``space``), so task graph builders accept
either.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


@dataclass
class CorpusExtraction:
    """Result of :meth:`ExtractionService.index_sources` over one corpus."""

    files: int = 0
    paths: int = 0
    nodes: int = 0
    seconds: float = 0.0
    workers: int = 1
    #: interned (start_value_id, rel_id, end_value_id) triples per file.
    contexts: List[List[Tuple[int, int, int]]] = field(default_factory=list)
    space: Optional[FeatureSpace] = None

    @property
    def nodes_per_second(self) -> float:
        return self.nodes / self.seconds if self.seconds > 0 else 0.0

    def summary(self) -> dict:
        """JSON-ready stats (what ``pigeon extract`` prints)."""
        return {
            "files": self.files,
            "paths": self.paths,
            "nodes": self.nodes,
            "seconds": round(self.seconds, 4),
            "nodes_per_second": round(self.nodes_per_second, 1),
            "workers": self.workers,
            "unique_paths": len(self.space.paths) if self.space else 0,
            "unique_values": len(self.space.values) if self.space else 0,
        }


class ExtractionService:
    """Batched, memoized extraction over many ASTs with one shared vocab."""

    def __init__(
        self,
        extractor: Optional[PathExtractor] = None,
        config: Optional[ExtractionConfig] = None,
        space: Optional[FeatureSpace] = None,
        workers: int = 1,
    ) -> None:
        if extractor is None:
            # One *private* vocab per service by default: corpus stats
            # (unique paths/values) describe this corpus alone instead of
            # accumulating into the process-wide space.
            extractor = PathExtractor(
                config or ExtractionConfig(),
                space=space if space is not None else FeatureSpace(),
            )
        elif config is not None:
            raise ValueError("pass either an extractor or a config, not both")
        elif space is not None:
            extractor.bind_space(space)
        self.extractor = extractor
        self.workers = max(1, int(workers))
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

    def context_for(self, path, start_value=None, end_value=None):
        return self.extractor.context_for(path, start_value, end_value)

    def paths_from(self, sources, targets, enforce_limits: bool = True):
        return self.extractor.paths_from(sources, targets, enforce_limits)

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
        self.stats.nodes += ast.size()
        self._memo[ast] = extracted
        return extracted

    def extract_many(self, asts: Iterable[Ast]) -> List[PathTable]:
        """Extraction for a batch of ASTs (memoized, shared vocab)."""
        return [self.extract(ast) for ast in asts]

    # ------------------------------------------------------------------
    # Corpus-level source extraction (optionally parallel)
    # ------------------------------------------------------------------
    def index_sources(
        self,
        sources: Sequence[str],
        language: str,
        workers: Optional[int] = None,
    ) -> CorpusExtraction:
        """Parse + extract many source texts into interned context triples.

        With ``workers > 1`` (and a picklable configuration) the parse and
        extraction fan out over a process pool; interning always happens
        in the parent, so ids are identical to a sequential run.  Any
        failure to set up the pool falls back to sequential extraction.
        """
        n_workers = self.workers if workers is None else max(1, int(workers))
        started = time.perf_counter()
        per_file = None
        if n_workers > 1 and _config_is_picklable(self.extractor.config):
            per_file = self._map_parallel(sources, language, n_workers)

        result = CorpusExtraction(workers=n_workers, space=self.space)
        if per_file is not None:
            # Parallel: workers shipped string triples; intern them here
            # so ids are assigned in the same first-seen order as a
            # sequential run.
            values = self.space.values
            paths = self.space.paths
            for triples, node_count in per_file:
                interned = [
                    (values.intern(start), paths.intern(rel), values.intern(end))
                    for start, rel, end in triples
                ]
                result.contexts.append(interned)
                result.files += 1
                result.paths += len(interned)
                result.nodes += node_count
            # Lifetime counters stay mode-independent.
            self.stats.asts += result.files
            self.stats.paths += result.paths
            self.stats.nodes += result.nodes
            self.stats.seconds += time.perf_counter() - started
        else:
            # Sequential: go through our own extractor -- ids come out
            # already interned (shared shape/flip caches, stats updated),
            # with no string materialisation at all.
            from ..lang.base import parse_source  # local import: avoid a cycle

            result.workers = 1
            for source in sources:
                ast = parse_source(language, source)
                table = self.extract(ast)
                result.contexts.append(table.triples())
                result.files += 1
                result.paths += len(table)
                result.nodes += ast.size()
        result.seconds = time.perf_counter() - started
        return result

    def index_to_shards(
        self,
        sources: Sequence[str],
        language: str,
        out_dir: str,
        shard_size: int = 32,
        workers: Optional[int] = None,
        partition: Optional[Tuple[int, int]] = None,
        resume: bool = False,
    ):
        """Persist a corpus's extraction output as on-disk shards.

        The multi-machine sibling of :meth:`index_sources`: instead of
        interning everything into this service's space, the corpus is
        cut into ``shard_size``-file slices and each slice is extracted
        against its own shard-local vocab and written as one shard file
        (``workers > 1`` builds shards on a process pool; nothing
        corpus-sized crosses a process boundary).  Merge the shards back
        into one global space with
        :func:`repro.shards.merge_shards` -- the result is id-identical
        to what :meth:`index_sources` would have built in this process.

        Returns a :class:`repro.shards.ShardBuildResult`.
        """
        from ..shards.build import build_triples_shards  # local: avoid a cycle

        n_workers = self.workers if workers is None else max(1, int(workers))
        if not _config_is_picklable(self.extractor.config):
            n_workers = 1  # callables cannot ship to a pool; build inline
        return build_triples_shards(
            sources,
            language,
            self.extractor.config,
            out_dir,
            shard_size=shard_size,
            workers=n_workers,
            partition=partition,
            resume=resume,
        )

    def _map_parallel(
        self, sources: Sequence[str], language: str, n_workers: int
    ) -> Optional[List[Tuple[List[Tuple[str, str, str]], int]]]:
        try:
            import multiprocessing

            context = multiprocessing.get_context()
            with context.Pool(
                processes=n_workers,
                initializer=_init_worker,
                initargs=(language, self.extractor.config),
            ) as pool:
                return pool.map(_extract_in_worker, sources)
        except Exception:
            return None  # pool unavailable (sandbox, pickling, ...) -> sequential


def _config_is_picklable(config: ExtractionConfig) -> bool:
    """Workers rebuild the extractor from its config; callables may not ship."""
    return isinstance(config.abstraction, str) and config.leaf_filter is None


#: Per-worker state: (language, extractor), built once per process.
_WORKER: Dict[str, object] = {}


def _init_worker(language: str, config: ExtractionConfig) -> None:
    _WORKER["language"] = language
    _WORKER["extractor"] = PathExtractor(config, space=FeatureSpace())


def _extract_in_worker(source: str) -> Tuple[List[Tuple[str, str, str]], int]:
    """Parse one source text and return its context triples as strings."""
    from ..lang.base import parse_source  # local import: avoid a cycle

    extractor: PathExtractor = _WORKER["extractor"]  # type: ignore[assignment]
    ast = parse_source(_WORKER["language"], source)  # type: ignore[arg-type]
    decode = extractor.space.decode_context
    triples = [decode(triple) for triple in extractor.extract(ast).triples()]
    return triples, ast.size()
