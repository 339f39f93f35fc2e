"""The :class:`Pipeline` facade: one object per (language, task,
representation, learner) cell.

This is the public face of the plugin architecture.  A pipeline is built
from a :class:`~repro.api.spec.RunSpec`, resolves each name through its
registry, validates that the axes compose, and then exposes the
train / predict / suggest / rename workflow of the paper's PIGEON tool
(Sec. 5.1) plus single-file model persistence::

    from repro.api import Pipeline

    pipeline = Pipeline(language="javascript")        # paths + CRF
    pipeline.train(training_sources)
    pipeline.predict(source)                          # element -> name
    pipeline.suggest(source, k=5)                     # element -> top-k
    pipeline.save("model.bin")                        # pigeon-model/1
    ...
    Pipeline.load("model.bin").predict(source)        # identical output

Baselines are the same one-line change the paper describes::

    Pipeline(language="javascript", learner="word2vec",
             representation="token-context")          # Table 3, row 1
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..lang.base import languages, parse_source
from ..resilience import faults
from ..resilience.checkpoint import (
    TrainerCheckpoint,
    corpus_fingerprint,
    shards_fingerprint,
)
from .learners import learners
from .protocols import (
    GRAPH_VIEW,
    Learner,
    LearnerStats,
    ParsedProgram,
    Representation,
    Task,
    UnsupportedSpecError,
)
from .representations import representations
from .spec import RunSpec
from .tasks import tasks

@dataclass
class PipelineStats:
    """Summary of one training run."""

    files_trained: int = 0
    elements_trained: int = 0
    parameters: int = 0
    train_seconds: float = 0.0


class Pipeline:
    """Train-and-predict facade for one registry cell."""

    def __init__(self, spec: Optional[RunSpec] = None, /, **spec_kwargs) -> None:
        if spec is None:
            spec = RunSpec(**spec_kwargs)
        elif spec_kwargs:
            raise TypeError("pass either a RunSpec or keyword fields, not both")
        self.spec = spec

        languages.get(spec.language)  # raises UnknownPluginError with the known list
        self.task: Task = tasks.create(spec.task)
        representation_cls = representations.get(spec.representation)
        learner_cls = learners.get(spec.learner)
        self._validate(representation_cls, learner_cls)

        extraction = dict(spec.extraction)
        default_length, default_width = self.task.default_params(spec.language)
        extraction.setdefault("max_length", default_length)
        extraction.setdefault("max_width", default_width)
        self.representation: Representation = representation_cls(extraction)
        self.learner: Learner = learner_cls(spec)
        # Path-based representations intern features into a private
        # FeatureSpace; the learner is told about it so its serialized
        # state can carry the vocab (and so ids stay meaningful on load).
        binder = getattr(self.learner, "bind_space", None)
        if binder is not None:
            binder(self.space)
        self.stats = PipelineStats()
        #: The opened model artifact backing this pipeline, when it was
        #: built by :meth:`load` (None otherwise).
        self.artifact = None

    @property
    def space(self):
        """The representation's feature space (None for string-token reps)."""
        return getattr(self.representation, "space", None)

    @property
    def service(self):
        """The representation's extraction service, when it has one."""
        return getattr(self.representation, "service", None)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self, representation_cls, learner_cls) -> None:
        spec = self.spec
        if self.task.languages is not None and spec.language not in self.task.languages:
            raise UnsupportedSpecError(
                f"task {spec.task!r} supports languages {self.task.languages}; "
                f"got {spec.language!r}"
            )
        view = learner_cls.consumes
        if view not in representation_cls.provides:
            raise UnsupportedSpecError(
                f"learner {spec.learner!r} consumes the {view!r} view, but "
                f"representation {spec.representation!r} provides {representation_cls.provides}"
            )
        if view not in self.task.views:
            raise UnsupportedSpecError(
                f"learner {spec.learner!r} consumes the {view!r} view, but "
                f"task {spec.task!r} supports {self.task.views}"
            )
        supported_tasks = getattr(representation_cls, "tasks", None)
        if supported_tasks is not None and spec.task not in supported_tasks:
            raise UnsupportedSpecError(
                f"representation {spec.representation!r} supports tasks "
                f"{supported_tasks}; got {spec.task!r}"
            )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def parse(self, source: str, name: str = "") -> ParsedProgram:
        """Parse one source text with the spec's language frontend."""
        return ParsedProgram(
            language=self.spec.language,
            source=source,
            ast=parse_source(self.spec.language, source),
            name=name,
        )

    def view(self, program: ParsedProgram):
        """The feature view of one program that this cell's learner consumes."""
        if self.learner.consumes == GRAPH_VIEW:
            return self.representation.graph(self.task, program, name=program.name)
        return self.representation.contexts(self.task, program)

    def fit_views(self, views: Sequence) -> LearnerStats:
        """Fit the learner on pre-built views (used by the eval harness)."""
        return self.learner.fit(list(views))

    # ------------------------------------------------------------------
    # The PIGEON workflow
    # ------------------------------------------------------------------
    def train(
        self,
        sources: Optional[Sequence[str]] = None,
        *,
        shards: Optional[object] = None,
        merged: Optional[object] = None,
        cache_shards: int = 2,
        checkpoint: Optional[str] = None,
        resume: bool = False,
    ) -> PipelineStats:
        """Train from source texts, or stream a sharded corpus.

        ``sources`` is the in-memory path: every file's feature view is
        built (and held) before the learner fits.  ``shards`` accepts a
        shard directory, a list of shard paths, or an opened
        :class:`~repro.shards.ShardSet` built by ``pigeon shard build``
        (or :func:`repro.shards.build_spec_shards`) for this same spec;
        the shard-local vocabs are merged into one global space and the
        learner fits on a :class:`~repro.shards.ShardedCorpus` that
        decodes one shard at a time -- same model, bit for bit.  The CRF
        learner never materialises the corpus (graphs decode per access,
        a few shards resident); the word2vec learner streams the *views*
        but still accumulates the derived (label, token) pair list,
        which is compact relative to the graphs it replaces yet grows
        with corpus size.  ``cache_shards`` bounds how many shard
        payloads stay resident during streamed training: more memory,
        fewer re-parses under the CRF trainer's shuffled epochs.
        ``merged`` skips the vocab merge by reusing a
        :class:`~repro.shards.MergedSpace` (or a manifest file written
        by ``pigeon shard merge --out``); its provenance is checked
        against the shard digests.

        ``checkpoint`` names a file the trainer atomically rewrites at
        every epoch boundary; with ``resume=True`` an existing
        checkpoint (verified against this spec and a fingerprint of the
        training data) is restored and training continues from the last
        completed epoch, producing a model bit-identical to the
        uninterrupted run.
        """
        if (sources is None) == (shards is None):
            raise TypeError("pass either sources or shards=, not both")
        if merged is not None and shards is None:
            raise TypeError("merged= only applies to shards= training")
        if resume and checkpoint is None:
            raise TypeError("resume=True needs a checkpoint= path")
        if shards is not None:
            return self._train_from_shards(
                shards, merged, cache_shards, checkpoint=checkpoint, resume=resume
            )
        sources = list(sources)
        ckpt = self._open_checkpoint(
            checkpoint, resume, lambda: corpus_fingerprint(sources)
        )
        programs = [self.parse(source, name=f"train:{i}") for i, source in enumerate(sources)]
        views = [self.view(program) for program in programs]
        learner_stats = (
            self.learner.fit(views)
            if ckpt is None
            else self.learner.fit(views, checkpoint=ckpt)
        )
        self.stats = PipelineStats(
            files_trained=len(programs),
            elements_trained=sum(len(view) for view in views),
            parameters=learner_stats.parameters,
            train_seconds=learner_stats.train_seconds,
        )
        return self.stats

    def _open_checkpoint(self, path, resume, fingerprint):
        """Build the :class:`TrainerCheckpoint` for this run (or None)."""
        if path is None:
            return None
        return TrainerCheckpoint.open(
            os.fspath(path),
            spec=self.spec.to_dict(),
            corpus=fingerprint(),
            resume=resume,
        )

    def _train_from_shards(
        self,
        shards: object,
        merged: Optional[object] = None,
        cache_shards: int = 2,
        checkpoint: Optional[str] = None,
        resume: bool = False,
    ) -> PipelineStats:
        """Streamed training over a sharded corpus (see :meth:`train`)."""
        from ..shards import MergedSpace, ShardSet, ShardedCorpus, load_manifest
        from ..shards.build import extraction_meta
        from ..shards.format import ShardMismatchError

        shard_set = ShardSet.open(shards)
        spec_dict = shard_set.spec_dict
        if spec_dict is None:
            raise ShardMismatchError(
                f"shards of kind {shard_set.kind!r} carry no spec; training "
                f"needs view shards from 'pigeon shard build' (not raw "
                f"extraction shards)"
            )
        for axis in ("language", "task", "representation", "learner"):
            ours = getattr(self.spec, axis)
            theirs = spec_dict.get(axis)
            if theirs != ours:
                raise ShardMismatchError(
                    f"shards were built for {axis}={theirs!r} but this "
                    f"pipeline is {axis}={ours!r} ({self.spec.cell()})"
                )
        if self.space is None:
            raise ShardMismatchError(
                f"representation {self.spec.representation!r} has no feature "
                f"space; sharded training needs a path-based representation"
            )
        ours_extraction = extraction_meta(self.service.config)
        theirs_extraction = shard_set.meta.get("extraction")
        if theirs_extraction != ours_extraction:
            raise ShardMismatchError(
                f"shards were extracted under {theirs_extraction!r} but this "
                f"pipeline resolves to {ours_extraction!r}; rebuild the "
                f"shards or align the spec's extraction options"
            )

        started = time.perf_counter()
        if merged is not None and not isinstance(merged, MergedSpace):
            merged = load_manifest(os.fspath(merged), shards=shard_set)
        corpus = ShardedCorpus(shard_set, merged=merged, cache_shards=cache_shards)
        # Adopt the merged global space: the learner's ids must mean the
        # same strings as the corpus's, and predict-time extraction must
        # intern new programs into the very same space.
        self.representation.bind_space(corpus.space)
        binder = getattr(self.learner, "bind_space", None)
        if binder is not None:
            binder(corpus.space)
        ckpt = self._open_checkpoint(
            checkpoint, resume, lambda: shards_fingerprint(shard_set)
        )
        learner_stats = (
            self.learner.fit(corpus)
            if ckpt is None
            else self.learner.fit(corpus, checkpoint=ckpt)
        )
        self.stats = PipelineStats(
            files_trained=len(corpus),
            elements_trained=corpus.elements,
            parameters=learner_stats.parameters,
            train_seconds=time.perf_counter() - started,
        )
        return self.stats

    def predict(self, source: str) -> Dict[str, str]:
        """element key -> predicted label for one program."""
        return self.learner.predict(self.view(self.parse(source)))

    def suggest(self, source: str, k: int = 5) -> Dict[str, List[Tuple[str, float]]]:
        """element key -> top-k (label, score) suggestions."""
        return self._suggest_view(self.view(self.parse(source)), k)

    def _suggest_view(self, view, k: int) -> Dict[str, List[Tuple[str, float]]]:
        # The one boundary every top-k request crosses (this pipeline and
        # its ScoringHandle): a k below 1 would silently truncate or
        # misorder inside the learners' slicing.
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return self.learner.suggest(view, k=k)

    def rename(self, source: str) -> str:
        """Predict names and return the renamed program text.

        The paper's deobfuscation workflow (Figs. 7-8): predict a name
        for every renameable element, substitute the predictions on the
        tree, and print it back.  Available for renameable tasks in the
        languages with a source printer (JavaScript, Python).
        """
        from ..lang.printing import apply_renaming, print_source

        if not getattr(self.task, "renameable", False):
            raise UnsupportedSpecError(
                f"rename() applies to renameable tasks, not {self.spec.task!r}"
            )
        predictions = self.predict(source)
        program = self.parse(source)
        apply_renaming(program.ast, predictions)
        return print_source(program.ast)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def scoring_handle(self) -> "ScoringHandle":
        """A read-only scoring view for the serving layer.

        Freezes this pipeline's :class:`~repro.core.interning.FeatureSpace`
        (after which direct ``train`` is off the table and any attempt to
        intern a new string outside an overlay raises
        :class:`~repro.core.interning.FrozenVocabError`) and returns a
        handle whose ``predict`` / ``suggest`` intern each request through
        a throwaway overlay space.  The shared state is therefore
        immutable under any amount of concurrent traffic, and per-request
        vocab growth is reclaimed when the request finishes.
        """
        return ScoringHandle(self)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str, format: str = "binary") -> None:
        """Persist spec + trained learner state as one model artifact.

        Writes a ``pigeon-model/1`` file (see :mod:`repro.artifacts`):
        the learner state packed into mmap-ready numpy sections, which
        :meth:`load` maps without parsing (one digest pass, no copy)
        and which N serving processes on one box share through the OS
        page cache.
        ``"binary"`` is the only ``format``.  A pipeline loaded from a
        pruned artifact is saved with the same prune provenance and
        float32 weights, so saving is a faithful copy.
        """
        if format != "binary":
            raise ValueError(f"unknown save format {format!r} (only 'binary')")
        if not self.learner.trained:
            raise RuntimeError("call train() before save()")
        faults.fire("pipeline.save")
        from ..artifacts import write_state_artifact

        write_state_artifact(
            os.fspath(path),
            self.spec.to_dict(),
            self.spec.learner,
            self.learner.state_dict(),
            prune=self.artifact.prune if self.artifact is not None else None,
        )

    @classmethod
    def load(cls, path: str) -> "Pipeline":
        """Open a model artifact written by :meth:`save` as a trained pipeline.

        The learner adopts packed read-only state whose arrays are
        zero-copy views over the artifact's mapping, and predicts
        bit-identically to the pipeline that saved it.  The pipeline
        keeps the opened :class:`~repro.artifacts.ModelArtifact` on
        :attr:`artifact` (pinning the mapping and exposing header
        metadata like prune provenance).  The header stamp and the
        payload digest are both checked before the learner is restored:
        a torn, truncated, bit-flipped or foreign file raises
        :class:`~repro.resilience.atomicio.CorruptArtifactError` with a
        recovery hint, never a silently wrong model.
        """
        from ..artifacts import ModelArtifact, restore_learner

        artifact = ModelArtifact.open(path, verify_payload=True)
        pipeline = cls(RunSpec.from_dict(artifact.spec))
        restore_learner(pipeline.learner, artifact)
        pipeline.artifact = artifact
        # The learner state carries the feature space its int keys index
        # into; the representation must intern new programs into the SAME
        # space or predict-time ids would not match the trained weights.
        space = getattr(pipeline.learner, "space", None)
        rebind = getattr(pipeline.representation, "bind_space", None)
        if space is not None and rebind is not None:
            rebind(space)
        return pipeline


class ScoringHandle:
    """Read-only prediction over a trained pipeline with a frozen space.

    The handle is what a server holds: the trained weights and their
    feature space become immutable at construction, and every scoring
    call builds its feature view against a fresh
    :meth:`~repro.core.interning.FeatureSpace.overlay`, so

    * base ids never shift -- predictions are bit-identical to the
      mutable ``Pipeline.predict`` path (unseen features miss the weight
      tables under either id assignment);
    * nothing a request interns outlives the request -- the resident
      footprint is bounded no matter how much traffic flows through;
    * concurrent readers share nothing mutable except the representation
      instance, which a lock confines to one scoring call at a time
      (scoring is pure-Python CPU work, so the lock costs nothing that
      the GIL was not already charging).
    """

    def __init__(self, pipeline: Pipeline) -> None:
        if not pipeline.learner.trained:
            raise RuntimeError(
                "scoring_handle() needs a trained pipeline: call train() "
                "or Pipeline.load() first"
            )
        self.pipeline = pipeline
        self.spec = pipeline.spec
        self._base_space = pipeline.space
        if self._base_space is not None:
            self._base_space.freeze()
        # Freeze-time compile: the CRF learner packs its weights against
        # the now-frozen base vocab once, and every request (and every
        # throwaway overlay -- overlay ids sit above the packed id range
        # and score 0.0, like any label the model never saw) reuses that
        # pack instead of re-freezing per call.
        warm = getattr(pipeline.learner, "ensure_compiled", None)
        if warm is not None:
            warm()
        self._lock = threading.Lock()

    @property
    def cell(self) -> str:
        return self.spec.cell()

    @property
    def service(self):
        """The underlying extraction service (None for token-stream reps)."""
        return self.pipeline.service

    def extraction_stats(self) -> dict:
        """Extraction counters for the serving ``/stats`` route."""
        service = self.service
        return service.memo_stats() if service is not None else {}

    def fingerprinted(self, source: str) -> Tuple[ParsedProgram, str]:
        """Parse once: the program and its structural AST digest.

        Parsing does not intern, so this is safe outside the scoring
        lock; two sources differing only in layout share a digest, and
        (unlike the 32-bit terminal-sequence ``ast_fingerprint``, which
        only seeds downsampling) structurally different programs never
        do.  The server uses the digest as its response-cache key and,
        on a cache miss, hands the already-parsed program back to
        :meth:`predict` so the source is not parsed twice.
        """
        from ..core.extraction import ast_digest

        program = self.pipeline.parse(source)
        return program, ast_digest(program.ast)

    def fingerprint(self, source: str) -> str:
        """The request's structural AST digest (the response-cache key)."""
        return self.fingerprinted(source)[1]

    def predict(
        self, source: str, program: Optional[ParsedProgram] = None
    ) -> Dict[str, str]:
        """element key -> predicted label (read-only, overlay-interned)."""
        return self._score(source, k=None, program=program)

    def suggest(
        self, source: str, k: int = 5, program: Optional[ParsedProgram] = None
    ) -> Dict[str, List[Tuple[str, float]]]:
        """element key -> top-k (label, score) (read-only, overlay-interned)."""
        return self._score(source, k=k, program=program)

    def _score(
        self, source: str, k: Optional[int], program: Optional[ParsedProgram] = None
    ):
        pipeline = self.pipeline
        if program is None:
            program = pipeline.parse(source)
        with self._lock:
            rebind = getattr(pipeline.representation, "bind_space", None)
            overlaid = self._base_space is not None and rebind is not None
            if overlaid:
                # Rebinding swaps the request's throwaway overlay in; the
                # extractor keeps the *base* half of its shape cache
                # warm across these rebinds (entries referencing
                # only frozen-base ids mean the same strings under every
                # overlay) and discards only overlay-local entries, so no
                # request-local id ever leaks into shared state.
                rebind(self._base_space.overlay())
            try:
                view = pipeline.view(program)
                if k is None:
                    return pipeline.learner.predict(view)
                return pipeline._suggest_view(view, k)
            finally:
                if overlaid:
                    # Leave the pipeline bound to the frozen base, never
                    # to a request's dead overlay.
                    rebind(self._base_space)
