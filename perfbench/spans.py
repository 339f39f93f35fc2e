"""Outside-in span tracing: time calls into each layer's public functions.

The tracer never touches the program's source.  :func:`targets` names
the public function of every measured layer; :meth:`Tracer.installed`
swaps each for a timing wrapper and puts the original back on exit.  Only
the traced run (``--trace 1``) imports this module, so the timed run
executes the program exactly as shipped.

A span records its name, its parent (the span open on the same thread
when it started), the request id set by the caller, its thread and its
start and end.  Spans stay in memory until the run ends.  A span's *self
time* is its duration minus the durations of its direct children, so the
self times of one call tree add up to the duration of its root.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: Every span name, in the order the report lists them.
SPAN_NAMES = (
    "lang.parse",
    "core.extraction.digest",
    "core.extraction.extract",
    "tasks.build_graph",
    "learning.crf.compile_graph",
    "learning.crf.candidates",
    "learning.crf.score",
    "learning.crf.map",
    "learning.crf.topk",
    "learning.crf.train.loss_aug_map",
    "learning.crf.train",
    "artifacts.save",
    "artifacts.load",
    "api.score",
)


@dataclass(frozen=True)
class Span:
    name: str
    span_id: int
    parent_id: Optional[int]
    request_id: Optional[str]
    thread_id: int
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class Target:
    """One public function to time: ``owner.attr`` becomes span ``name``.

    ``on_result(tracer, result)`` records counts from the return value.
    """

    owner: object
    attr: str
    name: str
    on_result: Optional[Callable[["Tracer", object], None]] = None


def _count_paths(tracer: "Tracer", extracted) -> None:
    tracer.count("core.extraction.extract.paths", len(extracted))


def _count_graph(tracer: "Tracer", graph) -> None:
    tracer.count("tasks.unknown_nodes", len(graph))
    tracer.count("tasks.factors", sum(node.degree() for node in graph.unknowns))


def _count_updates(tracer: "Tracer", trained) -> None:
    _model, stats = trained
    tracer.count("learning.crf.train.updates", stats.updates)


def targets() -> List[Target]:
    """The wrapped public function of every measured layer.

    Module-level functions are wrapped where their caller looks them up:
    ``map_inference`` is imported by name into both the learner module
    (prediction) and the trainer module (loss-augmented inference), so
    wrapping each name separately tells the two uses apart.
    ``candidate_ids_for`` is wrapped on the base model class, which the
    packed (memory-mapped) model inherits it from.
    """
    from importlib import import_module

    # Modules by full name: some packages re-export a registry under the
    # same name as one of their submodules.
    learners, pipeline, tasks, extraction, service, compiled, model, training = (
        import_module(f"repro.{name}")
        for name in (
            "api.learners", "api.pipeline", "api.tasks", "core.extraction",
            "core.service", "learning.crf.compiled", "learning.crf.model",
            "learning.crf.training",
        )
    )
    return [
        Target(pipeline.Pipeline, "parse", "lang.parse"),
        Target(extraction, "ast_digest", "core.extraction.digest"),
        Target(service.ExtractionService, "extract", "core.extraction.extract", _count_paths),
        Target(tasks.VariableNamingTask, "build_graph", "tasks.build_graph", _count_graph),
        Target(compiled.CompiledCrfModel, "compile_graph", "learning.crf.compile_graph"),
        Target(model.CrfModel, "candidate_ids_for", "learning.crf.candidates"),
        Target(compiled.CompiledCrfModel, "score_candidates", "learning.crf.score"),
        Target(learners, "map_inference", "learning.crf.map"),
        Target(learners, "topk_for_node", "learning.crf.topk"),
        Target(training, "map_inference", "learning.crf.train.loss_aug_map"),
        Target(training.CrfTrainer, "train", "learning.crf.train", _count_updates),
        Target(pipeline.Pipeline, "save", "artifacts.save"),
        Target(pipeline.Pipeline, "load", "artifacts.load"),
        Target(pipeline.ScoringHandle, "predict", "api.score"),
        Target(pipeline.ScoringHandle, "suggest", "api.score"),
    ]


def current_bindings(target_list: Iterable[Target]) -> List[object]:
    """What each target's attribute holds right now (for identity checks)."""
    return [_raw(target.owner, target.attr) for target in target_list]


def _raw(owner: object, attr: str) -> object:
    # A class attribute is read from the class dict so a classmethod is
    # seen as the descriptor itself, not as a freshly bound method.
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class Tracer:
    """Collects spans and counts from wrapped calls, on any thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, request_id: str):
        """Tag every span this thread opens inside the block with one id."""
        self._local.request_id = request_id
        try:
            yield
        finally:
            self._local.request_id = None

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(self, function: Callable, name: str, on_result=None) -> Callable:
        """``function`` timed as span ``name``."""
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent_id = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(
                    Span(
                        name,
                        span_id,
                        parent_id,
                        getattr(tracer._local, "request_id", None),
                        threading.get_ident(),
                        start,
                        end,
                    )
                )
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    @contextmanager
    def installed(self, target_list: Optional[Sequence[Target]] = None):
        """Wrap every target for the duration of the block."""
        target_list = targets() if target_list is None else list(target_list)
        originals = [(t.owner, t.attr, _raw(t.owner, t.attr)) for t in target_list]
        try:
            for target, (_owner, _attr, original) in zip(target_list, originals):
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        self.wrap(original.__func__, target.name, target.on_result)
                    )
                else:
                    wrapped = self.wrap(original, target.name, target.on_result)
                setattr(target.owner, target.attr, wrapped)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Arithmetic over recorded spans
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """span id -> self time in ns (duration minus direct children)."""
    child_ns: Dict[int, int] = {}
    for span in spans:
        if span.parent_id is not None:
            child_ns[span.parent_id] = child_ns.get(span.parent_id, 0) + span.duration_ns
    return {span.span_id: span.duration_ns - child_ns.get(span.span_id, 0) for span in spans}


def layer_metrics(
    spans: Sequence[Span],
    counters: Dict[str, int],
    base_ns: int,
    caller_threads: Iterable[int],
    client_latency_ns: Optional[int] = None,
    client_requests: int = 0,
) -> Dict[str, float]:
    """Per-span calls, self ms and share of ``base_ns``, plus run totals.

    ``base_ns`` is the wall time of the traced phase, summed over the
    caller threads that drove it.  For a served workload the in-process
    spans run on server threads; ``client_latency_ns`` (the summed
    request latencies the clients saw) is then split into those spans and
    ``serving.self``, the rest: HTTP, queueing, batching and waiting.
    ``trace.unaccounted_share`` is the part of ``base_ns`` that no span
    and no client request covers.
    """
    callers = set(caller_threads)
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for span in spans:
        calls[span.name] += 1
        self_ns[span.name] += selfs[span.span_id]

    roots = [span for span in spans if span.parent_id is None]
    caller_roots_ns = sum(s.duration_ns for s in roots if s.thread_id in callers)
    server_roots_ns = sum(s.duration_ns for s in roots if s.thread_id not in callers)
    if client_latency_ns is None:
        serving_ns = 0
        accounted_ns = caller_roots_ns + server_roots_ns
    else:
        serving_ns = client_latency_ns - server_roots_ns
        accounted_ns = caller_roots_ns + client_latency_ns

    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_ms"] = self_ns[name] / 1e6
        metrics[f"{name}.share"] = self_ns[name] / base_ns
    metrics["serving.self.calls"] = client_requests
    metrics["serving.self.self_ms"] = serving_ns / 1e6
    metrics["serving.self.share"] = serving_ns / base_ns

    visits = calls["learning.crf.train.loss_aug_map"]
    updates = counters.get("learning.crf.train.updates", 0)
    metrics["core.extraction.extract.paths"] = counters.get("core.extraction.extract.paths", 0)
    metrics["tasks.unknown_nodes"] = counters.get("tasks.unknown_nodes", 0)
    metrics["tasks.factors"] = counters.get("tasks.factors", 0)
    metrics["learning.crf.train.updates"] = updates
    metrics["learning.crf.train.update_rate"] = updates / visits if visits else 0.0
    metrics["trace.unaccounted_share"] = (base_ns - accounted_ns) / base_ns
    return metrics
