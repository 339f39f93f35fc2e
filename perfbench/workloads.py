"""The two workloads: what each sends, what it times and what it checks.

Every workload trains the model it uses, so a run needs nothing but the
checkout and the interpreter.  Each caller is a closed loop: it sends
its next request only after the previous reply arrived, as an editor or
a CI job does.

A run is a series of *cycles*, repeated until the run's seconds are up
and a minimum count is done: a training job plus a pass over the
held-out code (stdlib-train-predict), or a training job plus a set of
served rounds (js-serve-suggest).  Every request and every job is thus
timed more than once.  Each time is taken at reference speed
(:mod:`perfbench.meter`): the wall time of a short piece of work (a
group of requests, a job, a model load, a served round) scaled by a
reference loop run right before and after it, which cancels the shared
host's changes of speed.  A metric is then a median over the run:
``train_s`` and ``setup_s`` are the medians of their repetitions, a
held-out definition's latency the median of its sends, and
js-serve-suggest's percentiles are over all of its sends.

``WORKLOADS[name](seed, seconds, trace, workdir)`` returns a
:class:`Result`.  With ``trace=False`` it holds the end-to-end metrics
and the tracer is never imported.  With ``trace=True`` each cycle's
training job and requests run as shipped and then again with the layer
wrappers of :mod:`perfbench.spans` installed; the result holds the
per-layer metrics and the tracing overhead (traced over untraced wall
time, minus one).  Traced runs take plain wall times: no reference loop
runs, so the spans cover the caller's whole time.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple, TypeVar

from . import inputs
from .meter import REFERENCE_S, Meter
from .stats import MIN_TAIL_SAMPLES, percentile

T = TypeVar("T")

#: Epochs per training job.
STDLIB_EPOCHS = 1
JS_EPOCHS = 1
#: Fewest cycles per run: a training job and a predict pass each for
#: stdlib-train-predict, a training job and the next rounds in turn for
#: js-serve-suggest (enough for every round to be served twice).
MIN_CYCLES = 6
#: Model loads at the start of each predict pass (each one a ``setup_s``
#: sample), and requests timed between two reference loops.
LOADS_PER_PASS = 3
GROUP = 10
#: js-serve-suggest: suggestions per element, client threads (one closed
#: loop each, no more than the 2 cores the benchmark is sized for), the
#: shape of one request round, the rounds, and how many of them each
#: cycle serves after its training job.
TOP_K = 5
CLIENTS = 2
UNITS_PER_ROUND = 6
FILES_PER_UNIT = 4
DUPLICATION = 5
ROUNDS = 6
ROUNDS_PER_CYCLE = 2


@dataclass
class Result:
    #: metric name -> (value, unit)
    metrics: Dict[str, Tuple[float, str]]
    #: metric name -> number of samples behind it
    samples: Dict[str, int]
    attempted: int
    failed: int
    info: Dict[str, object] = field(default_factory=dict)
    #: The recorded spans of a traced run (empty otherwise).
    spans: list = field(default_factory=list)


def _clock() -> float:
    return time.perf_counter()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(meter: Optional[Meter], work: Callable[[], T]) -> Tuple[T, float, float]:
    """(result, wall seconds, scale to reference speed); scale 1 without a meter."""
    if meter is not None:
        return meter.measure(work)
    started = _clock()
    result = work()
    return result, _clock() - started, 1.0


def run_cycles(cycle: Callable[[int], T], seconds: float, min_cycles: int) -> List[T]:
    """``cycle(i)`` for i = 0, 1, ... until both limits are met."""
    done: List[T] = []
    started = _clock()
    while len(done) < min_cycles or _clock() - started < seconds:
        done.append(cycle(len(done)))
    return done


def median_by_key(samples: Iterable[Tuple[Hashable, float]]) -> Dict[Hashable, float]:
    """key -> the median of its timings."""
    grouped: Dict[Hashable, List[float]] = {}
    for key, seconds in samples:
        grouped.setdefault(key, []).append(seconds)
    return {key: statistics.median(values) for key, values in grouped.items()}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_artifact(language: str, sources: List[str], epochs: int, path: Path) -> None:
    """Corpus in memory -> ``pigeon-model/1`` artifact on disk."""
    from repro.api import Pipeline

    pipeline = Pipeline(language=language, training={"epochs": epochs})
    pipeline.train(sources)
    pipeline.save(str(path), format="binary")


class TrainingJobs:
    """Identical training jobs on one corpus, one artifact each.

    Every workload runs several, spread over its run, and reports the
    median as ``train_s``.  Training is deterministic, so a job whose
    artifact differs from the first job's is a failure.
    """

    def __init__(self, language: str, sources: List[str], epochs: int, workdir: Path) -> None:
        self.language = language
        self.sources = sources
        self.epochs = epochs
        self.workdir = workdir
        #: Each job's seconds at reference speed (wall seconds when traced).
        self.seconds: List[float] = []
        self.paths: List[Path] = []

    def run(self, meter: Optional[Meter] = None) -> Path:
        path = self.workdir / f"train{len(self.paths)}.pmod"
        _, seconds, scale = measure(
            meter, lambda: train_artifact(self.language, self.sources, self.epochs, path)
        )
        self.seconds.append(seconds * scale)
        self.paths.append(path)
        return path

    def mismatched(self) -> int:
        first = _digest(self.paths[0])
        return sum(_digest(path) != first for path in self.paths[1:])


def open_handle(path: Path, meter: Optional[Meter] = None) -> Tuple[float, object]:
    """Model artifact -> scoring handle ready for its first request; (seconds, handle)."""
    from repro.api import Pipeline

    handle, seconds, scale = measure(meter, lambda: Pipeline.load(str(path)).scoring_handle())
    return seconds * scale, handle


def accuracy(pairs) -> Tuple[float, int]:
    """Top-1 exact match against the original identifiers."""
    hits = total = 0
    for unit, predicted in pairs:
        for key, name in unit.gold.items():
            total += 1
            hits += predicted.get(key) == name
    return hits / total, total


def tail_latencies(latencies: Iterable[float]) -> Tuple[float, float]:
    """(p50, p90) in ms; a p90 without ten samples above it is an error."""
    latencies = list(latencies)
    p50, p90 = percentile(latencies, 0.5), percentile(latencies, 0.9)
    if p90 is None:
        raise RuntimeError(
            f"{len(latencies)} requests leave fewer than {MIN_TAIL_SAMPLES} above the p90"
        )
    return p50 * 1e3, p90 * 1e3


def end_to_end(setup, p50, p90, throughput, train_s, acc) -> Dict[str, Tuple[float, str]]:
    return {
        "setup_s": (setup, "s"),
        "latency_ms.p50": (p50, "ms"),
        "latency_ms.p90": (p90, "ms"),
        "throughput.lines_per_s": (throughput, "lines/s"),
        "train_s": (train_s, "s"),
        "accuracy": (acc, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def meter_info(meter: Meter) -> Dict[str, object]:
    return {
        "reference_loops": len(meter.probes),
        "reference_loop_ms": f"{meter.median_ms():.3f} median, {REFERENCE_S * 1e3:g} at "
        "reference speed",
    }


def traced_twice(cycle, seconds: float):
    """Each cycle as shipped, then again traced, until the seconds are up.

    Alternating keeps the host's drift out of the overhead estimate.
    Returns (tracer, untraced results, traced results, untraced wall,
    traced wall).
    """
    from .spans import Tracer

    tracer = Tracer()
    reference, traced = [], []
    plain_s = traced_s = 0.0
    started = _clock()
    while not traced or _clock() - started < seconds:
        begun = _clock()
        reference.append(cycle(len(reference), None))
        plain_s += _clock() - begun
        with tracer.installed():
            begun = _clock()
            traced.append(cycle(len(traced), tracer))
            traced_s += _clock() - begun
    return tracer, reference, traced, plain_s, traced_s


def trace_result(tracer, base_s, overhead, attempted, failed, info, **layer_kwargs) -> Result:
    from .spans import layer_metrics

    layers = layer_metrics(tracer.spans, tracer.counters, int(base_s * 1e9), **layer_kwargs)
    layers.setdefault("serving.cache_hit_rate", 0.0)
    layers.setdefault("serving.coalesced", 0)
    layers.setdefault("serving.mean_batch", 0.0)
    layers["trace.overhead_share"] = overhead
    metrics = {name: (value, _layer_unit(name)) for name, value in layers.items()}
    return Result(metrics, {}, attempted, failed, info, spans=tracer.spans)


def _layer_unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms"
    if name.endswith(("share", "_rate")) or name == "serving.mean_batch":
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
# stdlib-train-predict
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One pass over the held-out definitions with a freshly loaded model."""

    #: each load of the model, in seconds
    setup_s: List[float]
    #: (unit, predictions, latency seconds) in send order
    requests: list


def predict_pass(model: Path, units, seed: int, index: int, meter=None, tracer=None) -> Pass:
    setups = []
    for _ in range(LOADS_PER_PASS):
        seconds, handle = open_handle(model, meter)
        setups.append(seconds)
    order = inputs.shuffled(units, seed, f"pass{index}")

    def send(group) -> list:
        sent_group = []
        for unit in group:
            tag = tracer.request(f"{unit.name}@{index}") if tracer else nullcontext()
            with tag:
                sent = _clock()
                predicted = handle.predict(unit.source)
                sent_group.append((unit, predicted, _clock() - sent))
        return sent_group

    requests = []
    for start in range(0, len(order), GROUP):
        sent_group, _, scale = measure(meter, lambda: send(order[start : start + GROUP]))
        requests.extend((unit, predicted, s * scale) for unit, predicted, s in sent_group)
    return Pass(setups, requests)


def stdlib_train_predict(seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    from repro.api import Pipeline

    corpus = inputs.load_stdlib()
    units = corpus.held_out
    # One pinned training corpus: the model, and so its accuracy, is the
    # same for every seed; the seed orders the held-out requests.
    jobs = TrainingJobs("python", [u.source for u in corpus.train], STDLIB_EPOCHS, workdir)
    model = jobs.run()
    info = dict(corpus.describe(), epochs=STDLIB_EPOCHS)

    if trace:

        def traced_cycle(index: int, tracer) -> Pass:
            jobs.run()
            return predict_pass(model, units, seed, index, tracer=tracer)

        tracer, reference, traced, plain_s, traced_s = traced_twice(traced_cycle, seconds)
        failed = jobs.mismatched() + sum(
            a[1] != b[1]
            for ref, got in zip(reference, traced)
            for a, b in zip(ref.requests, got.requests)
        )
        attempted = sum(len(p.requests) + 1 for p in traced)
        info.update(cycles=len(traced), requests=attempted - len(traced))
        return trace_result(
            tracer, traced_s, traced_s / plain_s - 1.0, attempted, failed, info,
            caller_threads={threading.get_ident()},
        )

    meter = Meter()

    def cycle(index: int) -> Pass:
        jobs.run(meter)
        return predict_pass(model, units, seed, index, meter)

    passes = run_cycles(cycle, seconds, MIN_CYCLES)
    # Every response must equal a direct predict on a fresh load.
    fresh = Pipeline.load(str(model))
    expected = {unit.name: fresh.predict(unit.source) for unit in units}
    requests = [request for p in passes for request in p.requests]
    failed = jobs.mismatched() + sum(
        predicted != expected[unit.name] for unit, predicted, _ in requests
    )
    acc, elements = accuracy((unit, expected[unit.name]) for unit in units)

    # A definition's latency is the median of its sends.
    per_unit = median_by_key((unit.name, latency) for unit, _, latency in requests)
    p50, p90 = tail_latencies(per_unit.values())
    throughput = sum(unit.lines for unit in units) / sum(per_unit.values())
    setups = [s for p in passes for s in p.setup_s]
    # The first job, before the meter existed, made the model; it is not timed.
    train_s = jobs.seconds[1:]
    info.update(cycles=len(passes), requests=len(requests), **meter_info(meter))
    samples = {
        "setup_s": len(setups),
        "latency_ms.p50": len(units),
        "latency_ms.p90": len(units),
        "throughput.lines_per_s": len(units),
        "train_s": len(train_s),
        "accuracy": elements,
        "peak_rss_mb": 1,
    }
    metrics = end_to_end(
        statistics.median(setups), p50, p90, throughput, statistics.median(train_s), acc
    )
    return Result(metrics, samples, len(jobs.seconds) + len(requests), failed, info)


# ----------------------------------------------------------------------
# js-serve-suggest
# ----------------------------------------------------------------------
@contextmanager
def serving(model: Path, meter: Optional[Meter] = None):
    """A live in-process server for ``model``; yields (set-up seconds, URL)."""
    from repro.serving import ModelHost, PredictionServer, ServerThread, ServingClient

    with ExitStack() as stack:

        def start() -> str:
            server = PredictionServer(ModelHost([str(model)]), port=0)
            url = stack.enter_context(ServerThread(server))
            with ServingClient(url) as client:
                client.healthz()
            return url

        url, seconds, scale = measure(meter, start)
        yield seconds * scale, url


@dataclass
class Round:
    """One round of served requests against a freshly started server."""

    setup_s: float
    #: the round's wall time, at reference speed when metered
    wall_s: float
    #: summed wall time the client threads were busy in the round
    busy_s: float
    #: (unit, suggestions or None on error, latency seconds) in send order
    requests: list
    stats: dict


def serve_round(model: Path, units, order, meter: Optional[Meter] = None) -> Round:
    """Send ``units`` in ``order`` from :data:`CLIENTS` closed-loop clients.

    Each round has its own server, so every round starts with an empty
    response cache; duplicates within the round hit the cache or
    coalesce onto the first request in flight.  The reference loops run
    while the server is idle, before and after the round's requests.
    """
    from repro.serving import ServingClient, ServingError

    queue = iter(enumerate(order))
    results: Dict[int, tuple] = {}
    lock = threading.Lock()

    def client(url: str) -> float:
        started = _clock()
        with ServingClient(url) as connection:
            while True:
                with lock:
                    item = next(queue, None)
                if item is None:
                    return _clock() - started
                position, index = item
                sent = _clock()
                try:
                    suggestions = connection.predict(units[index].source, top=TOP_K)["suggestions"]
                except (ServingError, OSError):
                    suggestions = None
                results[position] = (units[index], suggestions, _clock() - sent)

    def send_all(url: str) -> float:
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            return sum(f.result() for f in [pool.submit(client, url) for _ in range(CLIENTS)])

    with serving(model, meter) as (setup_s, url):
        busy_s, wall_s, scale = measure(meter, lambda: send_all(url))
        with ServingClient(url) as connection:
            stats = connection.stats()
    requests = [(unit, got, s * scale) for unit, got, s in (results[i] for i in range(len(order)))]
    return Round(setup_s, wall_s * scale, busy_s, requests, stats)


def js_serve_suggest(seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    from repro.api import Pipeline

    jobs = TrainingJobs("javascript", inputs.js_training_sources(), JS_EPOCHS, workdir)
    model = jobs.run()
    rounds_in = inputs.js_rounds(seed, ROUNDS, UNITS_PER_ROUND, FILES_PER_UNIT)
    info: Dict[str, object] = {
        "epochs": JS_EPOCHS, "clients": CLIENTS, "top": TOP_K,
        "rounds": f"{ROUNDS} x ({UNITS_PER_ROUND} units x {DUPLICATION} sends)",
    }

    def serve(round_index: int, serving: int, meter: Optional[Meter] = None) -> Round:
        order = inputs.send_order(seed, round_index, serving, UNITS_PER_ROUND, DUPLICATION)
        return serve_round(model, rounds_in[round_index], order, meter)

    if trace:
        tracer, reference, traced, plain_s, traced_s = traced_twice(
            lambda index, _tracer: [serve(i, index) for i in range(ROUNDS)], seconds
        )
        rounds = [r for cycle in traced for r in cycle]
        failed = sum(
            got is None or got != ref
            for ref_cycle, got_cycle in zip(reference, traced)
            for ref_round, got_round in zip(ref_cycle, got_cycle)
            for (_, ref, _), (_, got, _) in zip(ref_round.requests, got_round.requests)
        )
        requests = [request for r in rounds for request in r.requests]
        info.update(cycles=len(traced), requests=len(requests))
        result = trace_result(
            tracer,
            sum(r.setup_s + r.busy_s for r in rounds),
            traced_s / plain_s - 1.0,
            len(requests),
            failed,
            info,
            caller_threads={threading.get_ident()},
            client_latency_ns=int(sum(latency for _, _, latency in requests) * 1e9),
            client_requests=len(requests),
        )
        hits = sum(r.stats["cache"]["hits"] for r in rounds)
        lookups = hits + sum(r.stats["cache"]["misses"] for r in rounds)
        batches = sum(r.stats["batcher"]["batches"] for r in rounds)
        result.metrics["serving.cache_hit_rate"] = (hits / lookups, "ratio")
        result.metrics["serving.coalesced"] = (sum(r.stats["coalesced"] for r in rounds), "count")
        result.metrics["serving.mean_batch"] = (
            sum(r.stats["batcher"]["items"] for r in rounds) / batches, "ratio",
        )
        return result

    meter = Meter()

    def cycle(index: int) -> List[Round]:
        """A training job, then the next :data:`ROUNDS_PER_CYCLE` round servings in turn."""
        jobs.run(meter)
        slots = range(index * ROUNDS_PER_CYCLE, (index + 1) * ROUNDS_PER_CYCLE)
        return [serve(slot % ROUNDS, slot // ROUNDS, meter) for slot in slots]

    rounds = [r for served in run_cycles(cycle, seconds, MIN_CYCLES) for r in served]
    requests = [request for r in rounds for request in r.requests]

    # Every response must equal a direct suggest on a fresh load.
    fresh = Pipeline.load(str(model))
    expected = {
        unit.name: {
            key: [[label, score] for label, score in ranked]
            for key, ranked in fresh.suggest(unit.source, k=TOP_K).items()
        }
        for units in rounds_in
        for unit in units
    }
    failed = jobs.mismatched() + sum(
        suggestions != expected[unit.name] for unit, suggestions, _ in requests
    )
    acc, elements = accuracy(
        (unit, fresh.predict(unit.source)) for unit in inputs.js_eval_units(FILES_PER_UNIT)
    )

    # Servings differ in send order, so the percentiles are over every
    # send of the run, and throughput over every serving.
    p50, p90 = tail_latencies(latency for _, _, latency in requests)
    lines = sum(unit.lines for unit, _, _ in requests)
    info.update(servings=len(rounds), requests=len(requests), **meter_info(meter))
    samples = {
        "setup_s": len(rounds),
        "latency_ms.p50": len(requests),
        "latency_ms.p90": len(requests),
        "throughput.lines_per_s": len(rounds),
        "train_s": len(jobs.seconds) - 1,
        "accuracy": elements,
        "peak_rss_mb": 1,
    }
    metrics = end_to_end(
        statistics.median(r.setup_s for r in rounds), p50, p90,
        lines / sum(r.wall_s for r in rounds), statistics.median(jobs.seconds[1:]), acc,
    )
    return Result(metrics, samples, len(jobs.seconds) + len(requests), failed, info)


WORKLOADS: Dict[str, Callable[[int, float, bool, Path], Result]] = {
    "stdlib-train-predict": stdlib_train_predict,
    "js-serve-suggest": js_serve_suggest,
}
