"""The asyncio HTTP prediction server (stdlib only).

``PredictionServer`` is the scoring tier's
:class:`~repro.serving.http.HttpService`: the shared front accepts,
parses and counts HTTP/1.1 keep-alive requests, and this class adds what
only a replica does:

* ``POST /predict`` runs the shared admission step
  (:func:`~repro.serving.admission.admit`: body checks, model
  resolution, and the :func:`~repro.core.extraction.ast_digest` of the
  source, computed off-loop or recalled without a parse from the digest
  memo when the same bytes were seen before), then answers from the LRU
  response cache when the same program x task was already scored;
* cache misses join the :class:`~repro.serving.batching.MicroBatcher`
  queue and fan out to the :class:`~repro.serving.host.ModelHost`;
  concurrent duplicates of an in-flight request coalesce onto the same
  scoring future instead of being scored twice;
* ``GET /healthz`` and ``GET /stats`` report liveness and counters;
* the ``replica.accept`` and ``replica.respond`` fault sites, and a
  draining state: shutdown closes the listener, answers queued work
  through the batcher, then closes the connections.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, Optional, Tuple

from ..resilience import faults
from ..resilience.faults import FaultInjected
from .admission import admit
from .batching import BatcherClosed, MicroBatcher
from .cache import LruCache
from .host import ModelHost, PredictRequest
from .http import MAX_BODY_BYTES, MAX_HEADER_BYTES, HttpRequest, HttpService

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "PredictionServer",
    "ServerThread",
]


class PredictionServer(HttpService):
    """One model host behind a micro-batched, cached asyncio HTTP server."""

    def __init__(
        self,
        host: ModelHost,
        address: str = "127.0.0.1",
        port: int = 8017,
        batch_size: int = 8,
        batch_wait_ms: float = 2.0,
        cache_size: int = 1024,
    ) -> None:
        super().__init__(address, port)
        self.host = host
        self.cache = LruCache(cache_size)
        #: source_key -> ast_digest, so a byte-identical resubmission
        #: skips the parse; sized like the response cache, so
        #: ``cache_size=0`` turns all caching off.
        self.digests = LruCache(cache_size)
        self.batcher = MicroBatcher(
            self.host.score_batch, batch_size=batch_size, batch_wait_ms=batch_wait_ms
        )
        self._inflight: Dict[Tuple, "asyncio.Future"] = {}
        self._predictions = 0
        self._coalesced = 0
        self._draining = False
        self.routes = {
            ("POST", "/predict"): self._predict,
            ("GET", "/healthz"): self._healthz,
            ("GET", "/stats"): self._stats,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start batching, bind the listener."""
        self.batcher.start()
        await super().start()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish everything in flight.

        New ``/predict`` requests are refused with 503 from here on, so
        the batcher, still running while accepted requests finish, only
        scores work that was already admitted.
        """
        self._draining = True
        await super().shutdown()
        await self.batcher.close()

    async def abort(self) -> None:
        """Die *now*: close the listener and every connection, no drain.

        The deliberately rude counterpart of :meth:`shutdown`, used by
        fleet tests (and :meth:`ServerThread.kill`) to simulate a
        crashed replica: in-flight requests see a connection reset, which
        is exactly what the front tier's retry-on-successor must absorb.
        """
        self._draining = True
        await super().abort()
        try:
            await self.batcher.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass

    async def _accept(self, request: HttpRequest) -> bool:
        # Fault site "replica.accept": an injected fault drops the
        # connection cold after the request was read -- the client sees
        # a reset with no response, exactly the signature a replica dying
        # mid-accept produces, which is what the router's failover path
        # must absorb.
        try:
            action = faults.fire("replica.accept")
        except FaultInjected:
            action = "drop"
        if action == "timeout":
            await asyncio.sleep(faults.TIMEOUT_SLEEP_S)
        return action is None

    # ------------------------------------------------------------------
    # GET /healthz, GET /stats
    # ------------------------------------------------------------------
    async def _healthz(self, _request: HttpRequest) -> Tuple[int, dict]:
        status = "draining" if self._draining else "ok"
        return (503 if self._draining else 200), {
            "status": status,
            "state": status,
            "models": self.host.cells(),
            "inflight": self._active_requests,
            "queued": self.batcher.depth,
            "uptime_seconds": round(self._uptime(), 3),
        }

    async def _stats(self, _request: HttpRequest) -> Tuple[int, dict]:
        return 200, self.stats()

    def stats(self) -> dict:
        extraction = {
            handle.cell: handle.extraction_stats()
            for handle in self.host.handles.values()
        }
        return {
            "uptime_seconds": round(self._uptime(), 3),
            "connections": self._connections,
            "requests": self._requests,
            "predictions": self._predictions,
            "coalesced": self._coalesced,
            "errors": self._errors,
            "draining": self._draining,
            # What the fleet's grey-box capacity model consumes: current
            # congestion (queue depth + in-flight) and per-endpoint
            # latency histograms to fit a service rate from.
            "inflight": self._active_requests,
            "queue_depth": self.batcher.depth,
            "latency": self.latency_stats(),
            "cache": self.cache.stats(),
            "digests": self.digests.stats(),
            "batcher": self.batcher.stats(),
            "extraction": extraction,
            # Per-model artifact path and cold-start load latency.
            "models": self.host.model_stats(),
        }

    # ------------------------------------------------------------------
    # The /predict pipeline
    # ------------------------------------------------------------------
    #: Retry-After hint on replica-side 503s: a draining replica is
    #: restarting (or its successor is taking over) within tens of
    #: milliseconds, so clients should re-knock quickly, not back off
    #: for seconds.
    RETRY_AFTER_S = "0.05"

    def _unavailable(self, reason: str) -> tuple:
        return 503, {"error": reason}, {"Retry-After": self.RETRY_AFTER_S}

    async def _predict(self, request: HttpRequest) -> tuple:
        if self._draining:
            return self._unavailable("server is draining; retry elsewhere")
        # Fault site "replica.respond": "unavail" answers 503 as if the
        # replica were overloaded; "timeout" stalls the response past a
        # caller's patience; "error" surfaces as a clean 500.
        try:
            action = faults.fire("replica.respond")
        except FaultInjected as error:
            return 500, {"error": f"injected fault: {error}"}
        if action == "unavail":
            return self._unavailable("injected unavailability; retry elsewhere")
        if action == "timeout":
            await asyncio.sleep(faults.TIMEOUT_SLEEP_S)
        admitted = await admit(request.body, self.host.handles, self.digests)
        handle, top, fingerprint = admitted.handle, admitted.top, admitted.digest

        # The response key must carry everything that changes the answer:
        # the digest only covers program *structure*, so two sources that
        # differ in source language (served by different cells) or in
        # ``top`` must not share an entry or coalesce onto each other's
        # in-flight future.
        spec = handle.spec
        key = (handle.cell, spec.language, top, fingerprint)
        cached = self.cache.get(key)
        if cached is not None:
            return 200, dict(cached, cached=True)

        scoring = PredictRequest(
            source=admitted.source,
            language=spec.language,
            task=spec.task,
            top=top,
            # Scoring reuses the parse that produced the fingerprint (on a
            # memo hit there was none, and scoring parses the source).
            program=admitted.program,
        )
        inflight = self._inflight.get(key)
        if inflight is not None:
            # A bit-identical request is already being scored: share its
            # result instead of paying for a second extraction.
            self._coalesced += 1
            try:
                result = await asyncio.shield(inflight)
            except asyncio.CancelledError:
                return self._unavailable("server is draining; retry elsewhere")
            except Exception as error:  # noqa: BLE001 - surfaced as HTTP 500
                return 500, {"error": f"scoring failed: {error}"}
            if "error" in result:
                return 500, {"error": f"scoring failed: {result['error']}"}
            return 200, dict(result, cached=True)
        future: "asyncio.Future" = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            result = await self.batcher.submit(scoring)
            if "error" not in result:
                result = dict(result, fingerprint=fingerprint)
            future.set_result(result)  # coalescers see failures too
        except BatcherClosed:
            future.cancel()
            return self._unavailable("server is draining; retry elsewhere")
        except Exception as error:  # noqa: BLE001 - surfaced as HTTP 500
            future.set_exception(error)
            future.exception()  # consumed: the HTTP response carries it
            return 500, {"error": f"scoring failed: {error}"}
        finally:
            self._inflight.pop(key, None)
        if "error" in result:
            # This item failed in isolation (its batchmates are fine);
            # nothing is cached for it so a retry scores fresh.
            return 500, {"error": f"scoring failed: {result['error']}"}
        self.cache.put(key, result)
        self._predictions += 1
        return 200, dict(result, cached=False)


class ServerThread:
    """Run a :class:`PredictionServer` (or any
    :class:`~repro.serving.http.HttpService`, such as a fleet router) on a
    background event loop.

    The context manager used by tests, the benchmark and anything else
    that wants a live server inside a synchronous program::

        with ServerThread(server) as url:
            ServingClient(url).predict(source)

    Exit performs the same graceful drain as the CLI's signal handler.
    """

    def __init__(self, server: HttpService) -> None:
        self.server = server
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stopped = False

    def __enter__(self) -> str:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("server did not start within 60s")
        return self.server.url

    def __exit__(self, *_exc_info) -> None:
        if self.loop is None or self._stopped:
            return
        self._stopped = True
        asyncio.run_coroutine_threadsafe(self.server.shutdown(), self.loop).result(
            timeout=60
        )
        self.loop.call_soon_threadsafe(self.loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=60)

    def kill(self) -> None:
        """Stop abruptly, no drain: the crash-a-replica lever fleet tests use."""
        if self.loop is None or self._stopped:
            return
        self._stopped = True
        try:
            asyncio.run_coroutine_threadsafe(self.server.abort(), self.loop).result(
                timeout=30
            )
        except Exception:  # pragma: no cover - a crash is allowed to be messy
            pass
        self.loop.call_soon_threadsafe(self.loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self.loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as error:  # noqa: BLE001 - reported to __enter__
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()
