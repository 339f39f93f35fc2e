"""The asyncio HTTP prediction server (stdlib only).

``PredictionServer`` wires the serving pieces together around one event
loop:

* connections are accepted and parsed as HTTP/1.1 with keep-alive;
* ``POST /predict`` requests are routed to a model, fingerprinted
  (:func:`~repro.core.extraction.ast_digest` of the parsed source,
  computed off-loop, or recalled without a parse from the digest memo
  when the same bytes were seen before), and answered from the LRU
  response cache when the same program x task was already scored;
* cache misses join the :class:`~repro.serving.batching.MicroBatcher`
  queue and fan out to the :class:`~repro.serving.host.ModelHost`;
  concurrent duplicates of an in-flight request coalesce onto the same
  scoring future instead of being scored twice;
* ``GET /healthz`` and ``GET /stats`` report liveness and counters;
* shutdown is graceful: the listener closes first, queued work drains
  through the batcher, then open connections finish.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Dict, Optional, Tuple

from ..lang.base import ParseError
from ..resilience import faults
from ..resilience.faults import FaultInjected
from .batching import BatcherClosed, MicroBatcher
from .cache import LruCache, source_key
from .host import ModelHost, PredictRequest
from .http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    BadRequest as _BadRequest,
    HttpRequest as _HttpRequest,
    read_request,
    respond,
)
from .metrics import FixedHistogram

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "PredictionServer",
    "ServerThread",
]


class PredictionServer:
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
        self.host = host
        self.address = address
        self.port = port
        self.cache = LruCache(cache_size)
        #: source_key -> ast_digest, so a byte-identical resubmission
        #: skips the parse; sized like the response cache, so
        #: ``cache_size=0`` turns all caching off.
        self.digests = LruCache(cache_size)
        self.batcher = MicroBatcher(
            self.host.score_batch, batch_size=batch_size, batch_wait_ms=batch_wait_ms
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._inflight: Dict[Tuple, "asyncio.Future"] = {}
        self._connection_tasks: set = set()
        self._connections = 0
        self._active_requests = 0
        self._requests = 0
        self._predictions = 0
        self._coalesced = 0
        self._errors = 0
        self._draining = False
        self._started_monotonic = 0.0
        #: Per-endpoint request-latency histograms (fixed buckets, so a
        #: fleet can merge replicas' histograms by addition).
        self._latency: Dict[str, FixedHistogram] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start batching, bind the listener."""
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.address, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish everything in flight."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Everything already queued scores before the batcher stops.
        await self.batcher.close()
        # ... and every response for an accepted request is written out
        # before the loop may be torn down (idle keep-alive connections
        # are not waited for -- the drain covers requests, not sockets).
        deadline = time.monotonic() + 30.0
        while self._active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        # Idle keep-alive connections are parked in _read_request; cancel
        # them now so no handler coroutine outlives the event loop (a
        # GC'd pending handler would try to close its transport on a
        # dead loop).
        for task in list(self._connection_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.gather(*self._connection_tasks, return_exceptions=True)

    async def abort(self) -> None:
        """Die *now*: close the listener and every connection, no drain.

        The deliberately rude counterpart of :meth:`shutdown`, used by
        fleet tests (and :meth:`ReplicaThread.kill`) to simulate a
        crashed replica: in-flight requests see a connection reset, which
        is exactly what the front tier's retry-on-successor must absorb.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            self._server = None
        for task in list(self._connection_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.gather(*self._connection_tasks, return_exceptions=True)
        try:
            await self.batcher.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    @property
    def url(self) -> str:
        return f"http://{self.address}:{self.port}"

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except _BadRequest as error:
                    await respond(
                        writer, error.status, {"error": str(error)}, keep_alive=False
                    )
                    break
                if request is None:
                    break
                # Fault site "replica.accept": an injected fault drops the
                # connection cold after the request was read -- the client
                # sees a reset with no response, exactly the signature a
                # replica dying mid-accept produces, which is what the
                # router's failover path must absorb.
                try:
                    action = faults.fire("replica.accept")
                except FaultInjected:
                    action = "drop"
                if action is not None:
                    if action == "timeout":
                        await asyncio.sleep(faults.TIMEOUT_SLEEP_S)
                    break
                self._requests += 1
                self._active_requests += 1
                started = time.perf_counter()
                try:
                    routed = await self._route(request)
                    status, payload = routed[0], routed[1]
                    headers = routed[2] if len(routed) > 2 else None
                    if status >= 400:
                        self._errors += 1
                    self._observe_latency(
                        request.path, time.perf_counter() - started
                    )
                    await respond(
                        writer,
                        status,
                        payload,
                        keep_alive=request.keep_alive,
                        extra_headers=headers,
                    )
                finally:
                    self._active_requests -= 1
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Connection tasks are only cancelled by shutdown()/abort(),
            # which await them right after; completing normally here (a
            # deliberate swallow) keeps asyncio's stream machinery from
            # logging every teardown as an unhandled cancellation.
            pass
        finally:
            if task is not None:
                self._connection_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass

    def _observe_latency(self, path: str, seconds: float) -> None:
        histogram = self._latency.get(path)
        if histogram is None:
            if len(self._latency) >= 16:  # unknown-path flood guard
                return
            histogram = self._latency[path] = FixedHistogram()
        histogram.observe(seconds)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, request: _HttpRequest) -> tuple:
        # Routes return (status, payload) or (status, payload, headers);
        # _handle_connection normalises, so only responses that carry
        # extra headers (the Retry-After 503s) pay the third element.
        if request.path == "/predict":
            if request.method != "POST":
                return 405, {"error": "use POST /predict"}
            return await self._predict(request)
        if request.path == "/healthz":
            if request.method != "GET":
                return 405, {"error": "use GET /healthz"}
            return self._healthz()
        if request.path == "/stats":
            if request.method != "GET":
                return 405, {"error": "use GET /stats"}
            return 200, self.stats()
        return 404, {
            "error": f"unknown path {request.path!r}; "
            f"routes: POST /predict, GET /healthz, GET /stats"
        }

    def _healthz(self) -> Tuple[int, dict]:
        status = "draining" if self._draining else "ok"
        return (503 if self._draining else 200), {
            "status": status,
            "state": status,
            "models": self.host.cells(),
            "inflight": self._active_requests,
            "queued": self.batcher.depth,
            "uptime_seconds": round(self._uptime(), 3),
        }

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
            "latency": {
                path: histogram.to_dict()
                for path, histogram in self._latency.items()
            },
            "cache": self.cache.stats(),
            "digests": self.digests.stats(),
            "batcher": self.batcher.stats(),
            "extraction": extraction,
            # Per-model artifact path and cold-start load latency.
            "models": self.host.model_stats(),
        }

    def _uptime(self) -> float:
        if not self._started_monotonic:
            return 0.0
        return time.monotonic() - self._started_monotonic

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

    async def _predict(self, request: _HttpRequest) -> tuple:
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
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return 400, {"error": f"body is not valid JSON: {error}"}
        if not isinstance(payload, dict):
            return 400, {"error": "body must be a JSON object"}
        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            return 400, {"error": "field 'source' (non-empty string) is required"}
        language = payload.get("language")
        task = payload.get("task")
        for field_name, value in (("language", language), ("task", task)):
            if value is not None and not isinstance(value, str):
                return 400, {"error": f"field {field_name!r} must be a string"}
        top = payload.get("top", 0)
        if not isinstance(top, int) or isinstance(top, bool) or top < 0:
            return 400, {"error": "field 'top' must be a non-negative integer"}
        target_language = payload.get("target_language")
        if target_language is not None and not isinstance(target_language, str):
            return 400, {"error": "field 'target_language' must be a string"}
        unknown = sorted(
            set(payload) - {"source", "language", "task", "top", "target_language"}
        )
        if unknown:
            return 400, {"error": f"unknown fields: {', '.join(unknown)}"}

        try:
            handle = self.host.resolve(language, task)
        except LookupError as error:
            return 404, {"error": str(error)}

        if handle.spec.task == "translate":
            from ..translate import RENDERERS

            if target_language is None:
                return 400, {
                    "error": "task 'translate' requires field 'target_language'"
                }
            if target_language not in RENDERERS:
                known = ", ".join(sorted(RENDERERS))
                return 400, {
                    "error": f"unknown target_language {target_language!r}; "
                    f"known: {known}"
                }
            if top > 0:
                return 400, {
                    "error": "task 'translate' returns translated source, "
                    "not top-k suggestions; drop 'top'"
                }
        elif target_language is not None:
            return 400, {
                "error": "field 'target_language' only applies to task 'translate'"
            }

        try:
            memo_key = source_key(handle.cell, source)
        except UnicodeEncodeError as error:
            return 400, {"error": f"source is not encodable as UTF-8: {error}"}
        # A repeat of known bytes needs neither a parse nor an executor
        # hop; the program is then parsed only if it must be scored.
        program = None
        fingerprint = self.digests.get(memo_key)
        loop = asyncio.get_running_loop()
        if fingerprint is None:
            try:
                program, fingerprint = await loop.run_in_executor(
                    None, handle.fingerprinted, source
                )
            except ParseError as error:
                return 400, {"error": f"cannot parse source: {error}"}
            except Exception as error:  # noqa: BLE001 - our bug, not user input
                return 500, {"error": f"fingerprinting failed: {error}"}
            self.digests.put(memo_key, fingerprint)

        # The response key must carry everything that changes the answer:
        # the digest only covers program *structure*, so two sources that
        # differ in source language (served by different cells) or in
        # requested target language must not share an entry or coalesce
        # onto each other's in-flight future.
        spec = handle.spec
        key = (handle.cell, spec.language, target_language, top, fingerprint)
        cached = self.cache.get(key)
        if cached is not None:
            return 200, dict(cached, cached=True)

        scoring = PredictRequest(
            source=source,
            language=spec.language,
            task=spec.task,
            top=top,
            target_language=target_language,
            # Scoring reuses the parse that produced the fingerprint (on a
            # memo hit there was none, and scoring parses the source).
            program=program,
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
                return self._scoring_failure(result)
            return 200, dict(result, cached=True)
        future: "asyncio.Future" = loop.create_future()
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
            return self._scoring_failure(result)
        self.cache.put(key, result)
        self._predictions += 1
        return 200, dict(result, cached=False)

    @staticmethod
    def _scoring_failure(result: dict) -> tuple:
        """Map a failed scoring result to its HTTP response.

        Scoring marks *user-input* failures (a translate request using a
        construct the lifters reject) with an explicit 4xx ``status`` and
        structured detail; those pass through so clients see what to fix.
        Everything else is a server-side 500.  Neither is ever cached.
        """
        status = result.get("status", 500)
        if isinstance(status, int) and 400 <= status < 500:
            return status, {k: v for k, v in result.items() if k != "status"}
        return 500, {"error": f"scoring failed: {result['error']}"}


class ServerThread:
    """Run a :class:`PredictionServer` on a background event loop.

    The context manager used by tests, the benchmark and anything else
    that wants a live server inside a synchronous program::

        with ServerThread(server) as url:
            ServingClient(url).predict(source)

    Exit performs the same graceful drain as the CLI's signal handler.
    """

    def __init__(self, server: PredictionServer) -> None:
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
