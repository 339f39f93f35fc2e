"""The consistent-hash front tier: one address for N serving replicas.

:class:`FleetRouter` is the fleet's
:class:`~repro.serving.http.HttpService` -- the same listener, keep-alive
loop, counters and per-path latency histograms as a
:class:`~repro.serving.server.PredictionServer` replica -- but it owns no
model and scores nothing.  Its whole job is placement:

* ``POST /predict`` -- run the replicas' own admission step
  (:func:`~repro.serving.admission.admit`), so a request a replica would
  refuse is refused here with the replica's status and text, before any
  forward.  It yields the source's structural
  :func:`~repro.core.extraction.ast_digest` (recalled from a memo keyed
  on the source's bytes when they were seen before, else parsed with
  the same frontends the replicas run).  The request -- body bytes
  untouched -- goes to the replica that owns ``digest x task`` on the
  :class:`~repro.fleet.ring.HashRing`.  Owner dead, draining or timed
  out?  One retry, after an exponential-backoff-with-jitter pause, on
  the ring successor -- the replica whose cache inherits that key range
  anyway.  The response is the replica's response, byte-for-byte the
  same JSON a direct server would return (the replica that answered is
  named in an ``X-Fleet-Replica`` header, never in the body).
* ``GET /healthz`` -- fleet liveness: 200 while at least one replica is
  routable.
* ``GET /fleet/stats`` -- the router's own counters and latency
  histograms, every replica's ``/stats`` merged (counters summed,
  latency histograms added bucket-wise), the ring layout, per-replica
  health, and the fitted grey-box capacity model
  (:mod:`~repro.fleet.capacity`) with a sizing hint.
* ``POST /fleet/reload`` -- rolling drain-restart: one replica at a
  time leaves the ring, drains, restarts from its (possibly updated)
  model files, proves itself healthy and rejoins -- the fleet never
  drops below N-1 healthy replicas.

Admission control sits in front of all forwarding: when the router's
own in-flight count says the fleet is saturated, new work is refused
with 503 and a model-derived ``Retry-After`` instead of being queued
into certain timeout.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..core.extraction import ast_digest
from ..lang.base import parse_source
from ..resilience import faults
from ..resilience.faults import FaultInjected
from ..serving.admission import admit
from ..serving.cache import LruCache
from ..serving.http import ConnectionPool, HttpRequest, HttpService, json_object
from ..serving.metrics import FixedHistogram
from .capacity import (
    AdmissionController,
    FleetModel,
    fit_service_estimate,
    fleet_model,
    recommend_replicas,
)
from .replicas import HEALTHY, Replica, ReplicaSet
from .ring import DEFAULT_VNODES, HashRing, request_key

#: Capacity of the router's source_key -> routing-digest memo.
DIGEST_MEMO_SIZE = 4096


class RoutedCell(NamedTuple):
    """A cell the replicas serve, as the router resolves and digests it."""

    language: str
    task: str
    cell: str

    def fingerprinted(self, source: str) -> Tuple[None, str]:
        """The structural routing digest, parsed as the replicas parse."""
        return None, ast_digest(parse_source(self.language, source))


class FleetRouter(HttpService):
    """Route predictions across a :class:`ReplicaSet` by consistent hash."""

    def __init__(
        self,
        replicas: ReplicaSet,
        address: str = "127.0.0.1",
        port: int = 8016,
        vnodes: int = DEFAULT_VNODES,
        forward_timeout_s: float = 60.0,
        retry_backoff_s: float = 0.05,
        max_inflight_per_replica: int = 16,
        poll_interval_s: float = 2.0,
    ) -> None:
        super().__init__(address, port)
        self.replicas = replicas
        self.forward_timeout_s = float(forward_timeout_s)
        self.retry_backoff_s = max(0.0, float(retry_backoff_s))
        self.poll_interval_s = float(poll_interval_s)
        self.ring = HashRing(vnodes=vnodes)
        self.admission = AdmissionController(max_inflight_per_replica)
        self._pools: Dict[str, ConnectionPool] = {}
        self._cells: Dict[Tuple[str, str], RoutedCell] = {}
        self._poll_task: Optional[asyncio.Task] = None
        #: Forwards in flight (what admission control meters).
        self._inflight = 0
        self._digests = LruCache(DIGEST_MEMO_SIZE)
        self._routed: Dict[str, int] = {}
        self._failovers = 0
        self._reloads = 0
        self._reloading = False
        self._model: Optional[FleetModel] = None
        self.routes = {
            ("POST", "/predict"): self._predict,
            ("GET", "/healthz"): self._healthz,
            ("GET", "/fleet/stats"): self._fleet_stats,
            ("POST", "/fleet/reload"): self._fleet_reload,
        }

    # ------------------------------------------------------------------
    # Lifecycle (the same surface ServerThread drives)
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Learn the served cells, build the ring, bind the listener."""
        await self._learn_routes()
        self._sync_ring()
        if not len(self.ring):
            raise RuntimeError("no healthy replicas; cannot start the router")
        await super().start()
        self._poll_task = asyncio.get_running_loop().create_task(self._poll_loop())

    async def shutdown(self) -> None:
        if self._poll_task is not None:
            self._poll_task.cancel()
            try:
                await self._poll_task
            except asyncio.CancelledError:
                pass
            self._poll_task = None
        await super().shutdown()
        for pool in self._pools.values():
            pool.close()
        self._pools.clear()

    async def abort(self) -> None:
        """Crash-stop (ServerThread.kill drives this); replicas keep running."""
        await self.shutdown()

    # ------------------------------------------------------------------
    # Membership: ring <-> replica health
    # ------------------------------------------------------------------
    def _sync_ring(self) -> None:
        """Make ring membership equal the currently-routable replicas.

        Consistent hashing keeps this cheap to call eagerly: each
        membership change moves only the changed replica's arcs, so a
        replica bouncing dead->healthy hands back exactly the key
        ranges its successors were covering for it.
        """
        routable = {replica.name for replica in self.replicas if replica.routable}
        for name in list(self.ring.members):
            if name not in routable:
                self.ring.remove(name)
        for name in routable:
            if name not in self.ring:
                self.ring.add(name)

    async def _poll_loop(self) -> None:
        """Active health checks, off-loop (probes are blocking HTTP)."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.poll_interval_s)
            if self._reloading:
                continue  # reload owns health transitions while it runs
            try:
                await loop.run_in_executor(None, self.replicas.poll)
            except Exception:  # pragma: no cover - keep polling regardless
                pass
            self._sync_ring()

    def _pool(self, replica: Replica) -> ConnectionPool:
        host, _, port = replica.url.rpartition("//")[2].partition(":")
        pool = self._pools.get(replica.name)
        if pool is None or pool.port != int(port) or pool.host != host:
            # New replica, or the same name restarted on a new port.
            if pool is not None:
                pool.close()
            pool = self._pools[replica.name] = ConnectionPool(host, int(port))
        return pool

    async def _learn_routes(self) -> None:
        """Fetch the served cells from a replica, keyed for resolution.

        Every replica serves the same models (shared-nothing copies of
        one fleet), so the first answer wins.  Cells look like
        ``language/task/representation/learner``; routing only needs the
        first two components.
        """
        last_error: Optional[BaseException] = None
        for replica in self.replicas:
            if replica.url is None:
                continue
            try:
                status, _headers, payload = await self._pool(replica).call(
                    "GET", "/healthz", timeout=10.0
                )
            except OSError as error:
                last_error = error
                continue
            if status != 200:
                continue
            cells: Dict[Tuple[str, str], RoutedCell] = {}
            for cell in payload.get("models") or []:
                parts = str(cell).split("/")
                if len(parts) >= 2:
                    cells[(parts[0], parts[1])] = RoutedCell(*parts[:2], str(cell))
            if cells:
                self._cells = cells
                return
        raise RuntimeError(
            f"could not learn served models from any replica: {last_error}"
        )

    async def _healthz(self, _request: HttpRequest) -> Tuple[int, dict]:
        states = self.replicas.states()
        healthy = sum(1 for state in states.values() if state == HEALTHY)
        payload = {
            "status": "ok" if healthy else "unavailable",
            "role": "fleet-router",
            "replicas": states,
            "healthy": healthy,
            "inflight": self._inflight,
            "uptime_seconds": round(self._uptime(), 3),
        }
        return (200 if healthy else 503), payload

    # ------------------------------------------------------------------
    # POST /predict: admit -> place -> forward (retry once on successor)
    # ------------------------------------------------------------------
    async def _predict(
        self, request: HttpRequest
    ) -> Tuple[int, dict, Optional[Dict[str, str]]]:
        self._sync_ring()
        healthy = len(self.replicas.healthy())
        verdict = self.admission.admit(self._inflight, healthy, self._model)
        if not verdict["admit"]:
            retry_after = int(verdict.get("retry_after_s", 1))
            return (
                503,
                {
                    "error": "fleet saturated; retry later",
                    "inflight": self._inflight,
                    "limit": verdict["limit"],
                    "retry_after_s": retry_after,
                },
                {"Retry-After": str(retry_after)},
            )

        # The routing key is the same structural digest the replica's
        # response cache keys on, so one program always lands on the
        # replica already holding its answer.
        admitted = await admit(request.body, self._cells, self._digests)
        key = request_key(admitted.digest, admitted.handle.task)
        # The forward path (owner attempt + backoff + successor retry)
        # runs against one deadline derived from the caller's announced
        # budget: a failover must never make the client wait longer than
        # it said it would.  The header is the hint ServingClient sends;
        # requests without one get the router's own cap.
        budget = self.forward_timeout_s
        hint = request.headers.get("x-request-timeout-s")
        if hint is not None:
            try:
                announced = float(hint)
            except ValueError:
                announced = -1.0
            if announced > 0:
                budget = min(budget, announced)
        deadline = time.monotonic() + budget
        self._inflight += 1
        try:
            return await self._forward(key, request.body, deadline)
        finally:
            self._inflight -= 1

    async def _forward(
        self, key: str, body: bytes, deadline: Optional[float] = None
    ) -> Tuple[int, dict, Optional[Dict[str, str]]]:
        """Owner first; one backoff-then-retry on the ring successor.

        All attempts (including backoff sleeps) share ``deadline``: per-
        attempt timeouts shrink to the remaining budget, and when it runs
        out the caller gets a 504 instead of a late answer it already
        gave up on.
        """
        if deadline is None:
            deadline = time.monotonic() + self.forward_timeout_s
        attempts = 0
        last_error: Optional[str] = None
        retry_hint: Optional[float] = None
        for name in self.ring.preference(key):
            replica = self.replicas.get(name)
            if not replica.routable:
                continue  # died between sync and forward
            if attempts >= 2:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                last_error = last_error or "request deadline exhausted"
                break
            if attempts == 1:
                self._failovers += 1
                if retry_hint is not None:
                    # The draining replica told us when it expects to
                    # take traffic again; honoring that beats guessing,
                    # but never sleep past the caller's budget.
                    delay = min(retry_hint, remaining, 1.0)
                else:
                    # Exponential backoff with jitter before the one
                    # retry: gives a restarting owner a beat to come
                    # back, and de-synchronizes concurrent failovers.
                    delay = self.retry_backoff_s * (2**attempts)
                    delay = min(delay + random.uniform(0, delay), remaining)
                await asyncio.sleep(max(0.0, delay))
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    last_error = last_error or "request deadline exhausted"
                    break
            attempts += 1
            try:
                # Fault site "router.forward": "timeout" is a forward
                # that never answers, "unavail"/"error" a connection
                # yanked mid-flight -- exercised on the real failover
                # path below, not a simulation of it.
                action = faults.fire("router.forward")
                if action == "timeout":
                    raise asyncio.TimeoutError
                if action == "unavail":
                    raise ConnectionResetError("injected fault: forward dropped")
                status, headers, payload = await self._pool(replica).call(
                    "POST",
                    "/predict",
                    body=body,
                    timeout=min(self.forward_timeout_s, remaining),
                )
            except asyncio.TimeoutError:
                last_error = f"replica {name} timed out"
                replica.mark_failure()
                self._sync_ring()
                continue
            except FaultInjected as error:
                last_error = f"replica {name} unreachable: {error}"
                replica.mark_failure()
                self._sync_ring()
                continue
            except (OSError, ConnectionError) as error:
                # Refused/reset: the replica is gone.  Mark it straight
                # to dead so the next request never tries it, and let
                # the ring hand its range to the successor now.
                last_error = f"replica {name} unreachable: {error}"
                replica.mark_failure()
                replica.mark_failure()
                self._sync_ring()
                continue
            if status == 503:
                # Alive but draining (rolling reload): route around it,
                # keeping its Retry-After hint for the backoff above.
                last_error = f"replica {name} is draining"
                hinted = headers.get("retry-after")
                if hinted is not None:
                    try:
                        retry_hint = max(0.0, float(hinted))
                    except ValueError:
                        retry_hint = None
                replica.mark_draining()
                self._sync_ring()
                continue
            replica.mark_healthy()
            self._routed[name] = self._routed.get(name, 0) + 1
            return status, payload, {"X-Fleet-Replica": name}
        if last_error is None:
            return 503, {"error": "no healthy replica to route to"}, None
        timed_out = "timed out" in last_error or "deadline" in last_error
        status = 504 if timed_out else 502
        return status, {"error": f"fleet forward failed: {last_error}"}, None

    # ------------------------------------------------------------------
    # GET /fleet/stats
    # ------------------------------------------------------------------
    async def _fleet_stats(self, _request: HttpRequest) -> Tuple[int, dict]:
        per_replica = await self._collect_stats()
        merged = _merge_stats(per_replica)
        estimates = [
            estimate
            for name, stats in per_replica.items()
            if (estimate := fit_service_estimate(name, stats)) is not None
        ]
        healthy = len(self.replicas.healthy())
        self._model = fleet_model(estimates, healthy) or self._model
        capacity: dict = {
            "estimates": [estimate.to_dict() for estimate in estimates],
            "model": self._model.to_dict() if self._model else None,
        }
        if self._model is not None:
            capacity["recommendation"] = recommend_replicas(
                target_rps=self._model.capacity_rps * 0.7,
                p95_ms=max(self._model.p95_service_ms * 4, 50.0),
                service_rate=self._model.service_rate,
                p95_service_ms=self._model.p95_service_ms,
            )
        return 200, {
            "router": {
                "uptime_seconds": round(self._uptime(), 3),
                "requests": self._requests,
                "errors": self._errors,
                "inflight": self._inflight,
                "routed": dict(sorted(self._routed.items())),
                "failovers": self._failovers,
                "rejected": self.admission.rejected,
                "reloads": self._reloads,
                "admission_limit": self.admission.limit(healthy),
                "digests": self._digests.stats(),
                "latency": self.latency_stats(),
            },
            "ring": self.ring.describe(),
            "replicas": self.replicas.status(),
            "merged": merged,
            "per_replica": per_replica,
            "capacity": capacity,
        }

    async def _collect_stats(self) -> Dict[str, dict]:
        """Every routable replica's /stats, gathered concurrently."""

        async def fetch(replica: Replica) -> Optional[Tuple[str, dict]]:
            try:
                status, _headers, payload = await self._pool(replica).call(
                    "GET", "/stats", timeout=10.0
                )
            except (OSError, ConnectionError, asyncio.TimeoutError):
                return None
            if status != 200:
                return None
            return replica.name, payload

        targets = [replica for replica in self.replicas if replica.routable]
        fetched = await asyncio.gather(*(fetch(replica) for replica in targets))
        return {name: stats for item in fetched if item for name, stats in [item]}

    # ------------------------------------------------------------------
    # POST /fleet/reload: rolling drain-restart
    # ------------------------------------------------------------------
    async def _fleet_reload(self, request: HttpRequest) -> Tuple[int, dict]:
        model_paths: Optional[List[str]] = None
        if request.body:
            models = json_object(request.body).get("models")
            if models is not None:
                if not isinstance(models, list) or not all(
                    isinstance(path, str) for path in models
                ):
                    return 400, {"error": "field 'models' must be a list of paths"}
                model_paths = models
        if self._reloading:
            return 409, {"error": "a rolling reload is already in progress"}
        self._reloading = True
        loop = asyncio.get_running_loop()
        report = []
        try:
            for replica in list(self.replicas):
                before = len(self.replicas.healthy())
                # Leave the ring first (the drain), then restart.  One
                # replica at a time: the fleet never has more than one
                # replica below healthy, i.e. never below N-1.
                replica.mark_draining()
                self._sync_ring()
                started = time.monotonic()
                try:
                    await loop.run_in_executor(
                        None, self.replicas.restart, replica.name, model_paths
                    )
                except Exception as error:  # noqa: BLE001 - reported per replica
                    report.append(
                        {
                            "replica": replica.name,
                            "ok": False,
                            "error": str(error),
                        }
                    )
                    # Stop the roll: a fleet that cannot restart one
                    # replica should not grind through the rest.
                    return 500, {"reloaded": report, "error": str(error)}
                self._sync_ring()
                report.append(
                    {
                        "replica": replica.name,
                        "ok": True,
                        "healthy_during_drain": before - 1,
                        "seconds": round(time.monotonic() - started, 3),
                    }
                )
            self._reloads += 1
        finally:
            self._reloading = False
        return 200, {"reloaded": report, "models": model_paths or "unchanged"}


#: The replicas' LruCache stats blocks, and the counters merged by addition.
_CACHE_BLOCKS = ("cache", "digests")
_CACHE_COUNTERS = ("hits", "misses", "evictions", "size", "capacity")


def _merge_stats(per_replica: Dict[str, dict]) -> dict:
    """Fleet-level view: counters summed, histograms added bucket-wise."""
    merged: dict = {
        "replicas": len(per_replica),
        "requests": 0,
        "predictions": 0,
        "coalesced": 0,
        "errors": 0,
        "inflight": 0,
        "queue_depth": 0,
    }
    caches = {block: dict.fromkeys(_CACHE_COUNTERS, 0) for block in _CACHE_BLOCKS}
    latency_snapshots: Dict[str, List[dict]] = {}
    for stats in per_replica.values():
        for counter in (
            "requests",
            "predictions",
            "coalesced",
            "errors",
            "inflight",
            "queue_depth",
        ):
            merged[counter] += int(stats.get(counter, 0))
        for block, totals in caches.items():
            counters = stats.get(block) or {}
            for counter in _CACHE_COUNTERS:
                totals[counter] += int(counters.get(counter, 0))
        for path, snapshot in (stats.get("latency") or {}).items():
            latency_snapshots.setdefault(path, []).append(snapshot)
    for block, totals in caches.items():
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = round(totals["hits"] / lookups, 4) if lookups else 0.0
        merged[block] = totals
    merged["latency"] = {
        path: FixedHistogram.merge(snapshots)
        for path, snapshots in latency_snapshots.items()
    }
    return merged
