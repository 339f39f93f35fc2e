"""Fleet serving: a consistent-hash front tier over shared-nothing replicas.

This subsystem is the ROADMAP's "scale serving out" line: one router
address in front of N independent :class:`~repro.serving.server.
PredictionServer` replicas, each with its own model copy, response cache
and micro-batcher (nothing shared, so replicas can live in one process,
N processes, or N machines) -- while keeping the serving tier's core
invariant: **every routed prediction is bit-identical to a direct**
``Pipeline.predict`` **call** on the same model.

:mod:`repro.fleet.ring`
    :class:`HashRing`: the Karger-style consistent-hash ring (virtual
    nodes, blake2b points -- deterministic across processes) that
    partitions the ``ast_digest x task`` keyspace across replicas.
    Same key -> same replica, so N replica caches behave as N
    partitions of one large cache rather than N copies of a small one,
    and membership churn remaps only the changed replica's arcs.
:mod:`repro.fleet.replicas`
    :class:`ReplicaSet`: replica lifecycle and health.  Spawns replicas
    in-process (``ThreadReplica``) or as ``pigeon serve`` subprocesses
    (``ProcessReplica``), adopts already-running servers by URL, probes
    ``/healthz``, folds in the router's passive per-forward outcomes,
    and drain-restarts single replicas for rolling reloads.
:mod:`repro.fleet.router`
    :class:`FleetRouter`: the asyncio front tier (stdlib only, the same
    HTTP dialect as the single server).  ``POST /predict`` derives the
    source's digest (memoized per source bytes, so a repeat is not
    parsed), routes by it, forwards the body verbatim to the
    ring owner and retries once -- after exponential backoff with
    jitter -- on the ring successor when the owner is dead, draining or
    timed out.  ``GET /fleet/stats`` merges replica stats and the
    fitted capacity model; ``POST /fleet/reload`` rolls a
    drain-restart through the fleet one replica at a time (never below
    N-1 healthy).
:mod:`repro.fleet.capacity`
    The grey-box queueing model: per-replica service rates fitted from
    ``/stats`` latency histograms feed an M/M/N model used twice -- by
    the router's :class:`AdmissionController` (503 + ``Retry-After``
    under saturation, instead of queueing work into certain timeout)
    and by :func:`recommend_replicas` (the smallest fleet meeting a
    p95 target at a load target).

The end-to-end flow (``pigeon fleet serve`` in front of clients, or
:class:`ReplicaSet` + :class:`FleetRouter` in code)::

    client --POST /predict--> router --(memo | parse -> ast_digest x task)-->
        ring owner replica --(cache hit | micro-batched scoring)--> answer
    owner dead/draining?  --(backoff + jitter)--> ring successor
    saturated?            --> 503 + Retry-After (grey-box estimate)

Correctness argument, in one paragraph: the router never touches the
prediction itself -- request bodies are forwarded byte-for-byte and
replica responses returned unchanged (the answering replica is named
only in an ``X-Fleet-Replica`` header) -- and every replica loads the
same model files into the same deterministic scoring path, so *which*
replica answers can never change *what* is answered.  Routing placement
is a pure function of (member names, digest, task) with no
process-seeded hashing, so distinct routers agree; and the digest is
the same structural key the replica cache uses, so a repeated program
lands where its cached answer sits.  ``benchmarks/bench_fleet.py``
gates the invariant end to end: zero prediction mismatches between a
3-replica fleet and a direct single server over a duplicated workload.
"""

from .capacity import (
    AdmissionController,
    FleetModel,
    ServiceEstimate,
    erlang_c,
    fit_service_estimate,
    fleet_model,
    recommend_replicas,
)
from .replicas import (
    DEAD,
    DRAINING,
    HEALTHY,
    STARTING,
    AdoptedReplica,
    ProcessReplica,
    Replica,
    ReplicaSet,
    ThreadReplica,
)
from .ring import DEFAULT_VNODES, HashRing, remapped_fraction, request_key
from .router import FleetRouter

__all__ = [
    "DEAD",
    "DEFAULT_VNODES",
    "DRAINING",
    "HEALTHY",
    "STARTING",
    "AdmissionController",
    "AdoptedReplica",
    "FleetModel",
    "FleetRouter",
    "HashRing",
    "ProcessReplica",
    "Replica",
    "ReplicaSet",
    "ServiceEstimate",
    "ThreadReplica",
    "erlang_c",
    "fit_service_estimate",
    "fleet_model",
    "recommend_replicas",
    "remapped_fraction",
    "request_key",
]
