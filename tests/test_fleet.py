"""Tests for the fleet tier (`repro.fleet`).

Covers the subsystem's contracts at every layer: the consistent-hash
ring (balance, determinism across processes, minimal remapping on
membership change), the grey-box capacity model (Erlang C, fitting,
sizing, admission), replica lifecycle, and a live in-process fleet --
router plus three shared-nothing replicas on loopback sockets -- through
which predictions must be bit-identical to a directly loaded pipeline,
survive a replica being killed mid-workload with zero client-visible
errors, and come back healthy from a rolling reload that never drops
below N-1 healthy replicas.
"""

import contextlib
import json
import math
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.api import Pipeline
from repro.corpus import deduplicate, generate_corpus
from repro.corpus.generator import CorpusConfig
from repro.fleet import (
    DEAD,
    HEALTHY,
    AdmissionController,
    AdoptedReplica,
    FleetModel,
    FleetRouter,
    HashRing,
    ReplicaSet,
    erlang_c,
    fit_service_estimate,
    fleet_model,
    recommend_replicas,
    remapped_fraction,
    request_key,
)
from repro.serving import ServerThread, ServingClient, ServingError
from repro.serving.http import HttpRequest

#: Unseen-identifier programs (one per test concern that needs a fresh
#: cache key); layout variants of PROGRAM must share its routing digest.
PROGRAM = """
var fleetTotal = 0;
function fleetStep(fleetArg) {
  var fleetLocal = fleetArg + fleetTotal;
  return fleetLocal;
}
"""
PROGRAM_REFORMATTED = (
    "var fleetTotal = 0;\n"
    "function fleetStep(fleetArg) { var fleetLocal = fleetArg + fleetTotal;"
    " return fleetLocal; }\n"
)


def _workload(count):
    """`count` structurally distinct single-function programs."""
    return [
        f"var wkTotal{i} = {i};\n"
        + "".join(
            f"function wkFn{i}_{j}(wkArg{j}) {{"
            f" var wkLocal{j} = wkArg{j} + wkTotal{i}; return wkLocal{j}; }}\n"
            for j in range(1 + i % 3)
        )
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def corpus_sources():
    kept, _removed = deduplicate(
        generate_corpus(CorpusConfig(language="javascript", n_projects=4, seed=8))
    )
    return [f.source for f in kept]


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, corpus_sources):
    pipeline = Pipeline(language="javascript", training={"epochs": 2})
    pipeline.train(corpus_sources[:18])
    path = tmp_path_factory.mktemp("fleet") / "model.bin"
    pipeline.save(str(path))
    return str(path)


@pytest.fixture(scope="module")
def direct(model_path):
    """A privately loaded pipeline: the reference for bit-identity."""
    return Pipeline.load(model_path)


@pytest.fixture()
def live_fleet(model_path):
    """Three in-process replicas behind a router, torn down per test."""
    replicas = ReplicaSet.in_process([model_path], 3, cache_size=64)
    replicas.start()
    router = FleetRouter(replicas, port=0, retry_backoff_s=0.01)
    runner = ServerThread(router)
    url = runner.__enter__()
    try:
        yield replicas, router, url
    finally:
        runner.kill()
        replicas.stop()


# ----------------------------------------------------------------------
# The ring
# ----------------------------------------------------------------------


class TestHashRing:
    def test_membership_basics(self):
        ring = HashRing(["a", "b"])
        assert len(ring) == 2 and "a" in ring and "c" not in ring
        ring.add("c")
        ring.add("c")  # idempotent
        assert ring.members == ["a", "b", "c"]
        ring.remove("b")
        ring.remove("b")  # idempotent
        assert ring.members == ["a", "c"]
        assert ring.describe()["points"] == 2 * ring.vnodes

    def test_empty_ring_owns_nothing(self):
        ring = HashRing()
        assert ring.owner("key") is None
        assert ring.preference("key") == []

    def test_ownership_is_deterministic_across_processes(self):
        members = [f"replica-{i}" for i in range(4)]
        keys = [request_key(f"digest-{i}", "variable_naming") for i in range(64)]
        ring = HashRing(members)
        local = [ring.owner(key) for key in keys]
        script = (
            "import json,sys;from repro.fleet import HashRing, request_key;"
            "ring = HashRing([f'replica-{i}' for i in range(4)]);"
            "keys = [request_key(f'digest-{i}', 'variable_naming') for i in range(64)];"
            "print(json.dumps([ring.owner(k) for k in keys]))"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="99"),
        ).stdout
        assert json.loads(output) == local

    def test_keyspace_spread_is_near_uniform(self):
        ring = HashRing([f"replica-{i}" for i in range(3)])
        keys = [request_key(f"digest-{i:06d}", "t") for i in range(6000)]
        spread = ring.spread(keys)
        expected = len(keys) / len(spread)
        # Chi-square-ish bound: far looser than the p=0.001 critical
        # value for 2 degrees of freedom (13.8), yet tight enough that a
        # broken hash (everything on one member) fails by miles.
        chi_square = sum(
            (count - expected) ** 2 / expected for count in spread.values()
        )
        assert chi_square < 50.0
        for count in spread.values():
            assert 0.6 * expected < count < 1.5 * expected

    def test_removal_remaps_only_the_leavers_keys(self):
        members = [f"replica-{i}" for i in range(4)]
        keys = [request_key(f"digest-{i:06d}", "t") for i in range(4000)]
        before = HashRing(members)
        owned_by_leaver = {
            key for key in keys if before.owner(key) == "replica-1"
        }
        after = HashRing([m for m in members if m != "replica-1"])
        moved, total = remapped_fraction(before, after, keys)
        assert moved == len(owned_by_leaver)  # nothing else moved
        assert moved / total <= 2 / len(members)
        for key in keys:
            if key not in owned_by_leaver:
                assert before.owner(key) == after.owner(key)

    def test_add_then_remove_restores_ownership(self):
        keys = [request_key(f"digest-{i}", "t") for i in range(500)]
        ring = HashRing(["a", "b", "c"])
        owners = [ring.owner(key) for key in keys]
        ring.add("d")
        ring.remove("d")
        assert [ring.owner(key) for key in keys] == owners

    def test_preference_lists_owner_first_all_distinct(self):
        ring = HashRing([f"replica-{i}" for i in range(5)])
        for i in range(50):
            key = request_key(f"digest-{i}", "t")
            preference = ring.preference(key)
            assert preference[0] == ring.owner(key)
            assert sorted(preference) == ring.members  # distinct, complete
            assert ring.preference(key, count=2) == preference[:2]

    def test_vnodes_must_be_positive(self):
        with pytest.raises(ValueError, match="vnodes"):
            HashRing(vnodes=0)


# ----------------------------------------------------------------------
# The capacity model
# ----------------------------------------------------------------------


class TestCapacityModel:
    def test_erlang_c_boundaries(self):
        assert erlang_c(3, 0.0) == 0.0
        assert erlang_c(0, 1.0) == 0.0
        assert erlang_c(3, 3.0) == 1.0  # saturation: every arrival waits
        assert erlang_c(3, 5.0) == 1.0

    def test_erlang_c_monotone_in_load_and_sane(self):
        previous = 0.0
        for load in (0.5, 1.0, 1.5, 2.0, 2.5):
            probability = erlang_c(3, load)
            assert 0.0 <= probability <= 1.0
            assert probability >= previous
            previous = probability
        # Single server: Erlang C equals the utilisation rho.
        assert erlang_c(1, 0.3) == pytest.approx(0.3)

    def test_fit_service_estimate_from_stats(self):
        stats = {
            "latency": {
                "/predict": {"count": 200, "sum_ms": 1000.0, "p95_ms": 20.0}
            }
        }
        estimate = fit_service_estimate("replica-0", stats)
        assert estimate.mean_service_ms == pytest.approx(5.0)
        assert estimate.service_rate == pytest.approx(200.0)
        assert estimate.p95_service_ms == 20.0
        assert fit_service_estimate("replica-0", {}) is None
        assert (
            fit_service_estimate("r", {"latency": {"/predict": {"count": 0}}})
            is None
        )

    def test_fleet_model_capacity_and_waits(self):
        model = FleetModel(replicas=3, service_rate=10.0, p95_service_ms=150.0)
        assert model.capacity_rps == 30.0
        assert model.utilization(15.0) == pytest.approx(0.5)
        assert model.mean_wait_ms(15.0) < model.mean_wait_ms(28.0)
        assert math.isinf(model.mean_wait_ms(30.0))
        assert math.isinf(model.p95_response_ms(31.0))
        # Light load: p95 is dominated by the measured service tail.
        assert model.p95_response_ms(1.0) == pytest.approx(150.0, abs=30.0)

    def test_fleet_model_from_estimates(self):
        stats = {"latency": {"/predict": {"count": 10, "sum_ms": 100.0, "p95_ms": 15.0}}}
        estimates = [fit_service_estimate(f"r{i}", stats) for i in range(2)]
        model = fleet_model(estimates, replicas=2)
        assert model.replicas == 2
        assert model.service_rate == pytest.approx(100.0)
        assert fleet_model([], replicas=2) is None

    def test_recommend_replicas_finds_the_smallest_fleet(self):
        report = recommend_replicas(
            target_rps=25.0, p95_ms=500.0, service_rate=10.0, p95_service_ms=120.0
        )
        assert report["feasible"]
        n = report["recommended_replicas"]
        assert n >= 3  # below 3 the queue is unstable at 25 rps
        smaller = FleetModel(n - 1, 10.0, 120.0)
        assert not smaller.p95_response_ms(25.0) <= 500.0

    def test_recommend_replicas_flags_infeasible_slos(self):
        report = recommend_replicas(
            target_rps=5.0, p95_ms=50.0, service_rate=10.0, p95_service_ms=200.0
        )
        assert not report["feasible"]
        assert "floor" in report["reason"]
        assert not recommend_replicas(1.0, 100.0, 0.0)["feasible"]

    def test_admission_controller(self):
        admission = AdmissionController(max_inflight_per_replica=4)
        assert admission.limit(3) == 12
        assert admission.admit(11, 3)["admit"]
        refused = admission.admit(12, 3)
        assert not refused["admit"]
        assert 1 <= refused["retry_after_s"] <= 30
        assert admission.rejected == 1
        # A fitted model turns the excess into a drain-time estimate.
        model = FleetModel(replicas=3, service_rate=1.0)
        slow = admission.admit(60, 3, model)
        assert slow["retry_after_s"] == math.ceil((60 - 12 + 1) / 3.0)


# ----------------------------------------------------------------------
# Replica lifecycle
# ----------------------------------------------------------------------


class TestReplicaSet:
    def test_rejects_empty_and_duplicate_names(self):
        with pytest.raises(ValueError, match="at least one"):
            ReplicaSet([])
        with pytest.raises(ValueError, match="unique"):
            ReplicaSet([AdoptedReplica("a", "http://x"), AdoptedReplica("a", "http://y")])

    def test_thread_replicas_start_probe_kill_restart(self, model_path):
        replicas = ReplicaSet.in_process([model_path], 2, cache_size=16)
        replicas.start()
        try:
            assert replicas.poll() == {"replica-0": HEALTHY, "replica-1": HEALTHY}
            assert len(replicas.healthy()) == 2
            stats = replicas.stats()
            assert set(stats) == {"replica-0", "replica-1"}

            replica = replicas.get("replica-0")
            replica.kill()
            assert replica.probe() == DEAD
            assert not replica.routable
            assert [r.name for r in replicas.healthy()] == ["replica-1"]

            replicas.restart("replica-0")
            assert replica.state == HEALTHY
            assert replica.restarts == 1
            assert replica.probe() == HEALTHY
        finally:
            replicas.stop()

    def test_adopted_replicas_cannot_restart(self):
        replica = AdoptedReplica("a", "http://127.0.0.1:1")
        with pytest.raises(NotImplementedError, match="restarted"):
            replica.restart()

    def test_passive_failures_accumulate_to_dead(self):
        replica = AdoptedReplica("a", "http://127.0.0.1:1")
        replica.mark_healthy()
        replica.mark_failure()
        assert replica.state == HEALTHY  # one strike is not death...
        replica.mark_failure()
        assert replica.state == DEAD  # ...two are
        replica.mark_healthy()
        assert replica.failures == 0

    def test_successful_probe_resets_strike_counter(self, model_path):
        replicas = ReplicaSet.in_process([model_path], 1, cache_size=16)
        replicas.start()
        try:
            replica = replicas.get("replica-0")
            replica.mark_failure()
            assert replica.state == HEALTHY and replica.failures == 1
            # A good probe starts the count over: death takes two
            # *consecutive* strikes, so sporadic blips spread across
            # probe ticks never accumulate into a false DEAD.
            assert replica.probe() == HEALTHY
            assert replica.failures == 0
            replica.mark_failure()
            assert replica.state == HEALTHY
        finally:
            replicas.stop()

    def test_flapping_replica_is_readmitted_to_ring_exactly_once(self):
        flapper = AdoptedReplica("flapper", "http://127.0.0.1:1")
        steady = AdoptedReplica("steady", "http://127.0.0.1:2")
        steady.mark_healthy()
        router = FleetRouter(ReplicaSet([flapper, steady]))
        router._sync_ring()
        assert router.ring.members == ["steady"]  # STARTING is not routable

        # STARTING -> HEALTHY: admitted, arcs recorded.
        flapper.mark_healthy()
        router._sync_ring()
        assert router.ring.members == ["flapper", "steady"]
        original_points = list(router.ring._members["flapper"])

        # HEALTHY -> DEAD: evicted, its key ranges fail over.
        flapper.mark_failure()
        flapper.mark_failure()
        assert flapper.state == DEAD
        router._sync_ring()
        assert router.ring.members == ["steady"]

        # DEAD -> HEALTHY again: re-admitted once, even across repeated
        # syncs, with byte-for-byte the arcs it had before the flap --
        # the failed-over keys flow straight back and nothing else moves.
        flapper.mark_healthy()
        router._sync_ring()
        router._sync_ring()
        assert router.ring.members == ["flapper", "steady"]
        assert router.ring._members["flapper"] == original_points


# ----------------------------------------------------------------------
# The live fleet
# ----------------------------------------------------------------------


class TestFleetRouter:
    def test_healthz_reports_the_fleet(self, live_fleet):
        _replicas, _router, url = live_fleet
        with ServingClient(url) as client:
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["role"] == "fleet-router"
        assert health["healthy"] == 3

    def test_routed_predictions_are_bit_identical(self, live_fleet, direct):
        _replicas, _router, url = live_fleet
        with ServingClient(url) as client:
            for source in _workload(8):
                response = client.predict(source)
                assert response["predictions"] == direct.predict(source)
                assert response["cached"] is False
            suggestions = client.predict(PROGRAM, top=3)["suggestions"]
        expected = {
            key: [[label, score] for label, score in ranked]
            for key, ranked in direct.suggest(PROGRAM, k=3).items()
        }
        assert suggestions == expected

    def test_repeats_hit_one_replicas_cache(self, live_fleet):
        _replicas, router, url = live_fleet
        with ServingClient(url) as client:
            first = client.predict(PROGRAM)
            assert first["cached"] is False
            for _ in range(3):
                assert client.predict(PROGRAM)["cached"] is True
            # Layout-only variants share the structural digest: same
            # route, same cache entry.
            assert client.predict(PROGRAM_REFORMATTED)["cached"] is True
            stats = client.fleet_stats()
        assert sum(stats["router"]["routed"].values()) == 5
        assert len(stats["router"]["routed"]) == 1  # one owner served all
        merged = stats["merged"]
        assert merged["cache"]["hits"] == 4
        assert merged["cache"]["size"] == 1  # partitioned, not duplicated
        assert stats["ring"]["members"] == ["replica-0", "replica-1", "replica-2"]
        assert merged["latency"]["/predict"]["count"] == 5

    def test_bad_requests_fail_at_the_router(self, live_fleet):
        _replicas, _router, url = live_fleet
        with ServingClient(url) as client:
            status, _payload = client.request("POST", "/predict", body=b"not json")
            assert status == 400
            with pytest.raises(ServingError) as excinfo:
                client.predict("var broken = ;")
            assert excinfo.value.status == 400
            with pytest.raises(ServingError) as excinfo:
                client.predict(PROGRAM, language="cobol")
            assert excinfo.value.status == 404
            status, _payload = client.request("GET", "/predict")
            assert status == 405
            status, _payload = client.request("GET", "/nope")
            assert status == 404

    def test_kill_one_replica_mid_workload_is_invisible(self, live_fleet, direct):
        replicas, router, url = live_fleet
        workload = _workload(24)
        expected = [direct.predict(source) for source in workload]
        killed = threading.Event()

        def kill_one():
            replicas.get("replica-1").kill()
            killed.set()

        with ServingClient(url) as client:
            answers = []
            for index, source in enumerate(workload):
                if index == 6:
                    threading.Thread(target=kill_one).start()
                if index == 12:
                    killed.wait(timeout=30)
                answers.append(client.predict(source)["predictions"])
            stats = client.fleet_stats()
        assert answers == expected  # zero client-visible errors, right bits
        states = {r["name"]: r["state"] for r in stats["replicas"]}
        assert states["replica-1"] == DEAD
        assert sorted(stats["ring"]["members"]) == ["replica-0", "replica-2"]

    def test_ring_remaps_only_the_dead_replicas_range(self, live_fleet):
        replicas, router, _url = live_fleet
        keys = [request_key(f"digest-{i}", "variable_naming") for i in range(2000)]
        before = {key: router.ring.owner(key) for key in keys}
        replicas.get("replica-2").kill()
        replicas.poll()
        router._sync_ring()
        for key, owner in before.items():
            if owner != "replica-2":
                assert router.ring.owner(key) == owner  # untouched
            else:
                assert router.ring.owner(key) != "replica-2"  # remapped

    def test_rolling_reload_keeps_n_minus_1_healthy(self, live_fleet, direct):
        replicas, _router, url = live_fleet
        with ServingClient(url) as client:
            baseline = client.predict(PROGRAM)["predictions"]
            report = client.fleet_reload()
            for entry in report["reloaded"]:
                assert entry["ok"]
                assert entry["healthy_during_drain"] == len(replicas) - 1
            assert [r.restarts for r in replicas] == [1, 1, 1]
            assert client.healthz()["healthy"] == 3
            # Fresh caches, same bits.
            after = client.predict(PROGRAM)
        assert after["cached"] is False
        assert after["predictions"] == baseline == direct.predict(PROGRAM)

    def test_concurrent_reload_is_refused(self, live_fleet):
        _replicas, router, url = live_fleet
        router._reloading = True
        try:
            with ServingClient(url) as client:
                with pytest.raises(ServingError) as excinfo:
                    client.fleet_reload()
            assert excinfo.value.status == 409
        finally:
            router._reloading = False

    def test_fleet_stats_fits_a_capacity_model(self, live_fleet):
        _replicas, _router, url = live_fleet
        with ServingClient(url) as client:
            for source in _workload(4):
                client.predict(source)
            capacity = client.fleet_stats()["capacity"]
        assert len(capacity["estimates"]) >= 1
        model = capacity["model"]
        assert model["replicas"] == 3
        assert model["service_rate_rps"] > 0
        assert model["capacity_rps"] == pytest.approx(
            3 * model["service_rate_rps"], rel=0.01
        )
        assert "recommendation" in capacity

    def test_saturation_sheds_load_with_retry_after(self):
        # Admission fires before any forwarding, so the 503 path is
        # testable without a live fleet: a router whose in-flight count
        # sits at the limit refuses the next arrival.
        import asyncio

        replica = AdoptedReplica("replica-0", "http://127.0.0.1:1")
        replica.mark_healthy()
        router = FleetRouter(
            ReplicaSet([replica]), max_inflight_per_replica=2
        )
        router._inflight = 2
        request = HttpRequest(
            "POST", "/predict", {}, json.dumps({"source": "var a = 1;"}).encode()
        )
        status, payload, headers = asyncio.run(router._predict(request))
        assert status == 503
        assert payload["retry_after_s"] >= 1
        assert headers["Retry-After"] == str(payload["retry_after_s"])
        assert router.admission.rejected == 1


# ----------------------------------------------------------------------
# The digest memo: a byte-identical repeat is routed without a parse
# ----------------------------------------------------------------------

#: Valid JSON whose string escape decodes to a lone surrogate inside a
#: JS string literal: parseable source with no UTF-8 form.
LONE_SURROGATE_BODY = b'{"source": "var lone = \\"\\ud800\\";"}'


@pytest.fixture(scope="module")
def method_model_path(tmp_path_factory, corpus_sources):
    """A second JavaScript cell (method naming) for two-cell fleets."""
    pipeline = Pipeline(
        language="javascript", task="method_naming", training={"epochs": 1}
    )
    pipeline.train(corpus_sources[:8])
    path = tmp_path_factory.mktemp("fleet") / "methods.bin"
    pipeline.save(str(path))
    return str(path)


@pytest.fixture()
def parse_calls(monkeypatch):
    """Languages the router's ``_digest_source`` and sources the replicas'
    ``ScoringHandle.fingerprinted`` were called with."""
    import repro.fleet.router as router_module
    from repro.api.pipeline import ScoringHandle

    calls = {"router": [], "replica": []}
    digest_source = router_module._digest_source
    fingerprinted = ScoringHandle.fingerprinted

    def counting_digest(language, source):
        calls["router"].append(source)
        return digest_source(language, source)

    def counting_fingerprinted(self, source):
        calls["replica"].append(source)
        return fingerprinted(self, source)

    monkeypatch.setattr(router_module, "_digest_source", counting_digest)
    monkeypatch.setattr(ScoringHandle, "fingerprinted", counting_fingerprinted)
    return calls


@contextlib.contextmanager
def _fleet(model_paths, count=3, **server_kwargs):
    """A fresh in-process fleet (empty caches) and a client for its router."""
    replicas = ReplicaSet.in_process(model_paths, count, **server_kwargs)
    replicas.start()
    try:
        router = FleetRouter(replicas, port=0, retry_backoff_s=0.01)
        runner = ServerThread(router)
        url = runner.__enter__()
        try:
            with ServingClient(url) as client:
                yield replicas, router, client
        finally:
            runner.kill()
    finally:
        replicas.stop()


class TestFleetDigestMemo:
    def test_repeats_skip_the_router_and_replica_parse(
        self, model_path, direct, parse_calls
    ):
        repeats = 5
        with _fleet([model_path]) as (_replicas, _router, client):
            responses = [client.predict(PROGRAM) for _ in range(repeats)]
            stats = client.fleet_stats()
        assert parse_calls == {"router": [PROGRAM], "replica": [PROGRAM]}
        assert [r["cached"] for r in responses] == [False] + [True] * (repeats - 1)
        for response in responses:
            assert response["predictions"] == direct.predict(PROGRAM)
        router_memo = stats["router"]["digests"]
        assert router_memo["hits"] == repeats - 1 and router_memo["size"] == 1
        merged = stats["merged"]
        assert merged["cache"]["hits"] + merged["cache"]["misses"] == repeats
        assert merged["digests"]["hits"] == repeats - 1
        assert merged["digests"]["misses"] == 1
        assert merged["digests"]["capacity"] == 3 * 1024  # summed across replicas

    def test_layout_variant_parses_once_and_hits_the_cache(self, model_path, parse_calls):
        with _fleet([model_path]) as (_replicas, _router, client):
            client.predict(PROGRAM)
            variant = client.predict(PROGRAM_REFORMATTED)
            again = client.predict(PROGRAM_REFORMATTED)
            stats = client.fleet_stats()
        both = [PROGRAM, PROGRAM_REFORMATTED]
        assert parse_calls == {"router": both, "replica": both}
        assert variant["cached"] is True and again["cached"] is True
        assert stats["merged"]["cache"]["size"] == 1
        assert len(stats["router"]["routed"]) == 1  # one owner for both

    def test_unparseable_source_is_parsed_and_refused_every_time(
        self, model_path, parse_calls
    ):
        body = json.dumps({"source": "var broken = ;"}).encode()
        with _fleet([model_path]) as (_replicas, _router, client):
            statuses = [client.request("POST", "/predict", body)[0] for _ in range(3)]
            stats = client.fleet_stats()
        assert statuses == [400, 400, 400]
        assert len(parse_calls["router"]) == 3
        assert parse_calls["replica"] == []  # refused before forwarding
        assert stats["router"]["digests"]["size"] == 0
        assert stats["router"]["errors"] == 3

    def test_inflight_repeat_joins_without_a_parse(self, model_path, direct, parse_calls):
        # A wide batch window parks the first copy in its owner's queue.
        with _fleet([model_path], batch_size=64, batch_wait_ms=1000.0) as (
            replicas,
            router,
            client,
        ):
            results = {}

            def first():
                with ServingClient(router.url) as other:
                    results["first"] = other.predict(PROGRAM)

            thread = threading.Thread(target=first)
            thread.start()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not any(
                replica.server._inflight for replica in replicas
            ):
                time.sleep(0.005)
            assert any(replica.server._inflight for replica in replicas)
            results["second"] = client.predict(PROGRAM)
            thread.join(timeout=30)
            stats = client.fleet_stats()
        assert parse_calls == {"router": [PROGRAM], "replica": [PROGRAM]}
        assert stats["merged"]["coalesced"] == 1
        assert results["first"]["predictions"] == direct.predict(PROGRAM)
        assert results["second"]["predictions"] == results["first"]["predictions"]

    def test_router_memo_evicts_lru_at_capacity(
        self, model_path, parse_calls, monkeypatch
    ):
        import repro.fleet.router as router_module

        monkeypatch.setattr(router_module, "DIGEST_MEMO_SIZE", 2)
        sources = _workload(3)
        with _fleet([model_path]) as (_replicas, _router, client):
            for source in sources:
                client.predict(source)
            client.predict(sources[2])  # still memoized: no parse
            assert len(parse_calls["router"]) == 3
            client.predict(sources[0])  # evicted: parsed again
            memo = client.fleet_stats()["router"]["digests"]
        assert parse_calls["router"] == sources + [sources[0]]
        assert memo["size"] == 2 and memo["capacity"] == 2
        assert memo["evictions"] == 2

    def test_cache_size_zero_turns_off_both_replica_caches(
        self, model_path, parse_calls
    ):
        with _fleet([model_path], cache_size=0) as (_replicas, _router, client):
            responses = [client.predict(PROGRAM) for _ in range(3)]
            merged = client.fleet_stats()["merged"]
        assert [r["cached"] for r in responses] == [False] * 3
        assert len(parse_calls["replica"]) == 3
        for block in ("cache", "digests"):
            assert merged[block]["size"] == 0 and merged[block]["hits"] == 0

    def test_one_source_two_cells_never_share_a_memo_entry(
        self, model_path, method_model_path, parse_calls
    ):
        source = "function memoCells(a) { var b = a + 1; return b; }"
        with _fleet([model_path, method_model_path]) as (_replicas, _router, client):
            for _ in range(2):
                variables = client.predict(source, task="variable_naming")
                methods = client.predict(source, task="method_naming")
            stats = client.fleet_stats()
        assert parse_calls["router"] == [source, source]  # once per cell
        assert variables["cell"].split("/")[1] == "variable_naming"
        assert methods["cell"].split("/")[1] == "method_naming"
        assert variables["cached"] is True and methods["cached"] is True
        assert stats["router"]["digests"]["size"] == 2
        assert stats["router"]["digests"]["hits"] == 2


class TestRouterParseStatusCodes:
    def test_parse_error_is_400(self, model_path):
        with _fleet([model_path], count=1) as (_replicas, _router, client):
            with pytest.raises(ServingError) as caught:
                client.predict("var broken = ;")
        assert caught.value.status == 400
        assert "cannot parse" in str(caught.value)

    def test_source_without_utf8_form_is_400_before_parsing(
        self, model_path, parse_calls
    ):
        with _fleet([model_path], count=1) as (_replicas, _router, client):
            status, payload = client.request("POST", "/predict", LONE_SURROGATE_BODY)
            stats = client.fleet_stats()
        assert status == 400
        assert "UTF-8" in payload["error"]
        assert parse_calls == {"router": [], "replica": []}
        assert stats["router"]["digests"]["misses"] == 0  # refused before hashing

    def test_other_digest_failures_are_counted_500s(self, model_path, monkeypatch):
        import repro.fleet.router as router_module

        def broken(language, source):
            raise RuntimeError("frontend bug")

        monkeypatch.setattr(router_module, "_digest_source", broken)
        with _fleet([model_path], count=1) as (_replicas, _router, client):
            status, payload = client.request(
                "POST", "/predict", json.dumps({"source": "var a = b;"}).encode()
            )
            stats = client.fleet_stats()
        assert status == 500
        assert "frontend bug" in payload["error"]
        assert stats["router"]["errors"] == 1
        assert stats["router"]["digests"]["size"] == 0
        assert "/predict" not in stats["merged"]["latency"]  # never forwarded
