"""Tests for the resilience layer (`repro.resilience`).

Covers the three legs the chaos suite stands on -- atomic durable
writes, digest-stamped artifact verification, and deterministic fault
injection -- plus how they surface through the public layers: corrupted
saved models fail loading with a structured :class:`CorruptArtifactError`
(never a traceback-deep JSON error), trainer checkpoints refuse to
resume a different run, clients honor a 503's ``Retry-After`` hint, and
``pigeon serve`` startup failures are one-line errors.
"""

import json
import os
import socket
import threading
import time

import pytest

from repro.api import Pipeline
from repro.artifacts import ModelArtifact
from repro.cli import main
from repro.resilience import (
    CHECKPOINT_FORMAT,
    CheckpointMismatchError,
    CorruptArtifactError,
    FaultInjected,
    FaultPlan,
    FaultRule,
    TrainerCheckpoint,
    corpus_fingerprint,
    fire,
    install,
    read_stamped_json,
    reset,
    write_stamped_json,
)
from repro.resilience.atomicio import atomic_write_bytes, stamped_json_bytes
from repro.serving import ServingClient, ServingError

TRAIN = [
    "function wait() { var done = false; while (!done) {"
    " if (someCondition()) { done = true; } } }",
    "function poll() { var done = false; while (!done) {"
    " if (checkState()) { done = true; } } }",
] * 4


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """Every test starts and ends with no process-wide fault plan."""
    reset()
    yield
    reset()


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    pipeline = Pipeline(language="javascript", training={"epochs": 2})
    pipeline.train(TRAIN)
    path = tmp_path_factory.mktemp("resilience") / "model.bin"
    pipeline.save(str(path))
    return str(path)


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------


class TestAtomicWrite:
    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "a.json"
        atomic_write_bytes(str(target), b"one")
        atomic_write_bytes(str(target), b"two")
        assert target.read_bytes() == b"two"

    def test_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "a.json"
        for index in range(3):
            atomic_write_bytes(str(target), f"v{index}".encode())
        assert os.listdir(tmp_path) == ["a.json"]

    def test_fault_before_commit_preserves_old_content(self, tmp_path):
        target = tmp_path / "a.json"
        atomic_write_bytes(str(target), b"intact")
        install(FaultPlan.parse("atomic.commit:error@1"))
        with pytest.raises(FaultInjected):
            atomic_write_bytes(str(target), b"torn")
        # The fault hit between write and rename: the old bytes survive
        # untouched and the orphaned temp file was cleaned up.
        assert target.read_bytes() == b"intact"
        assert os.listdir(tmp_path) == ["a.json"]


# ----------------------------------------------------------------------
# Digest-stamped JSON
# ----------------------------------------------------------------------


class TestStampedJson:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "a.json")
        payload = {"format": "x/1", "values": [1, 2.5, "three"], "nested": {"a": 1}}
        write_stamped_json(path, payload)
        assert read_stamped_json(path) == payload
        raw = json.loads(open(path, encoding="utf-8").read())
        assert "digest" in raw

    def test_flipped_byte_is_structured_corruption(self, tmp_path):
        path = str(tmp_path / "a.json")
        write_stamped_json(path, {"format": "x/1", "value": 12345})
        data = bytearray(open(path, "rb").read())
        data[data.index(b"12345")] = ord("9")
        open(path, "wb").write(bytes(data))
        with pytest.raises(CorruptArtifactError) as excinfo:
            read_stamped_json(path, hint="rebuild it")
        error = excinfo.value
        assert error.path == path
        assert error.expected_digest and error.actual_digest
        assert error.expected_digest != error.actual_digest
        assert "rebuild it" in str(error)

    def test_truncation_is_structured_corruption(self, tmp_path):
        path = str(tmp_path / "a.json")
        write_stamped_json(path, {"format": "x/1", "value": list(range(100))})
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(CorruptArtifactError, match="corrupt"):
            read_stamped_json(path)

    def test_reserved_digest_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="digest"):
            write_stamped_json(str(tmp_path / "a.json"), {"digest": "no"})

    def test_legacy_file_without_digest_loads(self, tmp_path):
        path = str(tmp_path / "legacy.json")
        open(path, "w", encoding="utf-8").write('{"format": "x/1", "value": 3}')
        assert read_stamped_json(path) == {"format": "x/1", "value": 3}
        with pytest.raises(CorruptArtifactError, match="digest"):
            read_stamped_json(path, require_digest=True)

    def test_missing_file_is_absence_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_stamped_json(str(tmp_path / "nope.json"))


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_grammar(self):
        plan = FaultPlan.parse(
            "shard.write:crash@3; router.forward:timeout@0.1;", seed=7
        )
        assert plan.rules == [
            FaultRule("shard.write", "crash", 3.0),
            FaultRule("router.forward", "timeout", 0.1),
        ]
        assert plan.seed == 7

    @pytest.mark.parametrize(
        "text",
        [
            "siteonly",  # no kind
            "a.b:explode@1",  # unknown kind
            "a.b:crash@0",  # hit counts start at 1
            "a.b:error@1.5",  # hit counts are integers
            "a.b:timeout@1.5",  # probabilities live in [0, 1]
            "a.b:crash@",  # unparsable arg
        ],
    )
    def test_parse_rejects_bad_rules(self, text):
        with pytest.raises(ValueError, match="bad fault rule"):
            FaultPlan.parse(text)

    def test_error_fires_on_exact_hit(self):
        plan = FaultPlan.parse("a.b:error@2")
        assert plan.fire("a.b") is None
        assert plan.fire("other.site") is None  # sites are independent
        with pytest.raises(FaultInjected) as excinfo:
            plan.fire("a.b")
        assert excinfo.value.site == "a.b"
        assert plan.fire("a.b") is None  # only the Nth hit, not every later one
        assert plan.hits["a.b"] == 3

    def test_probability_rules_are_seed_deterministic(self):
        def sequence(seed):
            plan = FaultPlan.parse("a.b:unavail@0.5", seed=seed)
            return [plan.fire("a.b") for _ in range(64)]

        first = sequence(11)
        assert sequence(11) == first  # same seed, same faults
        assert any(action == "unavail" for action in first)
        assert any(action is None for action in first)
        assert sequence(29) != first  # seeds actually steer the draws

    def test_fired_events_are_logged(self, tmp_path):
        log = str(tmp_path / "faults.jsonl")
        plan = FaultPlan.parse("a.b:error@1", seed=5, log_path=log)
        with pytest.raises(FaultInjected):
            plan.fire("a.b")
        events = [json.loads(line) for line in open(log, encoding="utf-8")]
        assert events == [{"site": "a.b", "kind": "error", "hit": 1, "seed": 5}]
        assert plan.fired == events

    def test_module_singleton_install_and_reset(self):
        assert fire("a.b") is None  # no plan installed: free no-op
        install(FaultPlan.parse("a.b:error@1"))
        with pytest.raises(FaultInjected):
            fire("a.b")
        reset()
        assert fire("a.b") is None

    def test_plan_loads_from_environment(self, monkeypatch, tmp_path):
        log = str(tmp_path / "faults.jsonl")
        monkeypatch.setenv("PIGEON_FAULTS", "a.b:error@1")
        monkeypatch.setenv("PIGEON_FAULTS_SEED", "42")
        monkeypatch.setenv("PIGEON_FAULT_LOG", log)
        reset()  # re-arm the (once-only) environment lookup
        with pytest.raises(FaultInjected):
            fire("a.b")
        assert json.loads(open(log, encoding="utf-8").read())["seed"] == 42


# ----------------------------------------------------------------------
# Trainer checkpoints
# ----------------------------------------------------------------------


class TestTrainerCheckpoint:
    SPEC = {"language": "javascript", "learner": "crf"}

    def _fingerprint(self):
        return corpus_fingerprint(TRAIN)

    def test_fresh_save_resume_round_trip(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        checkpoint = TrainerCheckpoint.fresh(
            path, spec=self.SPEC, corpus=self._fingerprint()
        )
        checkpoint.save_epoch(2, {"kind": "crf", "step": 17})
        resumed = TrainerCheckpoint.resume(
            path, spec=self.SPEC, corpus=self._fingerprint()
        )
        assert resumed.epochs_done == 2
        assert resumed.state == {"kind": "crf", "step": 17}

    def test_open_dispatches_on_resume_and_existence(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        fresh = TrainerCheckpoint.open(
            path, spec=self.SPEC, corpus="c", resume=True
        )
        assert fresh.epochs_done == 0  # nothing on disk yet: start fresh
        fresh.save_epoch(1, {"kind": "crf"})
        assert (
            TrainerCheckpoint.open(path, spec=self.SPEC, corpus="c", resume=True)
            .epochs_done
            == 1
        )
        # resume=False ignores what exists (the file is overwritten at
        # the next save_epoch, not trusted).
        assert (
            TrainerCheckpoint.open(path, spec=self.SPEC, corpus="c", resume=False)
            .epochs_done
            == 0
        )

    def test_resume_refuses_different_spec(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        TrainerCheckpoint.fresh(path, spec=self.SPEC, corpus="c").save_epoch(1, {})
        with pytest.raises(CheckpointMismatchError, match="different run"):
            TrainerCheckpoint.resume(
                path, spec={"language": "java", "learner": "crf"}, corpus="c"
            )

    def test_resume_refuses_different_corpus(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        TrainerCheckpoint.fresh(path, spec=self.SPEC, corpus="aaa").save_epoch(1, {})
        with pytest.raises(CheckpointMismatchError, match="different\n?.*corpus"):
            TrainerCheckpoint.resume(path, spec=self.SPEC, corpus="bbb")

    def test_resume_refuses_non_checkpoint_file(self, tmp_path):
        path = str(tmp_path / "other.json")
        write_stamped_json(path, {"format": "pigeon-merge/1"})
        with pytest.raises(CorruptArtifactError, match=CHECKPOINT_FORMAT):
            TrainerCheckpoint.resume(path, spec=self.SPEC, corpus="c")

    def test_corpus_fingerprint_is_order_and_content_sensitive(self):
        assert corpus_fingerprint(["a", "b"]) == corpus_fingerprint(["a", "b"])
        assert corpus_fingerprint(["a", "b"]) != corpus_fingerprint(["b", "a"])
        assert corpus_fingerprint(["a", "b"]) != corpus_fingerprint(["ab"])
        assert corpus_fingerprint(["a"]) != corpus_fingerprint(["a", ""])


# ----------------------------------------------------------------------
# Stamped artifacts at the public layers
# ----------------------------------------------------------------------


class TestPipelineArtifacts:
    def test_saved_model_is_digest_stamped(self, model_path):
        # Opening verifies the header stamp (an unstamped header is
        # refused); verify() re-hashes the payload against its digest.
        artifact = ModelArtifact.open(model_path)
        assert artifact.header["payload_digest"]
        artifact.verify()
        assert Pipeline.load(model_path).predict(TRAIN[0])

    def test_corrupted_model_is_quarantined_on_load(self, model_path, tmp_path):
        target = tmp_path / "model.bin"
        data = bytearray(open(model_path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError) as excinfo:
            Pipeline.load(str(target))
        assert "retrain or restore" in str(excinfo.value)


# ----------------------------------------------------------------------
# Client Retry-After handling
# ----------------------------------------------------------------------


class _ScriptedServer(threading.Thread):
    """Serves one canned HTTP response per connection, capturing requests."""

    def __init__(self, responses):
        super().__init__(daemon=True)
        self.responses = list(responses)
        self.requests = []
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]

    @staticmethod
    def response(status, payload, headers=()):
        body = json.dumps(payload).encode("utf-8")
        lines = [f"HTTP/1.1 {status} X", f"Content-Length: {len(body)}"]
        lines += [f"{name}: {value}" for name, value in headers]
        lines += ["Connection: close", "", ""]
        return "\r\n".join(lines).encode("ascii") + body

    def run(self):
        for raw in self.responses:
            connection, _ = self.sock.accept()
            with connection:
                connection.settimeout(5.0)
                received = b""
                while b"\r\n\r\n" not in received:
                    received += connection.recv(65536)
                self.requests.append(received)
                connection.sendall(raw)

    def close(self):
        self.sock.close()


class TestClientRetryAfter:
    def test_503_retry_sleeps_the_hinted_interval(self):
        server = _ScriptedServer(
            [
                _ScriptedServer.response(
                    503, {"error": "draining"}, [("Retry-After", "0.2")]
                ),
                _ScriptedServer.response(200, {"ok": True}),
            ]
        )
        server.start()
        try:
            client = ServingClient(
                f"127.0.0.1:{server.port}", timeout_s=5.0, retries=2, retry_503=True
            )
            started = time.monotonic()
            assert client.healthz() == {"ok": True}
            # The sleep came from the server's hint, not the generic
            # backoff (retry_backoff_s alone would be ~0.1s + jitter;
            # asserting >= 0.2 pins it to the header).
            assert time.monotonic() - started >= 0.2
            client.close()
        finally:
            server.close()

    def test_503_not_retried_by_default(self):
        server = _ScriptedServer(
            [_ScriptedServer.response(503, {"error": "draining"})]
        )
        server.start()
        try:
            client = ServingClient(f"127.0.0.1:{server.port}", timeout_s=5.0)
            with pytest.raises(ServingError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 503
            client.close()
        finally:
            server.close()

    def test_requests_announce_their_timeout_budget(self):
        server = _ScriptedServer([_ScriptedServer.response(200, {"ok": True})])
        server.start()
        try:
            client = ServingClient(f"127.0.0.1:{server.port}", timeout_s=7.5)
            assert client.healthz() == {"ok": True}
            client.close()
        finally:
            server.close()
        assert b"X-Request-Timeout-S: 7.5\r\n" in server.requests[0]

    def test_garbled_retry_after_falls_back_to_backoff(self):
        delays = ServingClient("127.0.0.1:1", retry_backoff_s=0.0, retry_503=True)
        assert delays._retry_delay("not-a-number", 0) == 0.0  # backoff path
        assert delays._retry_delay("0.3", 0) == 0.3
        assert delays._retry_delay("3600", 0) == delays.RETRY_AFTER_CAP_S
        delays.close()


# ----------------------------------------------------------------------
# CLI startup failures (one line, not a traceback)
# ----------------------------------------------------------------------


class TestServeStartupErrors:
    def test_port_already_bound_is_one_line(self, model_path):
        squatter = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        squatter.bind(("127.0.0.1", 0))
        squatter.listen(1)
        port = squatter.getsockname()[1]
        try:
            with pytest.raises(SystemExit, match="cannot bind"):
                main(
                    ["serve", "--model", model_path, "--port", str(port)]
                )
        finally:
            squatter.close()

    def test_corrupt_model_at_startup_is_one_line(self, model_path, tmp_path):
        target = tmp_path / "model.bin"
        data = bytearray(open(model_path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(SystemExit, match="error: .*corrupt"):
            main(["serve", "--model", str(target), "--port", "0"])
