"""Chaos suite: every injected fault ends in a correct result or a
structured error -- never a wrong answer, never a torn artifact.

The oracle discipline mirrors the repo's bit-identity tests: a run that
is killed (really killed -- ``os._exit(137)`` inside the process, via
``PIGEON_FAULTS='...:crash@N'``) and then resumed must produce artifacts
**byte-identical** to an uninterrupted run.  Shard stores, trainer
checkpoints and saved models all make that promise; this file holds
them to it.  Probabilistic faults (injected 503s, dropped connections,
forward timeouts) run against a live in-process fleet, where the only
acceptable outcomes are a correct prediction or a clean 5xx the caller
can retry -- zero wrong answers.

CI runs this file under a fixed seed matrix (``PIGEON_FAULTS_SEED``);
locally it defaults to seed 11.
"""

import json
import os
import subprocess
import sys
from http.client import HTTPException

import pytest

from repro.api import Pipeline, RunSpec
from repro.fleet import FleetRouter, ReplicaSet
from repro.resilience import (
    CorruptArtifactError,
    FaultInjected,
    FaultPlan,
    install,
    reset,
)
from repro.resilience.faults import CRASH_EXIT_CODE
from repro.serving import ServerThread, ServingClient, ServingError
from repro.serving.host import ModelHost
from repro.serving.server import PredictionServer
from repro.shards import ShardIntegrityError, build_spec_shards

#: The seed the probabilistic chaos scenarios run under.  CI sweeps a
#: small matrix through this variable; any seed must pass.
CHAOS_SEED = int(os.environ.get("PIGEON_FAULTS_SEED", "11"))

TRAIN = [
    "function wait() { var done = false; while (!done) {"
    " if (someCondition()) { done = true; } } }",
    "function poll() { var done = false; while (!done) {"
    " if (checkState()) { done = true; } } }",
] * 4

PROBES = [
    f"function chaosFn{i}(chaosArg{i}) {{"
    f" var chaosLocal{i} = chaosArg{i} + {i}; return chaosLocal{i}; }}"
    for i in range(10)
]


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    reset()
    yield
    reset()


def _write_corpus(directory):
    files = []
    for index, source in enumerate(TRAIN):
        path = directory / f"train{index}.js"
        path.write_text(source)
        files.append(str(path))
    return files


def _run_cli(args, faults=None, seed=None, log=None):
    """One `pigeon` subprocess with an optional injected fault plan."""
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for name in ("PIGEON_FAULTS", "PIGEON_FAULTS_SEED", "PIGEON_FAULT_LOG"):
        env.pop(name, None)
    if faults is not None:
        env["PIGEON_FAULTS"] = faults
        env["PIGEON_FAULTS_SEED"] = str(seed if seed is not None else CHAOS_SEED)
    if log is not None:
        env["PIGEON_FAULT_LOG"] = log
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def _read_files(directory, names):
    return {name: open(os.path.join(directory, name), "rb").read() for name in names}


def _shard_names(directory):
    return sorted(n for n in os.listdir(directory) if n.endswith(".shard.json"))


# ----------------------------------------------------------------------
# Kill mid shard-build, resume, byte-identical store
# ----------------------------------------------------------------------


class TestShardBuildCrashResume:
    def test_kill_mid_build_then_resume_is_byte_identical(self, tmp_path):
        files = _write_corpus(tmp_path)
        clean = str(tmp_path / "clean")
        result = _run_cli(
            ["shard", "build", "--out", clean, "--shard-size", "3", "--json", *files]
        )
        assert result.returncode == 0, result.stderr
        reference = _read_files(clean, _shard_names(clean))
        assert len(reference) == 3

        # The same build, hard-killed while writing the second shard.
        crashed = str(tmp_path / "crashed")
        log = str(tmp_path / "faults.jsonl")
        result = _run_cli(
            ["shard", "build", "--out", crashed, "--shard-size", "3", *files],
            faults="shard.write:crash@2",
            log=log,
        )
        assert result.returncode == CRASH_EXIT_CODE
        assert len(_shard_names(crashed)) < 3  # it really died mid-build
        fired = [json.loads(line) for line in open(log, encoding="utf-8")]
        assert fired[-1]["kind"] == "crash"

        # Resume completes the store; every shard byte-identical to the
        # uninterrupted build -- including the ones built before the
        # crash (they were verified and skipped, not rebuilt).
        result = _run_cli(
            ["shard", "build", "--out", crashed, "--shard-size", "3", "--json",
             "--resume", *files]
        )
        assert result.returncode == 0, result.stderr
        summary = json.loads(result.stdout)
        assert summary["skipped"] >= 1
        assert _read_files(crashed, _shard_names(crashed)) == reference

    def test_kill_during_atomic_commit_leaves_no_torn_shard(self, tmp_path):
        files = _write_corpus(tmp_path)
        out = str(tmp_path / "build")
        result = _run_cli(
            ["shard", "build", "--out", out, "--shard-size", "3", *files],
            faults="atomic.commit:crash@2",
        )
        assert result.returncode == CRASH_EXIT_CODE
        # The kill hit between temp-write and rename: whatever exists is
        # complete (the interrupted shard is absent, not half-written).
        for name in _shard_names(out):
            assert b"pigeon-shard/1" in open(os.path.join(out, name), "rb").read()

        result = _run_cli(
            ["shard", "build", "--out", out, "--shard-size", "3", "--resume", *files]
        )
        assert result.returncode == 0, result.stderr
        assert len(_shard_names(out)) == 3
        # Resume swept the crash's orphaned temp file.
        assert not [n for n in os.listdir(out) if n.endswith(".tmp")]


# ----------------------------------------------------------------------
# Kill mid-train, resume from checkpoint, bit-identical model
# ----------------------------------------------------------------------


class TestTrainCrashResume:
    def test_kill_mid_train_then_resume_is_bit_identical(self, tmp_path):
        files = _write_corpus(tmp_path)
        clean = str(tmp_path / "clean.bin")
        result = _run_cli(
            ["train", "--model", clean, "--language", "javascript",
             "--epochs", "3", *files]
        )
        assert result.returncode == 0, result.stderr

        interrupted = str(tmp_path / "interrupted.bin")
        checkpoint = str(tmp_path / "ckpt.json")
        result = _run_cli(
            ["train", "--model", interrupted, "--language", "javascript",
             "--epochs", "3", "--checkpoint", checkpoint, *files],
            faults="train.epoch:crash@2",
        )
        assert result.returncode == CRASH_EXIT_CODE
        assert not os.path.exists(interrupted)  # died before the save
        assert os.path.exists(checkpoint)  # ... but after a checkpoint

        result = _run_cli(
            ["train", "--model", interrupted, "--language", "javascript",
             "--epochs", "3", "--resume", checkpoint, *files]
        )
        assert result.returncode == 0, result.stderr
        with open(clean, "rb") as a, open(interrupted, "rb") as b:
            assert a.read() == b.read()

    def test_crf_resume_in_process_is_bit_identical(self, tmp_path):
        spec = RunSpec(language="javascript", training={"epochs": 3})
        uninterrupted = Pipeline(spec)
        uninterrupted.train(TRAIN)
        reference = str(tmp_path / "reference.bin")
        uninterrupted.save(reference)

        checkpoint = str(tmp_path / "ckpt.json")
        install(FaultPlan.parse("train.epoch:error@2"))
        with pytest.raises(FaultInjected):
            Pipeline(spec).train(TRAIN, checkpoint=checkpoint)
        reset()

        resumed = Pipeline(spec)
        resumed.train(TRAIN, checkpoint=checkpoint, resume=True)
        restored = str(tmp_path / "resumed.bin")
        resumed.save(restored)
        with open(reference, "rb") as a, open(restored, "rb") as b:
            assert a.read() == b.read()

    def test_word2vec_resume_in_process_is_bit_identical(self, tmp_path):
        spec = RunSpec(
            language="javascript", learner="word2vec", sgns={"epochs": 3, "dim": 16}
        )
        uninterrupted = Pipeline(spec)
        uninterrupted.train(TRAIN)
        reference = str(tmp_path / "reference.bin")
        uninterrupted.save(reference)

        checkpoint = str(tmp_path / "ckpt.json")
        install(FaultPlan.parse("train.epoch:error@1"))
        with pytest.raises(FaultInjected):
            Pipeline(spec).train(TRAIN, checkpoint=checkpoint)
        reset()

        resumed = Pipeline(spec)
        resumed.train(TRAIN, checkpoint=checkpoint, resume=True)
        restored = str(tmp_path / "resumed.bin")
        resumed.save(restored)
        with open(reference, "rb") as a, open(restored, "rb") as b:
            assert a.read() == b.read()

    def test_resume_against_changed_corpus_is_refused(self, tmp_path):
        files = _write_corpus(tmp_path)
        checkpoint = str(tmp_path / "ckpt.json")
        model = str(tmp_path / "model.bin")
        result = _run_cli(
            ["train", "--model", model, "--language", "javascript",
             "--epochs", "3", "--checkpoint", checkpoint, *files],
            faults="train.epoch:crash@1",
        )
        assert result.returncode == CRASH_EXIT_CODE
        # Same checkpoint, different corpus: a one-line refusal, because
        # silently continuing would train a wrong model.
        result = _run_cli(
            ["train", "--model", model, "--language", "javascript",
             "--epochs", "3", "--resume", checkpoint, *files[:4]]
        )
        assert result.returncode != 0
        assert "different" in result.stderr and "corpus" in result.stderr
        assert "Traceback" not in result.stderr


# ----------------------------------------------------------------------
# Corruption is quarantined, not computed on
# ----------------------------------------------------------------------


class TestCorruptionQuarantine:
    def test_flipped_shard_byte_is_a_structured_error(self, tmp_path):
        spec = RunSpec(language="javascript", training={"epochs": 2})
        out = str(tmp_path / "shards")
        build_spec_shards(spec, TRAIN, out, shard_size=3)
        victim = os.path.join(out, _shard_names(out)[1])
        data = bytearray(open(victim, "rb").read())
        data[-20] ^= 0x01  # one bit, deep in the payload
        open(victim, "wb").write(bytes(data))

        with pytest.raises(ShardIntegrityError) as excinfo:
            Pipeline(spec).train(shards=out)
        error = excinfo.value
        assert isinstance(error, CorruptArtifactError)
        assert error.path == victim
        assert error.expected_digest != error.actual_digest
        assert "rebuild" in str(error)


# ----------------------------------------------------------------------
# A fleet under fire answers correctly or not at all
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def chaos_model(tmp_path_factory):
    pipeline = Pipeline(language="javascript", training={"epochs": 2})
    pipeline.train(TRAIN)
    path = tmp_path_factory.mktemp("chaos") / "model.bin"
    pipeline.save(str(path))
    return str(path)


class TestFleetUnderFaults:
    def _ask_until_answered(self, client, source, attempts=25):
        """Retry transport failures and clean 5xx; return the 200 body."""
        last = None
        for _ in range(attempts):
            try:
                return client.predict(source)
            except ServingError as error:
                assert error.status >= 500, f"non-5xx failure: {error}"
                last = error
            except (HTTPException, ConnectionError, OSError) as error:
                last = error
        raise AssertionError(f"no answer after {attempts} attempts: {last}")

    def test_fleet_with_injected_faults_returns_zero_wrong_answers(
        self, chaos_model
    ):
        direct = Pipeline.load(chaos_model)
        expected = {source: direct.predict(source) for source in PROBES}

        replicas = ReplicaSet.in_process([chaos_model], 2, cache_size=64)
        replicas.start()
        router = FleetRouter(
            replicas, port=0, retry_backoff_s=0.01, poll_interval_s=0.05
        )
        runner = ServerThread(router)
        url = runner.__enter__()
        try:
            install(
                FaultPlan.parse(
                    "replica.respond:unavail@0.2;router.forward:timeout@0.1",
                    seed=CHAOS_SEED,
                )
            )
            client = ServingClient(
                url, timeout_s=30.0, retries=3, retry_backoff_s=0.02, retry_503=True
            )
            answers = {
                source: self._ask_until_answered(client, source) for source in PROBES
            }
            client.close()
        finally:
            reset()
            runner.kill()
            replicas.stop()

        for source, response in answers.items():
            assert response["predictions"] == expected[source]

    def test_injected_503_carries_retry_after(self, chaos_model):
        replicas = ReplicaSet.in_process([chaos_model], 1, cache_size=16)
        replicas.start()
        try:
            url = replicas.get("replica-0").url
            install(FaultPlan.parse("replica.respond:unavail@1.0", seed=CHAOS_SEED))
            client = ServingClient(url, timeout_s=10.0, retries=0)
            status, payload = client.request(
                "POST", "/predict", body=json.dumps({"source": PROBES[0]}).encode()
            )
            client.close()
            assert status == 503
            assert "retry" in payload["error"]
        finally:
            reset()
            replicas.stop()

    def test_dropped_connection_then_clean_recovery(self, chaos_model):
        host = ModelHost([chaos_model])
        server = PredictionServer(host, port=0, cache_size=16)
        with ServerThread(server) as url:
            install(FaultPlan.parse("replica.accept:error@1", seed=CHAOS_SEED))
            client = ServingClient(url, timeout_s=10.0, retries=0)
            # First request: the connection is yanked with no response.
            with pytest.raises((HTTPException, ConnectionError, OSError)):
                client.predict(PROBES[0])
            # Second request reconnects and gets the real answer.
            response = client.predict(PROBES[0])
            client.close()
            reset()
        direct = Pipeline.load(chaos_model)
        assert response["predictions"] == direct.predict(PROBES[0])
