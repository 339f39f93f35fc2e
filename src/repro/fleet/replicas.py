"""Replica lifecycle: spawn/adopt serving replicas, track their health.

A fleet is N shared-nothing :class:`~repro.serving.server.PredictionServer`
processes (or in-process :class:`~repro.serving.server.ServerThread`
runners -- same HTTP surface, handy for tests and single-machine use)
plus this module's :class:`ReplicaSet`, which owns their lifecycle and
the health state the router routes by:

``starting -> healthy <-> draining -> dead``

* **active probes**: :meth:`ReplicaSet.poll` hits every replica's
  ``GET /healthz``; 200 means healthy, 503/"draining" means draining
  (in a graceful shutdown -- route around it, don't bury it), and
  repeated connection failures mean dead;
* **passive signals**: the router reports each forward's outcome via
  :meth:`mark_failure` / :meth:`mark_success`, so a crashed replica
  stops receiving traffic after one failed forward instead of waiting
  for the next probe tick;
* **rolling restart**: :meth:`restart` drains one replica, rebuilds it
  from its (possibly updated) model files and waits until it reports
  healthy again -- the primitive ``POST /fleet/reload`` iterates,
  one replica at a time, so the fleet never drops below N-1 healthy.

Three replica flavours share one interface: ``ThreadReplica`` (own
server on a background event loop in this process), ``ProcessReplica``
(a ``pigeon serve`` subprocess; real core-level parallelism), and
``AdoptedReplica`` (a URL someone else manages; probed and routed to,
never restarted).

Model files are ``pigeon-model/1`` artifacts
(:meth:`~repro.api.pipeline.Pipeline.load`), so ``POST /fleet/reload``
rolls a fleet onto a new artifact by restarting replicas on it.  Point
every replica on a box at the *same* artifact: each process mmaps it
and checks its digest without parsing or copying the weights, so
cold-start (and therefore rolling-restart downtime) stays small and
the OS page cache keeps one shared copy of the weights no matter how
many replicas serve it (weight memory O(1) per box instead of
O(replicas)).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

from ..serving.client import ServingClient, ServingError

#: Replica states (the strings /fleet/stats and tests see).
STARTING = "starting"
HEALTHY = "healthy"
DRAINING = "draining"
DEAD = "dead"

#: Consecutive probe/forward failures before a replica is declared dead.
FAILURE_THRESHOLD = 2


def _free_port() -> int:
    """An OS-assigned free TCP port (bind-then-release).

    Momentarily racy like every external port allocation; replicas bind
    immediately after, and a clash surfaces as a failed healthz wait.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Replica:
    """One serving replica: name, URL, health state, lifecycle hooks."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.url: Optional[str] = None
        self.state = STARTING
        self.failures = 0
        self.restarts = 0
        self.models: List[str] = []
        self._lock = threading.Lock()

    # -- lifecycle (overridden per flavour) -----------------------------
    def start(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        """Graceful drain-stop (finishes in-flight work)."""
        raise NotImplementedError

    def kill(self) -> None:
        """Abrupt stop, no drain (crash simulation / last resort)."""
        self.stop()

    def restart(self, model_paths: Optional[Sequence[str]] = None) -> None:
        raise NotImplementedError(f"replica {self.name!r} cannot be restarted")

    # -- health bookkeeping ---------------------------------------------
    def mark_healthy(self) -> None:
        with self._lock:
            self.failures = 0
            self.state = HEALTHY

    def mark_draining(self) -> None:
        with self._lock:
            self.state = DRAINING

    def mark_failure(self) -> None:
        with self._lock:
            self.failures += 1
            if self.failures >= FAILURE_THRESHOLD or self.state == STARTING:
                self.state = DEAD

    @property
    def routable(self) -> bool:
        return self.state == HEALTHY and self.url is not None

    def probe(self, timeout_s: float = 5.0) -> str:
        """One blocking healthz round-trip; updates and returns the state."""
        if self.url is None:
            return self.state
        try:
            with ServingClient(self.url, timeout_s=timeout_s, retries=0) as client:
                client.healthz()
        except ServingError as error:
            if error.status == 503:  # alive but draining
                self.mark_draining()
            else:
                self.mark_failure()
        except OSError:
            self.mark_failure()
        else:
            self.mark_healthy()
        return self.state

    def status(self) -> dict:
        return {
            "name": self.name,
            "url": self.url,
            "state": self.state,
            "failures": self.failures,
            "restarts": self.restarts,
            "models": [os.path.basename(path) for path in self.models],
        }


class ThreadReplica(Replica):
    """A PredictionServer on a background event loop in this process.

    Shared-nothing where it matters: its own :class:`ModelHost`, its own
    response cache, its own batcher.  What tests and single-process
    fleets use; for core-level parallelism use :class:`ProcessReplica`.
    """

    def __init__(self, name: str, model_paths: Sequence[str], **server_kwargs) -> None:
        super().__init__(name)
        self.models = list(model_paths)
        self.server_kwargs = dict(server_kwargs)
        self._runner = None
        self.server = None

    def start(self) -> None:
        from ..serving.host import ModelHost
        from ..serving.server import PredictionServer, ServerThread

        host = ModelHost(self.models)
        self.server = PredictionServer(host, port=0, **self.server_kwargs)
        self._runner = ServerThread(self.server)
        self.url = self._runner.__enter__()
        self.mark_healthy()

    def stop(self) -> None:
        if self._runner is not None:
            self._runner.__exit__(None, None, None)
            self._runner = None
        self.state = DEAD

    def kill(self) -> None:
        if self._runner is not None:
            self._runner.kill()
            self._runner = None
        self.state = DEAD

    def restart(self, model_paths: Optional[Sequence[str]] = None) -> None:
        self.stop()
        if model_paths:
            self.models = list(model_paths)
        self.state = STARTING
        self.start()
        self.restarts += 1


class ProcessReplica(Replica):
    """A ``pigeon serve`` subprocess on a dedicated port."""

    def __init__(
        self,
        name: str,
        model_paths: Sequence[str],
        port: Optional[int] = None,
        extra_args: Sequence[str] = (),
        startup_timeout_s: float = 120.0,
    ) -> None:
        super().__init__(name)
        self.models = list(model_paths)
        self.port = port
        self.extra_args = list(extra_args)
        self.startup_timeout_s = startup_timeout_s
        self.process: Optional[subprocess.Popen] = None

    def start(self) -> None:
        port = self.port if self.port else _free_port()
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", str(port)]
        for path in self.models:
            command += ["--model", path]
        command += self.extra_args
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        self.url = f"http://127.0.0.1:{port}"
        deadline = time.monotonic() + self.startup_timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"replica {self.name!r} exited with "
                    f"{self.process.returncode} before becoming healthy"
                )
            try:
                with ServingClient(self.url, timeout_s=5.0, retries=0) as client:
                    client.healthz()
            except (ServingError, OSError):
                time.sleep(0.05)
                continue
            self.mark_healthy()
            return
        raise RuntimeError(
            f"replica {self.name!r} did not answer /healthz within "
            f"{self.startup_timeout_s:.0f}s"
        )

    def stop(self) -> None:
        process = self.process
        if process is not None and process.poll() is None:
            # SIGTERM triggers the server's graceful drain handler.
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck drain
                process.kill()
                process.wait(timeout=10)
        self.process = None
        self.state = DEAD

    def kill(self) -> None:
        process = self.process
        if process is not None and process.poll() is None:
            process.kill()
            process.wait(timeout=10)
        self.process = None
        self.state = DEAD

    def restart(self, model_paths: Optional[Sequence[str]] = None) -> None:
        self.stop()
        if model_paths:
            self.models = list(model_paths)
        self.state = STARTING
        self.start()
        self.restarts += 1


class AdoptedReplica(Replica):
    """An already-running server adopted by URL; probed, never managed."""

    def __init__(self, name: str, url: str) -> None:
        super().__init__(name)
        self.url = url

    def start(self) -> None:
        self.probe()

    def stop(self) -> None:
        self.state = DEAD  # forget it; the actual process is not ours


class ReplicaSet:
    """The fleet's membership: N replicas and their health states."""

    def __init__(self, replicas: Sequence[Replica]) -> None:
        if not replicas:
            raise ValueError("a fleet needs at least one replica")
        names = [replica.name for replica in replicas]
        if len(set(names)) != len(names):
            raise ValueError(f"replica names must be unique; got {names}")
        self.replicas: Dict[str, Replica] = {r.name: r for r in replicas}
        self._restart_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def in_process(
        cls, model_paths: Sequence[str], count: int, **server_kwargs
    ) -> "ReplicaSet":
        return cls(
            [
                ThreadReplica(f"replica-{index}", model_paths, **server_kwargs)
                for index in range(count)
            ]
        )

    @classmethod
    def spawn(
        cls,
        model_paths: Sequence[str],
        count: int,
        base_port: Optional[int] = None,
    ) -> "ReplicaSet":
        return cls(
            [
                ProcessReplica(
                    f"replica-{index}",
                    model_paths,
                    port=(base_port + index) if base_port else None,
                )
                for index in range(count)
            ]
        )

    @classmethod
    def adopt(cls, urls: Sequence[str]) -> "ReplicaSet":
        return cls(
            [AdoptedReplica(f"replica-{index}", url) for index, url in enumerate(urls)]
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every replica; tears the started ones down on failure."""
        started: List[Replica] = []
        try:
            for replica in self.replicas.values():
                replica.start()
                started.append(replica)
        except BaseException:
            for replica in started:
                try:
                    replica.kill()
                except Exception:  # pragma: no cover - teardown best effort
                    pass
            raise

    def stop(self) -> None:
        for replica in self.replicas.values():
            try:
                replica.stop()
            except Exception:  # pragma: no cover - teardown best effort
                pass

    def restart(
        self, name: str, model_paths: Optional[Sequence[str]] = None
    ) -> Replica:
        """Drain-restart one replica (serialized: one at a time per fleet)."""
        replica = self.replicas[name]
        with self._restart_lock:
            replica.mark_draining()
            replica.restart(model_paths)
        return replica

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def poll(self, timeout_s: float = 5.0) -> Dict[str, str]:
        """Probe every replica's /healthz; returns name -> state."""
        for replica in self.replicas.values():
            replica.probe(timeout_s=timeout_s)
        return self.states()

    def wait_healthy(self, timeout_s: float = 120.0) -> None:
        """Block until every replica answers healthz (ReplicaSet.start helper)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if all(r.probe() == HEALTHY for r in self.replicas.values()):
                return
            time.sleep(0.05)
        laggards = [r.name for r in self.replicas.values() if r.state != HEALTHY]
        raise RuntimeError(f"replicas never became healthy: {laggards}")

    def states(self) -> Dict[str, str]:
        return {name: replica.state for name, replica in self.replicas.items()}

    def healthy(self) -> List[Replica]:
        return [r for r in self.replicas.values() if r.routable]

    def get(self, name: str) -> Replica:
        return self.replicas[name]

    def __len__(self) -> int:
        return len(self.replicas)

    def __iter__(self):
        return iter(self.replicas.values())

    def status(self) -> List[dict]:
        return [replica.status() for replica in self.replicas.values()]

    def stats(self, timeout_s: float = 10.0) -> Dict[str, dict]:
        """Each healthy replica's /stats payload (skips the unreachable)."""
        collected: Dict[str, dict] = {}
        for replica in self.replicas.values():
            if replica.url is None or replica.state == DEAD:
                continue
            try:
                with ServingClient(
                    replica.url, timeout_s=timeout_s, retries=0
                ) as client:
                    collected[replica.name] = client.stats()
            except (ServingError, OSError):
                continue
        return collected


def models_signature(model_paths: Sequence[str]) -> str:
    """A short provenance tag for /fleet/stats (paths + mtimes)."""
    parts = []
    for path in model_paths:
        try:
            mtime = int(os.stat(path).st_mtime)
        except OSError:
            mtime = -1
        parts.append(f"{os.path.basename(path)}@{mtime}")
    return json.dumps(parts)
