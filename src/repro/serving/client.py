"""A small blocking client for the prediction server.

Used three ways: by the serving test-suite, by ``pigeon predict
--server URL`` (the thin-client mode of the CLI), and by the serving
benchmark's load generator.  One :class:`ServingClient` holds one
keep-alive connection; create one per thread when generating load.
"""

from __future__ import annotations

import json
import random
import time
from http.client import HTTPConnection, HTTPException
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlparse


class ServingError(RuntimeError):
    """A non-2xx response; carries the HTTP status and decoded payload."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class ServingClient:
    """Blocking JSON-over-HTTP access to a :class:`PredictionServer`.

    ``timeout_s`` bounds every socket operation.  A connection-refused
    failure (the window where a fleet replica is between drain and
    restart, or a router has not yet bound) is retried ``retries`` times
    with exponential backoff plus jitter before surfacing -- so rolling
    restarts behind a fleet never appear to callers as crashes.

    With ``retry_503=True`` a 503 response is also retried, sleeping the
    server's ``Retry-After`` hint (capped at :data:`RETRY_AFTER_CAP_S`)
    instead of the generic backoff -- the server knows when it expects
    to have capacity again; guessing with exponential backoff either
    hammers it early or idles long past recovery.  It is opt-in because
    a 503 is a *correct answer* from a saturated server: load generators
    and shedding tests need to observe it, not paper over it.

    Every request carries an ``X-Request-Timeout-S`` header announcing
    ``timeout_s``, so a fleet router can bound its retries-on-successor
    to the budget this client is actually willing to wait.
    """

    #: Upper bound on honoring a server's Retry-After hint -- a
    #: misbehaving (or byte-flipped) header must not park a client.
    RETRY_AFTER_CAP_S = 5.0

    def __init__(
        self,
        url: str,
        timeout_s: float = 60.0,
        retries: int = 1,
        retry_backoff_s: float = 0.1,
        retry_503: bool = False,
    ) -> None:
        parsed = urlparse(url if "//" in url else f"http://{url}")
        if parsed.scheme not in ("", "http"):
            raise ValueError(f"only http:// served; got {url!r}")
        if not parsed.hostname:
            raise ValueError(f"no host in server URL {url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 8017
        self.timeout_s = float(timeout_s)
        self.retries = max(0, int(retries))
        self.retry_backoff_s = max(0.0, float(retry_backoff_s))
        self.retry_503 = bool(retry_503)
        self._connection = HTTPConnection(self.host, self.port, timeout=self.timeout_s)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """One raw round-trip (the escape hatch malformed-request tests use).

        Connection-refused is retried with backoff (see the class doc);
        every other transport failure propagates immediately -- the
        request may have partially executed, and only the caller knows
        whether re-sending is safe.
        """
        send_headers = {
            "Content-Type": "application/json",
            "X-Request-Timeout-S": f"{self.timeout_s:g}",
        }
        if headers:
            send_headers.update(headers)
        for attempt in range(self.retries + 1):
            try:
                self._connection.request(method, path, body=body, headers=send_headers)
                response = self._connection.getresponse()
                raw = response.read()
            except ConnectionRefusedError:
                self._connection.close()
                if attempt >= self.retries:
                    raise
                # Exponential backoff with jitter: restarting replicas
                # come back within tens of milliseconds, and the jitter
                # keeps a thundering herd of clients from re-knocking in
                # lockstep.
                delay = self.retry_backoff_s * (2**attempt)
                time.sleep(delay + random.uniform(0, delay))
                continue
            except (HTTPException, ConnectionError, OSError):
                # The server closes the socket after protocol-level 4xx; a
                # fresh connection keeps the client usable.
                self._connection.close()
                raise
            if response.status == 503 and self.retry_503 and attempt < self.retries:
                if response.will_close:
                    self._connection.close()
                time.sleep(self._retry_delay(response.getheader("Retry-After"), attempt))
                continue
            break
        if response.will_close:
            self._connection.close()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except json.JSONDecodeError:
            payload = {"error": raw.decode("utf-8", "replace")}
        return response.status, payload

    def _retry_delay(self, retry_after: Optional[str], attempt: int) -> float:
        """How long to sleep before re-knocking after a 503.

        The server's Retry-After hint wins (capped); absent or garbled
        hints fall back to the same jittered exponential backoff the
        connection-refused path uses.
        """
        if retry_after is not None:
            try:
                hint = float(retry_after)
            except ValueError:
                hint = -1.0
            if hint >= 0:
                return min(hint, self.RETRY_AFTER_CAP_S)
        delay = self.retry_backoff_s * (2**attempt)
        return delay + random.uniform(0, delay)

    def _json(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        status, decoded = self.request(method, path, body=body)
        if status != 200:
            raise ServingError(status, decoded)
        return decoded

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def predict(
        self,
        source: str,
        language: Optional[str] = None,
        task: Optional[str] = None,
        top: int = 0,
    ) -> dict:
        """POST /predict; returns the server's JSON response."""
        payload: Dict[str, Any] = {"source": source}
        if language is not None:
            payload["language"] = language
        if task is not None:
            payload["task"] = task
        if top:
            payload["top"] = top
        return self._json("POST", "/predict", payload)

    def healthz(self) -> dict:
        return self._json("GET", "/healthz")

    def stats(self) -> dict:
        return self._json("GET", "/stats")

    # The fleet router speaks the same /predict dialect, plus two
    # fleet-level routes; pointing a ServingClient at a router URL makes
    # these available (a plain PredictionServer answers them with 404).
    def fleet_stats(self) -> dict:
        return self._json("GET", "/fleet/stats")

    def fleet_reload(self, models: Optional[list] = None) -> dict:
        payload: Dict[str, Any] = {}
        if models is not None:
            payload["models"] = list(models)
        return self._json("POST", "/fleet/reload", payload)

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()
