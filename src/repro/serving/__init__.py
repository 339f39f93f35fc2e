"""Async batched prediction serving (the ROADMAP's "heavy traffic" path).

The subsystem turns a saved :class:`~repro.api.Pipeline` into an HTTP
service:

:mod:`repro.serving.host`
    :class:`ModelHost` loads each model once, freezes its feature space
    through :meth:`Pipeline.scoring_handle`, and scores batches off the
    event loop on a thread; more cores means more replicas
    (:mod:`repro.fleet`).
:mod:`repro.serving.batching`
    :class:`MicroBatcher` collects requests for up to ``batch_size`` /
    ``batch_wait_ms`` and hands them to the host as one batch, keeping
    the event loop free to accept connections.
:mod:`repro.serving.cache`
    :class:`LruCache` keyed on ``ast_digest(source) x task``, so a
    duplicated submission never reaches extraction or inference, and a
    second one from the source's bytes to its digest, so a byte-identical
    resubmission never reaches the parser either.
:mod:`repro.serving.http`
    :class:`~repro.serving.http.HttpService`, the one HTTP front of the
    server and the fleet router: listener lifecycle, keep-alive loop,
    counters, per-path latency histograms and the route table.
:mod:`repro.serving.admission`
    The one ``POST /predict`` admission step both tiers run: body
    checks, the ``(language, task)`` resolver and the digest memo.
:mod:`repro.serving.server`
    :class:`PredictionServer`, the scoring tier on that front, with
    ``POST /predict``, ``GET /healthz`` and ``GET /stats`` and a
    graceful drain on shutdown.
:mod:`repro.serving.client`
    :class:`ServingClient`, the blocking helper behind tests, the
    benchmark and ``pigeon predict --server``.
"""

from .batching import BatcherClosed, MicroBatcher
from .cache import LruCache
from .client import ServingClient, ServingError
from .host import ModelHost, PredictRequest
from .server import PredictionServer, ServerThread

__all__ = [
    "BatcherClosed",
    "LruCache",
    "MicroBatcher",
    "ModelHost",
    "PredictRequest",
    "PredictionServer",
    "ServerThread",
    "ServingClient",
    "ServingError",
]
