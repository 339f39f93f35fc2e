"""The ``POST /predict`` admission step both HTTP tiers run.

A replica (:class:`~repro.serving.server.PredictionServer`) and the
fleet router (:class:`~repro.fleet.router.FleetRouter`) take the same
request body, so they refuse the same requests with the same answers,
and the router must place a request on the cell the replica will score
it with.  :func:`admit` is that one step:

1. parse and check the JSON body: ``source``, ``language``, ``task``,
   ``top``, and no other field;
2. resolve ``(language, task)`` over the served cells with
   :func:`resolve_cell` (:meth:`~repro.serving.host.ModelHost.resolve`
   is the same resolver);
3. recall the source's structural digest from the
   :func:`~repro.serving.cache.source_key` memo, or parse it off-loop:
   a :class:`~repro.lang.base.ParseError` or a source with no UTF-8 form
   is the caller's fault (400), anything else a 500.

Refusals raise :class:`~repro.serving.http.HttpError`, which the
:class:`~repro.serving.http.HttpService` loop answers.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple, TypeVar

from ..lang.base import ParseError
from .cache import LruCache, source_key
from .http import HttpError, json_object

#: The fields a /predict body may carry.
PREDICT_FIELDS = frozenset({"source", "language", "task", "top"})

Served = TypeVar("Served")


def resolve_cell(
    served: Mapping[Tuple[str, str], Served],
    language: Optional[str],
    task: Optional[str],
) -> Served:
    """The entry serving ``(language, task)`` among ``served``'s keys.

    Either field may be omitted when it is unambiguous across the served
    keys; raises ``LookupError`` (-> HTTP 404) otherwise.
    """
    matches = [
        entry
        for (lang, tsk), entry in served.items()
        if (language is None or lang == language) and (task is None or tsk == task)
    ]
    if len(matches) == 1:
        return matches[0]
    listing = ", ".join(f"({lang}, {tsk})" for lang, tsk in sorted(served))
    wanted = f"(language={language or '*'}, task={task or '*'})"
    if not matches:
        raise LookupError(f"no model serves {wanted}; serving: {listing}")
    raise LookupError(f"{wanted} is ambiguous; serving: {listing}")


@dataclass(frozen=True)
class Admitted:
    """A checked ``/predict`` request, resolved and fingerprinted."""

    source: str
    top: int
    #: The served entry :func:`resolve_cell` picked (a
    #: :class:`~repro.api.pipeline.ScoringHandle` on a replica).
    handle: Any
    digest: str
    #: The parsed program when this request parsed (None on a memo hit).
    program: Optional[Any] = None


async def admit(
    body: bytes, served: Mapping[Tuple[str, str], Any], digests: LruCache
) -> Admitted:
    """Check, resolve and fingerprint one ``/predict`` body.

    ``served`` maps ``(language, task)`` to entries with a ``cell`` name
    and a ``fingerprinted(source) -> (program, digest)`` parse, which
    runs on the default executor; ``digests`` is the tier's
    ``source_key -> digest`` memo.
    """
    payload = json_object(body)
    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise HttpError(400, "field 'source' (non-empty string) is required")
    language = payload.get("language")
    task = payload.get("task")
    for field_name, value in (("language", language), ("task", task)):
        if value is not None and not isinstance(value, str):
            raise HttpError(400, f"field {field_name!r} must be a string")
    top = payload.get("top", 0)
    if not isinstance(top, int) or isinstance(top, bool) or top < 0:
        raise HttpError(400, "field 'top' must be a non-negative integer")
    unknown = sorted(set(payload) - PREDICT_FIELDS)
    if unknown:
        raise HttpError(400, f"unknown fields: {', '.join(unknown)}")

    try:
        handle = resolve_cell(served, language, task)
    except LookupError as error:
        raise HttpError(404, str(error)) from None

    try:
        memo_key = source_key(handle.cell, source)
    except UnicodeEncodeError as error:
        raise HttpError(400, f"source is not encodable as UTF-8: {error}") from None
    # A repeat of known bytes needs neither a parse nor an executor hop.
    digest = digests.get(memo_key)
    if digest is not None:
        return Admitted(source, top, handle, digest)
    loop = asyncio.get_running_loop()
    try:
        program, digest = await loop.run_in_executor(None, handle.fingerprinted, source)
    except ParseError as error:
        raise HttpError(400, f"cannot parse source: {error}") from None
    except Exception as error:  # noqa: BLE001 - our bug, not user input
        raise HttpError(500, f"fingerprinting failed: {error}") from None
    digests.put(memo_key, digest)
    return Admitted(source, top, handle, digest, program)
