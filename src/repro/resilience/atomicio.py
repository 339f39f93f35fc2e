"""Atomic durable writes and digest-stamped JSON artifacts.

Every durable artifact in the stack funnels through two primitives:

:func:`atomic_write_bytes`
    write to a temp file in the destination directory, ``fsync`` it,
    ``os.replace`` over the destination, then ``fsync`` the parent
    directory.  A crash at any point leaves either the old file or the
    complete new one -- never a torn artifact.
:func:`write_stamped_json` / :func:`read_stamped_json`
    compact-JSON payloads with a blake2b digest appended as the last
    key.  Readers re-derive the digest; a truncated or bit-flipped file
    raises :class:`CorruptArtifactError` naming the file, the expected
    vs. actual digest, and a recovery hint.  Files written before the
    digest era load unchanged (the digest key is simply absent).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Optional

from repro.resilience import faults

#: Hex length of the blake2b digest stamped into artifacts (16 bytes).
DIGEST_BYTES = 16

#: Key under which the digest is stored in stamped JSON artifacts.
DIGEST_KEY = "digest"


class CorruptArtifactError(ValueError):
    """A durable artifact failed integrity verification on load.

    Structured so callers (and humans reading one-line CLI errors) see
    the file, what digest was expected vs. computed, and how to
    recover -- quarantine semantics, never a bare traceback.
    """

    def __init__(
        self,
        path: str,
        *,
        expected: Optional[str] = None,
        actual: Optional[str] = None,
        hint: Optional[str] = None,
        detail: Optional[str] = None,
    ) -> None:
        self.path = os.fspath(path)
        self.expected_digest = expected
        self.actual_digest = actual
        self.hint = hint
        parts = [f"{self.path!r} is corrupt"]
        if detail:
            parts.append(detail)
        if expected is not None or actual is not None:
            parts.append(
                f"expected digest {expected or '<missing>'}, "
                f"computed {actual or '<none>'}"
            )
        if hint:
            parts.append(hint)
        super().__init__("; ".join(parts))


def artifact_digest(body: bytes) -> str:
    """blake2b hex digest (16 bytes) used to stamp artifacts."""
    return hashlib.blake2b(body, digest_size=DIGEST_BYTES).hexdigest()


def fsync_directory(path: str) -> None:
    """Best-effort fsync of a directory so a rename inside it is durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; rename is still atomic
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Durably write ``data`` to ``path``: temp + fsync + rename + dir fsync."""
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    base = os.path.basename(path)
    fd, temp_path = tempfile.mkstemp(prefix=f".{base}.", suffix=".tmp", dir=parent)
    try:
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        faults.fire("atomic.commit")
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    fsync_directory(parent)


def stamped_json_bytes(payload: dict) -> bytes:
    """Serialize ``payload`` compactly with its digest appended as last key."""
    body = json.dumps(payload, separators=(",", ":"))
    digest = artifact_digest(body.encode("utf-8"))
    return f'{body[:-1]},"{DIGEST_KEY}":"{digest}"}}'.encode("utf-8")


def write_stamped_json(path: str, payload: dict) -> None:
    """Atomically write ``payload`` as digest-stamped compact JSON."""
    if not isinstance(payload, dict) or not payload:
        raise ValueError("stamped artifacts must be non-empty JSON objects")
    if DIGEST_KEY in payload:
        raise ValueError(f"payload already contains the reserved {DIGEST_KEY!r} key")
    atomic_write_bytes(os.fspath(path), stamped_json_bytes(payload))


def read_stamped_json(
    path: str, *, require_digest: bool = False, hint: Optional[str] = None
) -> Any:
    """Load a digest-stamped JSON artifact, verifying its integrity.

    Raises :class:`CorruptArtifactError` when the file is not valid
    JSON or its stamped digest does not match the payload.  Files
    without a digest key load as-is (pre-digest artifacts) unless
    ``require_digest`` is set.  Missing files raise ``OSError`` --
    absence is not corruption.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        raw = data.decode("utf-8")
        payload = json.loads(raw)
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CorruptArtifactError(
            path,
            detail=f"not valid JSON ({error})",
            hint=hint or "the file is truncated or torn -- regenerate it",
        ) from error
    if not isinstance(payload, dict) or DIGEST_KEY not in payload:
        if require_digest:
            raise CorruptArtifactError(
                path,
                detail="missing its integrity digest",
                hint=hint or "regenerate the artifact",
            )
        return payload
    expected = payload.pop(DIGEST_KEY)
    body = json.dumps(payload, separators=(",", ":"))
    actual = artifact_digest(body.encode("utf-8"))
    if actual != expected:
        raise CorruptArtifactError(
            path,
            expected=expected,
            actual=actual,
            hint=hint or "the file is truncated or corrupted -- regenerate it",
        )
    return payload
