"""The ``pigeon-model/1`` binary container: header, digest, mmapped sections.

A model artifact is a single file::

    pigeon-model/1\\n                   <- 15 magic bytes
    <8-byte little-endian header size>
    <header: digest-stamped compact JSON>
    <zero padding to a 64-byte boundary>
    <sections: 64-byte-aligned numpy-ready byte ranges>

The **header** carries the format tag, the saved pipeline's
:class:`~repro.api.spec.RunSpec`, the learner name, per-learner ``meta``
(scalars like the CRF ``label_base``), optional prune provenance, a
section table (name, dtype, shape, offset, nbytes -- offsets relative to
the payload region), and two blake2b digests: ``payload_digest`` over
the whole section region, and the header's own stamp as its last key
(the same convention as :func:`repro.resilience.atomicio.stamped_json_bytes`).

**Opening is O(header)**: :meth:`ModelArtifact.open` reads the magic and
the header, verifies the header stamp, checks the file size against the
section table (a torn ``write`` is caught without hashing megabytes of
weights), then mmaps the file.  Sections come back as zero-copy numpy
views over the mapping -- N serving processes on one box share one copy
of the weights through the OS page cache.  :meth:`ModelArtifact.verify`
additionally hashes the payload region against ``payload_digest``;
:meth:`~repro.api.Pipeline.load` (and so every ``pigeon`` command that
reads a model) and ``pigeon model verify`` open with
``verify_payload=True``, so a bit flip inside the weights is refused
before anything is predicted from it.  ``pigeon model info`` reads the
header alone.

Integrity failures raise the stack's structured
:class:`~repro.resilience.atomicio.CorruptArtifactError`, never a
format-specific traceback.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..resilience.atomicio import (
    DIGEST_KEY,
    CorruptArtifactError,
    artifact_digest,
    atomic_write_bytes,
)

#: On-disk format tag.  Bump when the header or section layout changes;
#: readers refuse other versions with a clear error.
MODEL_FORMAT = "pigeon-model/1"

#: First bytes of every model artifact.
MODEL_MAGIC = (MODEL_FORMAT + "\n").encode("ascii")

#: Section alignment: every section (and the payload region itself)
#: starts on a 64-byte boundary, so any dtype's views are aligned and
#: section starts never straddle cache lines.
ALIGN = 64

_HEADER_SIZE_STRUCT = struct.Struct("<Q")


def _aligned(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


class ArtifactWriter:
    """Accumulates named numpy sections and writes one artifact atomically.

    Sections keep insertion order; strings and other non-numeric state
    belong in ``meta`` (they ride in the header) or in packed
    blob+offsets array pairs.
    """

    def __init__(
        self,
        spec: Dict[str, Any],
        learner: str,
        meta: Optional[Dict[str, Any]] = None,
        prune: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.spec = spec
        self.learner = learner
        self.meta = dict(meta or {})
        self.prune = prune
        self._sections: List[Tuple[str, np.ndarray]] = []
        self._names: set = set()

    def add(self, name: str, array: np.ndarray) -> None:
        """Add one named section (C-contiguous; dtype/shape ride along)."""
        if name in self._names:
            raise ValueError(f"duplicate artifact section {name!r}")
        self._names.add(name)
        self._sections.append((name, np.ascontiguousarray(array)))

    def tobytes(self) -> bytes:
        """The complete artifact file image."""
        table: List[Dict[str, Any]] = []
        payload = bytearray()
        for name, array in self._sections:
            offset = _aligned(len(payload))
            payload.extend(b"\x00" * (offset - len(payload)))
            data = array.tobytes()
            table.append(
                {
                    "name": name,
                    "dtype": array.dtype.str,
                    "shape": list(array.shape),
                    "offset": offset,
                    "nbytes": len(data),
                }
            )
            payload.extend(data)
        header = {
            "format": MODEL_FORMAT,
            "spec": self.spec,
            "learner": self.learner,
            "meta": self.meta,
            "prune": self.prune,
            "sections": table,
            "payload_digest": artifact_digest(bytes(payload)),
        }
        body = json.dumps(header, separators=(",", ":"))
        stamp = artifact_digest(body.encode("utf-8"))
        header_bytes = f'{body[:-1]},"{DIGEST_KEY}":"{stamp}"}}'.encode("utf-8")
        prefix = len(MODEL_MAGIC) + _HEADER_SIZE_STRUCT.size + len(header_bytes)
        payload_start = _aligned(prefix)
        out = bytearray()
        out.extend(MODEL_MAGIC)
        out.extend(_HEADER_SIZE_STRUCT.pack(len(header_bytes)))
        out.extend(header_bytes)
        out.extend(b"\x00" * (payload_start - prefix))
        out.extend(payload)
        return bytes(out)

    def write(self, path: str) -> None:
        """Durably (atomically) write the artifact to ``path``."""
        atomic_write_bytes(os.fspath(path), self.tobytes())


class ModelArtifact:
    """One opened (mmapped) ``pigeon-model/1`` file with lazy section views."""

    def __init__(
        self, path: str, header: Dict[str, Any], mapping, payload_start: int
    ) -> None:
        self.path = path
        self.header = header
        self._map = mapping
        self._payload_start = payload_start
        self._table: Dict[str, Dict[str, Any]] = {
            entry["name"]: entry for entry in header.get("sections", ())
        }

    # ------------------------------------------------------------------
    # Opening
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str, verify_payload: bool = False) -> "ModelArtifact":
        """Open and header-verify an artifact; mmap its payload.

        Cheap by design: the header stamp and the file-size check catch
        torn or truncated files without faulting in the weight pages.
        ``verify_payload=True`` additionally hashes the payload region
        (what :meth:`~repro.api.Pipeline.load` and ``pigeon model
        verify`` do).
        """
        path = os.fspath(path)
        hint = "retrain or restore a backup of the model file"
        with open(path, "rb") as handle:
            magic = handle.read(len(MODEL_MAGIC))
            if magic != MODEL_MAGIC:
                raise CorruptArtifactError(
                    path,
                    detail=f"not a {MODEL_FORMAT} artifact (bad magic)",
                    hint=hint,
                )
            size_bytes = handle.read(_HEADER_SIZE_STRUCT.size)
            if len(size_bytes) != _HEADER_SIZE_STRUCT.size:
                raise CorruptArtifactError(
                    path, detail="truncated before the header size", hint=hint
                )
            (header_size,) = _HEADER_SIZE_STRUCT.unpack(size_bytes)
            header_bytes = handle.read(header_size)
            if len(header_bytes) != header_size:
                raise CorruptArtifactError(
                    path, detail="truncated inside the header", hint=hint
                )
            header = cls._parse_header(path, header_bytes, hint)
            prefix = len(MODEL_MAGIC) + _HEADER_SIZE_STRUCT.size + header_size
            payload_start = _aligned(prefix)
            payload_size = 0
            for entry in header.get("sections", ()):
                payload_size = max(payload_size, entry["offset"] + entry["nbytes"])
            expected = payload_start + payload_size
            actual = os.fstat(handle.fileno()).st_size
            if actual < expected:
                raise CorruptArtifactError(
                    path,
                    detail=(
                        f"truncated payload ({actual} bytes on disk, section "
                        f"table needs {expected})"
                    ),
                    hint=hint,
                )
            if expected > 0:
                mapping = mmap.mmap(
                    handle.fileno(), expected, access=mmap.ACCESS_READ
                )
            else:  # pragma: no cover - zero-section artifact
                mapping = memoryview(b"")
        artifact = cls(path, header, mapping, payload_start)
        if verify_payload:
            artifact.verify()
        return artifact

    @staticmethod
    def _parse_header(path: str, header_bytes: bytes, hint: str) -> Dict[str, Any]:
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CorruptArtifactError(
                path, detail=f"header is not valid JSON ({error})", hint=hint
            ) from error
        if not isinstance(header, dict) or DIGEST_KEY not in header:
            raise CorruptArtifactError(
                path, detail="header is missing its integrity digest", hint=hint
            )
        expected = header.pop(DIGEST_KEY)
        body = json.dumps(header, separators=(",", ":"))
        actual = artifact_digest(body.encode("utf-8"))
        if actual != expected:
            raise CorruptArtifactError(
                path, expected=expected, actual=actual, hint=hint
            )
        fmt = header.get("format")
        if fmt != MODEL_FORMAT:
            raise CorruptArtifactError(
                path,
                detail=f"unknown model artifact format {fmt!r} (expected {MODEL_FORMAT!r})",
                hint="upgrade this installation, or retrain the model with it",
            )
        return header

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def spec(self) -> Dict[str, Any]:
        return self.header["spec"]

    @property
    def learner(self) -> str:
        return self.header["learner"]

    @property
    def meta(self) -> Dict[str, Any]:
        return self.header.get("meta", {})

    @property
    def prune(self) -> Optional[Dict[str, Any]]:
        return self.header.get("prune")

    def section_names(self) -> List[str]:
        return [entry["name"] for entry in self.header.get("sections", ())]

    def array(self, name: str) -> np.ndarray:
        """Zero-copy numpy view of one section (backed by the mapping)."""
        entry = self._table.get(name)
        if entry is None:
            raise KeyError(
                f"artifact {self.path!r} has no section {name!r}; "
                f"sections: {self.section_names()}"
            )
        start = self._payload_start + entry["offset"]
        view = memoryview(self._map)[start : start + entry["nbytes"]]
        return np.frombuffer(view, dtype=np.dtype(entry["dtype"])).reshape(
            entry["shape"]
        )

    def string_table(self, name: str) -> Tuple[memoryview, np.ndarray]:
        """The ``(blob, offsets)`` pair behind a packed string section."""
        offsets = self.array(f"{name}/offsets")
        entry = self._table[f"{name}/blob"]
        start = self._payload_start + entry["offset"]
        blob = memoryview(self._map)[start : start + entry["nbytes"]]
        return blob, offsets

    def verify(self) -> None:
        """Hash the payload region against the header's ``payload_digest``."""
        payload_size = 0
        for entry in self.header.get("sections", ()):
            payload_size = max(payload_size, entry["offset"] + entry["nbytes"])
        with memoryview(self._map) as whole:
            actual = artifact_digest(
                whole[self._payload_start : self._payload_start + payload_size]
            )
        expected = self.header.get("payload_digest")
        if actual != expected:
            raise CorruptArtifactError(
                self.path,
                expected=expected,
                actual=actual,
                hint="the weight sections are corrupt -- retrain or restore a backup",
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelArtifact({self.path!r}, learner={self.learner!r}, "
            f"{len(self._table)} sections)"
        )


def pack_strings(values: List[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Encode a string list as ``(blob uint8, offsets int64)`` sections."""
    encoded = [value.encode("utf-8") for value in values]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    if encoded:
        np.cumsum([len(part) for part in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return blob, offsets
