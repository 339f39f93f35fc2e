"""The on-disk shard container: versioned header, digest, vocab, records.

A shard file is two lines of UTF-8 JSON::

    {"format": "pigeon-shard/1", "digest": "<blake2b>", "meta": {...}}
    {"space": {"paths": [...], "values": [...]}, "records": [...]}

The first line is the **header**: format tag, an integrity digest of the
payload line, and the shard's metadata (its index in the corpus, the
view kind, the spec and resolved extraction parameters it was built
under, and record counts).  The second line is the **payload**: the
shard-local :class:`~repro.core.interning.FeatureSpace` snapshot -- the
complete interning order of this shard's files, including entries no
record references, because the vocab merge replays that order -- and one
record per source file, keyed entirely on shard-local integer ids.

Headers are tiny, so a :class:`ShardReader` parses only the header
until :meth:`ShardReader.load` is called; readers therefore open a
thousand-shard corpus without touching a payload, and the
:class:`~repro.shards.corpus.ShardedCorpus` keeps at most a few loaded
payloads resident at a time.

Records come in two kinds (``meta["kind"]``), one per learner view:

``graph``
    one serialized CRF factor graph per file (the ``crf`` learner view);
``contexts``
    one element->(gold, context tokens) map per file (the ``word2vec``
    learner view).

Writer and reader both refuse any other kind.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence

from ..core.interning import FeatureSpace
from ..resilience import faults
from ..resilience.atomicio import CorruptArtifactError, atomic_write_bytes

#: On-disk format tag.  Bump when the header or payload layout changes;
#: readers refuse other versions with a clear error.
SHARD_FORMAT = "pigeon-shard/1"

#: Known record kinds (``meta["kind"]``).
GRAPH_KIND = "graph"
CONTEXTS_KIND = "contexts"
SHARD_KINDS = (GRAPH_KIND, CONTEXTS_KIND)


class ShardError(ValueError):
    """Base class for everything wrong with a shard file or shard set."""


class ShardFormatError(ShardError):
    """The file is not a shard, or was written by an unknown version."""


class ShardIntegrityError(ShardError, CorruptArtifactError):
    """The payload does not match the header's digest (truncated/corrupt).

    Also a :class:`~repro.resilience.atomicio.CorruptArtifactError`, so
    callers that quarantine corrupt artifacts generically catch shard
    corruption too (``ShardError`` adds no ``__init__``; construction
    uses ``CorruptArtifactError``'s structured form).
    """


class ShardMismatchError(ShardError):
    """Shards of one set disagree (kind, spec, extraction, indices)."""


def _canonical_meta(meta: Dict[str, object]) -> bytes:
    """The meta dict in the exact byte form the digest covers.

    ``json.dumps`` of a dict that itself came from ``json.loads`` is
    byte-stable (key order is insertion order, scalar formatting is
    round-trip exact), so writer and reader agree on these bytes.
    """
    return json.dumps(meta, separators=(",", ":")).encode("utf-8")


def shard_digest(meta: Dict[str, object], payload_bytes: bytes) -> str:
    """The integrity digest the header pins: 128-bit blake2b, hex.

    Covers the payload bytes *and* the header meta, so tampering with
    shard_index, file counts or the recorded spec is caught exactly like
    payload corruption.
    """
    hasher = hashlib.blake2b(_canonical_meta(meta), digest_size=16)
    hasher.update(b"\n")
    hasher.update(payload_bytes)
    return hasher.hexdigest()


class ShardWriter:
    """Accumulates one shard's records and writes the two-line file.

    The writer is index-aware but otherwise dumb: its caller (the
    builder in :mod:`repro.shards.build`) decides what a record is and
    owns the shard-local feature space the records' ids reference.
    """

    def __init__(self, path: str, meta: Dict[str, object]) -> None:
        kind = meta.get("kind")
        if kind not in SHARD_KINDS:
            raise ShardFormatError(
                f"unknown shard kind {kind!r}; expected one of {SHARD_KINDS}"
            )
        self.path = path
        self.meta = dict(meta)
        self.records: List[object] = []

    def add_record(self, record: object) -> None:
        self.records.append(record)

    def finish(self, space: FeatureSpace) -> str:
        """Write the shard file; returns the path.

        ``space`` is the shard-local vocab the records' ids index into.
        The digest is computed over the exact payload bytes written, so
        any later mutation of the file -- truncation, bit rot, a manual
        edit -- is caught at read time.
        """
        payload = {"space": space.to_dict(), "records": self.records}
        payload_bytes = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        # Round-trip the meta through JSON before digesting so the bytes
        # the reader reconstructs from its parsed header match exactly.
        meta = json.loads(_canonical_meta(dict(self.meta, files=len(self.records))))
        header = {
            "format": SHARD_FORMAT,
            "digest": shard_digest(meta, payload_bytes),
            "meta": meta,
        }
        faults.fire("shard.write")
        # One atomic binary write: the digest pins the exact payload
        # bytes (no newline translation), and a crash mid-build leaves
        # either no shard file or a complete, verifiable one.
        data = b"".join(
            (
                json.dumps(header, separators=(",", ":")).encode("utf-8"),
                b"\n",
                payload_bytes,
                b"\n",
            )
        )
        atomic_write_bytes(self.path, data)
        return self.path


class ShardReader:
    """Header-eager, payload-lazy view of one shard file."""

    def __init__(self, path: str) -> None:
        self.path = path
        with open(path, "rb") as handle:
            header_line = handle.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ShardFormatError(
                f"{path!r} is not a shard file (unparsable header)"
            ) from error
        if not isinstance(header, dict) or "format" not in header:
            raise ShardFormatError(
                f"{path!r} is not a shard file (no format tag in header)"
            )
        fmt = header.get("format")
        if fmt != SHARD_FORMAT:
            raise ShardFormatError(
                f"{path!r} was written as {fmt!r}; this version reads "
                f"{SHARD_FORMAT!r} -- rebuild the shard with 'pigeon shard build'"
            )
        self.digest: str = str(header.get("digest", ""))
        self.meta: Dict[str, object] = dict(header.get("meta", {}))
        kind = self.meta.get("kind")
        if kind not in SHARD_KINDS:
            raise ShardFormatError(
                f"{path!r} holds records of unknown kind {kind!r}; this "
                f"version reads {SHARD_KINDS} -- rebuild the shard with "
                f"'pigeon shard build'"
            )
        self._payload: Optional[dict] = None
        self._verified = False

    # ------------------------------------------------------------------
    # Header accessors
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return str(self.meta.get("kind", ""))

    @property
    def shard_index(self) -> int:
        return int(self.meta.get("shard_index", 0))  # type: ignore[arg-type]

    @property
    def files(self) -> int:
        return int(self.meta.get("files", 0))  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Payload
    # ------------------------------------------------------------------
    def _read_payload_bytes(self) -> bytes:
        with open(self.path, "rb") as handle:
            handle.readline()  # header
            payload = handle.readline()
        return payload.rstrip(b"\n")

    def verify(self) -> None:
        """Check meta + payload against the header digest (raises on mismatch)."""
        payload_bytes = self._read_payload_bytes()
        actual = shard_digest(self.meta, payload_bytes)
        if actual != self.digest:
            raise self._integrity_error(actual)

    def _integrity_error(self, actual: str) -> ShardIntegrityError:
        return ShardIntegrityError(
            self.path,
            expected=self.digest,
            actual=actual,
            hint="the shard is truncated or corrupted -- rebuild it with "
            "'pigeon shard build'",
        )

    def load(self) -> dict:
        """The verified, parsed payload ``{"space": ..., "records": [...]}``.

        Cached until :meth:`release`.  Integrity is checked before the
        first parse, so a corrupt shard never yields partial records;
        re-loads after a :meth:`release` skip the digest (the file was
        already proven intact, and the streaming LRU re-loads shards
        many times per training epoch).
        """
        if self._payload is None:
            payload_bytes = self._read_payload_bytes()
            if not self._verified:
                actual = shard_digest(self.meta, payload_bytes)
                if actual != self.digest:
                    raise self._integrity_error(actual)
                self._verified = True
            self._payload = json.loads(payload_bytes)
        return self._payload

    def release(self) -> None:
        """Drop the cached payload (the bounded-memory lever)."""
        self._payload = None

    @property
    def loaded(self) -> bool:
        return self._payload is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardReader({os.path.basename(self.path)!r}, "
            f"kind={self.kind!r}, index={self.shard_index}, files={self.files})"
        )


#: Meta keys every shard of one set must agree on (``shard_index``,
#: ``files`` and the per-shard count keys legitimately differ).
_SET_KEYS = ("kind", "language", "spec", "extraction")


class ShardSet:
    """An ordered, validated collection of shards forming one corpus.

    Shards are ordered by their recorded ``shard_index`` -- never by the
    order the paths were passed in -- so a shuffled directory listing
    merges into exactly the same global vocabulary.  Construction
    validates that the indices form ``0..n-1`` with no gaps or twins and
    that every shard was built under the same kind/spec/extraction.
    """

    def __init__(self, readers: Sequence[ShardReader]) -> None:
        if not readers:
            raise ShardError("a shard set needs at least one shard")
        ordered = sorted(readers, key=lambda r: r.shard_index)
        indices = [r.shard_index for r in ordered]
        if indices != list(range(len(ordered))):
            raise ShardMismatchError(
                f"shard indices must form 0..{len(ordered) - 1} with no "
                f"gaps or duplicates; got {indices} -- the set is missing "
                f"shards or mixes two corpora"
            )
        first = ordered[0].meta
        for reader in ordered[1:]:
            for key in _SET_KEYS:
                if reader.meta.get(key) != first.get(key):
                    raise ShardMismatchError(
                        f"shard {reader.path!r} disagrees with "
                        f"{ordered[0].path!r} on {key!r} "
                        f"({reader.meta.get(key)!r} != {first.get(key)!r}); "
                        f"all shards of a set must be built by one "
                        f"'pigeon shard build' run"
                    )
        self.readers: List[ShardReader] = list(ordered)

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, target: object) -> "ShardSet":
        """Open a shard directory, a list of paths, or pass a set through."""
        if isinstance(target, ShardSet):
            return target
        if isinstance(target, os.PathLike):
            target = os.fspath(target)
        if isinstance(target, str):
            if os.path.isdir(target):
                paths = sorted(
                    os.path.join(target, name)
                    for name in os.listdir(target)
                    if name.endswith(".shard.json")
                )
                if not paths:
                    raise ShardError(f"no *.shard.json files in {target!r}")
            else:
                paths = [target]
        else:
            paths = [str(p) for p in target]  # type: ignore[union-attr]
        return cls([ShardReader(path) for path in paths])

    # ------------------------------------------------------------------
    @property
    def meta(self) -> Dict[str, object]:
        """The set-wide metadata (validated equal across shards)."""
        return self.readers[0].meta

    @property
    def kind(self) -> str:
        return self.readers[0].kind

    @property
    def spec_dict(self) -> Optional[dict]:
        spec = self.meta.get("spec")
        return dict(spec) if isinstance(spec, dict) else None

    @property
    def files(self) -> int:
        return sum(r.files for r in self.readers)

    def counts(self, key: str) -> int:
        """Sum one per-shard count key (``elements``, ``paths``) over the set."""
        return sum(int(r.meta.get(key, 0)) for r in self.readers)  # type: ignore[arg-type]

    def __len__(self) -> int:
        return len(self.readers)

    def __iter__(self):
        return iter(self.readers)

    def summary(self) -> dict:
        """JSON-ready set stats (what ``pigeon shard info`` prints)."""
        return {
            "shards": len(self.readers),
            "kind": self.kind,
            "language": self.meta.get("language"),
            "files": self.files,
            "elements": self.counts("elements"),
            "paths": self.counts("paths"),
        }
