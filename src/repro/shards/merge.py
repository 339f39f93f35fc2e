"""First-seen vocabulary merging: shard-local ids -> one global space.

Each shard carries the *complete interning order* of its slice of the
corpus.  :class:`VocabMerger` replays those orders shard-by-shard
(ordered by recorded shard index) into one global
:class:`~repro.core.interning.FeatureSpace`, interning every string
first-seen.  Because a shard's local vocab is exactly the sequence of
intern calls a sequential run would have made over that shard's files,
the merged space is **bit-identical to the space a single-process run
over the whole corpus would have built** -- same strings, same ids, same
order.  That identity is what makes sharded training interchangeable
with in-memory training.

The merger also emits one :class:`ShardRemap` per shard: dense arrays
mapping each shard-local id to its global id, which is all the
:class:`~repro.shards.corpus.ShardedCorpus` needs to stream a shard's
records in global-id form.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from typing import List, Sequence

from ..core.interning import FeatureSpace
from ..resilience.atomicio import read_stamped_json, stamped_json_bytes, atomic_write_bytes
from .format import ShardFormatError, ShardMismatchError, ShardReader, ShardSet

#: Format tag of a persisted merge manifest (``pigeon shard merge``).
MERGE_FORMAT = "pigeon-merge/1"


@dataclass
class ShardRemap:
    """Dense shard-local -> global id maps for one shard.

    Stored as typed ``array('q')``s: remaps are the one merge artifact
    whose total size scales with shard count, and a machine-int array is
    ~10x smaller than a list of boxed ints.
    """

    paths: Sequence[int]
    values: Sequence[int]


@dataclass
class MergedSpace:
    """The outcome of one merge: the global space + per-shard remaps."""

    space: FeatureSpace
    remaps: Sequence[ShardRemap]

    def summary(self) -> dict:
        return {
            "shards": len(self.remaps),
            "unique_paths": len(self.space.paths),
            "unique_values": len(self.space.values),
        }


class VocabMerger:
    """Folds shard-local vocabs into one global first-seen space."""

    def merge(self, shards: ShardSet) -> MergedSpace:
        """Merge a validated shard set (ordered by shard index)."""
        space = FeatureSpace()
        remaps: List[ShardRemap] = []
        for reader in shards:
            remaps.append(self.merge_one(reader, space))
        return MergedSpace(space=space, remaps=remaps)

    def merge_one(self, reader: ShardReader, space: FeatureSpace) -> ShardRemap:
        """Fold one shard's local vocab into ``space``; returns its remap.

        Only the vocab lists are consumed, and the payload is released
        before returning -- merging must stay one-shard-resident, or the
        merge itself would materialise the corpus the streaming exists
        to avoid.
        """
        local = reader.load()["space"]
        paths = array("q", (space.paths.intern(v) for v in local.get("paths", ())))
        values = array("q", (space.values.intern(v) for v in local.get("values", ())))
        reader.release()
        return ShardRemap(paths=paths, values=values)


def merge_shards(target: object) -> MergedSpace:
    """Open + merge in one call (directory path, path list, or ShardSet)."""
    return VocabMerger().merge(ShardSet.open(target))


# ----------------------------------------------------------------------
# Manifest persistence (``pigeon shard merge``)
# ----------------------------------------------------------------------


def save_manifest(path: str, shards: ShardSet, merged: MergedSpace) -> None:
    """Persist a merge: global vocab + per-shard remaps + provenance."""
    payload = {
        "format": MERGE_FORMAT,
        "meta": {
            "kind": shards.kind,
            "language": shards.meta.get("language"),
            "spec": shards.spec_dict,
            "extraction": shards.meta.get("extraction"),
            "shards": [
                {"shard_index": r.shard_index, "digest": r.digest, "files": r.files}
                for r in shards
            ],
        },
        "space": merged.space.to_dict(),
        "remaps": [
            {"paths": list(remap.paths), "values": list(remap.values)}
            for remap in merged.remaps
        ],
    }
    # Digest-stamped + atomic: manifests are rebuilt cheaply, but a torn
    # one must never silently feed wrong remaps into training.
    atomic_write_bytes(os.fspath(path), stamped_json_bytes(payload))


def load_manifest(path: str, shards: "ShardSet" = None) -> MergedSpace:
    """Reload a persisted merge (inverse of :func:`save_manifest`).

    Passing the ``shards`` the merge is about to be used with checks the
    manifest's provenance: the per-shard digests recorded at save time
    must match the set, so a manifest can never be replayed against
    rebuilt or reshuffled shards (whose local vocabs -- and therefore
    remap tables -- could differ).
    """
    payload = read_stamped_json(
        path, hint="the manifest is torn -- re-run 'pigeon shard merge'"
    )
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != MERGE_FORMAT:
        raise ShardFormatError(
            f"{path!r} is not a merge manifest (format {fmt!r}; "
            f"expected {MERGE_FORMAT!r})"
        )
    if shards is not None:
        recorded = {
            int(entry.get("shard_index", -1)): entry.get("digest")
            for entry in payload.get("meta", {}).get("shards", ())
        }
        for reader in shards:
            if recorded.get(reader.shard_index) != reader.digest:
                raise ShardMismatchError(
                    f"merge manifest {path!r} was built from different "
                    f"shards (digest mismatch at shard "
                    f"{reader.shard_index}); re-run 'pigeon shard merge'"
                )
    return MergedSpace(
        space=FeatureSpace.from_dict(payload.get("space", {})),
        remaps=[
            ShardRemap(
                paths=array("q", (int(i) for i in remap.get("paths", ()))),
                values=array("q", (int(i) for i in remap.get("values", ()))),
            )
            for remap in payload.get("remaps", ())
        ],
    )
