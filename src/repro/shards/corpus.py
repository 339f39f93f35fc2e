"""Streaming view of a sharded corpus: remapped graphs, bounded memory.

:class:`ShardedCorpus` is what the trainers consume.  It looks like a
sequence of feature views -- ``len()``, integer indexing, iteration --
but at most ``cache_shards`` shard payloads are resident at any moment;
every view is decoded on access from its shard's records, with
shard-local ids translated to global ids through the merge's remap
tables.  Training therefore never holds the full corpus in memory:

* the trainer's sequential passes (candidate indexing, streamed epochs)
  walk shard 0, shard 1, ... with exactly one payload loaded at a time;
* the shuffled epoch order of the CRF trainer random-accesses views, and
  the small LRU of loaded payloads bounds residency at a few shards no
  matter how large the corpus grows.

The bound is bought with I/O: under a *shuffled* epoch most accesses
miss the LRU and re-parse a shard payload (integrity is only digested
on a shard's first load), so shuffled training over S shards costs
about one payload parse per view per epoch.  That trade is deliberate
-- visiting views in the exact in-memory order is what keeps sharded
models bit-identical; a shard-local shuffle would be faster but train a
(slightly) different model.  Raise ``cache_shards`` to spend memory on
fewer re-parses.

Decoded views are bit-identical to the views an in-memory
``Pipeline.train()`` run builds over the same sources in the same
order: same element keys and gold labels, same factors, same global ids
(see :mod:`repro.shards.merge` for why the ids line up).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.interning import FeatureSpace
from ..learning.crf.graph import CrfGraph
from .format import CONTEXTS_KIND, GRAPH_KIND, ShardError, ShardSet
from .merge import MergedSpace, ShardRemap, VocabMerger


def decode_graph_record(
    record: dict, remap: ShardRemap, space: FeatureSpace
) -> CrfGraph:
    """Rebuild one CRF factor graph in global-id form."""
    graph = CrfGraph(name=str(record.get("name", "")), space=space)
    paths = remap.paths
    values = remap.values
    for key, gold, known, edges, unary in record["nodes"]:
        index = graph.add_unknown(key, gold=gold)
        for rel, label in known:
            graph.known_factors += (index, paths[rel], values[label])
        for rel, other in edges:
            graph.edge_factors += (index, paths[rel], other)
        for rel in unary:
            graph.unary_factors += (index, paths[rel])
    return graph


def decode_contexts_record(
    record: dict, remap: ShardRemap, space: FeatureSpace
) -> Dict[str, Tuple[str, List[Tuple[int, int]]]]:
    """Rebuild one element->(gold, tokens) context map in global-id form."""
    paths = remap.paths
    values = remap.values
    return {
        binding: (gold, [(paths[rel], values[vid]) for rel, vid in tokens])
        for binding, gold, tokens in record["elements"]
    }


_DECODERS = {
    GRAPH_KIND: decode_graph_record,
    CONTEXTS_KIND: decode_contexts_record,
}


class ShardedCorpus:
    """Sequence-of-views facade over a shard set with a tiny payload LRU."""

    def __init__(
        self,
        shards: ShardSet,
        merged: Optional[MergedSpace] = None,
        cache_shards: int = 2,
    ) -> None:
        self.shards = shards
        self.merged = merged if merged is not None else VocabMerger().merge(shards)
        if len(self.merged.remaps) != len(shards):
            raise ShardError(
                f"merge covers {len(self.merged.remaps)} shards but the set "
                f"has {len(shards)}; merge and set are from different builds"
            )
        self._decode = _DECODERS[shards.kind]
        self.cache_shards = max(1, int(cache_shards))
        # shard_index -> records list, in LRU order (most recent last).
        self._cache: "OrderedDict[int, list]" = OrderedDict()
        # Cumulative file counts: shard s covers [offsets[s], offsets[s+1]).
        self._offsets: List[int] = [0]
        for reader in shards:
            self._offsets.append(self._offsets[-1] + reader.files)

    # ------------------------------------------------------------------
    # Corpus-level facts (from headers -- no payload touched)
    # ------------------------------------------------------------------
    @property
    def space(self) -> FeatureSpace:
        """The merged global feature space every decoded view references."""
        return self.merged.space

    @property
    def files(self) -> int:
        return self._offsets[-1]

    @property
    def elements(self) -> int:
        return self.shards.counts("elements")

    def __len__(self) -> int:
        return self._offsets[-1]

    # ------------------------------------------------------------------
    # Payload residency
    # ------------------------------------------------------------------
    def _records(self, shard_index: int) -> list:
        records = self._cache.get(shard_index)
        if records is not None:
            self._cache.move_to_end(shard_index)
            return records
        reader = self.shards.readers[shard_index]
        records = reader.load()["records"]
        reader.release()  # the LRU below is the only retention policy
        self._cache[shard_index] = records
        while len(self._cache) > self.cache_shards:
            self._cache.popitem(last=False)
        return records

    def resident_shards(self) -> int:
        """How many shard payloads are loaded right now (<= cache_shards)."""
        return len(self._cache)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def _locate(self, index: int) -> Tuple[int, int]:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        lo, hi = 0, len(self.shards) - 1
        while lo < hi:  # bisect over cumulative offsets
            mid = (lo + hi + 1) // 2
            if self._offsets[mid] <= index:
                lo = mid
            else:
                hi = mid - 1
        return lo, index - self._offsets[lo]

    def __getitem__(self, index: int):
        shard_index, offset = self._locate(index)
        record = self._records(shard_index)[offset]
        return self._decode(record, self.merged.remaps[shard_index], self.space)

    def __iter__(self) -> Iterator:
        """One shard pass: stream every view, one shard resident at a time."""
        for shard_index in range(len(self.shards)):
            remap = self.merged.remaps[shard_index]
            for record in self._records(shard_index):
                yield self._decode(record, remap, self.space)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedCorpus({len(self.shards)} shards, {len(self)} files, "
            f"kind={self.shards.kind!r})"
        )
