"""Sharded corpus store: on-disk shards, vocab merging, streamed training.

This subsystem is the ROADMAP's "sharded corpora" line: it lets a corpus
of any size be extracted once, persisted as independent shards (on one
machine or many), and streamed through training with bounded memory --
while producing **bit-identical models and predictions** to an in-memory
``Pipeline.train()`` over the same sources.

:mod:`repro.shards.format`
    :class:`ShardWriter` / :class:`ShardReader` and :class:`ShardSet`:
    the two-line shard container (versioned header + blake2b integrity
    digest over the payload; shard-local vocab + per-file records keyed
    on local integer ids).  Readers parse only the header until a
    payload is needed; sets validate index completeness and that every
    shard was built under one kind/spec/extraction.
:mod:`repro.shards.build`
    the shard builder (:func:`build_spec_shards`).  A shard holds one
    learner view per file, in one of two kinds: ``graph`` records for
    the ``crf`` learner or ``contexts`` records for ``word2vec``.  Each
    shard is its slice of the corpus processed exactly as a sequential
    run would -- same Pipeline view code, fresh
    private :class:`~repro.core.interning.FeatureSpace` -- so shards are
    embarrassingly parallel (``workers > 1`` builds one shard per
    process) yet fully deterministic.  ``partition=(i, n)`` builds only
    the i-th round-robin slice of the full plan -- with *global* shard
    indices -- so n machines can each build one partition and
    :func:`gather_shards` reassembles (and validates) the complete set.
:mod:`repro.shards.merge`
    :class:`VocabMerger`: replays the shard-local vocabs in shard-index
    order into one global first-seen :class:`FeatureSpace` -- the exact
    space a single-process run would build -- and emits one dense
    local->global :class:`ShardRemap` per shard.
:mod:`repro.shards.corpus`
    :class:`ShardedCorpus`: a sequence-of-views facade the trainers
    consume.  Views decode on access with ids remapped to the global
    space; a small LRU keeps at most a few shard payloads resident, so
    both the sequential passes and the CRF trainer's shuffled epochs run
    in bounded memory however large the corpus grows.

The end-to-end flow (``pigeon shard build`` -> ``pigeon shard merge`` ->
``pigeon train --shards``, or ``Pipeline.train(shards=...)``)::

    sources --(build: N independent processes/machines)--> shard files
    shard files --(merge: first-seen vocab fold)--> global space + remaps
    shards + remaps --(ShardedCorpus: streamed epochs)--> trained model

Determinism argument, in one paragraph: a sequential run's feature space
is the replay of all intern calls in file order.  A shard's local vocab
is the replay of the same calls restricted to its slice (the builder
runs the same code on the same files in the same order), and first-seen
merging of the slices in shard order replays the concatenation -- which
*is* the full sequence.  Decoded views then carry the same global ids,
gold labels and factor order as in-memory views, so the trainer (which
is deterministic under its seed) takes the same steps and lands on the
same weights, bit for bit.  ``benchmarks/bench_sharding.py`` gates both
halves: prediction equality and bounded peak memory per shard pass.
"""

from .build import (
    ShardBuildResult,
    build_spec_shards,
    gather_shards,
    parse_partition,
    partition_plan,
    plan_shards,
)
from .corpus import ShardedCorpus
from .format import (
    CONTEXTS_KIND,
    GRAPH_KIND,
    SHARD_FORMAT,
    ShardError,
    ShardFormatError,
    ShardIntegrityError,
    ShardMismatchError,
    ShardReader,
    ShardSet,
    ShardWriter,
)
from .merge import (
    MergedSpace,
    ShardRemap,
    VocabMerger,
    load_manifest,
    merge_shards,
    save_manifest,
)

__all__ = [
    "CONTEXTS_KIND",
    "GRAPH_KIND",
    "MergedSpace",
    "SHARD_FORMAT",
    "ShardBuildResult",
    "ShardError",
    "ShardFormatError",
    "ShardIntegrityError",
    "ShardMismatchError",
    "ShardReader",
    "ShardRemap",
    "ShardSet",
    "ShardWriter",
    "ShardedCorpus",
    "VocabMerger",
    "build_spec_shards",
    "gather_shards",
    "load_manifest",
    "merge_shards",
    "parse_partition",
    "partition_plan",
    "plan_shards",
    "save_manifest",
]
