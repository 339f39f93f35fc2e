"""Resilience: crash-safe artifacts, resumable training, fault injection.

This subsystem is the ROADMAP's "production retraining loop" enabler:
every durable artifact the stack writes (saved pipelines, shard files,
merge manifests, training checkpoints, benchmark baselines) commits
atomically, every long-running build or train can resume from where a
crash killed it with **bit-identical** results, and every failure path
can be exercised deterministically from a seeded fault plan instead of
hand-rolled kills.

:mod:`repro.resilience.atomicio`
    :func:`atomic_write_bytes`: write-to-temp + fsync + rename +
    parent-dir fsync, so readers observe either the old artifact or the
    complete new one, never a torn write.  :func:`write_stamped_json` /
    :func:`read_stamped_json` add a blake2b digest over the payload;
    loads that hit a truncated or bit-flipped file raise a structured
    :class:`CorruptArtifactError` naming the file, the expected vs.
    actual digest, and a recovery hint -- quarantine, not a traceback.
:mod:`repro.resilience.checkpoint`
    :class:`TrainerCheckpoint`: per-epoch, digest-stamped trainer state
    (the CRF weight plane with its lazy averages + shuffle rng/order,
    SGNS matrices + PCG64 state) bound to the RunSpec and a corpus
    fingerprint so a checkpoint can never silently resume against
    different data.
    ``pigeon train --resume`` continues an interrupted run and saves a
    model bit-identical to the uninterrupted one -- the same oracle
    discipline as the bit-identity oracles in ``tests/oracles/``.
    Shard builds keep a journal (:mod:`repro.shards.build`) so
    ``pigeon shard build --resume`` skips digest-verified completed
    shards.
:mod:`repro.resilience.faults`
    :class:`FaultPlan`: seeded, named injection sites threaded through
    shard writes, pipeline/checkpoint saves, replica HTTP
    accept/respond, and router forwarding.  Activated via
    ``PIGEON_FAULTS='shard.write:crash@3;router.forward:timeout@0.1'``;
    every firing is recorded (optionally to a JSONL log) so chaos runs
    in ``tests/test_chaos.py`` are reproducible from the seed alone.

The contract the chaos suite enforces: under any planned fault, the
system ends in one of exactly three states -- a correct result, a
structured :class:`CorruptArtifactError`-family error, or a clean 5xx
with zero wrong predictions.  No torn artifacts, no silent partial
state.
"""

from repro.resilience.atomicio import (
    CorruptArtifactError,
    artifact_digest,
    atomic_write_bytes,
    fsync_directory,
    read_stamped_json,
    write_stamped_json,
)
from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointMismatchError,
    TrainerCheckpoint,
    corpus_fingerprint,
    shards_fingerprint,
)
from repro.resilience.faults import (
    FaultInjected,
    FaultPlan,
    FaultRule,
    fire,
    install,
    plan,
    reset,
)

__all__ = [
    "CorruptArtifactError",
    "artifact_digest",
    "atomic_write_bytes",
    "fsync_directory",
    "read_stamped_json",
    "write_stamped_json",
    "CHECKPOINT_FORMAT",
    "CheckpointMismatchError",
    "TrainerCheckpoint",
    "corpus_fingerprint",
    "shards_fingerprint",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "fire",
    "install",
    "plan",
    "reset",
]
