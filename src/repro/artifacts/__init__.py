"""Memory-mappable binary model artifacts (``pigeon-model/1``).

Architecture
------------

A saved pipeline is one ``pigeon-model/1`` file: the
:class:`~repro.api.spec.RunSpec` plus the learner's packed state, shaped
so that every process of a serving fleet maps the same file instead of
decoding and rebuilding weight tables.  The package has three layers:

:mod:`repro.artifacts.format`
    the ``pigeon-model/1`` container: magic + digest-stamped JSON header
    + 64-byte-aligned numpy sections.  Opening verifies the header stamp
    and section table (torn or foreign files raise
    :class:`~repro.resilience.atomicio.CorruptArtifactError`), then
    mmaps the file; sections are zero-copy numpy views, so N processes
    mapping one artifact share one copy of the weights through the OS
    page cache.  ``Pipeline.load`` also hashes the payload against its
    digest, so a bit flip in the weights is refused at load.
:mod:`repro.artifacts.codec`
    per-learner packing (state dict -> sections) and restoring
    (sections -> a *packed*, read-only model).  The packed CRF model
    scores through the same vectorised engine as the live model --
    :meth:`CompiledCrfModel.from_buffers
    <repro.learning.crf.compiled.CompiledCrfModel.from_buffers>` adopts
    the mmapped planes without copying -- and its vocab tables are
    :class:`~repro.core.interning.PackedVocab` lazy views.  Unpruned
    artifacts predict **bit-identically** to the live pipeline that
    saved them.
:mod:`repro.artifacts.prune`
    the offline pruning pass: drop relations below a corpus-frequency
    floor, re-pack the vocab densely, and record provenance (floor,
    before/after sizes, declared accuracy-delta budget) in the header.

Entry points: ``Pipeline.save(path)`` / ``Pipeline.load(path)``, and the
``pigeon model`` CLI group (``pack`` prunes, ``info``, ``verify``).
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from .codec import PackedModelError, pack_learner_state, restore_learner
from .format import MODEL_FORMAT, MODEL_MAGIC, ArtifactWriter, ModelArtifact
from .prune import DEFAULT_ACCURACY_DELTA_BUDGET, prune_state

__all__ = [
    "MODEL_FORMAT",
    "MODEL_MAGIC",
    "ArtifactWriter",
    "ModelArtifact",
    "PackedModelError",
    "DEFAULT_ACCURACY_DELTA_BUDGET",
    "artifact_info",
    "pack_learner_state",
    "pack_model",
    "prune_state",
    "restore_learner",
    "write_state_artifact",
]


def write_state_artifact(
    path: str,
    spec_dict: Dict[str, Any],
    learner_name: str,
    state: Dict[str, Any],
    prune: Optional[Dict[str, Any]] = None,
) -> None:
    """Pack one learner state dict into a binary artifact at ``path``."""
    writer = ArtifactWriter(spec_dict, learner_name, prune=prune)
    pack_learner_state(writer, learner_name, state)
    writer.write(path)


def pack_model(
    source: str,
    dest: str,
    prune_min_count: int,
    accuracy_delta_budget: Optional[float] = None,
) -> Dict[str, Any]:
    """Prune a saved model into a new artifact at ``dest``.

    ``pigeon model pack`` in library form: loads ``source`` through
    :meth:`Pipeline.load <repro.api.pipeline.Pipeline.load>`, drops
    relations observed fewer than ``prune_min_count`` times (see
    :func:`prune_state`), and writes the result with its prune
    provenance in the header.  An artifact that is already pruned is
    refused: its float32 weights and provenance describe the original
    model, so pruning must start from the unpruned artifact.  Returns a
    summary dict (sizes, prune provenance).
    """
    from ..api.pipeline import Pipeline

    pipeline = Pipeline.load(source)
    if pipeline.artifact.prune is not None:
        raise ValueError(
            f"{os.fspath(source)!r} is already pruned (min_rel_count="
            f"{pipeline.artifact.prune.get('min_rel_count')}); prune the "
            f"unpruned artifact instead"
        )
    learner_name = pipeline.spec.learner
    state, provenance = prune_state(
        learner_name,
        pipeline.learner.state_dict(),
        prune_min_count,
        accuracy_delta_budget,
    )
    write_state_artifact(
        dest, pipeline.spec.to_dict(), learner_name, state, prune=provenance
    )
    return {
        "source": os.fspath(source),
        "dest": os.fspath(dest),
        "cell": pipeline.spec.cell(),
        "source_bytes": os.path.getsize(source),
        "dest_bytes": os.path.getsize(dest),
        "prune": provenance,
    }


def artifact_info(path: str) -> Dict[str, Any]:
    """Header-level summary of a saved model artifact."""
    path = os.fspath(path)
    artifact = ModelArtifact.open(path)
    sections = [
        {
            "name": entry["name"],
            "dtype": entry["dtype"],
            "shape": entry["shape"],
            "nbytes": entry["nbytes"],
        }
        for entry in artifact.header.get("sections", ())
    ]
    return {
        "path": path,
        "format": MODEL_FORMAT,
        "learner": artifact.learner,
        "spec": artifact.spec,
        "meta": artifact.meta,
        "prune": artifact.prune,
        "sections": sections,
        "payload_bytes": sum(entry["nbytes"] for entry in sections),
        "file_bytes": os.path.getsize(path),
    }
