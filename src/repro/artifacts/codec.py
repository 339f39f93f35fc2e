"""Learner state <-> artifact sections, plus the packed (read-only) models.

One codec per built-in learner turns the ``learner.state_dict()``
snapshot into numpy sections for
:class:`~repro.artifacts.format.ArtifactWriter`, and restores a loaded
:class:`~repro.artifacts.format.ModelArtifact` back onto a fresh
learner.  Restoring never rebuilds python-side tables:

* the CRF learner gets a :class:`~repro.learning.crf.model.CrfModel`
  whose weight plane is a read-only
  :class:`~repro.learning.crf.weights.WeightPlane` over the artifact's
  ``crf/groups`` / ``keys`` / ``weights`` sections -- the same plane
  type training writes, laid out at save time by :meth:`WeightPlane.build
  <repro.learning.crf.weights.WeightPlane.build>` -- whose candidate
  index (:class:`~repro.learning.crf.candidates.CandidateIndex`) is the
  mapped ``crf/cand_*`` / ``crf/ucand_*`` / ``crf/label_*`` sections, and
  whose vocab is a :class:`~repro.core.interning.PackedVocab` over the
  mmapped string tables;
* the word2vec learner gets an :class:`~repro.learning.word2vec.SgnsModel`
  whose embedding matrices are zero-copy views of the mapping.

**Bit-identity** with the live trained model is the contract: the
candidate index is written column for column as training built it
(``most_common`` order, so any prefix is exactly what
``Counter.most_common(n)`` returns, ties included), and weights keep
their exact float64 bits.

Loaded models are **read-only**: mutating the plane raises
:class:`PackedModelError`.  ``state_dict()`` still works (``pigeon model
pack`` prunes from it), listing the plane's weights in key order -- an
offline operation, never the serving path.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, List

import numpy as np

from ..core.interning import FeatureSpace, PackedVocab
from ..learning.crf.candidates import CandidateIndex
from ..learning.crf.model import CrfModel
from ..learning.crf.weights import UNARY_OTHER, WeightPlane
from .format import MODEL_FORMAT, ArtifactWriter, ModelArtifact, pack_strings


def _packed_crf_model(artifact: ModelArtifact) -> CrfModel:
    """A read-only :class:`CrfModel` over one opened artifact's sections."""
    meta = artifact.meta
    space = FeatureSpace(
        PackedVocab(*artifact.string_table("space/paths")),
        PackedVocab(*artifact.string_table("space/values")),
    )
    candidates = CandidateIndex(
        **{field.name: artifact.array(f"crf/{field.name}") for field in fields(CandidateIndex)}
    )
    model = CrfModel(use_unary=bool(meta["use_unary"]), space=space, candidates=candidates)
    model.plane = WeightPlane(
        artifact.array("crf/groups"),
        artifact.array("crf/keys"),
        artifact.array("crf/weights"),
        meta["label_base"],
        writable=False,
    )
    return model


def _add_string_table(writer: ArtifactWriter, name: str, values: List[str]) -> None:
    blob, offsets = pack_strings([str(value) for value in values])
    writer.add(f"{name}/blob", blob)
    writer.add(f"{name}/offsets", offsets)


# ----------------------------------------------------------------------
# CRF codec
# ----------------------------------------------------------------------


def _pack_crf_state(writer: ArtifactWriter, state: Dict[str, Any]) -> None:
    space = state["space"]
    paths = list(space.get("paths", ()))
    values = list(space.get("values", ()))
    _add_string_table(writer, "space/paths", paths)
    _add_string_table(writer, "space/values", values)

    label_base = max(1, len(values))
    weights = state["weights"]
    unary = weights["other"] == UNARY_OTHER
    # Groups are numbered first-seen over the pair weights, then the
    # unary ones, each kind in the state's order.
    order = np.argsort(unary, kind="stable")
    plane = WeightPlane.build(
        *(weights[name][order] for name in ("label", "rel", "other", "value")),
        label_base,
    )
    writer.add("crf/groups", plane.groups.astype(np.int32))
    # Keys narrow to int32 whenever the (group, label) plane fits; the
    # readers are dtype-driven (the section table records what was
    # written), so narrowing is pure size win.  Weights stay float64 --
    # the bit-identity contract -- except in *pruned* artifacts, which
    # trade exactness for size under the recorded accuracy budget.
    keys = plane.keys
    if len(keys) and int(keys[-1]) < 2**31:
        keys = keys.astype(np.int32)
    writer.add("crf/keys", keys)
    weight_dtype = np.float32 if writer.prune is not None else np.float64
    writer.add("crf/weights", plane.weights.astype(weight_dtype))
    writer.meta["weight_dtype"] = np.dtype(weight_dtype).name

    candidates = state["candidates"]
    for name, column in candidates.items():
        writer.add(f"crf/{name}", column)
    n_unary = int(unary.sum())
    writer.meta.update(
        {
            "label_base": label_base,
            "use_unary": bool(state["use_unary"]),
            "paths": len(paths),
            "values": len(values),
            "pair_weights": len(unary) - n_unary,
            "unary_weights": n_unary,
            "contexts": len(candidates["cand_ctx"]),
        }
    )


def _restore_crf(learner, artifact: ModelArtifact) -> None:
    learner.model = _packed_crf_model(artifact)
    learner._compiled = None


# ----------------------------------------------------------------------
# word2vec codec
# ----------------------------------------------------------------------


def _pack_word2vec_state(writer: ArtifactWriter, state: Dict[str, Any]) -> None:
    words = [str(token) for token in state["words"]]
    _add_string_table(writer, "w2v/words", words)
    writer.add(
        "w2v/word_counts", np.asarray(state["word_counts"], dtype=np.int64)
    )
    contexts = state["contexts"]
    pairs = [token for token in contexts if isinstance(token, (list, tuple))]
    if len(pairs) == len(contexts):
        context_kind = "pairs"
        writer.add(
            "w2v/context_pairs",
            np.asarray([[int(a), int(b)] for a, b in contexts], dtype=np.int64).reshape(
                len(contexts), 2
            ),
        )
    elif pairs:
        raise ValueError(
            "cannot pack a word2vec model mixing interned and string "
            "context tokens"
        )
    else:
        context_kind = "strings"
        _add_string_table(writer, "w2v/context_strings", [str(t) for t in contexts])
    writer.add(
        "w2v/context_counts", np.asarray(state["context_counts"], dtype=np.int64)
    )
    dim = int(state["dim"])
    writer.add("w2v/word_vectors", np.asarray(state["word_vectors"], dtype=np.float64))
    writer.add(
        "w2v/context_vectors", np.asarray(state["context_vectors"], dtype=np.float64)
    )
    space = state.get("space")
    if space is not None:
        _add_string_table(writer, "space/paths", list(space.get("paths", ())))
        _add_string_table(writer, "space/values", list(space.get("values", ())))
    writer.meta.update(
        {
            "dim": dim,
            "context_kind": context_kind,
            "has_space": space is not None,
            "words": len(words),
            "contexts": len(contexts),
        }
    )


def _restore_word2vec(learner, artifact: ModelArtifact) -> None:
    from ..learning.word2vec import ContextPredictor, SgnsModel
    from ..learning.word2vec.vocab import Vocabulary

    meta = artifact.meta
    words = Vocabulary()
    word_blob, word_offsets = artifact.string_table("w2v/words")
    word_table = PackedVocab(word_blob, word_offsets)
    for token_id, count in enumerate(artifact.array("w2v/word_counts").tolist()):
        words._add(word_table.value(token_id), count)
    contexts = Vocabulary()
    context_counts = artifact.array("w2v/context_counts").tolist()
    if meta["context_kind"] == "pairs":
        tokens = [tuple(pair) for pair in artifact.array("w2v/context_pairs").tolist()]
    else:
        table = PackedVocab(*artifact.string_table("w2v/context_strings"))
        tokens = table.to_list()
    for token, count in zip(tokens, context_counts):
        contexts._add(token, count)
    dim = int(meta["dim"])
    model = SgnsModel(
        words,
        contexts,
        artifact.array("w2v/word_vectors").reshape(len(words), dim),
        artifact.array("w2v/context_vectors").reshape(len(contexts), dim),
    )
    learner.predictor = ContextPredictor(model)
    space = None
    if meta.get("has_space"):
        space = FeatureSpace(
            PackedVocab(*artifact.string_table("space/paths")),
            PackedVocab(*artifact.string_table("space/values")),
        )
    learner.bind_space(space)


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

_PACKERS = {"crf": _pack_crf_state, "word2vec": _pack_word2vec_state}
_RESTORERS = {"crf": _restore_crf, "word2vec": _restore_word2vec}


def pack_learner_state(
    writer: ArtifactWriter, learner: str, state: Dict[str, Any]
) -> None:
    """Serialize one learner's ``state_dict()`` into artifact sections."""
    packer = _PACKERS.get(learner)
    if packer is None:
        raise ValueError(
            f"the {MODEL_FORMAT} format supports learners "
            f"{sorted(_PACKERS)}; cannot save a {learner!r} model"
        )
    packer(writer, state)


def restore_learner(learner, artifact: ModelArtifact) -> None:
    """Adopt an artifact's packed state onto a freshly built learner."""
    restorer = _RESTORERS.get(artifact.learner)
    if restorer is None:
        raise ValueError(
            f"artifact {artifact.path!r} was packed for unsupported "
            f"learner {artifact.learner!r}"
        )
    restorer(learner, artifact)
