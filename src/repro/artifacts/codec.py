"""Learner state <-> artifact sections, plus the packed (read-only) models.

One codec per built-in learner turns the plain-data
``learner.state_dict()`` into numpy sections for
:class:`~repro.artifacts.format.ArtifactWriter`, and restores a loaded
:class:`~repro.artifacts.format.ModelArtifact` back onto a fresh
learner.  Restoring never rebuilds python-side weight tables:

* the CRF learner gets a :class:`PackedCrfModel` whose weight plane is
  a read-only :class:`~repro.learning.crf.weights.WeightPlane` over the
  artifact's ``crf/groups`` / ``keys`` / ``weights`` sections -- the
  same plane type training writes, laid out at save time by
  :meth:`WeightPlane.build <repro.learning.crf.weights.WeightPlane.build>`
  -- whose candidate tables index the packed ``most_common``-ordered
  count arrays in place, and whose vocab is a
  :class:`~repro.core.interning.PackedVocab` over the mmapped string
  tables;
* the word2vec learner gets an :class:`~repro.learning.word2vec.SgnsModel`
  whose embedding matrices are zero-copy views of the mapping.

**Bit-identity** with the live trained model is the contract: candidate
counters are stored in ``most_common`` order (stable descending count --
so any ``most_common(n)`` prefix is exactly what
``Counter.most_common(n)`` returns, ties included), and weights keep
their exact float64 bits.

Packed models are **read-only**: mutating the plane or observing a
training node raises :class:`PackedModelError`.  ``state_dict()`` still
works (``pigeon model pack`` prunes from it), listing the plane's
weights in key order -- an offline operation, never the serving path.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..core.interning import FeatureSpace, PackedVocab
from ..learning.crf.compiled import (
    GLOBAL_FALLBACK,
    CandidateTable,
    CandidateTables,
    CompiledCrfModel,
)
from ..learning.crf.model import CrfModel
from ..learning.crf.weights import UNARY_OTHER, PackedModelError, WeightPlane, group_keys
from .format import MODEL_FORMAT, ArtifactWriter, ModelArtifact, pack_strings


# ----------------------------------------------------------------------
# Packed counter / index views (CRF)
# ----------------------------------------------------------------------


class PackedCounts:
    """A read-only stand-in for a candidate ``Counter``.

    Items are stored in ``most_common`` order (count-descending, stable),
    so :meth:`most_common` is a slice -- identical output, ties included,
    to ``Counter.most_common`` over the original insertion order.
    """

    __slots__ = ("_ids", "_counts")

    def __init__(self, ids: np.ndarray, counts: np.ndarray) -> None:
        self._ids = ids
        self._counts = counts

    def most_common(self, n: Optional[int] = None) -> List[Tuple[int, int]]:
        if n is None:
            n = len(self._ids)
        return list(zip(self._ids[:n].tolist(), self._counts[:n].tolist()))

    def items(self) -> List[Tuple[int, int]]:
        return self.most_common()

    def values(self) -> List[int]:
        return self._counts.tolist()

    def __getitem__(self, label_id: int) -> int:
        matches = np.flatnonzero(self._ids == label_id)
        if not len(matches):
            raise KeyError(label_id)
        return int(self._counts[matches[0]])

    def __len__(self) -> int:
        return len(self._ids)

    def __bool__(self) -> bool:
        return len(self._ids) > 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids.tolist())


class PackedCandidateIndex:
    """``(rel, other) -> PackedCounts`` over flat packed arrays.

    Inference reads the compiled candidate tables, not this mapping, so
    its ``(rel, other) -> row`` dict is built on first use (inspection,
    pruning, the oracle), never at load.
    """

    __slots__ = ("_contexts", "_rows", "_offsets", "_labels", "_counts", "_cache")

    def __init__(
        self,
        contexts: np.ndarray,
        offsets: np.ndarray,
        labels: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        self._contexts = contexts
        self._rows: Optional[Dict[Any, int]] = None
        self._offsets = offsets
        self._labels = labels
        self._counts = counts
        self._cache: Dict[int, PackedCounts] = {}

    @property
    def _row_of(self) -> Dict[Any, int]:
        if self._rows is None:
            contexts = self._contexts
            if contexts.ndim == 2:
                keys = zip(*contexts.T.tolist())
            else:
                keys = contexts.tolist()
            self._rows = dict(zip(keys, range(len(contexts))))
        return self._rows

    def get(self, key) -> Optional[PackedCounts]:
        row = self._row_of.get(key)
        if row is None:
            return None
        cached = self._cache.get(row)
        if cached is None:
            start, end = int(self._offsets[row]), int(self._offsets[row + 1])
            cached = PackedCounts(self._labels[start:end], self._counts[start:end])
            self._cache[row] = cached
        return cached

    def __getitem__(self, key) -> PackedCounts:
        counter = self.get(key)
        if counter is None:
            raise KeyError(key)
        return counter

    def __contains__(self, key) -> bool:
        return key in self._row_of

    def __len__(self) -> int:
        return len(self._contexts)

    def __iter__(self):
        return iter(self._row_of)

    def keys(self):
        return self._row_of.keys()

    def items(self):
        return ((key, self.get(key)) for key in self._row_of)


# ----------------------------------------------------------------------
# The packed CRF model
# ----------------------------------------------------------------------


def _packed_crf_model(artifact: ModelArtifact):
    """Build a :class:`PackedCrfModel` from one opened artifact."""
    meta = artifact.meta
    space = FeatureSpace(
        PackedVocab(*artifact.string_table("space/paths")),
        PackedVocab(*artifact.string_table("space/values")),
    )
    plane = WeightPlane(
        artifact.array("crf/groups"),
        artifact.array("crf/keys"),
        artifact.array("crf/weights"),
        meta["label_base"],
        writable=False,
    )

    class PackedCrfModel(CrfModel):
        """A :class:`CrfModel` whose state are views over one artifact.

        Candidate generation and scoring behave exactly like the live
        model's: :meth:`compile` scores the read-only plane and freezes
        the candidate tables over the artifact's sections.  Mutation
        raises.
        """

        def compile(self):
            compiled = self._compiled_view
            if compiled is None:
                compiled = CompiledCrfModel(
                    self, _candidate_tables(artifact, space, plane.base)
                )
                self._compiled_view = compiled
            return compiled

        def observe_training_node(self, node, graph):
            raise PackedModelError("observing a training node")

    model = PackedCrfModel(use_unary=bool(meta["use_unary"]), space=space)
    model._compiled_view = None
    model.plane = plane
    model.candidate_index = PackedCandidateIndex(
        artifact.array("crf/cand_ctx"),
        artifact.array("crf/cand_off"),
        artifact.array("crf/cand_labels"),
        artifact.array("crf/cand_counts"),
    )
    model.unary_candidate_index = PackedCandidateIndex(
        artifact.array("crf/ucand_rel"),
        artifact.array("crf/ucand_off"),
        artifact.array("crf/ucand_labels"),
        artifact.array("crf/ucand_counts"),
    )
    model.label_counts = PackedCounts(
        artifact.array("crf/label_ids"), artifact.array("crf/label_freqs")
    )
    return model


def _candidate_tables(artifact: ModelArtifact, space: FeatureSpace, base: int):
    """The compiled candidate index over the artifact's candidate sections.

    The label and count sections are stored in ``most_common`` order, so
    the tables index them in place; only the sorted context keys and
    their row bounds are new arrays.
    """
    contexts = artifact.array("crf/cand_ctx").astype(np.int64).reshape(-1, 2)
    unary_rels = artifact.array("crf/ucand_rel").astype(np.int64)
    return CandidateTables.build(
        space.values,
        base,
        CandidateTable.from_csr(
            group_keys(contexts[:, 0], contexts[:, 1], base),
            artifact.array("crf/cand_off"),
            artifact.array("crf/cand_labels"),
            artifact.array("crf/cand_counts"),
        ),
        CandidateTable.from_csr(
            group_keys(unary_rels, UNARY_OTHER, base),
            artifact.array("crf/ucand_off"),
            artifact.array("crf/ucand_labels"),
            artifact.array("crf/ucand_counts"),
        ),
        zip(
            artifact.array("crf/label_ids")[:GLOBAL_FALLBACK].tolist(),
            artifact.array("crf/label_freqs")[:GLOBAL_FALLBACK].tolist(),
        ),
    )


def _most_common_order(items: List[List[int]]) -> List[Tuple[int, int]]:
    """Counter items re-ordered as ``most_common()`` would emit them.

    ``Counter.most_common`` is a stable descending sort over insertion
    order, so sorting the stored (insertion-ordered) items stably by
    ``-count`` reproduces every ``most_common(n)`` prefix exactly.
    """
    return sorted(
        ((int(label), int(count)) for label, count in items),
        key=lambda pair: -pair[1],
    )


def _pack_counter_table(
    writer: ArtifactWriter, prefix: str, counters: List
) -> None:
    """Write a ``keys + offsets + (labels, counts)`` candidate table."""
    offsets = np.zeros(len(counters) + 1, dtype=np.int64)
    labels: List[int] = []
    counts: List[int] = []
    for i, items in enumerate(counters):
        ordered = _most_common_order(items)
        labels.extend(label for label, _count in ordered)
        counts.extend(count for _label, count in ordered)
        offsets[i + 1] = len(labels)
    writer.add(f"{prefix}_off", offsets)
    writer.add(f"{prefix}_labels", np.asarray(labels, dtype=np.int32))
    writer.add(f"{prefix}_counts", np.asarray(counts, dtype=np.int32))


def _add_string_table(writer: ArtifactWriter, name: str, values: List[str]) -> None:
    blob, offsets = pack_strings([str(value) for value in values])
    writer.add(f"{name}/blob", blob)
    writer.add(f"{name}/offsets", offsets)


# ----------------------------------------------------------------------
# CRF codec
# ----------------------------------------------------------------------


def _pack_crf_state(writer: ArtifactWriter, state: Dict[str, Any]) -> None:
    model = state["model"]
    space = model.get("space", {})
    paths = list(space.get("paths", ()))
    values = list(space.get("values", ()))
    _add_string_table(writer, "space/paths", paths)
    _add_string_table(writer, "space/values", values)

    label_base = max(1, len(values))
    pair = model.get("pair_weights", ())
    unary = model.get("unary_weights", ())
    plane = WeightPlane.build(
        [row[0] for row in pair] + [row[0] for row in unary],
        [row[1] for row in pair] + [row[1] for row in unary],
        [row[2] for row in pair] + [UNARY_OTHER] * len(unary),
        [row[3] for row in pair] + [row[2] for row in unary],
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

    cand = model.get("candidate_index", ())
    writer.add(
        "crf/cand_ctx",
        np.asarray(
            [[int(rel), int(other)] for rel, other, _items in cand], dtype=np.int32
        ).reshape(len(cand), 2),
    )
    _pack_counter_table(writer, "crf/cand", [items for _rel, _other, items in cand])
    ucand = model.get("unary_candidate_index", ())
    writer.add(
        "crf/ucand_rel", np.asarray([int(rel) for rel, _items in ucand], dtype=np.int32)
    )
    _pack_counter_table(writer, "crf/ucand", [items for _rel, items in ucand])

    label_counts = _most_common_order(model.get("label_counts", ()))
    writer.add(
        "crf/label_ids",
        np.asarray([label for label, _count in label_counts], dtype=np.int32),
    )
    writer.add(
        "crf/label_freqs",
        np.asarray([count for _label, count in label_counts], dtype=np.int32),
    )
    writer.meta.update(
        {
            "label_base": label_base,
            "use_unary": bool(model.get("use_unary", True)),
            "paths": len(paths),
            "values": len(values),
            "pair_weights": len(pair),
            "unary_weights": len(unary),
            "contexts": len(cand),
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
    writer.add(
        "w2v/word_vectors",
        np.asarray(state["word_vectors"], dtype=np.float64).reshape(len(words), dim),
    )
    writer.add(
        "w2v/context_vectors",
        np.asarray(state["context_vectors"], dtype=np.float64).reshape(
            len(contexts), dim
        ),
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
