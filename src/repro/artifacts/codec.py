"""Learner state <-> artifact sections, plus the packed (read-only) models.

One codec per built-in learner turns the plain-data
``learner.state_dict()`` into numpy sections for
:class:`~repro.artifacts.format.ArtifactWriter`, and restores a loaded
:class:`~repro.artifacts.format.ModelArtifact` back onto a fresh
learner.  Restoring never rebuilds the dict-of-floats representation:

* the CRF learner gets a :class:`PackedCrfModel` whose weight planes are
  the artifact's sorted key/weight arrays (compiled at save time, scored
  through :meth:`CompiledCrfModel.from_buffers
  <repro.learning.crf.compiled.CompiledCrfModel.from_buffers>`), whose
  candidate tables index the packed ``most_common``-ordered count
  arrays in place, and whose vocab is a
  :class:`~repro.core.interning.PackedVocab` over the mmapped string
  tables;
* the word2vec learner gets an :class:`~repro.learning.word2vec.SgnsModel`
  whose embedding matrices are zero-copy views of the mapping.

**Bit-identity** with the live trained model is the contract: candidate
counters are stored in ``most_common`` order (stable descending count --
so any ``most_common(n)`` prefix is exactly what
``Counter.most_common(n)`` returns, ties included), weights keep their
exact float64 bits, and the packed combined keys use the same
``row * label_base + label`` layout the live compiler builds.

Packed models are **read-only**: training-path mutators raise.
``state_dict()`` still works (``pigeon model pack`` prunes from it),
materializing plain dicts on demand -- an offline operation, never the
serving path.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..core.interning import FeatureSpace, PackedVocab
from .format import MODEL_FORMAT, ArtifactWriter, ModelArtifact, pack_strings

#: Mirrors :data:`repro.learning.crf.compiled.UNARY_OTHER` without
#: importing the learning stack at module import time.
_UNARY_OTHER = -1

_READ_ONLY_HINT = (
    "models loaded from an artifact are read-only; re-train to modify "
    "weights"
)


class PackedModelError(TypeError):
    """A training-path mutation reached a packed (read-only) model."""

    def __init__(self, operation: str) -> None:
        super().__init__(f"{operation}: {_READ_ONLY_HINT}")


# ----------------------------------------------------------------------
# Packed counter / index / weight views (CRF)
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


class _PackedWeightView:
    """Read-only mapping over the packed ``(group, label)`` weight plane.

    Shares the sorted combined-key and weight arrays with the compiled
    scorer; lookups run one dict probe plus one binary search.  ``items``
    decodes keys back to tuples -- the path ``to_dict`` / ``top_features``
    take, never the scoring path.
    """

    __slots__ = ("_pack", "_unary", "_size")

    def __init__(self, pack: "_WeightPack", unary: bool) -> None:
        self._pack = pack
        self._unary = unary
        self._size: Optional[int] = None

    def _position(self, key) -> int:
        pack = self._pack
        if self._unary:
            label, rel = key
            group = (rel, _UNARY_OTHER)
        else:
            label, rel, other = key
            group = (rel, other)
        row = pack.group_of.get(group)
        if row is None:
            return -1
        combined = row * pack.label_base + label
        position = int(np.searchsorted(pack.keys, combined))
        if position < len(pack.keys) and int(pack.keys[position]) == combined:
            return position
        return -1

    def __contains__(self, key) -> bool:
        return self._position(key) >= 0

    def __getitem__(self, key) -> float:
        position = self._position(key)
        if position < 0:
            raise KeyError(key)
        return float(self._pack.weights[position])

    def get(self, key, default=None):
        position = self._position(key)
        return default if position < 0 else float(self._pack.weights[position])

    def _rows_mask(self) -> np.ndarray:
        pack = self._pack
        rows = pack.keys // pack.label_base
        unary_rows = pack.groups[rows, 1] == _UNARY_OTHER
        return unary_rows if self._unary else ~unary_rows

    def __len__(self) -> int:
        if self._size is None:
            self._size = (
                int(np.count_nonzero(self._rows_mask())) if len(self._pack.keys) else 0
            )
        return self._size

    def items(self):
        pack = self._pack
        if not len(pack.keys):
            return
        mask = self._rows_mask()
        for position in np.flatnonzero(mask).tolist():
            combined = int(pack.keys[position])
            label = combined % pack.label_base
            rel, other = pack.groups[combined // pack.label_base]
            weight = float(pack.weights[position])
            if self._unary:
                yield (label, int(rel)), weight
            else:
                yield (label, int(rel), int(other)), weight

    def keys(self):
        return (key for key, _weight in self.items())

    def __iter__(self):
        return self.keys()

    def __setitem__(self, key, value):
        raise PackedModelError("assigning a packed weight")


class _WeightPack:
    """The shared packed weight plane (groups, sorted keys, weights)."""

    __slots__ = ("groups", "group_of", "keys", "weights", "label_base")

    def __init__(
        self, groups: np.ndarray, keys: np.ndarray, weights: np.ndarray, label_base: int
    ) -> None:
        self.groups = groups
        self.keys = keys
        self.weights = weights
        self.label_base = int(label_base)
        # Column lists zipped into row tuples: the fastest way from a
        # numpy (n, 2) array to a dict of int pairs, and load time is
        # dominated by building these two lookup dicts.
        self.group_of: Dict[Tuple[int, int], int] = dict(
            zip(zip(*groups.T.tolist()), range(len(groups)))
        )


# ----------------------------------------------------------------------
# The packed CRF model
# ----------------------------------------------------------------------


def _packed_crf_model(artifact: ModelArtifact):
    """Build a :class:`PackedCrfModel` from one opened artifact."""
    from ..learning.crf.model import CrfModel

    meta = artifact.meta
    space = FeatureSpace(
        PackedVocab(*artifact.string_table("space/paths")),
        PackedVocab(*artifact.string_table("space/values")),
    )
    pack = _WeightPack(
        artifact.array("crf/groups"),
        artifact.array("crf/keys"),
        artifact.array("crf/weights"),
        meta["label_base"],
    )

    class PackedCrfModel(CrfModel):
        """A :class:`CrfModel` whose state are views over one artifact.

        Candidate generation and scoring behave exactly like the
        dict-backed model: :meth:`compile` reuses the packed weight
        plane directly, and the weight views answer dict-style lookups
        by binary search.  Mutation raises.
        """

        def compile(self):
            from ..learning.crf.compiled import CompiledCrfModel

            compiled = self._compiled_view
            if compiled is None:
                compiled = CompiledCrfModel.from_buffers(
                    self,
                    pack.group_of,
                    pack.keys,
                    pack.weights,
                    pack.label_base,
                    _candidate_tables(artifact, space, pack.label_base),
                )
                self._compiled_view = compiled
            return compiled

        def observe_training_node(self, node, graph):
            raise PackedModelError("observing a training node")

        def l2_decay(self, factor):
            raise PackedModelError("decaying weights")

    model = PackedCrfModel(use_unary=bool(meta["use_unary"]), space=space)
    model._compiled_view = None
    model.pair_weights = _PackedWeightView(pack, unary=False)
    model.unary_weights = _PackedWeightView(pack, unary=True)
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
    from ..learning.crf.compiled import (
        GLOBAL_FALLBACK,
        UNARY_OTHER,
        CandidateTable,
        CandidateTables,
        group_keys,
    )

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

    # Pack the weight planes exactly like the live compiler: group rows
    # assigned first-seen over pair then unary entries, one sorted
    # combined-key array over the (group, label) plane.
    label_base = max(1, len(values))
    group_of: Dict[Tuple[int, int], int] = {}
    combined: List[int] = []
    weights: List[float] = []
    for label, rel, other, weight in model.get("pair_weights", ()):
        row = group_of.setdefault((int(rel), int(other)), len(group_of))
        combined.append(row * label_base + int(label))
        weights.append(float(weight))
    for label, rel, weight in model.get("unary_weights", ()):
        row = group_of.setdefault((int(rel), _UNARY_OTHER), len(group_of))
        combined.append(row * label_base + int(label))
        weights.append(float(weight))
    order = np.argsort(np.asarray(combined, dtype=np.int64), kind="stable")
    groups = np.asarray(list(group_of), dtype=np.int32).reshape(len(group_of), 2)
    writer.add("crf/groups", groups)
    keys = np.asarray(combined, dtype=np.int64)[order]
    # Keys narrow to int32 whenever the (group, label) plane fits; the
    # readers are dtype-driven (the section table records what was
    # written), so narrowing is pure size win.  Weights stay float64 --
    # the bit-identity contract -- except in *pruned* artifacts, which
    # trade exactness for size under the recorded accuracy budget.
    if len(keys) and int(keys[-1]) < 2**31:
        keys = keys.astype(np.int32)
    writer.add("crf/keys", keys)
    weight_dtype = np.float32 if writer.prune is not None else np.float64
    writer.add("crf/weights", np.asarray(weights, dtype=np.float64)[order].astype(weight_dtype))
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
            "pair_weights": len(model.get("pair_weights", ())),
            "unary_weights": len(model.get("unary_weights", ())),
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
