"""Interned feature vocabularies: strings become dense integer ids.

Every downstream consumer of a path-context -- CRF factor keys, the
candidate index, word2vec context tokens, corpus statistics -- used to
re-materialise the same encoded path strings over and over.  This module
introduces the interning layer: encoded paths and endpoint values are
mapped to small integers *once, at extraction time*, and those ids flow
end-to-end through graphs, models and serialized state.

Three pieces:

:class:`Vocab`
    an append-only bidirectional ``str <-> int`` map.  Ids are assigned
    densely in first-seen order, so a vocabulary built from the same
    corpus in the same order is always identical.
:class:`PathVocab` / :class:`ContextVocab`
    the two vocabularies of the feature space: one for abstract path
    encodings (CRF relations), one for endpoint values and labels.
:class:`FeatureSpace`
    a (paths, values) pair shared by an extractor, the graphs it builds
    and the model trained on them.  It serializes to plain lists, so a
    saved model carries its own id assignment and reloads bit-identically
    in any process.

There is no process-wide space: an extractor, graph or model built
without one gets a private :class:`FeatureSpace`, so ids never depend on
what else ran in the process.  Components that must agree on ids (a
pipeline's extractor, its graphs and its model) share one space
explicitly.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple


class FrozenVocabError(RuntimeError):
    """A new string reached a vocabulary after :meth:`Vocab.freeze`.

    Raised instead of silently growing, because frozen vocabularies back
    the serving read path: their ids are shared by concurrent readers and
    must never shift.  Intern through an :class:`OverlayVocab` (see
    :meth:`FeatureSpace.overlay`) to handle unseen strings.
    """


class Vocab:
    """Append-only bidirectional string <-> dense-int map."""

    __slots__ = ("_ids", "_values", "_frozen")

    def __init__(self, values: Sequence[str] = ()) -> None:
        self._values: List[str] = []
        self._ids: Dict[str, int] = {}
        self._frozen = False
        for value in values:
            self.intern(value)

    def intern(self, value: str) -> int:
        """The id of ``value``, assigning the next dense id if unseen."""
        existing = self._ids.get(value)
        if existing is not None:
            return existing
        if self._frozen:
            raise FrozenVocabError(
                f"vocabulary is frozen; cannot intern new value {value!r} "
                f"(use an overlay for read-path interning)"
            )
        new_id = len(self._values)
        self._ids[value] = new_id
        self._values.append(value)
        return new_id

    def freeze(self) -> "Vocab":
        """Make the vocabulary immutable (interning unseen strings raises)."""
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def id_of(self, value: str) -> Optional[int]:
        """The id of ``value`` if already interned, else ``None``."""
        return self._ids.get(value)

    def value(self, value_id: int) -> str:
        """The string behind an id (raises ``IndexError`` for unknown ids)."""
        return self._values[value_id]

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: str) -> bool:
        return value in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def to_list(self) -> List[str]:
        """JSON-ready snapshot; inverse of :meth:`from_list`."""
        return list(self._values)

    @classmethod
    def from_list(cls, values: Sequence[str]) -> "Vocab":
        return cls(values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({len(self)} entries)"


class OverlayVocab(Vocab):
    """A copy-on-write view over a frozen base vocabulary.

    Reads resolve through the base first, so every string the base knows
    keeps its base id.  Unseen strings intern *locally*, with ids starting
    at ``len(base)``; the base is never touched.  This is the serving read
    path: one frozen base shared by every request, one throwaway overlay
    per request, zero contention and zero unbounded growth.

    Local ids of two different overlays over the same base may collide
    with each other -- that is fine, because local ids never appear in
    model weights (the model only knows base ids) and overlays are never
    shared across requests.

    :meth:`reserve` hands out a local id from the same counter as
    :meth:`intern`, for an item whose string is built only if
    :meth:`value` asks for it.
    """

    __slots__ = ("_base", "_base_len", "_reserved", "_spell")

    def __init__(self, base: Vocab) -> None:
        super().__init__()
        self._base = base
        self._base_len = len(base)
        #: local index -> the item behind a reserved id, until spelled.
        self._reserved: Dict[int, Hashable] = {}
        self._spell: Optional[Callable[[Hashable], str]] = None

    @property
    def base(self) -> Vocab:
        return self._base

    def intern(self, value: str) -> int:
        base_id = self._base.id_of(value)
        if base_id is not None:
            return base_id
        local = self._ids.get(value)
        if local is not None:
            return self._base_len + local
        if self._frozen:
            raise FrozenVocabError(
                f"overlay vocabulary is frozen; cannot intern {value!r}"
            )
        new_id = len(self._values)
        self._ids[value] = new_id
        self._values.append(value)
        return self._base_len + new_id

    def reserve(self, item: Hashable, spell: Callable[[Hashable], str]) -> int:
        """The next local id, for an ``item`` absent from the base whose
        string ``spell(item)`` builds only when :meth:`value` first asks.

        The serving read path gives an unseen relation an id this way,
        keyed by its path shape, without spelling the path out.  One
        overlay takes one ``spell``.  A reserved item is not indexed by
        its string: interning that string later gives another id.
        """
        if self._frozen:
            raise FrozenVocabError("overlay vocabulary is frozen; cannot reserve an id")
        local = len(self._values)
        self._values.append(None)
        self._reserved[local] = item
        self._spell = spell
        return self._base_len + local

    def id_of(self, value: str) -> Optional[int]:
        base_id = self._base.id_of(value)
        if base_id is not None:
            return base_id
        local = self._ids.get(value)
        return None if local is None else self._base_len + local

    def value(self, value_id: int) -> str:
        if value_id < self._base_len:
            return self._base.value(value_id)
        local = value_id - self._base_len
        value = self._values[local]
        if value is None:
            value = self._values[local] = self._spell(self._reserved.pop(local))
        return value

    def __len__(self) -> int:
        return self._base_len + len(self._values)

    def __contains__(self, value: str) -> bool:
        return value in self._base or value in self._ids

    def __iter__(self) -> Iterator[str]:
        yield from self._base
        for local in range(len(self._values)):
            yield self.value(self._base_len + local)

    def to_list(self) -> List[str]:
        return list(self)


class PackedVocab(Vocab):
    """A :class:`Vocab` whose initial entries live in a packed string table.

    The table is ``blob`` (any bytes-like object -- typically a mmapped
    section of a ``pigeon-model/1`` artifact) plus ``offsets``, an int
    sequence of length ``n + 1`` where entry ``i`` occupies
    ``blob[offsets[i]:offsets[i + 1]]`` as UTF-8.  Nothing is decoded at
    construction: :meth:`value` decodes single entries on demand, and the
    first operation that needs the full ``str -> id`` dict (``intern`` /
    ``id_of`` / ``in``) decodes the table once.  Until then the strings
    stay in the OS page cache, shared by every process mapping the same
    artifact.

    After the packed prefix, the vocabulary behaves exactly like a plain
    :class:`Vocab`: new strings intern append-only at ``len(packed)`` and
    beyond, ``freeze`` / :class:`OverlayVocab` work unchanged, and
    ``to_list`` round-trips through :meth:`Vocab.from_list`.
    """

    __slots__ = ("_blob", "_offsets", "_packed", "_indexed")

    def __init__(self, blob, offsets) -> None:
        super().__init__()
        self._blob = blob
        self._offsets = offsets
        self._packed = max(0, len(offsets) - 1)
        self._values = [None] * self._packed
        self._indexed = self._packed == 0

    def _decode(self, index: int) -> str:
        value = self._values[index]
        if value is None:
            start = int(self._offsets[index])
            end = int(self._offsets[index + 1])
            value = bytes(self._blob[start:end]).decode("utf-8")
            self._values[index] = value
        return value

    def _fill(self) -> None:
        """Decode every packed entry (bulk: one blob copy, then slices)."""
        offsets = self._offsets
        end = int(offsets[self._packed]) if self._packed else 0
        data = bytes(self._blob[:end])
        values = self._values
        for i in range(self._packed):
            if values[i] is None:
                values[i] = data[int(offsets[i]) : int(offsets[i + 1])].decode("utf-8")

    def _index(self) -> None:
        """Build the ``str -> id`` dict over the packed prefix, once."""
        if not self._indexed:
            self._fill()
            ids = self._ids
            for i in range(self._packed):
                ids[self._values[i]] = i
            self._indexed = True

    def intern(self, value: str) -> int:
        self._index()
        return super().intern(value)

    def id_of(self, value: str) -> Optional[int]:
        self._index()
        return self._ids.get(value)

    def value(self, value_id: int) -> str:
        if 0 <= value_id < self._packed:
            return self._decode(value_id)
        return self._values[value_id]

    def __contains__(self, value: str) -> bool:
        self._index()
        return value in self._ids

    def __iter__(self) -> Iterator[str]:
        self._fill()
        return iter(self._values)

    def to_list(self) -> List[str]:
        self._fill()
        return list(self._values)


class PathVocab(Vocab):
    """Vocabulary of abstract path encodings (the CRF relations)."""

    __slots__ = ()


class ContextVocab(Vocab):
    """Vocabulary of path-context endpoint values and predicted labels.

    Neighbour values and gold labels share one id space on purpose: the
    candidate index pairs "the label seen at the other end" with "the
    label to predict", and those are drawn from the same population of
    program names.
    """

    __slots__ = ()


class FeatureSpace:
    """The shared (paths, values) vocabulary pair of one model family.

    An extractor interns into a feature space; the graphs it builds, the
    model trained on those graphs and the word2vec pairs derived from the
    same extraction all reference ids of the *same* space.  Serializing a
    model therefore means serializing its space alongside the int-keyed
    weights.
    """

    __slots__ = ("paths", "values")

    def __init__(
        self,
        paths: Optional[PathVocab] = None,
        values: Optional[ContextVocab] = None,
    ) -> None:
        self.paths = paths if paths is not None else PathVocab()
        self.values = values if values is not None else ContextVocab()

    # ------------------------------------------------------------------
    # Encoding helpers
    # ------------------------------------------------------------------
    def encode_context(self, start_value: str, path: str, end_value: str) -> Tuple[int, int, int]:
        """Intern one ``<xs, alpha(p), xf>`` triple to ``(id, id, id)``."""
        return (
            self.values.intern(start_value),
            self.paths.intern(path),
            self.values.intern(end_value),
        )

    def decode_context(self, triple: Tuple[int, int, int]) -> Tuple[str, str, str]:
        start_id, rel_id, end_id = triple
        return (
            self.values.value(start_id),
            self.paths.value(rel_id),
            self.values.value(end_id),
        )

    # ------------------------------------------------------------------
    # Freezing and overlays (the serving read path)
    # ------------------------------------------------------------------
    def freeze(self) -> "FeatureSpace":
        """Freeze both vocabularies; unseen strings now raise
        :class:`FrozenVocabError` unless interned through an overlay."""
        self.paths.freeze()
        self.values.freeze()
        return self

    @property
    def frozen(self) -> bool:
        return self.paths.frozen and self.values.frozen

    def overlay(self) -> "FeatureSpace":
        """A throwaway space layered over this one.

        Base ids are preserved; unseen strings get overlay-local ids at
        ``len(base)`` and beyond, without mutating this space.  One
        overlay per request keeps concurrent readers contention-free and
        the base space bounded.
        """
        return FeatureSpace(OverlayVocab(self.paths), OverlayVocab(self.values))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready snapshot; inverse of :meth:`from_dict`."""
        return {"paths": self.paths.to_list(), "values": self.values.to_list()}

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureSpace":
        return cls(
            PathVocab(data.get("paths", ())),
            ContextVocab(data.get("values", ())),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FeatureSpace(paths={len(self.paths)}, values={len(self.values)})"
