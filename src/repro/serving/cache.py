"""The serving caches: source memo and response cache.

Responses are cached under ``(cell, language, target_language, top,
ast_digest)``: the digest (:func:`repro.core.extraction.ast_digest`)
covers the full tree structure, so two submissions share an entry
exactly when their parsed ASTs are identical -- byte-identical sources
and layout-only variants hit, structurally different programs never do.
The source language and (for ``translate`` requests) the target language
are part of the key because the digest alone does not carry them: the
same structure parsed from two languages, or one source translated into
two targets, must neither share a cache entry nor coalesce onto the same
in-flight scoring future.

Finding the digest takes a parse, so a second :class:`LruCache` in front
of the response cache memoizes it under :func:`source_key` -- the cell
and a hash of the source's bytes.  A byte-identical resubmission (an
editor or CI job sending the same buffer again) finds its digest there
and is answered without parsing; only a source seen for the first time,
or a layout-only variant of one, pays the parse.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple


def source_key(cell: str, source: str) -> Tuple[str, bytes]:
    """The digest-memo key: ``(cell, blake2b-128 of the UTF-8 source)``.

    Raises ``UnicodeEncodeError`` for a source with no UTF-8 form (a
    lone surrogate, say) -- before anything is hashed, so callers can
    answer it as the caller's fault.
    """
    return cell, hashlib.blake2b(source.encode("utf-8"), digest_size=16).digest()


class LruCache:
    """A small thread-safe LRU map with hit/miss counters.

    ``capacity <= 0`` disables caching (every ``get`` misses, ``put`` is
    a no-op) while keeping the call sites unconditional.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }
