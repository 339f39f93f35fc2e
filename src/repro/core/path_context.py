"""Path-contexts (Definition 4.3) and abstract path-contexts (Definition 4.4).

A path-context is the triple ``<xs, p, xf>`` of the values at a path's
endpoints together with the path itself.  An *abstract* path-context
replaces ``p`` with ``alpha(p)`` for an abstraction function ``alpha``
(see :mod:`repro.core.abstractions`).

Learning engines never see :class:`repro.core.ast_model.Node` objects;
they consume hashable :class:`PathContext` triples, which keeps the
representation decoupled from the tree (and from the language frontend
that produced it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class PathContext:
    """An abstract path-context ``<xs, alpha(p), xf>``.

    ``start_value`` / ``end_value`` are the terminal values at the path
    endpoints (``val(start(p))`` and ``val(end(p))``).  For paths ending at
    a nonterminal (semi-paths, type targets) the endpoint "value" is the
    nonterminal's kind, which is the natural generalisation used by the
    paper for the full-type task.

    ``path`` is the abstracted path encoding -- a hashable token such as
    ``"SymbolRef↑Assign=↓True"`` for the identity abstraction, or a
    coarser token for the abstractions of Sec. 5.6.
    """

    start_value: str
    path: str
    end_value: str

    def as_tuple(self) -> Tuple[str, str, str]:
        return (self.start_value, self.path, self.end_value)

    def __str__(self) -> str:
        return f"⟨{self.start_value}, {self.path}, {self.end_value}⟩"


def endpoint_value(node) -> str:
    """The value used for a path endpoint in a path-context."""
    if node.is_terminal and node.value is not None:
        return node.value
    return node.kind
