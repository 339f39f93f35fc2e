"""AST paths (Definition 4.2) and their geometry.

An AST path of length ``k`` is a sequence ``n1 d1 n2 d2 ... nk dk n(k+1)``
where the ``ni`` are nodes and each ``di`` is an up or down movement: if
``di`` is up then ``n(i+1)`` is the parent of ``ni``; if down, ``ni`` is the
parent of ``n(i+1)``.

We materialise the path between two nodes canonically: climb from the start
node to the lowest common ancestor, then descend to the end node.  Such a
path changes direction at most once, at the *top* node; the paper's width
parameter is the distance between the two children of the top node the path
passes through (Fig. 5).

:func:`path_between` builds that path for any two nodes of one tree:
two terminals (a leafwise path), a terminal and one of its ancestors (a
semi-path), or a terminal and an expression nonterminal (the full-type
task).  Extraction itself never builds these objects per path: it keeps
columnar rows and builds an :class:`AstPath` only to abstract a path
shape it has not seen (see :mod:`repro.core.extraction`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .ast_model import Node

UP = "↑"  # ↑
DOWN = "↓"  # ↓


class AstPath:
    """A concrete AST path between two nodes of one tree.

    Attributes
    ----------
    nodes:
        The node sequence ``n1 .. n(k+1)``.
    directions:
        The movement sequence ``d1 .. dk`` (each :data:`UP` or :data:`DOWN`).
    """

    __slots__ = ("nodes", "directions")

    def __init__(self, nodes: Sequence[Node], directions: Sequence[str]) -> None:
        if len(nodes) != len(directions) + 1:
            raise ValueError(
                f"a path of length k has k+1 nodes and k directions, got "
                f"{len(nodes)} nodes / {len(directions)} directions"
            )
        for d in directions:
            if d not in (UP, DOWN):
                raise ValueError(f"invalid direction {d!r}")
        self.nodes: Tuple[Node, ...] = tuple(nodes)
        self.directions: Tuple[str, ...] = tuple(directions)

    # -- Def. 4.2 accessors -------------------------------------------
    @property
    def start(self) -> Node:
        """``start(p) = n1``."""
        return self.nodes[0]

    @property
    def end(self) -> Node:
        """``end(p) = n(k+1)``."""
        return self.nodes[-1]

    @property
    def length(self) -> int:
        """The path length ``k`` (number of movements)."""
        return len(self.directions)

    @property
    def top(self) -> Node:
        """The hierarchically-highest node on the path.

        For a canonical up-then-down path this is the node where the
        direction changes; for a pure ascent/descent it is the highest
        endpoint.
        """
        for i, d in enumerate(self.directions):
            if d == DOWN:
                return self.nodes[i]
        return self.nodes[-1]

    @property
    def top_index(self) -> int:
        """Index of :attr:`top` within :attr:`nodes`."""
        for i, d in enumerate(self.directions):
            if d == DOWN:
                return i
        return len(self.nodes) - 1

    @property
    def width(self) -> int:
        """Distance between the top node's children used by the path.

        Per Sec. 4.2 / Fig. 5 the width is the difference between the
        positions of the two sibling nodes (children of the top node) that
        participate in the path.  Paths that do not pass through two
        distinct children of their top node (e.g. semi-paths) have width 0.
        """
        t = self.top_index
        if t == 0 or t == len(self.nodes) - 1:
            return 0
        left = self.nodes[t - 1]
        right = self.nodes[t + 1]
        return abs(right.child_index() - left.child_index())

    # -- Transformations ----------------------------------------------
    def reversed(self) -> "AstPath":
        """The same path walked from the other endpoint."""
        flipped = tuple(UP if d == DOWN else DOWN for d in reversed(self.directions))
        return AstPath(tuple(reversed(self.nodes)), flipped)

    def kinds(self) -> Tuple[str, ...]:
        """The node-kind sequence (what representations actually use)."""
        return tuple(n.kind for n in self.nodes)

    def encode(self) -> str:
        """The paper's textual form, e.g. ``SymbolRef↑Assign=↓True``."""
        parts: List[str] = [self.nodes[0].kind]
        for d, n in zip(self.directions, self.nodes[1:]):
            parts.append(d)
            parts.append(n.kind)
        return "".join(parts)

    def __eq__(self, other: object) -> bool:
        """Paths are equal iff they traverse the *same node objects*.

        Equality is node-identity-based (and ``__hash__`` agrees): two
        paths over structurally identical but distinct trees are distinct
        paths.  Compare :meth:`encode` outputs for structural equality.
        """
        if not isinstance(other, AstPath):
            return NotImplemented
        if self.directions != other.directions:
            return False
        return all(a is b for a, b in zip(self.nodes, other.nodes))

    def __hash__(self) -> int:
        return hash((tuple(id(n) for n in self.nodes), self.directions))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AstPath({self.encode()})"


def path_between(a: Node, b: Node) -> AstPath:
    """The canonical path from ``a`` to ``b`` (up to the LCA, then down).

    Works for any pair of nodes in one tree, covering leafwise paths,
    semi-paths (when one node is an ancestor of the other) and paths
    between arbitrary nodes, e.g. a terminal and an expression nonterminal
    for the full-type task.
    """
    a_chain: List[Node] = [a]
    node: Optional[Node] = a
    while node.parent is not None:
        node = node.parent
        a_chain.append(node)
    a_ids = {id(n): i for i, n in enumerate(a_chain)}

    b_chain: List[Node] = []
    node = b
    while node is not None and id(node) not in a_ids:
        b_chain.append(node)
        node = node.parent
    if node is None:
        raise ValueError("nodes do not belong to the same tree")
    lca_pos = a_ids[id(node)]

    nodes: List[Node] = a_chain[: lca_pos + 1]
    directions: List[str] = [UP] * lca_pos
    for down_node in reversed(b_chain):
        nodes.append(down_node)
        directions.append(DOWN)
    return AstPath(nodes, directions)
