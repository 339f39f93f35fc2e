"""Unit tests for path-contexts (Defs. 4.3-4.4)."""

import pytest

from repro.core.ast_model import Node
from repro.core.path_context import PathContext, endpoint_value
from repro.core.paths import path_between
from repro.core.abstractions import alpha_forget_order

from oracles.extraction import make_path_context


def small_tree():
    x = Node("X", value="x")
    y = Node("Y", value="y")
    mid = Node("M", children=[x])
    top = Node("T", children=[mid, y])
    return top, x, y


class TestPathContext:
    def test_triplet_fields(self):
        _top, x, y = small_tree()
        context = make_path_context(path_between(x, y))
        assert context.start_value == "x"
        assert context.end_value == "y"
        assert context.path == "X↑M↑T↓Y"

    def test_str_rendering(self):
        context = PathContext("a", "A↑B", "b")
        assert str(context) == "⟨a, A↑B, b⟩"

    def test_as_tuple_and_hashability(self):
        context = PathContext("a", "p", "b")
        assert context.as_tuple() == ("a", "p", "b")
        assert len({context, PathContext("a", "p", "b")}) == 1

    def test_custom_endpoint_values(self):
        _top, x, y = small_tree()
        context = make_path_context(
            path_between(x, y), start_value="?", end_value="!"
        )
        assert (context.start_value, context.end_value) == ("?", "!")

    def test_abstraction_applied(self):
        _top, x, y = small_tree()
        context = make_path_context(path_between(x, y), alpha_forget_order)
        assert context.path == "M,T,X,Y"


class TestEndpointValue:
    def test_terminal_uses_value(self):
        node = Node("Leaf", value="v")
        assert endpoint_value(node) == "v"

    def test_nonterminal_uses_kind(self):
        parent = Node("Parent", children=[Node("Leaf", value="v")])
        assert endpoint_value(parent) == "Parent"

    def test_childless_valueless_node_uses_kind(self):
        node = Node("Break")
        assert endpoint_value(node) == "Break"
