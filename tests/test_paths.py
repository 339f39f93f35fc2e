"""Unit tests for AST paths (Def. 4.2), including the paper's examples."""

import pytest

from repro.core.ast_model import Node
from repro.core.paths import DOWN, UP, AstPath, path_between
from repro.lang.javascript import parse_js

from fixtures import FIG1_JS, FIG4_JS, FIG5_JS
from oracles.extraction import semi_path


class TestAstPathBasics:
    def test_length_is_node_count_minus_one(self):
        a = Node("A", value="a")
        parent = Node("P", children=[a])
        path = path_between(a, parent)
        assert path.length == 1
        assert len(path.nodes) == 2

    def test_invalid_shape_rejected(self):
        a = Node("A", value="a")
        with pytest.raises(ValueError):
            AstPath([a], [UP])

    def test_invalid_direction_rejected(self):
        a = Node("A", value="a")
        p = Node("P", children=[a])
        with pytest.raises(ValueError):
            AstPath([a, p], ["sideways"])

    def test_start_end(self):
        x = Node("X", value="x")
        y = Node("Y", value="y")
        Node("P", children=[x, y])
        path = path_between(x, y)
        assert path.start is x and path.end is y

    def test_reversal_is_involution(self):
        x = Node("X", value="x")
        y = Node("Y", value="y")
        Node("P", children=[x, y])
        path = path_between(x, y)
        assert path.reversed().reversed() == path

    def test_reversal_flips_arrows(self):
        x = Node("X", value="x")
        y = Node("Y", value="y")
        Node("P", children=[x, y])
        path = path_between(x, y)
        assert path.directions == (UP, DOWN)
        assert path.reversed().directions == (UP, DOWN)
        assert path.reversed().nodes[0] is y


class TestPaperExamples:
    def test_fig1_path_between_d_occurrences(self):
        """The running example: SymbolRef↑UnaryPrefix!↑While↓If↓Assign=↓SymbolRef."""
        ast = parse_js(FIG1_JS)
        ds = [leaf for leaf in ast.leaves if leaf.value == "d"]
        # Occurrences: declaration, while-condition, assignment target.
        path = path_between(ds[1], ds[2])
        assert path.encode() == "SymbolRef↑UnaryPrefix!↑While↓If↓Assign=↓SymbolRef"

    def test_fig1_path_to_true(self):
        """Path II of the overview: SymbolRef↑Assign=↓True."""
        ast = parse_js(FIG1_JS)
        d_assign = [leaf for leaf in ast.leaves if leaf.value == "d"][2]
        true_leaf = [leaf for leaf in ast.leaves if leaf.kind == "True"][0]
        path = path_between(d_assign, true_leaf)
        assert path.encode() == "SymbolRef↑Assign=↓True"

    def test_fig4_item_to_array(self):
        """Example 4.5: SymbolVar↑VarDef↓Sub↓SymbolRef."""
        ast = parse_js(FIG4_JS)
        item = next(l for l in ast.leaves if l.value == "item")
        array = next(l for l in ast.leaves if l.value == "array")
        path = path_between(item, array)
        assert path.encode() == "SymbolVar↑VarDef↓Sub↓SymbolRef"

    def test_fig5_length_and_width(self):
        """Fig. 5: the path between a and d has length 4 and width 3."""
        ast = parse_js(FIG5_JS)
        a = next(l for l in ast.leaves if l.value == "a")
        d = next(l for l in ast.leaves if l.value == "d")
        path = path_between(a, d)
        assert path.length == 4
        assert path.width == 3


class TestWidthAndTop:
    def test_adjacent_siblings_width_one(self):
        x = Node("X", value="x")
        y = Node("Y", value="y")
        p = Node("P", children=[x, y])
        path = path_between(x, y)
        assert path.width == 1
        assert path.top is p

    def test_semi_path_width_zero(self):
        x = Node("X", value="x")
        mid = Node("M", children=[x])
        top = Node("T", children=[mid])
        path = semi_path(x, top)
        assert path.width == 0
        assert path.top is top

    def test_top_index(self):
        x = Node("X", value="x")
        y = Node("Y", value="y")
        Node("P", children=[x, y])
        path = path_between(x, y)
        assert path.top_index == 1


class TestSemiPath:
    def test_valid_semi_path(self):
        x = Node("X", value="x")
        mid = Node("M", children=[x])
        top = Node("T", children=[mid])
        path = semi_path(x, top)
        assert path.encode() == "X↑M↑T"
        assert all(d == UP for d in path.directions)

    def test_non_ancestor_rejected(self):
        x = Node("X", value="x")
        y = Node("Y", value="y")
        Node("P", children=[x, y])
        with pytest.raises(ValueError):
            semi_path(x, y)


class TestPathBetween:
    def test_different_trees_raise(self):
        x = Node("X", value="x")
        Node("P", children=[x])
        y = Node("Y", value="y")
        Node("Q", children=[y])
        with pytest.raises(ValueError):
            path_between(x, y)

    def test_descendant_to_ancestor(self):
        x = Node("X", value="x")
        mid = Node("M", children=[x])
        top = Node("T", children=[mid])
        path = path_between(x, top)
        assert path.encode() == "X↑M↑T"
        path_down = path_between(top, x)
        assert path_down.encode() == "T↓M↓X"
