"""Property-based tests (hypothesis) for core invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.abstractions import ABSTRACTIONS
from repro.core.ast_model import Ast, Node, lowest_common_ancestor
from repro.core.extraction import ExtractionConfig, PathExtractor
from repro.core.paths import DOWN, UP, path_between
from repro.eval.metrics import exact_match, normalize_name, subtoken_f1, subtokens
from repro.lang.lexing import EOF, Lexer
from repro.learning.crf import CrfGraph, CrfModel

from oracles.crf import factors_of, node_score
from oracles.extraction import table_rows


# ----------------------------------------------------------------------
# Random tree generation
# ----------------------------------------------------------------------

_KINDS = ("A", "B", "C", "D", "E")


@st.composite
def trees(draw, max_nodes=24):
    """A random AST with at least two leaves."""
    rng = random.Random(draw(st.integers(0, 2**31)))
    n_nodes = draw(st.integers(4, max_nodes))
    root = Node("Root")
    nodes = [root]
    for i in range(n_nodes):
        parent = rng.choice(nodes)
        child = Node(rng.choice(_KINDS), value=f"v{i}" if rng.random() < 0.6 else None)
        if child.value is None:
            nodes.append(child)
        parent.add_child(child)
    # Nodes created with values may have received children; values on
    # nonterminals are harmless for these properties.
    return Ast(root)


@st.composite
def leaf_pairs(draw):
    ast = draw(trees())
    leaves = ast.leaves
    i = draw(st.integers(0, len(leaves) - 1))
    j = draw(st.integers(0, len(leaves) - 1))
    return ast, leaves[i], leaves[j]


class TestPathProperties:
    @given(leaf_pairs())
    @settings(max_examples=60, deadline=None)
    def test_path_connects_endpoints(self, data):
        _ast, a, b = data
        path = path_between(a, b)
        assert path.start is a
        assert path.end is b

    @given(leaf_pairs())
    @settings(max_examples=60, deadline=None)
    def test_path_structure_consistent(self, data):
        """Each movement matches the parent relation (Def. 4.2)."""
        _ast, a, b = data
        path = path_between(a, b)
        for i, direction in enumerate(path.directions):
            if direction == UP:
                assert path.nodes[i].parent is path.nodes[i + 1]
            else:
                assert path.nodes[i + 1].parent is path.nodes[i]

    @given(leaf_pairs())
    @settings(max_examples=60, deadline=None)
    def test_length_matches_lca_depths(self, data):
        _ast, a, b = data
        path = path_between(a, b)
        lca = lowest_common_ancestor(a, b)
        assert path.length == a.depth() + b.depth() - 2 * lca.depth()

    @given(leaf_pairs())
    @settings(max_examples=60, deadline=None)
    def test_reversal_symmetry(self, data):
        _ast, a, b = data
        forward = path_between(a, b)
        backward = path_between(b, a)
        assert forward.reversed().encode() == backward.encode()

    @given(leaf_pairs())
    @settings(max_examples=60, deadline=None)
    def test_direction_changes_at_most_once(self, data):
        """Canonical paths go up then down: no DOWN before an UP."""
        _ast, a, b = data
        directions = path_between(a, b).directions
        seen_down = False
        for d in directions:
            if d == DOWN:
                seen_down = True
            else:
                assert not seen_down

    @given(leaf_pairs())
    @settings(max_examples=40, deadline=None)
    def test_abstractions_total(self, data):
        """Every abstraction maps every path to a non-empty string."""
        _ast, a, b = data
        path = path_between(a, b)
        for name, alpha in ABSTRACTIONS.items():
            encoded = alpha(path)
            assert isinstance(encoded, str) and encoded


class TestExtractionProperties:
    @given(trees(), st.integers(1, 8), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_limits_always_respected(self, ast, max_length, max_width):
        extractor = PathExtractor(
            ExtractionConfig(
                max_length=max_length, max_width=max_width, include_semi_paths=False
            )
        )
        for extracted in table_rows(extractor.extract(ast)):
            assert extracted.path.length <= max_length
            assert extracted.path.width <= max_width

    @given(trees(), st.floats(0.1, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_downsampling_never_adds(self, ast, p):
        full = len(
            PathExtractor(
                ExtractionConfig(downsample_p=1.0, include_semi_paths=False)
            ).extract(ast)
        )
        sampled = len(
            PathExtractor(
                ExtractionConfig(downsample_p=p, include_semi_paths=False)
            ).extract(ast)
        )
        assert sampled <= full

    @given(trees())
    @settings(max_examples=30, deadline=None)
    def test_semi_paths_all_ascending(self, ast):
        extractor = PathExtractor(ExtractionConfig(include_semi_paths=True))
        for extracted in table_rows(extractor.extract(ast)):
            if extracted.is_semi:
                assert all(d == UP for d in extracted.path.directions)


_NAME_ALPHABET = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=127),
    min_size=1,
    max_size=12,
)


class TestMetricProperties:
    @given(_NAME_ALPHABET)
    @settings(max_examples=80, deadline=None)
    def test_exact_match_reflexive(self, name):
        if normalize_name(name):
            assert exact_match(name, name)

    @given(_NAME_ALPHABET, _NAME_ALPHABET)
    @settings(max_examples=80, deadline=None)
    def test_exact_match_symmetric(self, a, b):
        assert exact_match(a, b) == exact_match(b, a)

    @given(_NAME_ALPHABET, _NAME_ALPHABET)
    @settings(max_examples=80, deadline=None)
    def test_f1_bounds(self, a, b):
        p, r, f = subtoken_f1(a, b)
        assert 0.0 <= p <= 1.0
        assert 0.0 <= r <= 1.0
        assert min(p, r) <= f <= max(p, r)

    @given(_NAME_ALPHABET)
    @settings(max_examples=80, deadline=None)
    def test_f1_perfect_on_self(self, name):
        if subtokens(name):
            assert subtoken_f1(name, name) == (1.0, 1.0, 1.0)

    @given(_NAME_ALPHABET)
    @settings(max_examples=80, deadline=None)
    def test_subtokens_lowercase(self, name):
        assert all(t == t.lower() for t in subtokens(name))


class TestLexerProperties:
    @given(st.lists(_NAME_ALPHABET, min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_identifier_round_trip(self, names):
        source = " ".join(names)
        tokens = Lexer(source, frozenset(), "javascript").tokenize()
        texts = [t.text for t in tokens if t.kind != EOF]
        # Identifiers that start with a digit lex as number + identifier;
        # restrict the check to alphabetic-leading names.
        alpha_names = [n for n in names if n[0].isalpha()]
        if alpha_names:
            assert [t for t in texts if t in alpha_names]
        joined = "".join(texts)
        assert joined == "".join(names)

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_integer_literals(self, value):
        tokens = Lexer(str(value), frozenset(), "javascript").tokenize()
        assert tokens[0].text == str(value)


class TestCrfScoreProperties:
    @given(
        st.lists(
            st.tuples(_NAME_ALPHABET, _NAME_ALPHABET, _NAME_ALPHABET),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_score_is_sum_of_known_weights(self, factors):
        graph = CrfGraph()
        index = graph.add_unknown("e", gold="g")
        model = CrfModel(space=graph.space)
        weights = {}
        for label, rel, neighbor in factors:
            graph.add_known_factor(index, rel, neighbor)
            key = model.pair_key("g", rel, neighbor)
            weights[key] = weights.get(key, 0.0) + 1.0
        for key, weight in weights.items():
            model.plane.assign(key, weight)
        expected = 0.0
        for factor in factors_of(graph, 0).known:
            expected += weights[(model.label_id("g"), factor.rel, factor.label)]
        assert expected >= len(factors)
        assert node_score(model, graph, 0, "g", ["g"]) == expected
