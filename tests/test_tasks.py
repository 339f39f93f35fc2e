"""Unit tests for the three prediction tasks."""

import pytest

from repro.core.extraction import ExtractionConfig, PathExtractor
from repro.lang.base import parse_source
from repro.tasks.method_naming import build_method_graph, method_elements
from repro.tasks.type_prediction import build_type_graph, typed_targets
from repro.tasks.variable_naming import (
    PLACEHOLDER,
    build_crf_graph,
    decode_w2v_token,
    element_contexts,
    element_groups,
    extract_w2v_pairs,
)

from fixtures import COUNT_JAVA, FIG1_JS
from oracles.crf import factors_of


def extractor(**kw):
    return PathExtractor(ExtractionConfig(**kw))


class TestVariableNamingGraph:
    def test_elements_are_renameable_only(self, fig1_ast):
        groups = element_groups(fig1_ast)
        values = {occ[0].value for occ in groups.values()}
        assert values == {"d"}  # someCondition is global, true/false literals

    def test_graph_gold_labels(self, fig1_ast):
        graph = build_crf_graph(fig1_ast, extractor())
        assert [n.gold for n in graph.unknowns] == ["d"]

    def test_unary_factors_from_occurrences(self, fig1_ast):
        graph = build_crf_graph(fig1_ast, extractor())
        unary = factors_of(graph, 0).unary
        assert unary  # d occurs three times -> paths between them
        decoded = {graph.decode_rel(rel) for rel in unary}
        assert "SymbolRef↑UnaryPrefix!↑While↓If↓Assign=↓SymbolRef" in decoded

    def test_known_factors_exclude_own_name(self, fig1_ast):
        """The element's own value must never appear as a feature label of
        its own factors (no gold leakage)."""
        graph = build_crf_graph(fig1_ast, extractor())
        assert all(graph.decode_value(f.label) != "d" for f in factors_of(graph, 0).known)

    def test_unknown_unknown_edges(self):
        ast = parse_source("javascript", "function f(a, b) { return a + b; }")
        graph = build_crf_graph(ast, extractor())
        assert len(graph) == 2
        assert any(factors_of(graph, i).edges for i in range(len(graph)))

    def test_no_paths_abstraction_collapses_relations(self, fig1_ast):
        graph = build_crf_graph(fig1_ast, extractor(abstraction="no-path"))
        rels = {
            graph.decode_rel(f.rel)
            for i in range(len(graph))
            for f in factors_of(graph, i).known
        }
        assert rels == {"*"}


class TestVariableNamingW2v:
    def test_contexts_have_gold_and_tokens(self, fig1_ast):
        contexts = element_contexts(fig1_ast, extractor())
        assert len(contexts) == 1
        gold, tokens = next(iter(contexts.values()))
        assert gold == "d"
        assert tokens

    def test_self_contexts_excluded(self, fig1_ast):
        ex = extractor()
        contexts = element_contexts(fig1_ast, ex)
        _gold, tokens = next(iter(contexts.values()))
        decoded = [decode_w2v_token(t, ex.space) for t in tokens]
        assert all(not t.endswith("\x1dd") for t in decoded)

    def test_other_unknowns_masked(self):
        ast = parse_source("javascript", "function f(a, b) { return a + b; }")
        ex = extractor()
        contexts = element_contexts(ast, ex)
        all_tokens = [
            decode_w2v_token(t, ex.space)
            for _g, toks in contexts.values()
            for t in toks
        ]
        # b is an unknown; it must appear only as the placeholder.
        assert all(not t.endswith("\x1db") for t in all_tokens)
        assert any(t.endswith(f"\x1d{PLACEHOLDER}") for t in all_tokens)

    def test_pairs_flatten(self, fig1_ast):
        pairs = extract_w2v_pairs(fig1_ast, extractor())
        assert pairs and all(word == "d" for word, _ in pairs)


class TestMethodNaming:
    JS = """
function countItems(values, target) {
  var count = 0;
  for (var v of values) {
    if (v == target) { count++; }
  }
  return count;
}
function run() {
  countItems([], 1);
}
"""

    def test_elements_found(self):
        ast = parse_source("javascript", self.JS)
        elements = method_elements(ast)
        golds = {info["gold"] for info in elements.values()}
        assert golds == {"countItems", "run"}

    def test_invocations_linked(self):
        ast = parse_source("javascript", self.JS)
        elements = method_elements(ast)
        count_info = next(
            info for info in elements.values() if info["gold"] == "countItems"
        )
        assert len(count_info["occurrences"]) == 2  # decl + call site

    def test_graph_has_internal_factors(self):
        ast = parse_source("javascript", self.JS)
        graph = build_method_graph(ast, extractor(max_length=12, max_width=4))
        count_node = next(n for n in graph.unknowns if n.gold == "countItems")
        assert factors_of(graph, count_node.index).known

    def test_external_ablation_reduces_factors(self):
        ast = parse_source("javascript", self.JS)
        with_external = build_method_graph(
            ast, extractor(max_length=12, max_width=4), use_external=True
        )
        without_external = build_method_graph(
            ast, extractor(max_length=12, max_width=4), use_external=False
        )
        count_with = next(n for n in with_external.unknowns if n.gold == "countItems")
        count_without = next(
            n for n in without_external.unknowns if n.gold == "countItems"
        )
        assert count_with.degree() > count_without.degree()

    def test_method_names_never_known_neighbors(self):
        ast = parse_source("javascript", self.JS)
        graph = build_method_graph(ast, extractor(max_length=12, max_width=4))
        labels = {f.label for i in range(len(graph)) for f in factors_of(graph, i).known}
        assert "countItems" not in labels and "run" not in labels

    def test_java_methods(self, count_java_ast):
        elements = method_elements(count_java_ast)
        assert {info["gold"] for info in elements.values()} == {"count"}

    def test_python_methods(self):
        ast = parse_source("python", "def add_all(xs):\n    return sum(xs)\n")
        elements = method_elements(ast)
        assert {info["gold"] for info in elements.values()} == {"add_all"}


class TestTypePrediction:
    def test_targets_are_reference_typed(self, count_java_ast):
        targets = typed_targets(count_java_ast)
        types = {n.meta["type"] for n in targets}
        assert all("." in t or "<" in t for t in types)

    def test_literals_excluded(self):
        ast = parse_source(
            "java", 'public class T { void m() { String s = "x"; use(s); } }'
        )
        kinds = {n.kind for n in typed_targets(ast)}
        assert "StringLiteral" not in kinds

    def test_variable_occurrences_merge(self):
        ast = parse_source(
            "java",
            "public class T { void m(java.util.List<Integer> xs) { use(xs); use(xs); } }",
        )
        graph = build_type_graph(ast, extractor(max_length=4, max_width=1))
        var_nodes = [n for n in graph.unknowns if n.key.startswith("var:")]
        assert len(var_nodes) == 1

    def test_gold_is_full_type(self):
        source = (
            "import com.acme.net.Connection;\n"
            "public class T { void m() { Connection c = open(); use(c); } }"
        )
        ast = parse_source("java", source)
        graph = build_type_graph(ast, extractor(max_length=4, max_width=1))
        golds = {n.gold for n in graph.unknowns}
        assert "com.acme.net.Connection" in golds

    def test_graph_has_factors(self, count_java_ast):
        graph = build_type_graph(count_java_ast, extractor(max_length=4, max_width=1))
        assert any(factors_of(graph, i).known for i in range(len(graph)))
