"""Unit tests for the baselines of Sec. 5.3."""

import pytest

from repro.api import ParsedProgram, Pipeline
from repro.baselines import (
    NAIVE_TYPE,
    build_ngram_graph,
    build_unuglify_graph,
    naive_type_predictions,
    rule_based_predictions,
    token_stream_contexts,
)
from repro.core.interning import FeatureSpace
from repro.lang.base import parse_source
from repro.tasks.variable_naming import decode_w2v_token, element_groups

from fixtures import COUNT_JAVA, FIG1_JS
from oracles.crf import factors_of


def fig1_view(fig1_ast, representation, learner="crf"):
    """The Fig. 1 program's view under a registered representation."""
    pipeline = Pipeline(
        language="javascript", representation=representation, learner=learner
    )
    program = ParsedProgram(language="javascript", source=FIG1_JS, ast=fig1_ast)
    return pipeline, pipeline.view(program)


def w2v_pairs(view):
    """(gold name, context token) pairs, as the word2vec learner fits them."""
    return [(gold, token) for gold, tokens in view.values() for token in tokens]


class TestNoPaths:
    def test_all_relations_collapse(self, fig1_ast):
        _pipeline, graph = fig1_view(fig1_ast, "no-paths")
        factors = [factors_of(graph, n.index) for n in graph.unknowns]
        rels = {graph.decode_rel(f.rel) for node in factors for f in node.known}
        rels |= {graph.decode_rel(r) for node in factors for r in node.unary}
        assert rels == {"*"}

    def test_same_elements_as_paths(self, fig1_ast):
        _pipeline, graph = fig1_view(fig1_ast, "no-paths")
        assert [n.gold for n in graph.unknowns] == ["d"]


class TestNgram:
    def test_graph_relations_are_offsets(self, count_java_ast):
        graph = build_ngram_graph(COUNT_JAVA, count_java_ast, "java", n=4)
        rels = {
            graph.decode_rel(f.rel)
            for n in graph.unknowns
            for f in factors_of(graph, n.index).known
        }
        assert rels and all(r.startswith("g") for r in rels)
        offsets = {int(r[1:]) for r in rels}
        assert offsets <= set(range(-3, 4)) - {0}

    def test_window_limits_offsets(self, count_java_ast):
        graph = build_ngram_graph(COUNT_JAVA, count_java_ast, "java", n=2)
        offsets = {
            int(graph.decode_rel(f.rel)[1:])
            for node in graph.unknowns
            for f in factors_of(graph, node.index).known
        }
        assert offsets <= {-1, 1}

    def test_unknown_edges_between_variables(self, count_java_ast):
        graph = build_ngram_graph(COUNT_JAVA, count_java_ast, "java", n=4)
        assert any(factors_of(graph, n.index).edges for n in graph.unknowns)

    def test_gold_labels_match_task(self, count_java_ast):
        graph = build_ngram_graph(COUNT_JAVA, count_java_ast, "java", n=4)
        golds = {n.gold for n in graph.unknowns}
        assert {"values", "value", "c", "r"} <= golds


class TestUnuglify:
    def test_fig3_indistinguishable(self):
        """The paper's Fig. 3: the loop and straight-line variants produce
        the same relation multiset for d under single-statement features,
        while AST paths distinguish them."""
        loop_src = """
var d = false;
while (!d) {
  doSomething2();
  if (someCondition()) {
    d = true;
  }
}
"""
        straight_src = """
someCondition();
doSomething2();
var d = false;
d = true;
"""
        space = FeatureSpace()

        def d_relations(source):
            ast = parse_source("javascript", source)
            graph = build_unuglify_graph(ast, space=space)
            node = next(n for n in graph.unknowns if n.gold == "d")
            factors = factors_of(graph, node.index)
            known = sorted((f.rel, f.label) for f in factors.known)
            unary = sorted(factors.unary)
            return known, unary

        assert d_relations(loop_src) == d_relations(straight_src)

        # AST paths DO distinguish the two programs.
        from repro.core.extraction import ExtractionConfig, PathExtractor
        from repro.tasks.variable_naming import build_crf_graph

        extractor = PathExtractor(ExtractionConfig())
        def d_paths(source):
            ast = parse_source("javascript", source)
            graph = build_crf_graph(ast, extractor)
            node = next(n for n in graph.unknowns if n.gold == "d")
            return sorted(factors_of(graph, node.index).unary)

        assert d_paths(loop_src) != d_paths(straight_src)

    def test_relations_never_cross_statements(self, fig1_ast):
        graph = build_unuglify_graph(fig1_ast)
        node = graph.unknowns[0]
        # No relation may span from the while-condition to the assignment;
        # the longest possible in-statement path here is within Assign=.
        factors = factors_of(graph, node.index)
        assert all("While" not in graph.decode_rel(f.rel) for f in factors.known)
        assert all("While" not in graph.decode_rel(r) for r in factors.unary)

    def test_in_statement_relations_exist(self, count_java_ast):
        graph = build_unuglify_graph(count_java_ast)
        assert any(any(factors_of(graph, n.index)) for n in graph.unknowns)


class TestRuleBased:
    def test_for_loop_index(self):
        source = (
            "public class T { void m(java.util.List<Integer> xs) {"
            " for (int i = 0; i < xs.size(); i++) { use(xs.get(i)); } } }"
        )
        ast = parse_source("java", source)
        predictions = rule_based_predictions(ast)
        golds = {b: occ[0].value for b, occ in element_groups(ast).items()}
        index_binding = next(b for b, g in golds.items() if g == "i")
        assert predictions[index_binding] == "i"

    def test_setter_parameter(self):
        source = (
            "public class T { private String name;"
            " public void setName(String x) { this.name = x; } }"
        )
        ast = parse_source("java", source)
        predictions = rule_based_predictions(ast)
        golds = {b: occ[0].value for b, occ in element_groups(ast).items()}
        x_binding = next(b for b, g in golds.items() if g == "x")
        assert predictions[x_binding] == "name"

    def test_catch_exception(self):
        source = (
            "public class T { void m() {"
            " try { f(); } catch (Exception ex) { g(ex); } } }"
        )
        ast = parse_source("java", source)
        predictions = rule_based_predictions(ast)
        golds = {b: occ[0].value for b, occ in element_groups(ast).items()}
        ex_binding = next(b for b, g in golds.items() if g == "ex")
        assert predictions[ex_binding] == "e"

    def test_type_derived_fallback(self):
        source = "public class T { void m(Connection conn) { use(conn); } }"
        ast = parse_source("java", source)
        predictions = rule_based_predictions(ast)
        assert "connection" in {p for p in predictions.values() if p}

    def test_primitive_fallback(self):
        source = "public class T { void m() { boolean b = true; use(b); } }"
        ast = parse_source("java", source)
        assert "flag" in set(rule_based_predictions(ast).values())


class TestW2vBaselines:
    def test_token_contexts_mask_unknowns(self, fig1_ast):
        contexts = token_stream_contexts(FIG1_JS, fig1_ast, "javascript")
        _gold, tokens = next(iter(contexts.values()))
        assert tokens
        assert all("|d" not in t for t in tokens)

    def test_token_contexts_include_keywords(self, fig1_ast):
        contexts = token_stream_contexts(FIG1_JS, fig1_ast, "javascript")
        _gold, tokens = next(iter(contexts.values()))
        assert any(t.endswith("while") for t in tokens)

    def test_token_pairs(self, fig1_ast):
        _pipeline, view = fig1_view(fig1_ast, "token-context", "word2vec")
        pairs = w2v_pairs(view)
        assert pairs and all(w == "d" for w, _ in pairs)

    # The "path-neighbours, no-paths" contexts of Table 3 are the no-paths
    # representation's contexts view.
    def test_neighbor_contexts_hide_path(self, fig1_ast):
        pipeline, contexts = fig1_view(fig1_ast, "no-paths", "word2vec")
        _gold, tokens = next(iter(contexts.values()))
        assert tokens
        decoded = [decode_w2v_token(t, pipeline.space) for t in tokens]
        assert all(t.startswith("*\x1d") for t in decoded)

    def test_neighbor_contexts_keep_ancestor_kinds(self, fig1_ast):
        pipeline, contexts = fig1_view(fig1_ast, "no-paths", "word2vec")
        _gold, tokens = next(iter(contexts.values()))
        decoded = [decode_w2v_token(t, pipeline.space) for t in tokens]
        assert any(t == "*\x1dWhile" for t in decoded)

    def test_neighbor_pairs(self, fig1_ast):
        _pipeline, view = fig1_view(fig1_ast, "no-paths", "word2vec")
        pairs = w2v_pairs(view)
        assert pairs and all(w == "d" for w, _ in pairs)


class TestNaiveType:
    def test_predicts_string_for_every_target(self, count_java_ast):
        predictions = naive_type_predictions(count_java_ast)
        assert predictions
        assert set(predictions.values()) == {NAIVE_TYPE}
