"""Unit tests for the corpus substrate: IR, templates, renderer, generator."""

import random

import pytest

from repro.corpus import deduplicate, generate_corpus, split_corpus
from repro.corpus.dedup import content_digest, is_vendored
from repro.corpus.generator import CorpusConfig, corpus_stats
from repro.corpus.ir import (
    BOOL,
    DOUBLE,
    INT,
    LIST_INT,
    LIST_STRING,
    MAP_STR_INT,
    OBJECT,
    STRING,
    VOID,
    Append,
    Assign,
    Aug,
    Bin,
    Break,
    CallFree,
    CallLocal,
    Decl,
    ExprStmt,
    FileSpec,
    ForEach,
    ForRange,
    Function,
    If,
    Incr,
    Index,
    Len,
    Lit,
    MapGet,
    MapHas,
    MapPut,
    NewCollection,
    Not,
    Return,
    StrCat,
    Throw,
    Var,
    VarSlot,
    While,
    custom_simple_name,
    custom_type,
    default_value,
    expr_type,
    is_custom,
)
from repro.corpus.render import render_expr, render_file, render_function, render_stmt
from repro.corpus.templates import (
    NAME_NOISE,
    RARE_NAME_PROB,
    TEMPLATES,
    keyed_name,
    sample_function,
)
from repro.lang.base import parse_source


class TestIr:
    def test_expr_type_basics(self):
        v = VarSlot("x", INT)
        assert expr_type(Var(v)) == INT
        assert expr_type(Lit("a", STRING)) == STRING
        assert expr_type(Bin("==", Var(v), Lit(1, INT))) == BOOL
        assert expr_type(Bin("+", Var(v), Lit(1, INT))) == INT
        assert expr_type(Len(Var(VarSlot("xs", LIST_INT)))) == INT
        assert expr_type(StrCat(Lit("a", STRING), Lit("b", STRING))) == STRING
        assert expr_type(NewCollection(LIST_INT)) == LIST_INT

    def test_custom_type_helpers(self):
        tag = custom_type("Connection")
        assert is_custom(tag)
        assert custom_simple_name(tag) == "Connection"
        assert not is_custom(INT)
        with pytest.raises(ValueError):
            custom_simple_name(INT)

    def test_default_values_typecheck(self):
        for tag in (INT, BOOL, STRING, LIST_INT):
            value = default_value(tag)
            assert expr_type(value) == tag or tag == BOOL

    def test_function_name_styles(self):
        fn = Function(("count", "items"), [], [])
        assert fn.camel_name() == "countItems"
        assert fn.pascal_name() == "CountItems"
        assert fn.snake_name() == "count_items"


class TestKeyedNaming:
    def test_keyed_choice_is_structural(self):
        """With noise off (rng never rolls low), the key decides the name."""
        pool = ("a", "b", "c", "d")
        rng = random.Random(1)
        picks = set()
        for _ in range(50):
            # Use a key of 2 every time; noise applies sometimes.
            picks.add(keyed_name(rng, pool, 2))
        assert "c" in picks  # the keyed choice dominates

    def test_noise_floor_exists(self):
        pool = ("a", "b", "c", "d")
        rng = random.Random(7)
        picks = [keyed_name(rng, pool, 0) for _ in range(600)]
        keyed_fraction = picks.count("a") / len(picks)
        assert keyed_fraction > 0.7
        assert keyed_fraction < 1.0  # some noise

    def test_rare_names_occur(self):
        from repro.corpus.templates import RARE_NAMES

        rng = random.Random(11)
        picks = [keyed_name(rng, ("a",), 0) for _ in range(2000)]
        assert any(p in RARE_NAMES for p in picks)


class TestTemplates:
    def test_all_templates_build(self):
        rng = random.Random(5)
        for name, builder, _weight in TEMPLATES:
            for _ in range(5):
                fn = builder(rng)
                assert fn.template == name
                assert fn.body
                assert fn.name_subtokens

    def test_sampling_uses_weights(self):
        rng = random.Random(9)
        seen = {sample_function(rng).template for _ in range(200)}
        assert len(seen) >= 10  # most templates appear

    def test_fig3_pair_shares_identifier_bag(self):
        """flag_loop and straightline_flag bodies use the same value set
        modulo the flag name pools (the paper's Fig. 3 construction)."""
        from repro.corpus.templates import t_flag_loop, t_straightline_flag
        rng = random.Random(2)
        loop_src = render_function(t_flag_loop(rng), "javascript")
        straight_src = render_function(t_straightline_flag(rng), "javascript")
        for token in ("false", "true"):
            assert token in loop_src and token in straight_src


def _golden_spec() -> FileSpec:
    """A file that uses every IR expression and statement kind."""
    n = VarSlot("n", INT, "param")
    words = VarSlot("words", LIST_STRING, "param")
    counts = VarSlot("counts", MAP_STR_INT, "param")
    conn = VarSlot("conn", custom_type("Connection"), "param")
    ids = VarSlot("ids", LIST_INT)
    total = VarSlot("total", INT)
    ratio = VarSlot("ratio", DOUBLE)
    label = VarSlot("label", STRING)
    done = VarSlot("done", BOOL)
    i = VarSlot("i", INT)
    word = VarSlot("word", STRING)
    tally = Function(
        ("tally", "words"),
        [n, words, counts, conn],
        [
            Decl(ids, NewCollection(LIST_INT)),
            Decl(total, Lit(0, INT)),
            Decl(ratio, Lit(2.5, DOUBLE)),
            Decl(label),
            Decl(done, Lit(False, BOOL)),
            Assign(Var(label), StrCat(Lit("n=", STRING), Var(label))),
            Aug(Var(total), "+", Bin("*", Var(n), Lit(2, INT))),
            Incr(Var(total)),
            If(
                Bin(
                    "&&",
                    Not(Var(done)),
                    Bin("||", Bin("<", Var(total), Len(Var(words))), Lit(True, BOOL)),
                ),
                [],
            ),
            If(MapHas(Var(counts), Lit("a", STRING)), [Break()], [Assign(Var(done), Lit(True, BOOL))]),
            While(Bin("==", Var(conn), Lit(None, OBJECT)), []),
            ForRange(i, Len(Var(ids)), [Append(Var(ids), Index(Var(ids), Var(i)))]),
            ForEach(
                word,
                Var(words),
                [
                    If(
                        Bin(">", Len(Var(word)), MapGet(Var(counts), Var(word))),
                        [MapPut(Var(counts), Var(word), Len(Var(word)))],
                    )
                ],
            ),
            ExprStmt(CallFree("logValue", [Var(total), Var(ratio)], VOID)),
            Decl(VarSlot("names", LIST_STRING), NewCollection(LIST_STRING)),
            Decl(VarSlot("seen", MAP_STR_INT), NewCollection(MAP_STR_INT)),
            If(Bin("<", Var(n), Lit(0, INT)), [Throw("negative n")]),
            Return(Var(total)),
        ],
        INT,
    )
    args = [Lit(0, INT), NewCollection(LIST_STRING), NewCollection(MAP_STR_INT), Lit(None, OBJECT)]
    caller = Function(
        ("run", "tally", "0"),
        [],
        [
            # Java imports a free call's return type.
            ExprStmt(CallFree("openSession", [], custom_type("Session"))),
            ExprStmt(CallLocal(("tally", "words"), args, INT)),
            Return(),
        ],
        VOID,
    )
    empty = Function(("noop",), [], [], VOID)
    return FileSpec(project="acme", module="word_utils", functions=[tally, caller, empty])


#: The golden spec's rendering in each language.
_GOLDEN = {
    "javascript": """\
function tallyWords(n, words, counts, conn) {
  var ids = [];
  var total = 0;
  var ratio = 2.5;
  var label;
  var done = false;
  label = ("n=" + label);
  total += (n * 2);
  total++;
  if ((!done && ((total < words.length) || true))) {
  }
  if (counts.hasOwnProperty("a")) {
    break;
  } else {
    done = true;
  }
  while ((conn == null)) {
  }
  for (var i = 0; i < ids.length; i++) {
    ids.push(ids[i]);
  }
  for (var word of words) {
    if ((word.length > counts[word])) {
      counts[word] = word.length;
    }
  }
  logValue(total, ratio);
  var names = [];
  var seen = {};
  if ((n < 0)) {
    throw new Error("negative n");
  }
  return total;
}

function runTally0() {
  openSession();
  tallyWords(0, [], {}, null);
  return;
}

function noop() {
}
""",
    "java": """\
package com.acme.app;

import com.acme.net.Connection;
import com.acme.net.Session;
import java.util.ArrayList;
import java.util.HashMap;
import java.util.List;
import java.util.Map;

public class WordUtils {

    public int tallyWords(int n, List<String> words, Map<String, Integer> counts, Connection conn) {
        List<Integer> ids = new ArrayList<Integer>();
        int total = 0;
        double ratio = 2.5;
        String label;
        boolean done = false;
        label = ("n=" + label);
        total += (n * 2);
        total++;
        if ((!done && ((total < words.size()) || true))) {
        }
        if (counts.containsKey("a")) {
            break;
        } else {
            done = true;
        }
        while ((conn == null)) {
        }
        for (int i = 0; i < ids.size(); i++) {
            ids.add(ids.get(i));
        }
        for (String word : words) {
            if ((word.length() > counts.get(word))) {
                counts.put(word, word.length());
            }
        }
        logValue(total, ratio);
        List<String> names = new ArrayList<String>();
        Map<String, Integer> seen = new HashMap<String, Integer>();
        if ((n < 0)) {
            throw new IllegalArgumentException("negative n");
        }
        return total;
    }

    public void runTally0() {
        openSession();
        tallyWords(0, new ArrayList<String>(), new HashMap<String, Integer>(), null);
        return;
    }

    public void noop() {
    }

}
""",
    "python": """\
def tally_words(n, words, counts, conn):
    ids = []
    total = 0
    ratio = 2.5
    label = None
    done = False
    label = ("n=" + label)
    total += (n * 2)
    total += 1
    if (not done and ((total < len(words)) or True)):
        pass
    if ("a" in counts):
        break
    else:
        done = True
    while (conn == None):
        pass
    for i in range(len(ids)):
        ids.append(ids[i])
    for word in words:
        if (len(word) > counts[word]):
            counts[word] = len(word)
    logValue(total, ratio)
    names = []
    seen = {}
    if (n < 0):
        raise ValueError("negative n")
    return total


def run_tally_0():
    openSession()
    tally_words(0, [], {}, None)
    return


def noop():
    pass
""",
    "csharp": """\
using System;
using System.Collections.Generic;

namespace Acme.App {
    public class WordUtils {

        public int TallyWords(int n, List<string> words, Dictionary<string, int> counts, Connection conn) {
            List<int> ids = new List<int>();
            int total = 0;
            double ratio = 2.5;
            string label;
            bool done = false;
            label = ("n=" + label);
            total += (n * 2);
            total++;
            if ((!done && ((total < words.Count) || true))) {
            }
            if (counts.ContainsKey("a")) {
                break;
            } else {
                done = true;
            }
            while ((conn == null)) {
            }
            for (int i = 0; i < ids.Count; i++) {
                ids.Add(ids[i]);
            }
            foreach (string word in words) {
                if ((word.Length > counts[word])) {
                    counts[word] = word.Length;
                }
            }
            Helpers.LogValue(total, ratio);
            List<string> names = new List<string>();
            Dictionary<string, int> seen = new Dictionary<string, int>();
            if ((n < 0)) {
                throw new ArgumentException("negative n");
            }
            return total;
        }

        public void RunTally0() {
            Helpers.OpenSession();
            TallyWords(0, new List<string>(), new Dictionary<string, int>(), null);
            return;
        }

        public void Noop() {
        }

    }
}
""",
}


class TestRender:
    @pytest.mark.parametrize("language", sorted(_GOLDEN))
    def test_golden_file(self, language):
        assert render_file(_golden_spec(), language) == _GOLDEN[language]

    @pytest.mark.parametrize("language", sorted(_GOLDEN))
    def test_golden_file_parses(self, language):
        assert parse_source(language, _GOLDEN[language]).size() > 100

    def test_statement_keeps_its_depth(self):
        loop = While(Var(VarSlot("busy", BOOL)), [])
        assert render_stmt(loop, "python", depth=2) == [
            "        while busy:",
            "            pass",
        ]
        assert render_stmt(loop, "javascript", depth=1) == ["  while (busy) {", "  }"]

    @pytest.mark.parametrize("language", sorted(_GOLDEN))
    def test_exponent_double_gets_no_suffix(self, language):
        assert render_expr(Lit(1e-05, DOUBLE), language) == "1e-05"
        assert render_expr(Lit(3, DOUBLE), language) == "3.0"


@pytest.mark.parametrize("language", ["javascript", "java", "python", "csharp"])
class TestRenderersRoundTrip:
    def test_rendered_files_parse(self, language):
        files = generate_corpus(
            CorpusConfig(language=language, n_projects=3, files_per_project=(3, 5), seed=21)
        )
        kept, _ = deduplicate(files)
        assert kept
        for file in kept:
            ast = parse_source(language, file.source)
            assert ast.size() > 5

    def test_renameable_elements_exist(self, language):
        files = generate_corpus(
            CorpusConfig(language=language, n_projects=2, files_per_project=(3, 4), seed=22)
        )
        kept, _ = deduplicate(files)
        from repro.tasks.variable_naming import element_groups

        total = sum(len(element_groups(parse_source(language, f.source))) for f in kept)
        assert total > 10


class TestGenerator:
    def test_deterministic_under_seed(self):
        a = generate_corpus(CorpusConfig(n_projects=3, seed=13))
        b = generate_corpus(CorpusConfig(n_projects=3, seed=13))
        assert [f.source for f in a] == [f.source for f in b]

    def test_different_seeds_differ(self):
        a = generate_corpus(CorpusConfig(n_projects=3, seed=13))
        b = generate_corpus(CorpusConfig(n_projects=3, seed=14))
        assert [f.source for f in a] != [f.source for f in b]

    def test_duplicates_injected(self):
        files = generate_corpus(
            CorpusConfig(n_projects=8, duplicate_prob=0.3, seed=15)
        )
        assert any(f.is_duplicate for f in files)

    def test_stats(self):
        files = generate_corpus(CorpusConfig(n_projects=3, seed=16))
        stats = corpus_stats(files)
        assert stats["files"] == len(files)
        assert stats["projects"] == 3
        assert stats["bytes"] > 0

    def test_unknown_language_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(CorpusConfig(language="cobol"))


class TestDedup:
    def test_vendored_paths(self):
        assert is_vendored("p/node_modules/x.js")
        assert is_vendored("p/vendor/y.py")
        assert not is_vendored("p/src/z.java")

    def test_digest_stability(self):
        assert content_digest("abc") == content_digest("abc")
        assert content_digest("abc") != content_digest("abd")

    def test_removes_injected_duplicates(self):
        files = generate_corpus(
            CorpusConfig(n_projects=8, duplicate_prob=0.3, seed=17)
        )
        kept, removed = deduplicate(files)
        assert removed == sum(1 for f in files if f.is_duplicate)
        assert all(not f.is_duplicate for f in kept)

    def test_md5_filter_catches_renamed_copies(self):
        from repro.corpus.generator import CorpusFile

        a = CorpusFile("p", "p/src/a.js", "var x = 1;", "javascript")
        b = CorpusFile("p", "p/src/b.js", "var x = 1;", "javascript")
        kept, removed = deduplicate([a, b])
        assert len(kept) == 1 and removed == 1


class TestSplits:
    def test_partition_is_complete_and_disjoint(self):
        files = generate_corpus(CorpusConfig(n_projects=6, seed=19))
        kept, _ = deduplicate(files)
        split = split_corpus(kept, seed=1)
        all_paths = [f.path for f in split.train + split.validation + split.test]
        assert sorted(all_paths) == sorted(f.path for f in kept)
        assert len(set(all_paths)) == len(all_paths)

    def test_fractions_respected(self):
        files = generate_corpus(CorpusConfig(n_projects=10, seed=20))
        kept, _ = deduplicate(files)
        split = split_corpus(kept, train_fraction=0.6, validation_fraction=0.2, seed=2)
        n = len(kept)
        assert abs(len(split.train) - 0.6 * n) <= 2

    def test_by_project_no_leakage(self):
        files = generate_corpus(CorpusConfig(n_projects=8, seed=25))
        kept, _ = deduplicate(files)
        split = split_corpus(kept, by_project=True, seed=3)
        train_projects = {f.project for f in split.train}
        test_projects = {f.project for f in split.test}
        assert not (train_projects & test_projects)

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            split_corpus([], train_fraction=0.9, validation_fraction=0.2)
        with pytest.raises(ValueError):
            split_corpus([], train_fraction=1.5)
