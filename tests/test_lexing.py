"""Unit tests for the shared lexer: C-family syntax and its Python mode."""

import io
import os
import sysconfig
import tokenize

import pytest

from repro.lang.base import ParseError
from repro.lang.lexing import (
    CHAR,
    EOF,
    IDENT,
    KEYWORD,
    NUMBER,
    OP,
    STRING,
    Lexer,
    Token,
    TokenStream,
)

from fixtures import STDLIB_MODULES

KW = frozenset({"if", "while", "return", "true"})


def lex(source, language="javascript"):
    return Lexer(source, KW, language).tokenize()


class TestTokens:
    def test_identifiers_and_keywords(self):
        tokens = lex("if foo $bar _baz qux1")
        kinds = [(t.kind, t.text) for t in tokens[:-1]]
        assert kinds == [
            (KEYWORD, "if"),
            (IDENT, "foo"),
            (IDENT, "$bar"),
            (IDENT, "_baz"),
            (IDENT, "qux1"),
        ]

    def test_eof_sentinel(self):
        tokens = lex("")
        assert len(tokens) == 1 and tokens[0].kind == EOF

    def test_numbers(self):
        tokens = lex("0 42 3.14 0xFF 1e9 2.5e-3 10L 1.5f")
        texts = [t.text for t in tokens if t.kind == NUMBER]
        assert texts == ["0", "42", "3.14", "0xFF", "1e9", "2.5e-3", "10L", "1.5f"]

    def test_number_then_dot_call(self):
        tokens = lex("1.foo")
        assert tokens[0].kind == NUMBER and tokens[0].text == "1"
        assert tokens[1].is_op(".")

    def test_strings(self):
        tokens = lex('"hello" "a\\"b"')
        texts = [t.text for t in tokens if t.kind == STRING]
        assert texts == ["hello", 'a\\"b']

    def test_char_literals_in_java(self):
        tokens = Lexer("'x'", frozenset(), "java").tokenize()
        assert tokens[0].kind == CHAR and tokens[0].text == "x"

    def test_single_quote_string_in_js(self):
        tokens = lex("'hello'")
        assert tokens[0].kind == STRING

    def test_maximal_munch_operators(self):
        tokens = lex("=== == = <= < ++ +")
        texts = [t.text for t in tokens if t.kind == OP]
        assert texts == ["===", "==", "=", "<=", "<", "++", "+"]

    def test_positions(self):
        tokens = lex("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)


class TestComments:
    def test_line_comment(self):
        tokens = lex("a // comment\nb")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_block_comment(self):
        tokens = lex("a /* multi\nline */ b")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(ParseError):
            lex("a /* nope")


class TestPythonMode:
    def test_hash_comment(self):
        tokens = lex("x = 1  # not // a token\ny", "python")
        assert [t.text for t in tokens[:-1]] == ["x", "=", "1", "y"]
        assert tokens[-2].line == 2

    def test_floor_division_is_an_operator(self):
        tokens = lex("a // b\na //= 2", "python")
        assert [(t.kind, t.text) for t in tokens[:-1]] == [
            (IDENT, "a"), (OP, "//"), (IDENT, "b"), (IDENT, "a"), (OP, "//="), (NUMBER, "2"),
        ]

    def test_slashes_still_comment_in_c_family(self):
        assert [t.text for t in lex("a // b\nc")[:-1]] == ["a", "c"]
        with pytest.raises(ParseError):
            lex("# x")

    def test_triple_quoted_strings_span_lines(self):
        source = 'x = """one\n\\"""two\n"""\ny = \'\'\'it\'s\'\'\''
        tokens = lex(source, "python")
        assert [(t.kind, t.text) for t in tokens[:-1]] == [
            (IDENT, "x"), (OP, "="), (STRING, 'one\n\\"""two\n'),
            (IDENT, "y"), (OP, "="), (STRING, "it's"),
        ]
        assert (tokens[3].line, tokens[3].column) == (4, 1)
        assert (tokens[4].line, tokens[4].column) == (4, 3)

    def test_unterminated_triple_quoted_string(self):
        with pytest.raises(ParseError):
            lex('x = """never closed', "python")

    def test_backslash_joins_lines(self):
        tokens = lex("x = 1 + \\\n    2", "python")
        assert [t.text for t in tokens[:-1]] == ["x", "=", "1", "+", "2"]
        assert tokens[-2].line == 2

    def test_fstring_nesting_its_own_quote_is_one_string(self):
        tokens = lex("y = f'{d['k']}!'", "python")
        assert [(t.kind, t.text) for t in tokens[:-1]] == [
            (IDENT, "y"), (OP, "="), (IDENT, "f"), (STRING, "{d['k']}!"),
        ]

    def test_fstring_fields_format_specs_and_doubled_braces(self):
        source = "a = F\"{{lit}} {x:{w}.{p}} {y!r:>{n}}\" + rf'{z}\\d' + f'}}'"
        tokens = lex(source, "python")
        assert [(t.kind, t.text) for t in tokens[:-1]] == [
            (IDENT, "a"), (OP, "="), (IDENT, "F"),
            (STRING, "{{lit}} {x:{w}.{p}} {y!r:>{n}}"), (OP, "+"),
            (IDENT, "rf"), (STRING, "{z}\\d"), (OP, "+"), (IDENT, "f"), (STRING, "}}"),
        ]

    def test_fstring_nested_fstring_and_multiline_field(self):
        source = "s = f'{f\"{a['b']}\"}' + f'''{\n  c}'''\nt"
        tokens = lex(source, "python")
        assert [(t.kind, t.text) for t in tokens[:-1]] == [
            (IDENT, "s"), (OP, "="), (IDENT, "f"), (STRING, "{f\"{a['b']}\"}"),
            (OP, "+"), (IDENT, "f"), (STRING, "{\n  c}"), (IDENT, "t"),
        ]
        assert (tokens[-2].line, tokens[-2].column) == (3, 1)

    def test_braces_only_matter_after_an_f_prefix(self):
        tokens = lex("x = '{' + b'{' + elf'}'", "python")
        assert [t.text for t in tokens if t.kind == STRING] == ["{", "{", "}"]

    def test_unterminated_fstring_field(self):
        with pytest.raises(ParseError):
            lex("x = f'{a['", "python")
        with pytest.raises(ParseError):
            lex("x = f'{a}\nb'", "python")

    def test_pinned_stdlib_modules_lex(self):
        """Every pinned fixture module lexes, with stdlib tokenize's strings."""
        from repro.baselines.ngram_crf import _tokenize

        root = sysconfig.get_paths()["stdlib"]
        lexed = 0
        for module in STDLIB_MODULES:
            path = os.path.join(root, module + ".py")
            if not os.path.exists(path):
                continue
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            strings = sum(1 for t in _tokenize(source, "python") if t.kind == STRING)
            assert strings == _outer_string_count(source), module
            lexed += 1
        assert lexed >= 10


def _outer_string_count(source):
    """String literals per stdlib ``tokenize``; from Python 3.12 an
    f-string is a run of tokens, counted once at its outermost level."""
    fstring_start = getattr(tokenize, "FSTRING_START", None)
    fstring_end = getattr(tokenize, "FSTRING_END", None)
    depth = count = 0
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == fstring_start:
            count += depth == 0
            depth += 1
        elif token.type == fstring_end:
            depth -= 1
        elif token.type == tokenize.STRING:
            count += depth == 0
    return count


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            lex('"unclosed')

    def test_newline_in_string(self):
        with pytest.raises(ParseError):
            lex('"a\nb"')

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            lex("a # b")


class TestTokenStream:
    def make(self, source):
        return TokenStream(lex(source), "javascript")

    def test_advance_and_peek(self):
        ts = self.make("a b c")
        assert ts.current.text == "a"
        assert ts.peek().text == "b"
        assert ts.advance().text == "a"
        assert ts.current.text == "b"

    def test_advance_stops_at_eof(self):
        ts = self.make("a")
        ts.advance()
        assert ts.at_end()
        ts.advance()
        assert ts.at_end()

    def test_match_and_expect(self):
        ts = self.make("( foo )")
        assert ts.match_op("(")
        token = ts.expect_ident()
        assert token.text == "foo"
        assert ts.expect_op(")").text == ")"

    def test_expect_failures(self):
        ts = self.make("foo")
        with pytest.raises(ParseError):
            ts.expect_op(";")
        with pytest.raises(ParseError):
            ts.expect_keyword("while")

    def test_match_keyword(self):
        ts = self.make("while x")
        assert ts.match_keyword("while")
        assert not ts.match_keyword("if")
