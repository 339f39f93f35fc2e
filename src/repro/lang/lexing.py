"""Shared hand-written lexer infrastructure.

The JavaScript, Java and C# frontends all tokenise with :class:`Lexer`,
parameterised by a keyword set and an operator table, and parse the
tokens with the shared core in :mod:`repro.lang.cfamily`.  The Python
frontend parses with the stdlib parser instead, but the token-stream
baselines (:mod:`repro.baselines.ngram_crf`,
:mod:`repro.baselines.token_context`) lex Python source with
:class:`Lexer` too, in its Python mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence

from .base import ParseError

# Token categories.
IDENT = "ident"
KEYWORD = "keyword"
NUMBER = "number"
STRING = "string"
CHAR = "char"
OP = "op"
EOF = "eof"


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (1-based)."""

    kind: str
    text: str
    line: int
    column: int

    def is_op(self, *texts: str) -> bool:
        return self.kind == OP and self.text in texts

    def is_keyword(self, *texts: str) -> bool:
        return self.kind == KEYWORD and self.text in texts

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


# Multi-character operators, longest first so maximal munch works.  This is
# the union over the three languages; each language simply never emits some
# of them.
_OPERATORS: Sequence[str] = (
    ">>>=",
    "...",
    ">>>",
    "===",
    "!==",
    "<<=",
    ">>=",
    "//=",
    "=>",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "??",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "<<",
    ">>",
    "::",
    "->",
    "//",
    "?.",
    "+",
    "-",
    "*",
    "/",
    "%",
    "=",
    "<",
    ">",
    "!",
    "~",
    "&",
    "|",
    "^",
    "?",
    ":",
    ";",
    ",",
    ".",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "@",
)


def _is_fstring(src: str, quote_at: int) -> bool:
    """Whether the string opening at ``quote_at`` has an ``f`` prefix."""
    start = quote_at
    while start > 0 and src[start - 1].isalpha():
        start -= 1
    return src[start:quote_at].lower() in ("f", "rf", "fr")


def _string_end(src: str, i: int, closing: str, fmt: bool) -> int:
    """Where the string body starting at ``i`` meets ``closing``; -1 if never.

    A backslash escapes the next character, and a single-quoted body
    ends at a newline (unterminated).  In an f-string (``fmt``) ``{{``
    is a literal brace and ``{`` opens a replacement field.
    """
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\\":
            i += 2
        elif c == closing[0] and src.startswith(closing, i):
            return i
        elif c == "\n" and len(closing) == 1:
            return -1
        elif fmt and c == "{":
            i = i + 2 if src.startswith("{{", i) else _field_end(src, i + 1)
            if i < 0:
                return -1
        else:
            i += 1
    return -1


def _field_end(src: str, i: int) -> int:
    """Index just past the ``}`` closing the replacement field at ``i``; -1 if none.

    Brackets nest and a quote opens a nested string (maybe an f-string).
    A ``:`` outside brackets starts the format spec: literal text up to
    the closing ``}``, where a ``{`` opens a nested field.
    """
    n = len(src)
    depth = 0
    while 0 <= i < n:
        c = src[i]
        if c in "\"'":
            width = 3 if src.startswith(c * 3, i) else 1
            end = _string_end(src, i + width, c * width, _is_fstring(src, i))
            i = end + width if end >= 0 else -1
        elif c == "}" and not depth:
            return i + 1
        elif c == ":" and not depth:
            i += 1
            while 0 <= i < n and src[i] != "}":
                i = _field_end(src, i + 1) if src[i] == "{" else i + 1
        else:
            depth += (c in "([{") - (c in ")]}")
            i += 1
    return -1


class Lexer:
    """A maximal-munch lexer for C-family syntax.

    Supports ``//`` and ``/* */`` comments, single/double-quoted strings
    with escapes, decimal/hex/float numbers, identifiers (with ``$`` and
    ``_``), and the shared operator table.

    With ``language="python"`` comments start with ``#`` instead, ``//``
    is the floor-division operator, triple-quoted strings may span
    lines, and a backslash at the end of a line joins it to the next.
    Indentation is not tokenised: the token-stream baselines only need
    local context windows.  A string prefix (``r``, ``b``, ``f``) lexes
    as an identifier before its string.  An f-string is one string
    token: its ``{...}`` replacement fields are skipped whole, nested
    strings (even in the f-string's own quote, legal from Python 3.12)
    and format specs included, while ``{{`` is a literal brace.
    """

    def __init__(self, source: str, keywords: FrozenSet[str], language: str) -> None:
        self.source = source
        self.keywords = keywords
        self.language = language

    def tokenize(self) -> List[Token]:
        src = self.source
        n = len(src)
        i = 0
        line = 1
        col = 1
        tokens: List[Token] = []

        def error(message: str) -> ParseError:
            return ParseError(f"[{self.language}] {message}", line, col)

        python = self.language == "python"
        csharp = self.language == "csharp"

        while i < n:
            ch = src[i]
            # -- whitespace ------------------------------------------------
            if ch in " \t\r":
                i += 1
                col += 1
                continue
            if ch == "\n":
                i += 1
                line += 1
                col = 1
                continue
            # -- comments --------------------------------------------------
            if python:
                if ch == "#":
                    while i < n and src[i] != "\n":
                        i += 1
                    continue
                if ch == "\\" and i + 1 < n and src[i + 1] == "\n":
                    i += 2
                    line += 1
                    col = 1
                    continue
            elif ch == "/" and i + 1 < n and src[i + 1] == "/":
                while i < n and src[i] != "\n":
                    i += 1
                continue
            elif ch == "/" and i + 1 < n and src[i + 1] == "*":
                i += 2
                col += 2
                while i + 1 < n and not (src[i] == "*" and src[i + 1] == "/"):
                    if src[i] == "\n":
                        line += 1
                        col = 1
                    else:
                        col += 1
                    i += 1
                if i + 1 >= n:
                    raise error("unterminated block comment")
                i += 2
                col += 2
                continue
            # -- strings ---------------------------------------------------
            # A C# interpolated string ``$"x{a}"`` is one string token.
            interpolated = ch == "$" and csharp and src.startswith('$"', i)
            if ch in "\"'" or interpolated:
                quote = src[i + interpolated]
                width = 3 if python and src.startswith(quote * 3, i) else 1
                body = i + interpolated + width
                fmt = interpolated or (python and _is_fstring(src, i))
                j = _string_end(src, body, quote * width, fmt)
                if j < 0:
                    raise error("unterminated string literal")
                kind = CHAR if quote == "'" and self.language in ("java", "csharp") else STRING
                tokens.append(Token(kind, src[body:j], line, col))
                end = j + width
                newlines = src.count("\n", i, end)
                if newlines:
                    line += newlines
                    col = end - src.rfind("\n", i, end)
                else:
                    col += end - i
                i = end
                continue
            # -- numbers ---------------------------------------------------
            if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
                start = i
                start_line, start_col = line, col
                if ch == "0" and i + 1 < n and src[i + 1] in "xX":
                    i += 2
                    while i < n and (src[i].isdigit() or src[i] in "abcdefABCDEF"):
                        i += 1
                else:
                    seen_dot = False
                    while i < n and (src[i].isdigit() or (src[i] == "." and not seen_dot)):
                        if src[i] == ".":
                            # Don't consume '.' if it starts a method call
                            # like ``1..toString`` or a range; one dot max.
                            if i + 1 < n and not src[i + 1].isdigit():
                                break
                            seen_dot = True
                        i += 1
                    # Exponent part.
                    if i < n and src[i] in "eE":
                        j = i + 1
                        if j < n and src[j] in "+-":
                            j += 1
                        if j < n and src[j].isdigit():
                            i = j
                            while i < n and src[i].isdigit():
                                i += 1
                # Numeric suffixes (Java/C#: L, f, d, m; JS has none).
                while i < n and src[i] in "lLfFdDmM":
                    i += 1
                text = src[start:i]
                col += i - start
                tokens.append(Token(NUMBER, text, start_line, start_col))
                continue
            # -- identifiers / keywords -------------------------------------
            if ch.isalpha() or ch in "_$":
                start = i
                start_line, start_col = line, col
                while i < n and (src[i].isalnum() or src[i] in "_$"):
                    i += 1
                text = src[start:i]
                col += i - start
                kind = KEYWORD if text in self.keywords else IDENT
                tokens.append(Token(kind, text, start_line, start_col))
                continue
            # -- operators ---------------------------------------------------
            matched = False
            for op in _OPERATORS:
                if src.startswith(op, i):
                    tokens.append(Token(OP, op, line, col))
                    i += len(op)
                    col += len(op)
                    matched = True
                    break
            if matched:
                continue
            raise error(f"unexpected character {ch!r}")

        tokens.append(Token(EOF, "", line, col))
        return tokens


class TokenStream:
    """Cursor over a token list with the usual parser conveniences."""

    def __init__(self, tokens: List[Token], language: str) -> None:
        self.tokens = tokens
        self.pos = 0
        self.language = language

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def at_end(self) -> bool:
        return self.current.kind == EOF

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def match_op(self, *texts: str) -> bool:
        if self.current.is_op(*texts):
            self.advance()
            return True
        return False

    def match_keyword(self, *texts: str) -> bool:
        if self.current.is_keyword(*texts):
            self.advance()
            return True
        return False

    def expect_op(self, text: str) -> Token:
        tok = self.current
        if not tok.is_op(text):
            raise self.error(f"expected {text!r}, found {tok}")
        return self.advance()

    def expect_keyword(self, text: str) -> Token:
        tok = self.current
        if not tok.is_keyword(text):
            raise self.error(f"expected keyword {text!r}, found {tok}")
        return self.advance()

    def expect_ident(self) -> Token:
        tok = self.current
        if tok.kind != IDENT:
            raise self.error(f"expected identifier, found {tok}")
        return self.advance()

    def error(self, message: str) -> ParseError:
        tok = self.current
        return ParseError(f"[{self.language}] {message}", tok.line, tok.column)
