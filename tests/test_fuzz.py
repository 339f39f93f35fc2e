"""Hostile-input contract of the C-family parsers (JavaScript, Java, C#).

Whatever the bytes, a parser either returns a tree or raises
:class:`ParseError`; any other exception would surface as a 500 where the
caller's input deserves a 400.  Two probes hold it to that:

* a nested-parenthesis depth ladder, which real code reaches and which
  used to exhaust the Python stack through one frame per precedence
  level;
* a flat operator chain of 1000 operands (a long string concatenation),
  whose left-deep tree used to exhaust the stack in the recursive walks
  that run after parsing (JavaScript scopes, Java types);
* seeded mutants of generated files: every prefix, 1-7 character
  deletions and single punctuation insertions.

A third probe bounds the work: a JavaScript for-header is parsed once, so
nested headers cost linear, not exponential, time.
"""

import random

import pytest

from repro.api import Pipeline
from repro.corpus.generator import generate_corpus
from repro.lang.base import ParseError, parse_source
from repro.lang.javascript.parser import _JsParser

#: A statement wrapper per language; ``{}`` is the expression.
_EXPRESSION_HOLDERS = {
    "javascript": "x = {};",
    "java": "class A {{ void f() {{ x = {}; }} }}",
    "csharp": "class A {{ void F() {{ x = {}; }} }}",
}
_LANGUAGES = tuple(_EXPRESSION_HOLDERS)
_PUNCTUATION = "(){}[];,.<>=+-*/%!?:&|^~"


def _mutants(source, rng, count):
    """Every prefix, then ``count`` deletions and ``count`` insertions."""
    yield from (source[:end] for end in range(len(source)))
    for _ in range(count):
        start = rng.randrange(len(source))
        yield source[:start] + source[start + rng.randint(1, 7) :]
    for _ in range(count):
        at = rng.randrange(len(source) + 1)
        yield source[:at] + rng.choice(_PUNCTUATION) + source[at:]


@pytest.mark.parametrize("language", _LANGUAGES)
def test_nested_parentheses_depth_100_parse(language):
    depth = 100
    source = _EXPRESSION_HOLDERS[language].format("(" * depth + "a" + ")" * depth)
    ast = parse_source(language, source)
    assert [leaf.value for leaf in ast.root.leaves()].count("a") == 1


@pytest.mark.parametrize("language", _LANGUAGES)
def test_operator_chain_of_1000_operands_parses(language):
    operands = 1000
    source = _EXPRESSION_HOLDERS[language].format(" + ".join(["a"] * operands))
    ast = parse_source(language, source)
    assert [leaf.value for leaf in ast.root.leaves()].count("a") == operands


def test_operator_chain_of_1000_operands_predicts():
    files = generate_corpus(language="javascript", n_projects=1, seed=3)
    pipeline = Pipeline(language="javascript", training={"epochs": 1})
    pipeline.train([f.source for f in files])
    chain = " + ".join(["part"] * 1000)
    source = f"function join(part) {{ var text = {chain}; return text; }}"
    assert set(pipeline.predict(source)) >= {"s2:part", "s2:text"}


@pytest.mark.parametrize("language", _LANGUAGES)
def test_mutants_parse_or_raise_parse_error(language):
    rng = random.Random(f"fuzz-{language}")
    files = generate_corpus(language=language, n_projects=1, seed=3)
    source = min((f.source for f in files), key=len)
    parsed = refused = 0
    for mutant in _mutants(source, rng, count=300):
        try:
            parse_source(language, mutant)
        except ParseError:
            refused += 1
        else:
            parsed += 1
    # Both outcomes occur: the probe is neither all-garbage nor all-valid.
    assert parsed > 0 and refused > 0


@pytest.mark.parametrize(
    "template",
    ["for (function(){ %s };;);", "for ((function(){ %s })();;);"],
    ids=["function", "iife"],
)
def test_nested_for_headers_are_parsed_once(template, monkeypatch):
    # Each header's init holds a function whose body is the next loop: a
    # header parsed twice would parse the innermost function 2**25 times.
    depth = 25
    source = ";"
    for _ in range(depth):
        source = template % source
    calls = []
    parse_function = _JsParser.parse_function

    def counted(self, declaration):
        calls.append(declaration)
        if len(calls) > depth:
            raise AssertionError("a for-header was parsed more than once")
        return parse_function(self, declaration)

    monkeypatch.setattr(_JsParser, "parse_function", counted)
    ast = parse_source("javascript", source)
    assert len(calls) == depth
    assert sum(1 for node in ast.root.walk() if node.kind == "For") == depth
