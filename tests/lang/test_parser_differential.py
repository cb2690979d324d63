"""The precedence-climbing parser against the descent it replaced.

``repro.lang.parser`` reads binary operators by precedence climbing;
the frozen nine-level recursive descent in ``_reference_parser.py`` is
the oracle.  A download is untrusted text, so "equal" is strict: the
same AST — every node, field and ``SourcePos`` — or a ``ParseError``
(or ``LexError``) with the same message at the same position.  That
includes the nesting limit: the same text must cross ``MAX_NESTING`` at
the same token.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import LexError, ParseError, parse, parse_expr, tokenize
from repro.lang.parser import MAX_NESTING
from repro.lang.tokens import KEYWORDS, OPERATORS, TokenKind
from tests.corpora import SHIPPED, corpus_programs, grammar_programs

from . import _reference_parser as reference
from .test_parser import NESTERS


def outcome(fn, source):
    try:
        return fn(source)
    except (LexError, ParseError) as err:
        return (type(err), err.message, err.pos)


def assert_same(source):
    got, want = outcome(parse, source), outcome(reference.parse, source)
    assert got == want, f"parser disagrees with the reference on {source!r}"


def assert_same_expr(source):
    got = outcome(parse_expr, source)
    want = outcome(reference.parse_expr, source)
    assert got == want, f"parser disagrees with the reference on {source!r}"


# -- fixed corpora ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_templates(name):
    assert_same(SHIPPED[name])


def test_corpus_and_benchmark_programs():
    programs = corpus_programs()
    assert "burst.planp" in programs and len(programs) > 10
    for source in programs.values():
        assert_same(source)


def test_grammar_programs():
    for source in grammar_programs(150):
        assert_same(source)


# -- the nesting limit -------------------------------------------------------------

AROUND_THE_LIMIT = range(MAX_NESTING - 3, MAX_NESTING + 3)


@pytest.mark.parametrize("name", sorted(NESTERS))
@pytest.mark.parametrize("tail", ["", " = 1", " :: xs", " < 1 andalso b"])
def test_every_nester_around_the_limit(name, tail):
    """``tail`` puts an operator at the innermost level, where the count
    is highest: a comparison must count nothing there, the rest one."""
    opener, core, closer = NESTERS[name]
    for n in AROUND_THE_LIMIT:
        text = opener * n + core + tail + closer * n
        assert_same_expr(text)
        assert_same("channel network(ps : int, ss : int, p : ip * blob) is "
                    + text)


@pytest.mark.parametrize("opener,closer", [
    ("(", ")"), ("", " list"), ("", " hash_table"), ("(int * ", ")")])
def test_types_around_the_limit(opener, closer):
    for n in AROUND_THE_LIMIT:
        assert_same(f"val x : {opener * n}int{closer * n} = y")


@given(st.lists(st.sampled_from(sorted(NESTERS)), min_size=1, max_size=4),
       st.integers(MAX_NESTING - 6, MAX_NESTING + 2))
@settings(max_examples=300, deadline=None)
def test_mixed_nesters_around_the_limit(names, levels):
    """Nesters taken in turn, e.g. ``( not #1 (1 + ...``."""
    shapes = [NESTERS[names[i % len(names)]] for i in range(levels)]
    text = "".join(o for o, _, _ in shapes) + shapes[-1][1] + "".join(
        c for _, _, c in reversed(shapes))
    assert_same_expr(text)


# -- token-level mutations of real programs ------------------------------------------

def render(tok) -> str:
    """Source text that lexes back to ``tok``."""
    if tok.kind is TokenKind.STRING:
        body = (tok.text.replace("\\", "\\\\").replace('"', '\\"')
                .replace("\n", "\\n").replace("\t", "\\t")
                .replace("\r", "\\r").replace("\0", "\\0"))
        return f'"{body}"'
    if tok.kind is TokenKind.CHAR:
        return '#"' + render(tok._replace(kind=TokenKind.STRING))[1:]
    return tok.text


#: One text for every token kind but EOF.
VOCABULARY = sorted(set(KEYWORDS) | set(OPERATORS) | {
    "x", "network", "f", "0", "1", "65", "10.0.0.1", '"s"', '#"c"'})

_PROGRAMS = [tokenize(source)[:-1]
             for source in [*SHIPPED.values(), *corpus_programs().values()]]


@given(st.sampled_from(range(len(_PROGRAMS))), st.data())
@settings(max_examples=1500, deadline=None)
def test_mutated_programs(index, data):
    """A real program with a few tokens deleted, inserted, replaced or
    a span of them doubled."""
    words = [render(tok) for tok in _PROGRAMS[index]]
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(words)))
        edit = data.draw(st.sampled_from(
            ("delete", "insert", "replace", "double")))
        if edit == "delete":
            del words[at:at + data.draw(st.integers(1, 4))]
        elif edit == "insert":
            words.insert(at, data.draw(st.sampled_from(VOCABULARY)))
        elif edit == "replace" and at < len(words):
            words[at] = data.draw(st.sampled_from(VOCABULARY))
        else:
            words[at:at] = words[at:at + data.draw(st.integers(1, 6))]
    assert_same(" ".join(words))


@given(st.lists(st.sampled_from(VOCABULARY), max_size=30))
@settings(max_examples=1500, deadline=None)
def test_token_soup_expressions(words):
    assert_same_expr(" ".join(words))


_OPERATORS = ["+", "-", "*", "/", "mod", "^", "::", "=", "<>", "<", ">",
              "<=", ">=", "andalso", "orelse"]
_OPERANDS = ["x", "1", "not x", "- 1", "#1 p", "f(x)", "(a, b)", "()"]


@given(st.lists(st.tuples(st.sampled_from(_OPERATORS),
                          st.sampled_from(_OPERANDS)), max_size=12),
       st.sampled_from(_OPERANDS))
@settings(max_examples=2000, deadline=None)
def test_operator_chains(chain, first):
    """Every mix of precedence, associativity and non-associative
    comparison chains."""
    assert_same_expr(first + "".join(f" {op} {rand}" for op, rand in chain))
