"""The scanner against the lexer it replaced.

``repro.lang.lexer.tokenize`` is one compiled pattern; the frozen
character-at-a-time lexer in ``_reference_lexer.py`` is the oracle.  The
scanner reads untrusted wire data, so "equal" is strict: the same
``Token`` list — kind, text, value, line *and* column — or a
``LexError`` with the same message at the same position.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import LexError, tokenize
from tests.corpora import SHIPPED, corpus_programs, grammar_programs

from ._reference_lexer import tokenize as reference_tokenize


def outcome(lex, source):
    try:
        return lex(source)
    except LexError as err:
        return (type(err), err.message, err.pos)


def assert_same(source):
    got, want = outcome(tokenize, source), outcome(reference_tokenize, source)
    assert got == want, f"scanner disagrees with the reference on {source!r}"


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


# -- the places a regular expression gets wrong -----------------------------------

TRAPS = [
    # identifier start is isalpha()/_ and continuation isalnum()/_/':
    # \w, \d and [A-Za-z] each disagree with that somewhere
    "é", "éa1", "aé", "x'", "x''y", "'x", "_", "_9", "²", "a²", "²a",
    "٣", "a٣", "٣a", "1٣", "ǅ", "ª", "ⅷ", "a_b'c9",
    # digits are ASCII; dotted literals fail at the literal's start
    "0", "007", "12abc", "1.", "1.a", "1..2", ".1", "1.2", "1.2.3",
    "1.2.3.4", "1.2.3.4.5", "256.1.1.1", "1.1.1.256", "1.2.3.4a",
    "  1.2.3", "\n\n  1.2.3.4.5", "10.0.0.1.", "1.2.3.4.x",
    # '#' is projection unless a double quote follows
    "#1", "# 1", "#", '#"', '#"a', '#"a"', '#""', '#"""', '#"ab"',
    '#"\\n"', '#"\\q"', '#"\\', '#"\\n', '#"\n"', '#"\\"', '#"\\""',
    '##"a"', '#1 #"x"',
    # line structure: \r\n, tabs, positions after comments
    "a\r\nb", "a\rb", "\ta\tb", "a\n\n\nb", "a \n b", "\r\n\r\n x",
    "a\x0cb", "a\x0bb", "a\xa0b", "\ufeffa",
    # comments
    "-- c", "--", "a--b", "a - -b", "a -- b\nc", "--\n--\nx", "(**)",
    "(*)", "(* *)", "(* (* *) *) x", "(* (* *)", "(*", "x (* \n *) y",
    "(* *) *)", "(*(*(**)*)*)", "( *)", "(* -- *) x", "-- (* \n x",
    "(* \" *) x", "\"(*\" x",
    # strings: unterminated at newline and at EOF, escapes good and bad
    '""', '"a"', '"abc', '"abc\n"', '"a\\', '"a\\"', '"a\\q"', '"a\\\n"',
    '"\\n\\t\\r\\0\\\\\\""', '"a" "b"', '"a"b"', '"--"', '"a\tb"',
    '"a\rb"', '"é²"', '"\\x"  "never reached', '"ok" "bad\\q" "',
    # operators and fused tokens
    "()", "( )", "(())", "()()", "<>", "<=", ">=", "=>", "::", ":::",
    "< >", "<=>", "=>>", "=<", "!", "@", "$", "%", "&", "|", "~", "`",
    "[", "{", "?", ".", "\\", "\x00", "a\x00",
    "",
]


@pytest.mark.parametrize("source", TRAPS, ids=repr)
def test_traps(source):
    assert_same(source)


_FRAGMENTS = st.sampled_from(TRAPS + [
    " ", "\n", "\t", "\r\n", "val", "channel", "hash_table", "xs", "p",
    "42", "10.0.0.1", "(", ")", ",", ";", ":", "*", "+", "-", "/", "^",
    "=", "<", ">", '"', "\\", "#", "'", "(*", "*)", "--", "é", "²", "٣",
])

_SOUP = st.lists(_FRAGMENTS, max_size=40).map("".join)

_ALPHABET = st.sampled_from(list(
    "abzAZ_09 \t\r\n'\"\\#()*,;:.<>=+-/^é²٣ǅ\x00\x0c\xa0"))


@given(_SOUP)
@settings(max_examples=3000, deadline=None)
def test_fragment_soup(source):
    assert_same(source)


@given(st.text(alphabet=_ALPHABET, max_size=60))
@settings(max_examples=1500, deadline=None)
def test_character_soup(source):
    assert_same(source)


@given(st.text(max_size=40))
@settings(max_examples=500, deadline=None)
def test_arbitrary_unicode(source):
    assert_same(source)


@given(st.sampled_from(sorted(SHIPPED)), st.data())
@settings(max_examples=500, deadline=None)
def test_damaged_templates(name, data):
    """A real program with one span deleted, doubled or overwritten."""
    source = SHIPPED[name]
    start = data.draw(st.integers(0, len(source)))
    stop = data.draw(st.integers(start, min(len(source), start + 12)))
    patch = data.draw(st.one_of(
        st.just(""), st.just(source[start:stop] * 2), _FRAGMENTS))
    assert_same(source[:start] + patch + source[stop:])
