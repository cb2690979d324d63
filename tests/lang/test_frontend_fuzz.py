"""Front-end robustness: arbitrary input never crashes the toolchain
with anything but its own typed errors (late checking must survive
hostile downloads, paper §2.1)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import (LexError, ParseError, PlanPError, parse, tokenize,
                        typecheck)

# Text biased toward PLAN-P-looking fragments.
_planp_alphabet = st.sampled_from(list(
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789"
    ' _\'"#()*,;:.<>=+-/^\\\n\t'))
planp_soup = st.text(alphabet=_planp_alphabet, max_size=300)

keywords = st.sampled_from([
    "val", "fun", "channel", "initstate", "is", "let", "in", "end",
    "if", "then", "else", "try", "handle", "raise", "true", "false",
    "int", "bool", "ip", "tcp", "udp", "blob", "hash_table",
    "OnRemote", "network", "ps", "ss", "p", "#1", "(", ")", ",", ";",
    ":", "=", "*", "123", '"str"', "10.0.0.1", "--c\n", "(*b*)",
])
keyword_soup = st.lists(keywords, max_size=60).map(" ".join)

# Well-typed channels that nest a short pattern of constructs up to a
# hundred deep: both sides of the parser's nesting limit, and under it
# the deepest trees the later passes will ever be handed.
_EXIT = "(OnRemote(network, p); (ps, ss))"
_PAIR_WRAPS = [  # around an expression of the channel's result type
    ("(", ")"),
    ("let val a : int = ps in ", " end"),
    (f"if ps = 0 then {_EXIT} else ", ""),
    ('(print("x"); ', ")"),
]
_INT_WRAPS = [  # around an int expression
    ("(", ")"),
    ("#1 (", ", 0)"),
    ("(", " + 1)"),
    ("- ", ""),
    ("let val b : int = ", " in b end"),
]


def _wrap(core, pattern, depth):
    for level in range(depth):
        opener, closer = pattern[level % len(pattern)]
        core = opener + core + closer
    return core


@st.composite
def deep_nesting(draw):
    def pattern(wraps):
        return draw(st.lists(st.sampled_from(wraps), min_size=1, max_size=3))

    pair_pattern, int_pattern = pattern(_PAIR_WRAPS), pattern(_INT_WRAPS)
    depths = st.integers(0, 100)
    value = _wrap("ps", int_pattern, draw(depths))
    body = _wrap(f"(OnRemote(network, p); ({value}, ss))", pair_pattern,
                 draw(depths))
    return ("channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            + body)


@given(planp_soup)
@settings(max_examples=200, deadline=None)
def test_lexer_total(text):
    try:
        tokens = tokenize(text)
    except LexError:
        return
    assert tokens[-1].kind.name == "EOF"


@given(st.one_of(keyword_soup, deep_nesting()))
@settings(max_examples=300, deadline=None)
def test_parser_total(text):
    try:
        parse(text)
    except (LexError, ParseError):
        pass


@given(st.one_of(keyword_soup, deep_nesting()))
@settings(max_examples=250, deadline=None)
def test_full_pipeline_total(text):
    """parse + typecheck + verify raise only PlanPError subclasses."""
    from repro.analysis import verify_report

    try:
        info = typecheck(parse(text))
    except PlanPError:
        return
    report = verify_report(info)  # must not crash either way
    assert isinstance(report.passed, bool)


@given(st.binary(max_size=120))
@settings(max_examples=100, deadline=None)
def test_lexer_survives_binary_garbage(data):
    text = data.decode("latin-1")
    try:
        tokenize(text)
    except LexError:
        pass
