"""Single-pass scanner for PLAN-P, driven by one compiled pattern.

PLAN-P keeps PLAN's SML-like lexical syntax:

* ``--`` starts a comment running to end of line (see figure 2 of the
  paper) and ``(* ... *)`` is a nestable block comment as in SML.
* Integer literals are decimal; an integer followed by three more dotted
  groups (``131.254.60.81``) is an IP-address literal, which the paper
  uses directly in ASP source.
* Strings use double quotes with ``\\`` escapes; characters use ``#"c"``
  as in SML — but since ``#`` also introduces tuple projection (``#1 p``),
  the lexer only treats ``#"`` as a character literal.

``_TOKEN`` below *is* the lexical grammar: one ``match`` per token skips
the trivia in front of it and says, by which group took part, what the
token is.  The scanner reads untrusted text, so every class in it is
spelled out rather than borrowed from ``\\d`` or ``[A-Za-z]``: digits
are ASCII only (``int()`` rejects ``²``), an identifier starts with
``str.isalpha()`` or ``_`` and continues with ``str.isalnum()``, ``_``
or ``'`` — ``\\w`` is exactly ``isalnum()`` plus ``_``, but nothing in
``re`` is ``isalpha()``, so a word with a non-ASCII first character is
its own group and checked in Python.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from .errors import LexError, SourcePos
from .tokens import KEYWORDS, OPERATORS, Token, TokenKind

_STRING_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    '"': '"',
    "\\": "\\",
    "0": "\0",
}

_ESCAPE = r'\\[ntr"\\0]'
#: What may stand between a string's quotes (no raw newline).
_STRING_BODY = rf'[^"\\\n]*(?:{_ESCAPE}[^"\\\n]*)*'

_TOKEN = re.compile(rf"""
    (?: [ \t\r\n]+ | --[^\n]* )*        # whitespace and line comments
    (?: ([A-Za-z_][\w']*)               # 1 identifier or keyword
      | ([0-9]+(?:\.[0-9]+)*)           # 2 integer or dotted literal
      | ("{_STRING_BODY}")              # 3 string literal
      | (\#"(?:[^\\]|{_ESCAPE})")        # 4 character literal
      | (\(\*)                          # 5 block-comment opener
      | (\(\)|<>|<=|>=|=>|::|\#(?!")|[(),;:*+\-/^=<>])    # 6 operator
      | (\w[\w']*)                      # 7 word, non-ASCII first character
      | (\Z)                            # 8 end of input
      | (.)                             # 9 no token starts here
    )""", re.VERBOSE | re.DOTALL)

_STRING_PREFIX = re.compile(_STRING_BODY)
_ESCAPED = re.compile(r"\\(.)", re.DOTALL)
_COMMENT_EDGE = re.compile(r"\(\*|\*\)")
_NEWLINE = re.compile("\n")


def _unescape(body: str) -> str:
    if "\\" not in body:
        return body
    return _ESCAPED.sub(lambda m: _STRING_ESCAPES[m.group(1)], body)


def _skip_block_comment(source: str, start: int, pos: SourcePos) -> int:
    """The offset just past the ``*)`` closing the comment whose ``(*``
    is at ``start``; comments nest."""
    depth, at = 1, start + 2
    while depth:
        edge = _COMMENT_EDGE.search(source, at)
        if edge is None:
            raise LexError("unterminated block comment", pos)
        depth += 1 if edge.group() == "(*" else -1
        at = edge.end()
    return at


def _malformed(source: str, start: int, pos: SourcePos) -> LexError:
    """Why no token starts at ``start``: group 9 of ``_TOKEN`` matched,
    so a ``"`` or ``#"`` here opens a literal that is not well formed."""
    ch = source[start]
    if ch == '"':
        stop = _STRING_PREFIX.match(source, start + 1).end()
        if source[stop:stop + 1] == "\\":
            esc = source[stop + 1:stop + 2]
            return LexError(f"bad string escape \\{esc}", pos)
        return LexError("unterminated string literal", pos)
    if ch == "#":
        esc = source[start + 3:start + 4]
        if source[start + 2:start + 3] == "\\" and esc not in _STRING_ESCAPES:
            return LexError(f"bad char escape \\{esc}", pos)
        return LexError("unterminated char literal", pos)
    return LexError(f"unexpected character {ch!r}", pos)


def _number(text: str, pos: SourcePos) -> Token:
    if "." not in text:
        return Token(TokenKind.INT, text, pos, int(text))
    # An IP-address literal is four dotted decimal groups.
    groups = text.split(".")
    if len(groups) != 4:
        raise LexError(f"malformed IP address literal {text!r}", pos)
    if any(int(g) > 255 for g in groups):
        raise LexError(f"IP address group out of range in {text!r}", pos)
    return Token(TokenKind.IPADDR, text, pos, text)


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into a token list ending in EOF."""
    line_starts = [0]
    line_starts.extend(m.end() for m in _NEWLINE.finditer(source))
    out: list[Token] = []
    at = 0
    while True:
        m = _TOKEN.match(source, at)
        group = m.lastindex
        start, at = m.span(group)
        line = bisect_right(line_starts, start)
        pos = SourcePos(line, start - line_starts[line - 1] + 1)
        text = m.group(group)
        if group == 1:
            kind = KEYWORDS.get(text)
            if kind is None:
                out.append(Token(TokenKind.IDENT, text, pos, text))
            else:
                out.append(Token(kind, text, pos))
        elif group == 6:
            out.append(Token(OPERATORS[text], text, pos))
        elif group == 2:
            out.append(_number(text, pos))
        elif group == 3:
            text = _unescape(text[1:-1])
            out.append(Token(TokenKind.STRING, text, pos, text))
        elif group == 4:
            text = _unescape(text[2:-1])
            out.append(Token(TokenKind.CHAR, text, pos, text))
        elif group == 5:
            at = _skip_block_comment(source, start, pos)
        elif group == 7 and text[0].isalpha():
            out.append(Token(TokenKind.IDENT, text, pos, text))
        elif group == 8:
            out.append(Token(TokenKind.EOF, "", pos))
            return out
        else:
            raise _malformed(source, start, pos)
