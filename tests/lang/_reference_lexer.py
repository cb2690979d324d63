# FROZEN TEST ORACLE -- not product code.
#
# This is the character-at-a-time PLAN-P lexer exactly as it stood before
# the master-regex scanner replaced it in src/repro/lang/lexer.py (only the
# two relative imports below were made absolute).  tests/lang/
# test_lexer_differential.py asserts that ``repro.lang.lexer.tokenize``
# returns the same tokens, or raises the same LexError at the same
# position, as ``tokenize`` here.  Do not "fix" or speed this up:
# its value is that it does not change.
"""Hand-written lexer for PLAN-P.

PLAN-P keeps PLAN's SML-like lexical syntax:

* ``--`` starts a comment running to end of line (see figure 2 of the
  paper) and ``(* ... *)`` is a nestable block comment as in SML.
* Integer literals are decimal; an integer followed by three more dotted
  groups (``131.254.60.81``) is an IP-address literal, which the paper
  uses directly in ASP source.
* Strings use double quotes with ``\\`` escapes; characters use ``#"c"``
  as in SML — but since ``#`` also introduces tuple projection (``#1 p``),
  the lexer only treats ``#"`` as a character literal.
"""

from __future__ import annotations

from repro.lang.errors import LexError, SourcePos
from repro.lang.tokens import KEYWORDS, Token, TokenKind

def _is_ascii_digit(ch: str) -> bool:
    """ASCII digits only: ``str.isdigit()`` also accepts Unicode digits
    (e.g. superscripts) that ``int()`` rejects."""
    return "0" <= ch <= "9"


_STRING_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    '"': '"',
    "\\": "\\",
    "0": "\0",
}


class Lexer:
    """Converts PLAN-P source text into a list of tokens."""

    def __init__(self, source: str):
        self._src = source
        self._pos = 0
        self._line = 1
        self._col = 1

    # -- Character-level helpers -------------------------------------------

    def _peek(self, ahead: int = 0) -> str:
        idx = self._pos + ahead
        if idx < len(self._src):
            return self._src[idx]
        return ""

    def _advance(self) -> str:
        ch = self._src[self._pos]
        self._pos += 1
        if ch == "\n":
            self._line += 1
            self._col = 1
        else:
            self._col += 1
        return ch

    def _here(self) -> SourcePos:
        return SourcePos(self._line, self._col)

    def _at_end(self) -> bool:
        return self._pos >= len(self._src)

    # -- Public API ---------------------------------------------------------

    def tokens(self) -> list[Token]:
        """Lex the whole input, returning tokens ending with EOF."""
        out: list[Token] = []
        while True:
            tok = self._next_token()
            out.append(tok)
            if tok.kind is TokenKind.EOF:
                return out

    # -- Scanner ------------------------------------------------------------

    def _next_token(self) -> Token:
        self._skip_trivia()
        pos = self._here()
        if self._at_end():
            return Token(TokenKind.EOF, "", pos)

        ch = self._peek()
        if _is_ascii_digit(ch):
            return self._number(pos)
        if ch.isalpha() or ch == "_":
            return self._ident_or_keyword(pos)
        if ch == '"':
            return self._string(pos)
        if ch == "#" and self._peek(1) == '"':
            return self._char(pos)
        return self._operator(pos)

    def _skip_trivia(self) -> None:
        """Skip whitespace, line comments and nested block comments."""
        while not self._at_end():
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                while not self._at_end() and self._peek() != "\n":
                    self._advance()
            elif ch == "(" and self._peek(1) == "*":
                self._block_comment()
            else:
                return

    def _block_comment(self) -> None:
        open_pos = self._here()
        self._advance()  # (
        self._advance()  # *
        depth = 1
        while depth > 0:
            if self._at_end():
                raise LexError("unterminated block comment", open_pos)
            if self._peek() == "(" and self._peek(1) == "*":
                self._advance()
                self._advance()
                depth += 1
            elif self._peek() == "*" and self._peek(1) == ")":
                self._advance()
                self._advance()
                depth -= 1
            else:
                self._advance()

    def _number(self, pos: SourcePos) -> Token:
        start = self._pos
        while not self._at_end() and _is_ascii_digit(self._peek()):
            self._advance()
        # An IP-address literal is four dotted decimal groups.
        if self._peek() == "." and _is_ascii_digit(self._peek(1)):
            return self._ip_address(pos, start)
        text = self._src[start:self._pos]
        return Token(TokenKind.INT, text, pos, int(text))

    def _ip_address(self, pos: SourcePos, start: int) -> Token:
        groups = 1
        while self._peek() == "." and _is_ascii_digit(self._peek(1)):
            self._advance()  # .
            while not self._at_end() and _is_ascii_digit(self._peek()):
                self._advance()
            groups += 1
        text = self._src[start:self._pos]
        if groups != 4:
            raise LexError(f"malformed IP address literal {text!r}", pos)
        if any(int(g) > 255 for g in text.split(".")):
            raise LexError(f"IP address group out of range in {text!r}", pos)
        return Token(TokenKind.IPADDR, text, pos, text)

    def _ident_or_keyword(self, pos: SourcePos) -> Token:
        start = self._pos
        while not self._at_end() and (self._peek().isalnum()
                                      or self._peek() in "_'"):
            self._advance()
        text = self._src[start:self._pos]
        kind = KEYWORDS.get(text)
        if kind is not None:
            return Token(kind, text, pos)
        return Token(TokenKind.IDENT, text, pos, text)

    def _string(self, pos: SourcePos) -> Token:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            if self._at_end() or self._peek() == "\n":
                raise LexError("unterminated string literal", pos)
            ch = self._advance()
            if ch == '"':
                break
            if ch == "\\":
                esc = self._advance() if not self._at_end() else ""
                if esc not in _STRING_ESCAPES:
                    raise LexError(f"bad string escape \\{esc}", pos)
                chars.append(_STRING_ESCAPES[esc])
            else:
                chars.append(ch)
        text = "".join(chars)
        return Token(TokenKind.STRING, text, pos, text)

    def _char(self, pos: SourcePos) -> Token:
        self._advance()  # '#'
        self._advance()  # opening quote
        if self._at_end():
            raise LexError("unterminated char literal", pos)
        ch = self._advance()
        if ch == "\\":
            esc = self._advance() if not self._at_end() else ""
            if esc not in _STRING_ESCAPES:
                raise LexError(f"bad char escape \\{esc}", pos)
            ch = _STRING_ESCAPES[esc]
        if self._at_end() or self._advance() != '"':
            raise LexError("unterminated char literal", pos)
        return Token(TokenKind.CHAR, ch, pos, ch)

    def _operator(self, pos: SourcePos) -> Token:
        two = self._peek() + self._peek(1)
        if two == "()":
            self._advance()
            self._advance()
            return Token(TokenKind.UNIT, "()", pos)
        two_char = {
            "<>": TokenKind.NEQ,
            "<=": TokenKind.LE,
            ">=": TokenKind.GE,
            "=>": TokenKind.ARROW,
            "::": TokenKind.CONS,
        }
        if two in two_char:
            self._advance()
            self._advance()
            return Token(two_char[two], two, pos)
        one_char = {
            "(": TokenKind.LPAREN,
            ")": TokenKind.RPAREN,
            ",": TokenKind.COMMA,
            ";": TokenKind.SEMI,
            ":": TokenKind.COLON,
            "*": TokenKind.STAR,
            "+": TokenKind.PLUS,
            "-": TokenKind.MINUS,
            "/": TokenKind.SLASH,
            "^": TokenKind.CARET,
            "=": TokenKind.EQ,
            "<": TokenKind.LT,
            ">": TokenKind.GT,
            "#": TokenKind.HASH,
        }
        ch = self._peek()
        if ch in one_char:
            self._advance()
            return Token(one_char[ch], ch, pos)
        raise LexError(f"unexpected character {ch!r}", pos)


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper: lex ``source`` into a token list ending in EOF."""
    return Lexer(source).tokens()
