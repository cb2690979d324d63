"""Token definitions for the PLAN-P lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import SourcePos


class TokenKind(enum.Enum):
    """All lexical categories of PLAN-P."""

    # Literals
    INT = "int literal"
    STRING = "string literal"
    CHAR = "char literal"
    IPADDR = "ip address literal"
    IDENT = "identifier"

    # Keywords
    VAL = "val"
    FUN = "fun"
    CHANNEL = "channel"
    INITSTATE = "initstate"
    IS = "is"
    LET = "let"
    IN = "in"
    END = "end"
    IF = "if"
    THEN = "then"
    ELSE = "else"
    TRY = "try"
    HANDLE = "handle"
    RAISE = "raise"
    TRUE = "true"
    FALSE = "false"
    NOT = "not"
    ANDALSO = "andalso"
    ORELSE = "orelse"
    MOD = "mod"
    EXCEPTION = "exception"

    # Type keywords
    TINT = "type int"
    TBOOL = "type bool"
    TSTRING = "type string"
    TCHAR = "type char"
    TUNIT = "type unit"
    THOST = "type host"
    TBLOB = "type blob"
    TIP = "type ip"
    TTCP = "type tcp"
    TUDP = "type udp"
    TPORT = "type port"
    THASHTABLE = "hash_table"
    TLIST = "list"

    # Punctuation / operators
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    SEMI = ";"
    COLON = ":"
    STAR = "*"
    PLUS = "+"
    MINUS = "-"
    SLASH = "/"
    CARET = "^"
    EQ = "="
    NEQ = "<>"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    HASH = "#"
    ARROW = "=>"
    CONS = "::"
    UNIT = "()"

    EOF = "end of input"


KEYWORDS: dict[str, TokenKind] = {
    "val": TokenKind.VAL,
    "fun": TokenKind.FUN,
    "channel": TokenKind.CHANNEL,
    "initstate": TokenKind.INITSTATE,
    "is": TokenKind.IS,
    "let": TokenKind.LET,
    "in": TokenKind.IN,
    "end": TokenKind.END,
    "if": TokenKind.IF,
    "then": TokenKind.THEN,
    "else": TokenKind.ELSE,
    "try": TokenKind.TRY,
    "handle": TokenKind.HANDLE,
    "raise": TokenKind.RAISE,
    "true": TokenKind.TRUE,
    "false": TokenKind.FALSE,
    "not": TokenKind.NOT,
    "andalso": TokenKind.ANDALSO,
    "orelse": TokenKind.ORELSE,
    "mod": TokenKind.MOD,
    "exception": TokenKind.EXCEPTION,
    "int": TokenKind.TINT,
    "bool": TokenKind.TBOOL,
    "string": TokenKind.TSTRING,
    "char": TokenKind.TCHAR,
    "unit": TokenKind.TUNIT,
    "host": TokenKind.THOST,
    "blob": TokenKind.TBLOB,
    "ip": TokenKind.TIP,
    "tcp": TokenKind.TTCP,
    "udp": TokenKind.TUDP,
    "port": TokenKind.TPORT,
    "hash_table": TokenKind.THASHTABLE,
    "list": TokenKind.TLIST,
}

#: Operator and punctuation kinds by their text, which is their value.
OPERATORS: dict[str, TokenKind] = {kind.value: kind for kind in (
    TokenKind.LPAREN, TokenKind.RPAREN, TokenKind.COMMA, TokenKind.SEMI,
    TokenKind.COLON, TokenKind.STAR, TokenKind.PLUS, TokenKind.MINUS,
    TokenKind.SLASH, TokenKind.CARET, TokenKind.EQ, TokenKind.NEQ,
    TokenKind.LT, TokenKind.GT, TokenKind.LE, TokenKind.GE, TokenKind.HASH,
    TokenKind.ARROW, TokenKind.CONS, TokenKind.UNIT)}


class Token(NamedTuple):
    """A single lexeme with its source position.

    ``value`` holds the decoded payload for literal tokens: an ``int`` for
    INT, the unescaped text for STRING, a one-character string for CHAR,
    the dotted-quad string for IPADDR, and the identifier text for IDENT.
    """

    kind: TokenKind
    text: str
    pos: SourcePos = SourcePos()
    value: object | None = None

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.pos}"
