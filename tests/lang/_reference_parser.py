# FROZEN TEST ORACLE -- not product code.
#
# This is the recursive-descent PLAN-P parser exactly as it stood before
# precedence climbing replaced its operator chain in
# src/repro/lang/parser.py (only the relative imports below were made
# absolute).  tests/lang/test_parser_differential.py asserts that
# ``repro.lang.parser.parse`` returns the same AST, positions included,
# or raises the same ParseError at the same position, as ``parse`` here.
# Do not "fix" or speed this up: its value is that it does not change.
"""Recursive-descent parser for PLAN-P.

The grammar is documented in DESIGN.md §5.  Operator precedence follows
SML: projection binds tightest, then unary operators, then
multiplicative, additive, ``::``, comparison (non-associative),
``andalso``, ``orelse``.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import ParseError, SourcePos
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind
from repro.lang import types as T

_BASE_TYPES: dict[TokenKind, T.Type] = {
    TokenKind.TINT: T.INT,
    TokenKind.TBOOL: T.BOOL,
    TokenKind.TSTRING: T.STRING,
    TokenKind.TCHAR: T.CHAR,
    TokenKind.TUNIT: T.UNIT,
    TokenKind.THOST: T.HOST,
    TokenKind.TPORT: T.PORT,
    TokenKind.TBLOB: T.BLOB,
    TokenKind.TIP: T.IP,
    TokenKind.TTCP: T.TCP,
    TokenKind.TUDP: T.UDP,
}

_COMPARISONS = {
    TokenKind.EQ: "=",
    TokenKind.NEQ: "<>",
    TokenKind.LT: "<",
    TokenKind.GT: ">",
    TokenKind.LE: "<=",
    TokenKind.GE: ">=",
}

_ADDITIVE = {
    TokenKind.PLUS: "+",
    TokenKind.MINUS: "-",
    TokenKind.CARET: "^",
}

_MULTIPLICATIVE = {
    TokenKind.STAR: "*",
    TokenKind.SLASH: "/",
    TokenKind.MOD: "mod",
}

#: Type keywords double as ordinary identifiers in expression and binding
#: position — the paper's own fragments write ``val tcp : tcp = #2 p``.
_TYPE_KEYWORD_TOKENS = set(_BASE_TYPES) | {TokenKind.THASHTABLE,
                                           TokenKind.TLIST}

#: How deep an expression or a type may nest.  The parser and every pass
#: after it recurse on that depth, and the text comes off the wire: a
#: fixed bound (the descent spends about 11 Python frames on a level of
#: parentheses) keeps a hostile download a ParseError, whatever
#: ``sys.getrecursionlimit()`` is.
MAX_NESTING = 64


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`."""

    def __init__(self, tokens: list[Token], source_name: str = "<planp>"):
        # ``_advance`` never steps past an EOF, so with one at the end
        # the cursor needs no bounds check.
        if not tokens or tokens[-1].kind is not TokenKind.EOF:
            tokens = [*tokens, Token(TokenKind.EOF, "")]
        self._toks = tokens
        self._idx = 0
        self._depth = 0
        self._source_name = source_name

    # -- Token-stream helpers ------------------------------------------------

    def _peek(self) -> Token:
        return self._toks[self._idx]

    def _at(self, kind: TokenKind) -> bool:
        return self._toks[self._idx].kind is kind

    def _advance(self) -> Token:
        tok = self._toks[self._idx]
        if tok.kind is not TokenKind.EOF:
            self._idx += 1
        return tok

    def _expect(self, kind: TokenKind, context: str = "") -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            where = f" in {context}" if context else ""
            raise ParseError(
                f"expected {kind.value!r}{where}, found {tok.kind.value!r}",
                tok.pos)
        return self._advance()

    def _pos(self) -> SourcePos:
        return self._peek().pos

    def _deeper(self, pos: SourcePos, what: str = "expression") -> None:
        """Count one more level of nesting.  ``_expr`` and ``_type``
        forget what was counted inside them when they return; operator
        chains between two such calls only add up, since each operator
        puts the tree one node deeper."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParseError(f"{what} nested deeper than {MAX_NESTING}", pos)

    def _expect_name(self, context: str) -> Token:
        """An identifier, allowing type keywords used as plain names."""
        tok = self._peek()
        if tok.kind is TokenKind.IDENT or tok.kind in _TYPE_KEYWORD_TOKENS:
            return self._advance()
        raise ParseError(
            f"expected an identifier in {context}, "
            f"found {tok.kind.value!r}", tok.pos)

    # -- Program and declarations ---------------------------------------------

    def parse_program(self) -> ast.Program:
        decls: list[ast.Decl] = []
        while not self._at(TokenKind.EOF):
            decls.append(self._declaration())
        return ast.Program(decls, source_name=self._source_name)

    def _declaration(self) -> ast.Decl:
        tok = self._peek()
        if tok.kind is TokenKind.VAL:
            return self._val_decl()
        if tok.kind is TokenKind.FUN:
            return self._fun_decl()
        if tok.kind is TokenKind.CHANNEL:
            return self._channel_decl()
        if tok.kind is TokenKind.EXCEPTION:
            return self._exception_decl()
        raise ParseError(
            f"expected a declaration (val/fun/channel/exception), "
            f"found {tok.kind.value!r}", tok.pos)

    def _val_decl(self) -> ast.ValDecl:
        pos = self._pos()
        self._expect(TokenKind.VAL)
        name = self._expect_name("val declaration").text
        self._expect(TokenKind.COLON, "val declaration")
        declared = self._type()
        self._expect(TokenKind.EQ, "val declaration")
        value = self._expr()
        return ast.ValDecl(name=name, declared=declared, value=value, pos=pos)

    def _fun_decl(self) -> ast.FunDecl:
        pos = self._pos()
        self._expect(TokenKind.FUN)
        name = self._expect_name("fun declaration").text
        self._expect(TokenKind.LPAREN, "fun declaration")
        params = self._params()
        self._expect(TokenKind.RPAREN, "fun declaration")
        self._expect(TokenKind.COLON, "fun declaration")
        return_type = self._type()
        self._expect(TokenKind.EQ, "fun declaration")
        body = self._expr()
        return ast.FunDecl(name=name, params=params,
                           return_type=return_type, body=body, pos=pos)

    def _channel_decl(self) -> ast.ChannelDecl:
        pos = self._pos()
        self._expect(TokenKind.CHANNEL)
        name = self._expect_name("channel declaration").text
        self._expect(TokenKind.LPAREN, "channel declaration")
        params = self._params()
        self._expect(TokenKind.RPAREN, "channel declaration")
        if len(params) != 3:
            raise ParseError(
                f"channel {name!r} must have exactly three parameters "
                f"(protocol state, channel state, packet), got {len(params)}",
                pos)
        initstate: ast.Expr | None = None
        if self._at(TokenKind.INITSTATE):
            self._advance()
            initstate = self._expr()
        self._expect(TokenKind.IS, "channel declaration")
        body = self._expr()
        return ast.ChannelDecl(name=name, params=params,
                               initstate=initstate, body=body, pos=pos)

    def _exception_decl(self) -> ast.ExceptionDecl:
        pos = self._pos()
        self._expect(TokenKind.EXCEPTION)
        name = self._expect_name("exception declaration").text
        return ast.ExceptionDecl(name=name, pos=pos)

    def _params(self) -> list[ast.Param]:
        params: list[ast.Param] = []
        if self._at(TokenKind.RPAREN):
            return params
        while True:
            pos = self._pos()
            name = self._expect_name("parameter list").text
            self._expect(TokenKind.COLON, "parameter list")
            declared = self._type()
            params.append(ast.Param(name=name, declared=declared, pos=pos))
            if not self._at(TokenKind.COMMA):
                return params
            self._advance()

    # -- Types -----------------------------------------------------------------

    def _type(self) -> T.Type:
        outer = self._depth
        self._deeper(self._pos(), "type")
        elems = [self._type_postfix()]
        while self._at(TokenKind.STAR):
            self._advance()
            elems.append(self._type_postfix())
        self._depth = outer
        if len(elems) == 1:
            return elems[0]
        return T.TupleType(tuple(elems))

    def _type_postfix(self) -> T.Type:
        t = self._type_atom()
        while True:
            if self._at(TokenKind.THASHTABLE):
                t = T.HashTableType(t)
            elif self._at(TokenKind.TLIST):
                t = T.ListType(t)
            else:
                return t
            self._deeper(self._advance().pos, "type")

    def _type_atom(self) -> T.Type:
        tok = self._peek()
        if tok.kind in _BASE_TYPES:
            self._advance()
            return _BASE_TYPES[tok.kind]
        if tok.kind is TokenKind.LPAREN:
            self._advance()
            inner = self._type()
            self._expect(TokenKind.RPAREN, "type")
            return inner
        raise ParseError(f"expected a type, found {tok.kind.value!r}",
                         tok.pos)

    # -- Expressions -------------------------------------------------------------

    def _expr(self) -> ast.Expr:
        tok = self._peek()
        outer = self._depth
        self._deeper(tok.pos)
        if tok.kind is TokenKind.LET:
            expr: ast.Expr = self._let()
        elif tok.kind is TokenKind.IF:
            expr = self._if()
        elif tok.kind is TokenKind.TRY:
            expr = self._try()
        elif tok.kind is TokenKind.RAISE:
            expr = self._raise()
        else:
            expr = self._orelse()
        self._depth = outer
        return expr

    def _let(self) -> ast.Let:
        pos = self._pos()
        self._expect(TokenKind.LET)
        bindings: list[ast.ValBinding] = []
        while self._at(TokenKind.VAL):
            bpos = self._pos()
            self._advance()
            name = self._expect_name("let binding").text
            self._expect(TokenKind.COLON, "let binding")
            declared = self._type()
            self._expect(TokenKind.EQ, "let binding")
            value = self._expr()
            bindings.append(ast.ValBinding(name=name, declared=declared,
                                           value=value, pos=bpos))
        if not bindings:
            raise ParseError("let requires at least one val binding", pos)
        self._expect(TokenKind.IN, "let expression")
        body = self._expr()
        self._expect(TokenKind.END, "let expression")
        return ast.Let(bindings=bindings, body=body, pos=pos)

    def _if(self) -> ast.If:
        pos = self._pos()
        self._expect(TokenKind.IF)
        cond = self._expr()
        self._expect(TokenKind.THEN, "if expression")
        then = self._expr()
        self._expect(TokenKind.ELSE, "if expression")
        orelse = self._expr()
        return ast.If(cond=cond, then=then, orelse=orelse, pos=pos)

    def _try(self) -> ast.Try:
        pos = self._pos()
        self._expect(TokenKind.TRY)
        body = self._expr()
        self._expect(TokenKind.HANDLE, "try expression")
        exn = self._expect(TokenKind.IDENT, "try handler").text
        self._expect(TokenKind.ARROW, "try handler")
        handler = self._expr()
        return ast.Try(body=body, exn=exn, handler=handler, pos=pos)

    def _raise(self) -> ast.Raise:
        pos = self._pos()
        self._expect(TokenKind.RAISE)
        exn = self._expect(TokenKind.IDENT, "raise expression").text
        return ast.Raise(exn=exn, pos=pos)

    def _orelse(self) -> ast.Expr:
        left = self._andalso()
        while self._at(TokenKind.ORELSE):
            pos = self._advance().pos
            self._deeper(pos)
            right = self._andalso()
            left = ast.BinOp(op="orelse", left=left, right=right, pos=pos)
        return left

    def _andalso(self) -> ast.Expr:
        left = self._comparison()
        while self._at(TokenKind.ANDALSO):
            pos = self._advance().pos
            self._deeper(pos)
            right = self._comparison()
            left = ast.BinOp(op="andalso", left=left, right=right, pos=pos)
        return left

    def _comparison(self) -> ast.Expr:
        left = self._cons()
        tok = self._peek()
        if tok.kind in _COMPARISONS:
            self._advance()
            right = self._cons()
            return ast.BinOp(op=_COMPARISONS[tok.kind], left=left,
                             right=right, pos=tok.pos)
        return left

    def _cons(self) -> ast.Expr:
        left = self._additive()
        if self._at(TokenKind.CONS):
            pos = self._advance().pos
            self._deeper(pos)
            right = self._cons()  # right-associative
            return ast.BinOp(op="::", left=left, right=right, pos=pos)
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while self._peek().kind in _ADDITIVE:
            tok = self._advance()
            self._deeper(tok.pos)
            right = self._multiplicative()
            left = ast.BinOp(op=_ADDITIVE[tok.kind], left=left, right=right,
                             pos=tok.pos)
        return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while self._peek().kind in _MULTIPLICATIVE:
            tok = self._advance()
            self._deeper(tok.pos)
            right = self._unary()
            left = ast.BinOp(op=_MULTIPLICATIVE[tok.kind], left=left,
                             right=right, pos=tok.pos)
        return left

    def _unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.NOT or tok.kind is TokenKind.MINUS:
            self._advance()
            self._deeper(tok.pos)
            return ast.UnOp(op=tok.text, operand=self._unary(), pos=tok.pos)
        return self._projection()

    def _projection(self) -> ast.Expr:
        if self._at(TokenKind.HASH):
            pos = self._advance().pos
            self._deeper(pos)
            idx_tok = self._expect(TokenKind.INT, "tuple projection")
            index = int(idx_tok.value)  # type: ignore[arg-type]
            if index < 1:
                raise ParseError("projection index must be >= 1", idx_tok.pos)
            target = self._projection()
            return ast.Proj(index=index, tuple_expr=target, pos=pos)
        return self._atom()

    def _atom(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.INT:
            self._advance()
            return ast.IntLit(value=int(tok.value), pos=tok.pos)  # type: ignore[arg-type]
        if tok.kind is TokenKind.STRING:
            self._advance()
            return ast.StringLit(value=str(tok.value), pos=tok.pos)
        if tok.kind is TokenKind.CHAR:
            self._advance()
            return ast.CharLit(value=str(tok.value), pos=tok.pos)
        if tok.kind is TokenKind.IPADDR:
            self._advance()
            return ast.HostLit(value=str(tok.value), pos=tok.pos)
        if tok.kind is TokenKind.TRUE:
            self._advance()
            return ast.BoolLit(value=True, pos=tok.pos)
        if tok.kind is TokenKind.FALSE:
            self._advance()
            return ast.BoolLit(value=False, pos=tok.pos)
        if tok.kind is TokenKind.UNIT:
            self._advance()
            return ast.UnitLit(pos=tok.pos)
        if tok.kind is TokenKind.IDENT or tok.kind in _TYPE_KEYWORD_TOKENS:
            return self._ident_or_call()
        if tok.kind is TokenKind.LPAREN:
            return self._paren()
        raise ParseError(f"expected an expression, found {tok.kind.value!r}",
                         tok.pos)

    def _ident_or_call(self) -> ast.Expr:
        tok = self._advance()
        name = tok.text
        if self._at(TokenKind.UNIT):
            # ``f()`` — the lexer fuses the empty parens into one token.
            self._advance()
            return ast.Call(func=name, args=[], pos=tok.pos)
        if not self._at(TokenKind.LPAREN):
            return ast.Var(name=name, pos=tok.pos)
        self._advance()  # (
        args: list[ast.Expr] = []
        if not self._at(TokenKind.RPAREN):
            args.append(self._expr())
            while self._at(TokenKind.COMMA):
                self._advance()
                args.append(self._expr())
        self._expect(TokenKind.RPAREN, f"call to {name}")
        return ast.Call(func=name, args=args, pos=tok.pos)

    def _paren(self) -> ast.Expr:
        pos = self._pos()
        self._expect(TokenKind.LPAREN)
        first = self._expr()
        if self._at(TokenKind.SEMI):
            exprs = [first]
            while self._at(TokenKind.SEMI):
                self._advance()
                exprs.append(self._expr())
            self._expect(TokenKind.RPAREN, "sequence expression")
            return ast.Seq(exprs=exprs, pos=pos)
        if self._at(TokenKind.COMMA):
            elems = [first]
            while self._at(TokenKind.COMMA):
                self._advance()
                elems.append(self._expr())
            self._expect(TokenKind.RPAREN, "tuple expression")
            return ast.TupleExpr(elems=elems, pos=pos)
        self._expect(TokenKind.RPAREN, "parenthesised expression")
        return first


def parse(source: str, source_name: str = "<planp>") -> ast.Program:
    """Parse PLAN-P source text into an (untyped) AST."""
    return Parser(tokenize(source), source_name).parse_program()


def parse_expr(source: str) -> ast.Expr:
    """Parse a single expression — used by tests and the REPL example."""
    parser = Parser(tokenize(source))
    expr = parser._expr()
    tok = parser._peek()
    if tok.kind is not TokenKind.EOF:
        raise ParseError(
            f"trailing input after expression: {tok.kind.value!r}", tok.pos)
    return expr
