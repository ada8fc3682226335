"""Recursive-descent parser for propositional expressions.

Grammar (lowest to highest precedence)::

    expr     := iff
    iff      := implies ( '<->' implies )*
    implies  := or ( '->' implies )?          # right-associative
    or       := xor ( ('|' | 'or') xor )*
    xor      := and ( ('^' | 'xor') and )*
    and      := unary ( ('&' | 'and') unary )*
    unary    := ('!' | 'not') unary | atom
    atom     := 'true' | 'false' | '(' expr ')' | name ( cmp rhs )?
    cmp      := '=' | '==' | '!=' | '<' | '<=' | '>' | '>='
    rhs      := number | name

Comparisons produce :class:`~repro.expr.ast.WordCmp` leaves; a bare name is a
:class:`~repro.expr.ast.Var`.  Numbers may be decimal, ``0x...`` or ``0b...``.

The tokenizer is shared with the CTL parser (:mod:`repro.ctl.parser`).
"""

from __future__ import annotations

import re
from typing import List, Optional, Union

from .._node import record
from ..errors import ParseError
from .ast import (
    And,
    Const,
    Expr,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    WordCmp,
    Xor,
)

__all__ = ["parse_expr", "Token", "tokenize"]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>0[xX][0-9a-fA-F]+|0[bB][01]+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<op><->|->|==|!=|<=|>=|[()\[\]!&|^<>=,])
    """,
    re.VERBOSE,
)

#: Keywords recognised case-insensitively by the expression layer.
_KEYWORD_OPS = {
    "and": "&",
    "or": "|",
    "xor": "^",
    "not": "!",
}
_CONSTS = {"true": True, "false": False}


@record(frozen=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    kind: str  # 'ident' | 'number' | 'op' | 'eof'
    text: str
    position: int


def tokenize(text: str) -> List[Token]:
    """Tokenise ``text``; raises :class:`ParseError` on illegal characters."""
    tokens: List[Token] = []
    pos = 0
    end = len(text)
    while pos < end:
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"illegal character {text[pos]!r} at position {pos}", text, pos
            )
        kind = match.lastgroup
        if kind != "ws":
            tokens.append(Token(kind, match.group(), pos))
        pos = match.end()
    tokens.append(Token("eof", "", len(text)))
    return tokens


class _Cursor:
    """Shared token-stream cursor used by the expr and CTL parsers."""

    def __init__(self, text: str, tokens: Optional[List[Token]] = None):
        self.text = text
        self.tokens = tokens if tokens is not None else tokenize(text)
        self.index = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    # ``accept`` and ``accept_keyword`` run for nearly every token, so they
    # index the stream directly; a matched op or ident is never eof.
    def accept(self, text: str) -> Optional[Token]:
        token = self.tokens[self.index]
        if token.kind == "op" and token.text == text:
            self.index += 1
            return token
        return None

    def accept_keyword(self, word: str) -> Optional[Token]:
        token = self.tokens[self.index]
        if token.kind == "ident" and token.text.lower() == word:
            self.index += 1
            return token
        return None

    def expect(self, text: str) -> Token:
        token = self.accept(text)
        if token is None:
            actual = self.peek()
            raise ParseError(
                f"expected {text!r} but found {actual.text or 'end of input'!r} "
                f"at position {actual.position}",
                self.text,
                actual.position,
            )
        return token

    def error(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(
            f"{message} at position {token.position} "
            f"(found {token.text or 'end of input'!r})",
            self.text,
            token.position,
        )


def _parse_number(text: str) -> int:
    lowered = text.lower()
    if lowered.startswith("0x"):
        return int(text, 16)
    if lowered.startswith("0b"):
        return int(text, 2)
    return int(text, 10)


_CMP_TOKENS = {"=": "==", "==": "==", "!=": "!=", "<": "<", "<=": "<=",
               ">": ">", ">=": ">="}


class _ExprParser:
    """Propositional expression parser over a :class:`_Cursor`."""

    def __init__(self, cursor: _Cursor):
        self.cursor = cursor

    def parse(self) -> Expr:
        expr = self.parse_iff()
        token = self.cursor.peek()
        if token.kind != "eof":
            raise self.cursor.error("unexpected trailing input")
        return expr

    # Each level returns as soon as its operators stop matching, so the same
    # methods are reusable as sub-parsers from the CTL grammar.

    def parse_iff(self) -> Expr:
        lhs = self.parse_implies()
        while self.cursor.accept("<->"):
            rhs = self.parse_implies()
            lhs = Iff(lhs, rhs)
        return lhs

    def parse_implies(self) -> Expr:
        lhs = self.parse_or()
        if self.cursor.accept("->"):
            rhs = self.parse_implies()
            return Implies(lhs, rhs)
        return lhs

    def parse_or(self) -> Expr:
        lhs = self.parse_xor()
        while self.cursor.accept("|") or self.cursor.accept_keyword("or"):
            rhs = self.parse_xor()
            lhs = Or((lhs, rhs)) if not isinstance(lhs, Or) else Or(lhs.args + (rhs,))
        return lhs

    def parse_xor(self) -> Expr:
        lhs = self.parse_and()
        while self.cursor.accept("^") or self.cursor.accept_keyword("xor"):
            rhs = self.parse_and()
            lhs = Xor(lhs, rhs)
        return lhs

    def parse_and(self) -> Expr:
        lhs = self.parse_unary()
        while self.cursor.accept("&") or self.cursor.accept_keyword("and"):
            rhs = self.parse_unary()
            lhs = And((lhs, rhs)) if not isinstance(lhs, And) else And(lhs.args + (rhs,))
        return lhs

    def parse_unary(self) -> Expr:
        if self.cursor.accept("!") or self.cursor.accept_keyword("not"):
            return Not(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        if self.cursor.accept("("):
            inner = self.parse_iff()
            self.cursor.expect(")")
            return inner
        token = self.cursor.peek()
        if token.kind == "ident":
            lowered = token.text.lower()
            if lowered in _CONSTS:
                self.cursor.advance()
                return Const(_CONSTS[lowered])
            self.cursor.advance()
            return self._maybe_comparison(token.text)
        raise self.cursor.error("expected an expression")

    def _maybe_comparison(self, name: str) -> Expr:
        token = self.cursor.peek()
        if token.kind == "op" and token.text in _CMP_TOKENS:
            op = _CMP_TOKENS[token.text]
            self.cursor.advance()
            rhs_token = self.cursor.peek()
            rhs: Union[int, str]
            if rhs_token.kind == "number":
                self.cursor.advance()
                rhs = _parse_number(rhs_token.text)
            elif rhs_token.kind == "ident":
                self.cursor.advance()
                rhs = rhs_token.text
            else:
                raise self.cursor.error(
                    "expected a number or name on the right of a comparison"
                )
            return WordCmp(op, name, rhs)
        return Var(name)


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into an :class:`~repro.expr.ast.Expr`.

    >>> str(parse_expr("!stall & count < 5"))
    '!stall & count < 5'
    """
    return _ExprParser(_Cursor(text)).parse()
