"""Tokenizer and recursive-descent parser for ``.rml`` modules.

Grammar (SMV-inspired; ``--`` starts a comment running to end of line)::

    module    := 'MODULE' name section*
    section   := 'VAR' vardecl*
               | 'ASSIGN' assign*
               | 'DEFINE' define*
               | 'FAIRNESS' expr ';'
               | 'SPEC' ctl ';'
               | 'OBSERVED' name (',' name)* ';'
               | 'DONTCARE' expr ';'
    vardecl   := name ':' ('boolean' | 'word' '[' number ']') ';'
    assign    := 'init' '(' name ')' ':=' number ';'
               | 'next' '(' name ')' ':=' nextval ';'
    nextval   := 'case' (expr ':' value ';')+ 'esac' | value
    value     := expr                      -- boolean targets
               | number | name (('+'|'-') number)?   -- word targets
    define    := name ':=' (expr | name '+' name) ';'

Propositional expressions and CTL formulas reuse the existing parsers
(:func:`repro.expr.parser.parse_expr`, :func:`repro.ctl.parser.parse_ctl`):
the module tokenizer collects the embedded tokens, hands their joined text
to the sub-parser, and maps any error position back to the original
line/column, so every :class:`~repro.errors.ParseError` raised from a
module carries an exact source location.

Variables must be declared before their ``init``/``next`` assignments (the
parser needs the target's type to pick the boolean or word value grammar);
``DEFINE`` bodies may forward-reference later defines.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Set, Union

from .._node import record
from ..ctl.parser import parse_ctl
from ..errors import ParseError
from ..expr.ast import Expr
from ..obs.counters import counter_inc
from ..expr.parser import _parse_number, parse_expr
from .ast import (
    Case,
    CaseArm,
    DefineDecl,
    FairnessDecl,
    InitAssign,
    Module,
    NextAssign,
    SpecDecl,
    VarDecl,
    WordConst,
    WordOffset,
    WordRef,
    WordSum,
)

__all__ = ["parse_module", "load_module", "tokenize_module", "LangToken"]

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>--[^\n]*)
  | (?P<ws>\s+)
  | (?P<number>0[xX][0-9a-fA-F]+|0[bB][01]+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<op>:=|<->|->|==|!=|<=|>=|[()\[\]!&|^<>=,;:+\-])
    """,
    re.VERBOSE,
)

#: Keywords opening a module section (case-sensitive, SMV style).
SECTION_KEYWORDS = frozenset(
    ("MODULE", "VAR", "ASSIGN", "DEFINE", "FAIRNESS", "SPEC", "OBSERVED",
     "DONTCARE")
)


@record(frozen=True)
class LangToken:
    """One module-language token with its 1-based source location."""

    kind: str  # 'ident' | 'number' | 'op' | 'eof'
    text: str
    line: int
    column: int


def tokenize_module(text: str, filename: Optional[str] = None) -> List[LangToken]:
    """Tokenise a module source; comments and whitespace are dropped."""
    tokens: List[LangToken] = []
    pos = 0
    line = 1
    line_start = 0
    end = len(text)
    while pos < end:
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"{filename or '<module>'}:{line}:{pos - line_start + 1}: "
                f"illegal character {text[pos]!r}",
                text,
                pos,
                line=line,
                column=pos - line_start + 1,
                filename=filename,
            )
        kind = match.lastgroup
        value = match.group()
        if kind == "ws":  # the only token that can span lines
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = pos + value.rfind("\n") + 1
        elif kind != "comment":
            tokens.append(LangToken(kind, value, line, pos - line_start + 1))
        pos = match.end()
    tokens.append(LangToken("eof", "", line, len(text) - line_start + 1))
    return tokens


class _ModuleParser:
    def __init__(self, text: str, filename: Optional[str] = None):
        self.text = text
        self.filename = filename
        self.tokens = tokenize_module(text, filename)
        self.index = 0
        #: declared variable name -> width (None = boolean)
        self.types: dict = {}
        self.defines_seen: Set[str] = set()

    # -- token-stream helpers -------------------------------------------

    def peek(self, ahead: int = 0) -> LangToken:
        try:
            return self.tokens[self.index + ahead]
        except IndexError:  # looking past the end: the eof token
            return self.tokens[-1]

    def advance(self) -> LangToken:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def accept_op(self, text: str) -> Optional[LangToken]:
        token = self.peek()
        if token.kind == "op" and token.text == text:
            return self.advance()
        return None

    def expect_op(self, text: str) -> LangToken:
        token = self.accept_op(text)
        if token is None:
            raise self.error(f"expected {text!r}")
        return token

    def accept_keyword(self, word: str) -> Optional[LangToken]:
        token = self.peek()
        if token.kind == "ident" and token.text == word:
            return self.advance()
        return None

    def expect_ident(self, what: str = "a name") -> LangToken:
        token = self.peek()
        if token.kind != "ident":
            raise self.error(f"expected {what}")
        return self.advance()

    def error(
        self, message: str, token: Optional[LangToken] = None
    ) -> ParseError:
        token = token or self.peek()
        found = token.text or "end of input"
        return self.located(f"{message} (found {found!r})", token)

    def located(self, message: str, token: LangToken) -> ParseError:
        return ParseError(
            f"{self.filename or '<module>'}:{token.line}:{token.column}: "
            f"{message}",
            self.text,
            0,
            line=token.line,
            column=token.column,
            filename=self.filename,
        )

    # -- embedded expression / CTL parsing ------------------------------

    def collect_until(self, stops: Sequence[str], what: str) -> List[LangToken]:
        """Tokens up to (not including) the first top-level stop operator."""
        start = self.peek()
        out: List[LangToken] = []
        while True:
            token = self.peek()
            if token.kind == "eof":
                raise self.located(
                    f"unterminated {what} (expected "
                    f"{' or '.join(repr(s) for s in stops)})",
                    start,
                )
            if token.kind == "op" and token.text in stops:
                break
            out.append(self.advance())
        if not out:
            raise self.error(f"expected {what}")
        return out

    def parse_embedded(
        self,
        tokens: List[LangToken],
        sub_parser: Callable[[str], object],
    ):
        """Run ``sub_parser`` over the joined token text, relocating errors.

        The collected tokens are joined with single spaces, so a position
        reported by the sub-parser maps back to a token index (and from
        there to the original line/column) by accumulating lengths.
        """
        parts = [t.text for t in tokens]
        joined = " ".join(parts)
        try:
            return sub_parser(joined)
        except ParseError as exc:
            starts: List[int] = []
            offset = 0
            for part in parts:
                starts.append(offset)
                offset += len(part) + 1
            at = tokens[-1]
            within = 0
            for token, start in zip(tokens, starts):
                if start <= exc.position:
                    at = token
                    within = exc.position - start
                else:
                    break
            message = re.sub(r"\s*at position \d+\s*", " ", str(exc)).strip()
            raise self.located(
                message,
                LangToken(at.kind, at.text, at.line, at.column + within),
            ) from None

    def parse_expr_until(self, stops: Sequence[str], what: str = "an expression") -> Expr:
        return self.parse_embedded(self.collect_until(stops, what), parse_expr)

    # -- module grammar -------------------------------------------------

    def parse(self) -> Module:
        if self.accept_keyword("MODULE") is None:
            raise self.error("expected 'MODULE'")
        name = self.expect_ident("a module name").text
        vars_: List[VarDecl] = []
        inits: List[InitAssign] = []
        nexts: List[NextAssign] = []
        defines: List[DefineDecl] = []
        fairness: List[FairnessDecl] = []
        specs: List[SpecDecl] = []
        observed: List[str] = []
        dont_care: Optional[Expr] = None
        while True:
            token = self.peek()
            if token.kind == "eof":
                break
            if token.kind != "ident" or token.text not in SECTION_KEYWORDS:
                raise self.error(
                    "expected a section keyword (VAR, ASSIGN, DEFINE, "
                    "FAIRNESS, SPEC, OBSERVED, DONTCARE)"
                )
            if token.text == "MODULE":
                raise self.error("only one MODULE per file")
            self.advance()
            if token.text == "VAR":
                vars_.extend(self.parse_var_section())
            elif token.text == "ASSIGN":
                self.parse_assign_section(inits, nexts)
            elif token.text == "DEFINE":
                defines.extend(self.parse_define_section())
            elif token.text == "FAIRNESS":
                expr = self.parse_expr_until((";",), "a fairness constraint")
                self.expect_op(";")
                fairness.append(
                    FairnessDecl(expr, line=token.line, column=token.column)
                )
            elif token.text == "SPEC":
                body = self.collect_until((";",), "a property")
                formula = self.parse_embedded(body, parse_ctl)
                self.expect_op(";")
                specs.append(
                    SpecDecl(formula, line=token.line, column=token.column)
                )
            elif token.text == "OBSERVED":
                while True:
                    signal = self.expect_ident("an observed signal name")
                    observed.append(signal.text)
                    if not self.accept_op(","):
                        break
                self.expect_op(";")
            elif token.text == "DONTCARE":
                if dont_care is not None:
                    raise self.located(
                        "duplicate DONTCARE (combine with '|')", token
                    )
                dont_care = self.parse_expr_until((";",), "a don't-care predicate")
                self.expect_op(";")
        return Module(
            name=name,
            vars=tuple(vars_),
            inits=tuple(inits),
            nexts=tuple(nexts),
            defines=tuple(defines),
            fairness=tuple(fairness),
            specs=tuple(specs),
            observed=tuple(observed),
            dont_care=dont_care,
            filename=self.filename,
        )

    def at_section_end(self) -> bool:
        token = self.peek()
        return token.kind == "eof" or (
            token.kind == "ident" and token.text in SECTION_KEYWORDS
        )

    def parse_var_section(self) -> List[VarDecl]:
        out: List[VarDecl] = []
        while not self.at_section_end():
            name = self.expect_ident("a variable name")
            if name.text in self.types:
                raise self.located(
                    f"duplicate variable {name.text!r}", name
                )
            self.expect_op(":")
            width: Optional[int] = None
            if self.accept_keyword("boolean"):
                pass
            elif self.accept_keyword("word"):
                self.expect_op("[")
                width_token = self.peek()
                if width_token.kind != "number":
                    raise self.error("expected a word width")
                self.advance()
                width = _parse_number(width_token.text)
                if width < 1:
                    raise self.located(
                        f"word width must be >= 1, got {width}", width_token
                    )
                self.expect_op("]")
            else:
                raise self.error("expected 'boolean' or 'word[N]'")
            self.expect_op(";")
            self.types[name.text] = width
            out.append(
                VarDecl(name.text, width, line=name.line, column=name.column)
            )
        return out

    def parse_assign_section(
        self, inits: List[InitAssign], nexts: List[NextAssign]
    ) -> None:
        while not self.at_section_end():
            kw = self.peek()
            if kw.kind != "ident" or kw.text not in ("init", "next"):
                raise self.error("expected 'init(...)' or 'next(...)'")
            self.advance()
            self.expect_op("(")
            target = self.expect_ident("a variable name")
            if target.text not in self.types:
                raise self.located(
                    f"undeclared variable {target.text!r} "
                    f"(declare it in a VAR section first)",
                    target,
                )
            self.expect_op(")")
            self.expect_op(":=")
            width = self.types[target.text]
            if kw.text == "init":
                if any(a.target == target.text for a in inits):
                    raise self.located(
                        f"duplicate init() for {target.text!r}", target
                    )
                value = self.parse_init_value(target.text, width)
                self.expect_op(";")
                inits.append(
                    InitAssign(target.text, value, line=kw.line, column=kw.column)
                )
            else:
                if any(a.target == target.text for a in nexts):
                    raise self.located(
                        f"duplicate next() for {target.text!r}", target
                    )
                value = self.parse_next_value(width)
                self.expect_op(";")
                nexts.append(
                    NextAssign(target.text, value, line=kw.line, column=kw.column)
                )

    def parse_init_value(self, target: str, width: Optional[int]) -> int:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            value = _parse_number(token.text)
        elif token.kind == "ident" and token.text.lower() in ("true", "false"):
            self.advance()
            value = 1 if token.text.lower() == "true" else 0
        else:
            raise self.error("expected a constant init value")
        limit = 1 << (width or 1)
        if value >= limit:
            raise self.located(
                f"init value {value} out of range for {target!r} "
                f"(max {limit - 1})",
                token,
            )
        return value

    def parse_next_value(self, width: Optional[int]):
        if self.accept_keyword("case"):
            arms: List[CaseArm] = []
            while not self.accept_keyword("esac"):
                if self.peek().kind == "eof":
                    raise self.error("unterminated case (expected 'esac')")
                condition = self.parse_expr_until((":",), "an arm condition")
                self.expect_op(":")
                value = self.parse_value(width)
                self.expect_op(";")
                arms.append(CaseArm(condition, value))
            if not arms:
                raise self.error("case needs at least one arm")
            return Case(tuple(arms))
        return self.parse_value(width)

    def parse_value(self, width: Optional[int]) -> Union[Expr, WordConst,
                                                         WordRef, WordOffset]:
        """A case-arm / next() right-hand side for a target of known type."""
        if width is None:
            return self.parse_expr_until((";",), "an expression")
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return WordConst(_parse_number(token.text))
        if token.kind == "ident":
            name = self.advance()
            sign_token = self.peek()
            if sign_token.kind == "op" and sign_token.text in ("+", "-"):
                self.advance()
                amount = self.peek()
                if amount.kind != "number":
                    raise self.error("expected a constant offset")
                self.advance()
                offset = _parse_number(amount.text)
                if sign_token.text == "-":
                    offset = -offset
                return WordOffset(name.text, offset)
            return WordRef(name.text)
        raise self.error(
            "expected a word value (constant, word, or word +/- constant)"
        )

    def parse_define_section(self) -> List[DefineDecl]:
        out: List[DefineDecl] = []
        while not self.at_section_end():
            name = self.expect_ident("a define name")
            if name.text in self.types or name.text in self.defines_seen:
                raise self.located(f"duplicate signal {name.text!r}", name)
            self.expect_op(":=")
            body = self.collect_until((";",), "a define body")
            self.expect_op(";")
            value: Union[Expr, WordSum]
            if (
                len(body) == 3
                and body[0].kind == "ident"
                and body[1].kind == "op"
                and body[1].text == "+"
                and body[2].kind == "ident"
            ):
                value = WordSum(body[0].text, body[2].text)
            else:
                value = self.parse_embedded(body, parse_expr)
            self.defines_seen.add(name.text)
            out.append(
                DefineDecl(name.text, value, line=name.line, column=name.column)
            )
        return out


def parse_module(text: str, filename: Optional[str] = None) -> Module:
    """Parse ``.rml`` source text into a :class:`~repro.lang.ast.Module`.

    Raises :class:`~repro.errors.ParseError` with 1-based ``line`` and
    ``column`` attributes (and ``filename`` when given) on any syntax or
    declaration error.

    Every call bumps the process-global ``lang.parse_module`` counter
    (:mod:`repro.obs.counters`) — the serving layer's dedup tests use its
    delta to prove that identical concurrent requests are parsed once.
    """
    counter_inc("lang.parse_module")
    return _ModuleParser(text, filename).parse()


def load_module(path: "str | Path") -> Module:
    """Read and parse one ``.rml`` file."""
    path = Path(path)
    return parse_module(path.read_text(), filename=str(path))
