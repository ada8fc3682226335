"""Module AST for the ``.rml`` model description language.

A :class:`Module` is the parsed form of one ``.rml`` file: variable
declarations, ``init()``/``next()`` assignments, combinational ``DEFINE``
signals, ``FAIRNESS`` constraints, ``SPEC`` properties, the ``OBSERVED``
signal list, and an optional ``DONTCARE`` predicate.

Expressions inside the module reuse the library's propositional AST
(:mod:`repro.expr.ast`) and CTL AST (:mod:`repro.ctl.ast`); word-valued
right-hand sides (``0``, ``count``, ``count + 1``, ``hi + lo``) get their
own small node family here, lowered to per-bit expressions by the
elaborator.

All nodes compare structurally with source positions excluded, so a
parse -> print -> parse round trip yields an *equal* module even though the
re-parsed positions differ.  The right-hand-side nodes (word expressions
and ``case`` blocks) are :class:`~repro._node.Node` subclasses like the
expression AST they nest in; the declarations, which carry defaulted
fields and positions that never compare, are frozen
:func:`~repro._node.record` classes.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from .._node import Node, field, record
from ..ctl.ast import CtlFormula
from ..expr.ast import Expr

__all__ = [
    "Module",
    "VarDecl",
    "InitAssign",
    "NextAssign",
    "DefineDecl",
    "SpecDecl",
    "FairnessDecl",
    "WordExpr",
    "WordConst",
    "WordRef",
    "WordOffset",
    "WordSum",
    "Case",
    "CaseArm",
    "NextValue",
]


# ----------------------------------------------------------------------
# Word-valued right-hand sides
# ----------------------------------------------------------------------


class WordExpr(Node):
    """Base class for word-valued right-hand sides."""

    __slots__ = ()


class WordConst(WordExpr):
    """An unsigned constant word value (``0``, ``0x1f``, ``0b101``)."""

    __slots__ = ("value",)
    value: int


class WordRef(WordExpr):
    """The current value of another word (or the word itself: hold)."""

    __slots__ = ("name",)
    name: str


class WordOffset(WordExpr):
    """``name + k`` / ``name - k`` with wraparound at the word width."""

    __slots__ = ("name", "offset")
    name: str
    offset: int


class WordSum(WordExpr):
    """``a + b`` of two words — allowed only in ``DEFINE`` (the result is
    one bit wider than the widest operand, so it cannot feed a latch)."""

    __slots__ = ("lhs", "rhs")
    lhs: str
    rhs: str


#: What may appear on the right of ``next(x) :=`` — a propositional
#: expression (boolean targets), a word expression (word targets), or a
#: ``case`` over either.
NextValue = Union[Expr, WordExpr, "Case"]


class CaseArm(Node):
    """One ``condition : value;`` arm of a ``case`` block."""

    __slots__ = ("condition", "value")
    condition: Expr
    value: Union[Expr, WordExpr]


class Case(Node):
    """A ``case ... esac`` block: first matching arm wins.

    The elaborator requires the last arm's condition to be the constant
    ``TRUE`` (exhaustiveness, as in SMV).
    """

    __slots__ = ("arms",)
    arms: Tuple[CaseArm, ...]


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------


@record(frozen=True)
class VarDecl:
    """``name : boolean;`` or ``name : word[width];``.

    ``width`` is ``None`` for booleans.  A variable with a ``next()``
    assignment elaborates to a latch; one without becomes a free input.
    """

    name: str
    width: Optional[int] = None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    @property
    def is_word(self) -> bool:
        return self.width is not None


@record(frozen=True)
class InitAssign:
    """``init(x) := value;`` — reset value of a latch (int; 0/1 for bits)."""

    target: str
    value: int
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@record(frozen=True)
class NextAssign:
    """``next(x) := value;`` — next-state logic of a latch."""

    target: str
    value: NextValue
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@record(frozen=True)
class DefineDecl:
    """``name := expr;`` under ``DEFINE`` — a combinational signal.

    ``value`` is a propositional :class:`~repro.expr.ast.Expr` for boolean
    defines or a :class:`WordSum` for word-valued ones (``total := hi + lo``).
    """

    name: str
    value: Union[Expr, WordSum]
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@record(frozen=True)
class SpecDecl:
    """``SPEC formula;`` — an ACTL property to verify and cover."""

    formula: CtlFormula
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@record(frozen=True)
class FairnessDecl:
    """``FAIRNESS expr;`` — a constraint holding infinitely often."""

    expr: Expr
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@record(frozen=True)
class Module:
    """One parsed ``.rml`` module."""

    name: str
    vars: Tuple[VarDecl, ...] = ()
    inits: Tuple[InitAssign, ...] = ()
    nexts: Tuple[NextAssign, ...] = ()
    defines: Tuple[DefineDecl, ...] = ()
    fairness: Tuple[FairnessDecl, ...] = ()
    specs: Tuple[SpecDecl, ...] = ()
    observed: Tuple[str, ...] = ()
    dont_care: Optional[Expr] = None
    filename: Optional[str] = field(default=None, compare=False)

    # -- conveniences ----------------------------------------------------

    def var(self, name: str) -> Optional[VarDecl]:
        """The declaration of ``name``, or ``None``."""
        for decl in self.vars:
            if decl.name == name:
                return decl
        return None

    def latch_names(self) -> Tuple[str, ...]:
        """Variables with next-state logic (the rest are free inputs)."""
        assigned = {a.target for a in self.nexts}
        return tuple(v.name for v in self.vars if v.name in assigned)

    def input_names(self) -> Tuple[str, ...]:
        assigned = {a.target for a in self.nexts}
        return tuple(v.name for v in self.vars if v.name not in assigned)
