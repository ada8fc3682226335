"""Propositional expression AST over named circuit signals.

Expressions are the ``b`` of the paper's grammar: Boolean predicates over the
signals of Definition 1.  They appear as antecedents/consequents inside CTL
formulas, as don't-care sets, and as fairness constraints.

All node classes are immutable :class:`~repro._node.Node` subclasses
(fields in ``__slots__``; structural equality and hashing); operators are
overloaded so properties can be built programmatically::

    (~Var("stall") & ~Var("reset")).implies(Var("ready"))

Bit-vector comparisons (``count < 5``) are carried as :class:`WordCmp` leaves
and lowered to pure bit-level Boolean structure by
:func:`repro.expr.bitvector.resolve_words` before symbolisation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple, Union

from .._node import Node

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Not",
    "And",
    "Or",
    "Xor",
    "Iff",
    "Implies",
    "WordCmp",
    "TRUE_EXPR",
    "FALSE_EXPR",
    "CMP_OPS",
]

#: Comparison operators accepted by :class:`WordCmp`.
CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


class Expr(Node):
    """Base class for propositional expressions."""

    __slots__ = ()

    # -- operator sugar -------------------------------------------------

    def __and__(self, other: "Expr") -> "Expr":
        return And((self, other))

    def __or__(self, other: "Expr") -> "Expr":
        return Or((self, other))

    def __xor__(self, other: "Expr") -> "Expr":
        return Xor(self, other)

    def __invert__(self) -> "Expr":
        return Not(self)

    def implies(self, other: "Expr") -> "Expr":
        """Implication ``self -> other``."""
        return Implies(self, other)

    def iff(self, other: "Expr") -> "Expr":
        """Equivalence ``self <-> other``."""
        return Iff(self, other)

    # -- analysis --------------------------------------------------------

    def atoms(self) -> FrozenSet[str]:
        """Names of all signals (and words) mentioned by this expression."""
        out: set = set()
        _collect_atoms(self, out)
        return frozenset(out)

    def substitute(self, mapping: Dict[str, "Expr"]) -> "Expr":
        """Replace ``Var`` leaves by expressions (simultaneously)."""
        return _substitute(self, mapping)

    def __str__(self) -> str:
        from .printer import expr_to_str

        return expr_to_str(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self})"


class Const(Expr):
    """The constants ``true`` / ``false``."""

    __slots__ = ("value",)
    value: bool


class Var(Expr):
    """A reference to a named Boolean signal."""

    __slots__ = ("name",)
    name: str


class Not(Expr):
    """Negation."""

    __slots__ = ("operand",)
    operand: Expr


class And(Expr):
    """N-ary conjunction (kept n-ary for readable round-tripping)."""

    __slots__ = ("args",)
    args: Tuple[Expr, ...]


class Or(Expr):
    """N-ary disjunction."""

    __slots__ = ("args",)
    args: Tuple[Expr, ...]


class Xor(Expr):
    """Exclusive or."""

    __slots__ = ("lhs", "rhs")
    lhs: Expr
    rhs: Expr


class Iff(Expr):
    """Equivalence."""

    __slots__ = ("lhs", "rhs")
    lhs: Expr
    rhs: Expr


class Implies(Expr):
    """Implication."""

    __slots__ = ("lhs", "rhs")
    lhs: Expr
    rhs: Expr


class WordCmp(Expr):
    """Comparison of a named bit-vector against a constant or another word.

    ``lhs`` is always a word (or single-bit signal) name; ``rhs`` is either an
    ``int`` constant or another name.  The comparison is unsigned.
    """

    __slots__ = ("op", "lhs", "rhs")
    op: str
    lhs: str
    rhs: Union[int, str]

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


TRUE_EXPR = Const(True)
FALSE_EXPR = Const(False)


def _collect_atoms(expr: Expr, out: set) -> None:
    if isinstance(expr, Var):
        out.add(expr.name)
    elif isinstance(expr, Not):
        _collect_atoms(expr.operand, out)
    elif isinstance(expr, (And, Or)):
        for arg in expr.args:
            _collect_atoms(arg, out)
    elif isinstance(expr, (Xor, Iff, Implies)):
        _collect_atoms(expr.lhs, out)
        _collect_atoms(expr.rhs, out)
    elif isinstance(expr, WordCmp):
        out.add(expr.lhs)
        if isinstance(expr.rhs, str):
            out.add(expr.rhs)
    elif isinstance(expr, Const):
        pass
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown expression node {type(expr).__name__}")


def _substitute(expr: Expr, mapping: Dict[str, Expr]) -> Expr:
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Not):
        return Not(_substitute(expr.operand, mapping))
    if isinstance(expr, And):
        return And(tuple(_substitute(a, mapping) for a in expr.args))
    if isinstance(expr, Or):
        return Or(tuple(_substitute(a, mapping) for a in expr.args))
    if isinstance(expr, Xor):
        return Xor(_substitute(expr.lhs, mapping), _substitute(expr.rhs, mapping))
    if isinstance(expr, Iff):
        return Iff(_substitute(expr.lhs, mapping), _substitute(expr.rhs, mapping))
    if isinstance(expr, Implies):
        return Implies(_substitute(expr.lhs, mapping), _substitute(expr.rhs, mapping))
    if isinstance(expr, WordCmp):
        # Word comparisons name whole vectors; Var-level substitution does
        # not reach inside them.  Lower words first if that is needed.
        return expr
    raise TypeError(f"unknown expression node {type(expr).__name__}")
