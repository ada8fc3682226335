"""CTL formula AST.

The full branching-time logic is represented (both A- and E-quantified
operators plus Boolean connectives); the DAC'99 coverage algorithm itself is
defined on the *acceptable ACTL subset* (see :mod:`repro.ctl.actl`), but the
model checker — and the observability-transformed formulas, which leave the
subset — need the full logic.

Propositional subformulas are held as :class:`Atom` leaves wrapping an
:class:`~repro.expr.ast.Expr`; :func:`collapse` folds propositional operator
applications into single atoms so that e.g. the antecedent of
``!stall & !reset & count < 5 -> AX ...`` becomes one ``Atom``, matching the
paper's ``b -> f`` shape.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from .._node import Node
from ..expr.ast import (
    TRUE_EXPR,
    And as EAnd,
    Expr,
    Iff as EIff,
    Implies as EImplies,
    Not as ENot,
    Or as EOr,
    Xor as EXor,
)

__all__ = [
    "CtlFormula",
    "Atom",
    "CtlNot",
    "CtlAnd",
    "CtlOr",
    "CtlImplies",
    "CtlIff",
    "CtlXor",
    "AX",
    "AG",
    "AF",
    "AU",
    "EX",
    "EG",
    "EF",
    "EU",
    "TRUE_ATOM",
    "collapse",
    "is_propositional",
    "to_expr",
    "formula_atoms",
    "map_atoms",
]


class CtlFormula(Node):
    """Base class for CTL formulas."""

    __slots__ = ()

    def __and__(self, other: "CtlFormula") -> "CtlFormula":
        return CtlAnd((self, other))

    def __or__(self, other: "CtlFormula") -> "CtlFormula":
        return CtlOr((self, other))

    def __invert__(self) -> "CtlFormula":
        return CtlNot(self)

    def implies(self, other: "CtlFormula") -> "CtlFormula":
        """Implication ``self -> other``."""
        return CtlImplies(self, other)

    def __str__(self) -> str:
        from .printer import ctl_to_str

        return ctl_to_str(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self})"


class Atom(CtlFormula):
    """A propositional leaf (state predicate)."""

    __slots__ = ("expr",)
    expr: Expr


class CtlNot(CtlFormula):
    __slots__ = ("operand",)
    operand: CtlFormula


class CtlAnd(CtlFormula):
    __slots__ = ("args",)
    args: Tuple[CtlFormula, ...]


class CtlOr(CtlFormula):
    __slots__ = ("args",)
    args: Tuple[CtlFormula, ...]


class CtlImplies(CtlFormula):
    __slots__ = ("lhs", "rhs")
    lhs: CtlFormula
    rhs: CtlFormula


class CtlIff(CtlFormula):
    __slots__ = ("lhs", "rhs")
    lhs: CtlFormula
    rhs: CtlFormula


class CtlXor(CtlFormula):
    __slots__ = ("lhs", "rhs")
    lhs: CtlFormula
    rhs: CtlFormula


class AX(CtlFormula):
    """On all paths, ``operand`` holds in the next state."""

    __slots__ = ("operand",)
    operand: CtlFormula


class AG(CtlFormula):
    """On all paths, ``operand`` holds globally."""

    __slots__ = ("operand",)
    operand: CtlFormula


class AF(CtlFormula):
    """On all paths, ``operand`` eventually holds (sugar for A[true U f])."""

    __slots__ = ("operand",)
    operand: CtlFormula


class AU(CtlFormula):
    """On all paths, ``lhs`` holds until ``rhs`` holds (which it must)."""

    __slots__ = ("lhs", "rhs")
    lhs: CtlFormula
    rhs: CtlFormula


class EX(CtlFormula):
    """On some path, ``operand`` holds in the next state."""

    __slots__ = ("operand",)
    operand: CtlFormula


class EG(CtlFormula):
    """On some path, ``operand`` holds globally."""

    __slots__ = ("operand",)
    operand: CtlFormula


class EF(CtlFormula):
    """On some path, ``operand`` eventually holds."""

    __slots__ = ("operand",)
    operand: CtlFormula


class EU(CtlFormula):
    """On some path, ``lhs`` holds until ``rhs`` holds."""

    __slots__ = ("lhs", "rhs")
    lhs: CtlFormula
    rhs: CtlFormula


TRUE_ATOM = Atom(TRUE_EXPR)

_PROP_CONNECTIVES = (CtlNot, CtlAnd, CtlOr, CtlImplies, CtlIff, CtlXor)
_UNARY_TEMPORAL = (AX, AG, AF, EX, EG, EF)
_BINARY_TEMPORAL = (AU, EU)


def is_propositional(formula: CtlFormula) -> bool:
    """Whether ``formula`` contains no temporal operator."""
    if isinstance(formula, Atom):
        return True
    if isinstance(formula, CtlNot):
        return is_propositional(formula.operand)
    if isinstance(formula, (CtlAnd, CtlOr)):
        return all(is_propositional(a) for a in formula.args)
    if isinstance(formula, (CtlImplies, CtlIff, CtlXor)):
        return is_propositional(formula.lhs) and is_propositional(formula.rhs)
    return False


def _flattened(cls, parts):
    """Build an n-ary And/Or, splicing in same-class children.

    Keeps collapsed formulas in the same shape the parser produces, so
    print -> parse round-trips are structural identities.
    """
    flat = []
    for part in parts:
        if isinstance(part, cls):
            flat.extend(part.args)
        else:
            flat.append(part)
    if len(flat) == 1:
        return flat[0]
    return cls(tuple(flat))


def to_expr(formula: CtlFormula) -> Expr:
    """Convert a propositional formula to a plain expression.

    Raises :class:`ValueError` when the formula is temporal.  Nested
    conjunctions/disjunctions are flattened to the parser's n-ary shape.
    """
    if isinstance(formula, Atom):
        return formula.expr
    if isinstance(formula, CtlNot):
        return ENot(to_expr(formula.operand))
    if isinstance(formula, CtlAnd):
        return _flattened(EAnd, (to_expr(a) for a in formula.args))
    if isinstance(formula, CtlOr):
        return _flattened(EOr, (to_expr(a) for a in formula.args))
    if isinstance(formula, CtlImplies):
        return EImplies(to_expr(formula.lhs), to_expr(formula.rhs))
    if isinstance(formula, CtlIff):
        return EIff(to_expr(formula.lhs), to_expr(formula.rhs))
    if isinstance(formula, CtlXor):
        return EXor(to_expr(formula.lhs), to_expr(formula.rhs))
    raise ValueError(f"formula is temporal: {formula}")


def collapse(formula: CtlFormula) -> CtlFormula:
    """Fold propositional subtrees into single :class:`Atom` leaves.

    The result is semantically identical; every maximal propositional
    subformula becomes one atom, which is the shape the acceptable-subset
    grammar (``b -> f``) and the coverage algorithm expect.  Nested
    conjunctions/disjunctions are flattened and their propositional members
    merged, so collapsed formulas print/parse round-trip structurally.
    """
    if is_propositional(formula):
        return Atom(to_expr(formula))
    if isinstance(formula, CtlNot):
        return CtlNot(collapse(formula.operand))
    if isinstance(formula, (CtlAnd, CtlOr)):
        return _collapse_nary(formula)
    if isinstance(formula, CtlImplies):
        return CtlImplies(collapse(formula.lhs), collapse(formula.rhs))
    if isinstance(formula, CtlIff):
        return CtlIff(collapse(formula.lhs), collapse(formula.rhs))
    if isinstance(formula, CtlXor):
        return CtlXor(collapse(formula.lhs), collapse(formula.rhs))
    if isinstance(formula, _UNARY_TEMPORAL):
        return type(formula)(collapse(formula.operand))
    if isinstance(formula, _BINARY_TEMPORAL):
        return type(formula)(collapse(formula.lhs), collapse(formula.rhs))
    raise TypeError(f"unknown CTL node {type(formula).__name__}")


def _collapse_nary(formula: CtlFormula) -> CtlFormula:
    """Collapse a (partially temporal) n-ary And/Or canonically.

    Same-type children are spliced in, and all propositional members merge
    into one leading atom; the temporal members keep their relative order.
    """
    cls = type(formula)
    expr_cls = EAnd if cls is CtlAnd else EOr
    members = []
    for arg in formula.args:
        collapsed = collapse(arg)
        if isinstance(collapsed, cls):
            members.extend(collapsed.args)
        else:
            members.append(collapsed)
    propositional = [m for m in members if isinstance(m, Atom)]
    temporal = [m for m in members if not isinstance(m, Atom)]
    out = []
    if propositional:
        out.append(Atom(_flattened(expr_cls, (m.expr for m in propositional))))
    out.extend(temporal)
    if len(out) == 1:
        return out[0]
    return cls(tuple(out))


def formula_atoms(formula: CtlFormula) -> FrozenSet[str]:
    """All signal/word names mentioned anywhere in the formula."""
    names: set = set()

    def rec(f: CtlFormula) -> None:
        if isinstance(f, Atom):
            names.update(f.expr.atoms())
        elif isinstance(f, CtlNot):
            rec(f.operand)
        elif isinstance(f, (CtlAnd, CtlOr)):
            for a in f.args:
                rec(a)
        elif isinstance(f, (CtlImplies, CtlIff, CtlXor)):
            rec(f.lhs)
            rec(f.rhs)
        elif isinstance(f, _UNARY_TEMPORAL):
            rec(f.operand)
        elif isinstance(f, _BINARY_TEMPORAL):
            rec(f.lhs)
            rec(f.rhs)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown CTL node {type(f).__name__}")

    rec(formula)
    return frozenset(names)


def map_atoms(formula: CtlFormula, fn) -> CtlFormula:
    """Rebuild the formula with every atom's expression passed through ``fn``."""
    if isinstance(formula, Atom):
        return Atom(fn(formula.expr))
    if isinstance(formula, CtlNot):
        return CtlNot(map_atoms(formula.operand, fn))
    if isinstance(formula, (CtlAnd, CtlOr)):
        return type(formula)(tuple(map_atoms(a, fn) for a in formula.args))
    if isinstance(formula, (CtlImplies, CtlIff, CtlXor)):
        return type(formula)(map_atoms(formula.lhs, fn), map_atoms(formula.rhs, fn))
    if isinstance(formula, _UNARY_TEMPORAL):
        return type(formula)(map_atoms(formula.operand, fn))
    if isinstance(formula, _BINARY_TEMPORAL):
        return type(formula)(map_atoms(formula.lhs, fn), map_atoms(formula.rhs, fn))
    raise TypeError(f"unknown CTL node {type(formula).__name__}")
