"""Frozen, slotted AST node base without per-class code generation.

``@dataclass(frozen=True, slots=True)`` writes each class's methods as
source text and ``exec``-s it, which costs about a millisecond per class
at import time — most of what a cold ``repro run`` spends loading the
expression and CTL ASTs.  A :class:`Node` subclass instead declares its
fields as ``__slots__`` and gets the same methods built from closures over
those names, once, when the class is created:

* ``__init__`` takes the fields positionally or by keyword and then calls
  ``__post_init__`` when the class defines one;
* ``__eq__`` is same-class plus field-tuple equality, and ``__hash__`` is
  ``hash`` of the field tuple, exactly as the dataclass computes them;
* ``__repr__`` is ``Cls(field=value, ...)``;
* assigning or deleting an attribute raises
  :class:`~dataclasses.FrozenInstanceError`;
* ``__reduce__`` pickles a node as its class and field tuple.

    >>> class Pair(Node):
    ...     __slots__ = ("lhs", "rhs")
    >>> Pair(1, rhs=2)
    Pair(lhs=1, rhs=2)
    >>> Pair(1, 2) == Pair(1, 2), hash(Pair(1, 2)) == hash((1, 2))
    (True, True)

A class whose ``__slots__`` is empty (an abstract base such as
:class:`~repro.expr.ast.Expr`) gets no methods of its own.  The generated
methods replace any of the same name in the class body, so a subclass
customises construction through ``__post_init__`` only.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter
from typing import Callable, Dict, Tuple

__all__ = ["Node"]


class Node:
    """Base of the immutable AST node hierarchies; see the module docs."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__slots__", ())
        if isinstance(fields, str):
            fields = (fields,)
        if not fields:
            return
        fields = tuple(fields)
        values = _values_getter(fields)
        cls.__match_args__ = fields
        cls.__init__ = _make_init(cls, fields)
        cls.__eq__, cls.__hash__ = _make_eq_hash(values)
        cls.__repr__ = _make_repr(fields, values)
        cls.__reduce__ = _make_reduce(values)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _values_getter(fields: Tuple[str, ...]) -> Callable:
    """``node -> tuple of its field values`` (``attrgetter`` returns a bare
    value, not a 1-tuple, for a single name)."""
    if len(fields) == 1:
        get = attrgetter(fields[0])
        return lambda node: (get(node),)
    return attrgetter(*fields)


def _make_init(cls, fields: Tuple[str, ...]) -> Callable:
    # Slot descriptors store straight into the instance, past the frozen
    # ``__setattr__``.
    setters = tuple(cls.__dict__[name].__set__ for name in fields)
    post_init = getattr(cls, "__post_init__", None)
    owner = cls.__qualname__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(fields):
            args = _bind(owner, fields, args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)
        if post_init is not None:
            post_init(self)

    return __init__


def _bind(owner: str, fields: Tuple[str, ...], args: tuple, kwargs: Dict) -> tuple:
    """Order positional and keyword arguments by field, raising the
    ``TypeError`` a plain ``def __init__(self, <fields>)`` would, with
    CPython's text."""
    where = f"{owner}.__init__()"
    if len(args) > len(fields):
        raise TypeError(
            f"{where} takes {len(fields) + 1} positional arguments but "
            f"{len(args) + 1} were given"
        )
    bound = dict(zip(fields, args))
    for name, value in kwargs.items():
        if name not in fields:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if name in bound:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
        bound[name] = value
    missing = [repr(name) for name in fields if name not in bound]
    if missing:
        if len(missing) == 1:
            listed = missing[0]
        elif len(missing) == 2:
            listed = " and ".join(missing)
        else:
            listed = ", ".join(missing[:-1]) + ", and " + missing[-1]
        noun = "argument" if len(missing) == 1 else "arguments"
        raise TypeError(
            f"{where} missing {len(missing)} required positional {noun}: {listed}"
        )
    return tuple(bound[name] for name in fields)


def _make_eq_hash(values: Callable) -> Tuple[Callable, Callable]:
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    return __eq__, __hash__


def _make_repr(fields: Tuple[str, ...], values: Callable) -> Callable:
    def __repr__(self):
        body = ", ".join(
            f"{name}={value!r}" for name, value in zip(fields, values(self))
        )
        return f"{self.__class__.__qualname__}({body})"

    return __repr__


def _make_reduce(values: Callable) -> Callable:
    def __reduce__(self):
        return self.__class__, values(self)

    return __reduce__
