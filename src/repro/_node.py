"""Exec-free value classes: slotted AST nodes and plain records.

``@dataclass`` writes each class's methods as source text and ``exec``-s
it, which costs about a millisecond per class at import time, and the
``dataclasses`` module itself pulls in ``inspect``, ``ast`` and
``tokenize``.  On a cold ``repro run`` that was most of the import time.
The two bases here build the same methods from closures over the field
names, once, when the class is created, and import ``dataclasses`` only on
the error path that raises its :class:`~dataclasses.FrozenInstanceError`.

:class:`Node` is the frozen, slotted base of the expression, CTL and
word-level AST hierarchies.  A subclass declares its fields as
``__slots__``:

* ``__init__`` takes the fields positionally or by keyword and then calls
  ``__post_init__`` when the class defines one;
* ``__eq__`` is same-class plus field-tuple equality, and ``__hash__`` is
  ``hash`` of the field tuple, exactly as the dataclass computes them;
* ``__repr__`` is ``Cls(field=value, ...)``;
* assigning or deleting an attribute raises ``FrozenInstanceError``;
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

:func:`record` is the stand-in for ``@dataclass`` on everything else
(configs, results, declarations, tokens).  It covers the subset this
package uses — annotated fields in order, inherited fields first,
defaults, ``field(default_factory=..., compare=False)``, ``frozen=True``,
``init=False``, ``__post_init__`` and :class:`InitVar` — and gives a
record exactly the dataclass's ``__init__`` signature and errors,
``__eq__``, ``__hash__`` (``None`` unless frozen), ``__repr__`` and
``__match_args__``.  Records keep an instance ``__dict__`` in field order,
so they pickle and copy byte for byte like the dataclass.  :func:`fields`
and :func:`replace` are ``dataclasses.fields``/``replace`` for records.

    >>> @record(frozen=True)
    ... class Point:
    ...     x: int
    ...     y: int = 0
    ...     tag: str = field(default="", compare=False)
    >>> Point(1, tag="a")
    Point(x=1, y=0, tag='a')
    >>> Point(1) == Point(1, tag="b"), replace(Point(1), y=2)
    (True, Point(x=1, y=2, tag=''))
    >>> [f.name for f in fields(Point)]
    ['x', 'y', 'tag']
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, Tuple

__all__ = ["Node", "record", "field", "fields", "replace", "Field", "InitVar", "MISSING"]


def _frozen(message: str) -> Exception:
    # Imported here, on the error path, so that no start-up path loads
    # ``dataclasses`` (and with it ``inspect``) just to name this class.
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


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
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen(f"cannot delete field {name!r}")


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
            args = _bind(owner, fields, args, kwargs, {}).values()
        for set_field, value in zip(setters, args):
            set_field(self, value)
        if post_init is not None:
            post_init(self)

    return __init__


def _bind(
    owner: str,
    params: Tuple[str, ...],
    args: tuple,
    kwargs: Dict,
    defaults: Dict[str, Callable[[], object]],
) -> Dict:
    """``{param: value}`` in parameter order for a call of ``def
    __init__(self, <params>)`` whose defaulted parameters each get
    ``defaults[name]()``, raising the ``TypeError`` that function would,
    with CPython's text."""
    where = f"{owner}.__init__()"
    if len(args) > len(params):
        total = len(params) + 1
        takes = (
            f"from {total - len(defaults)} to {total}" if defaults else f"{total}"
        )
        raise TypeError(
            f"{where} takes {takes} positional arguments but "
            f"{len(args) + 1} were given"
        )
    bound = dict(zip(params, args))
    for name, value in kwargs.items():
        if name not in params:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if name in bound:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
        bound[name] = value
    missing = [
        repr(name) for name in params if name not in bound and name not in defaults
    ]
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
    return {
        name: bound[name] if name in bound else defaults[name]()
        for name in params
    }


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


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------


#: "No default" marker for :class:`Field`.
MISSING = object()


class InitVar:
    """Annotation of an init-only parameter: ``x: InitVar[T] = default``
    is passed to ``__init__`` and on to ``__post_init__``, but is not a
    field."""

    def __class_getitem__(cls, item):
        return cls


class Field:
    """One record field, as :func:`fields` reports it (``initvar`` marks
    an :class:`InitVar` parameter, which :func:`fields` leaves out)."""

    __slots__ = ("name", "type", "default", "default_factory", "compare", "initvar")

    def __init__(self, default=MISSING, default_factory=MISSING, compare=True):
        if default is not MISSING and default_factory is not MISSING:
            raise ValueError("cannot specify both default and default_factory")
        self.name = None
        self.type = None
        self.default = default
        self.default_factory = default_factory
        self.compare = compare
        self.initvar = False


def field(*, default=MISSING, default_factory=MISSING, compare=True) -> Field:
    """A field with a default, a per-instance ``default_factory``, or
    ``compare=False`` (left out of ``__eq__`` and ``__hash__``)."""
    return Field(default, default_factory, compare)


def _is_initvar(annotation) -> bool:
    if isinstance(annotation, str):  # under ``from __future__ import annotations``
        return annotation.startswith("InitVar[")
    return annotation is InitVar


def record(cls=None, /, *, frozen: bool = False, init: bool = True):
    """Class decorator: ``@record`` or ``@record(frozen=True, init=False)``.
    See the module docs for what it generates."""

    def wrap(cls):
        return _build_record(cls, frozen, init)

    return wrap if cls is None else wrap(cls)


def _build_record(cls, frozen: bool, init: bool):
    params = {f.name: f for f in getattr(cls, "__record_params__", ())}
    for name, annotation in cls.__dict__.get("__annotations__", {}).items():
        spec = cls.__dict__.get(name, MISSING)
        if not isinstance(spec, Field):
            spec = Field(default=spec)
        if type(spec.default).__hash__ is None:
            raise ValueError(
                f"mutable default {type(spec.default)} for field {name} "
                f"is not allowed: use default_factory"
            )
        spec.name, spec.type = name, annotation
        spec.initvar = _is_initvar(annotation)
        params[name] = spec
        # As with a dataclass, the class attribute is the plain default.
        if spec.default is not MISSING:
            setattr(cls, name, spec.default)
        elif name in cls.__dict__:
            delattr(cls, name)
    params = tuple(params.values())
    own = tuple(f for f in params if not f.initvar)
    names = tuple(f.name for f in own)
    cls.__record_params__ = params
    cls.__match_args__ = tuple(f.name for f in params)
    if init:
        cls.__init__ = _make_record_init(cls, params)
    eq, hash_ = _make_eq_hash(
        _values_getter(tuple(f.name for f in own if f.compare))
    )
    cls.__eq__ = eq
    cls.__hash__ = hash_ if frozen else None
    cls.__repr__ = _make_repr(names, _values_getter(names))
    if frozen:
        cls.__setattr__, cls.__delattr__ = _make_frozen(cls, names)
    return cls


def _make_record_init(cls, params: Tuple[Field, ...]) -> Callable:
    names = tuple(f.name for f in params)
    defaults = {}
    for f in params:
        if f.default_factory is not MISSING:
            defaults[f.name] = f.default_factory
        elif f.default is not MISSING:
            defaults[f.name] = lambda value=f.default: value
    post_init = getattr(cls, "__post_init__", None)
    owner = cls.__qualname__
    initvars = tuple(f.name for f in params if f.initvar)
    # Each instance gets a fresh dict, in field order, through the
    # ``__dict__`` descriptor: past a frozen ``__setattr__``, and cheaper
    # than ``object.__setattr__`` per field.  (Filling ``self.__dict__``
    # in place would leave a dict that attribute reads look up slowly.)
    set_dict = next(
        vars(base)["__dict__"] for base in cls.__mro__ if "__dict__" in vars(base)
    ).__set__

    if initvars:

        def __init__(self, *args, **kwargs):
            state = _bind(owner, names, args, kwargs, defaults)
            extra = [state.pop(name) for name in initvars]
            set_dict(self, state)
            post_init(self, *extra)

        return __init__

    # The fast paths: every field positionally, or a positional prefix
    # followed by the remaining fields as keywords in declaration order
    # (how the parsers build declarations).  Anything else — defaults to
    # fill, keywords out of order, bad calls — binds first.
    count = len(names)
    keyword_tails = tuple(names[i:] for i in range(count + 1))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            given = len(args)
            if given <= count and tuple(kwargs) == keyword_tails[given]:
                state = dict(zip(names, args))
                state.update(kwargs)
            else:
                state = _bind(owner, names, args, kwargs, defaults)
        else:
            state = dict(zip(names, args))
        set_dict(self, state)
        if post_init is not None:
            post_init(self)

    return __init__


def _make_frozen(cls, names: Tuple[str, ...]) -> Tuple[Callable, Callable]:
    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise _frozen(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise _frozen(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    return __setattr__, __delattr__


def fields(class_or_instance) -> Tuple[Field, ...]:
    """The fields of a record class or instance, in declaration order
    (init-only parameters excluded)."""
    try:
        params = class_or_instance.__record_params__
    except AttributeError:
        raise TypeError("must be called with a record type or instance") from None
    return tuple(f for f in params if not f.initvar)


def replace(obj, /, **changes):
    """A new record like ``obj`` with ``changes`` applied, built through
    ``__init__`` (so ``__post_init__`` validation runs again)."""
    if not hasattr(type(obj), "__record_params__"):
        raise TypeError("replace() should be called on record instances")
    for f in obj.__record_params__:
        if f.name not in changes:
            if f.initvar and f.default is MISSING:
                raise ValueError(f"InitVar {f.name!r} must be specified with replace()")
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)
