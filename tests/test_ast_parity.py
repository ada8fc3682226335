"""The exec-free AST node classes behave exactly like the dataclasses they
replace.

Every :class:`~repro._node.Node` subclass in ``repro.expr.ast``,
``repro.ctl.ast`` and ``repro.lang.ast`` is checked against a *twin*: the
same fields declared with ``@dataclass(frozen=True, slots=True)``, the
definition these classes had before.  The nodes come from parsing every
``examples/*.rml`` model and every ``tests/corpus/*.rml`` reproducer, their
observability-transformed properties, and a few parsed formulas for the
operators outside the ACTL subset those models keep to.
"""

import copy
import dataclasses
import pickle
from pathlib import Path

import pytest

from repro._node import Node, fields
from repro.ctl import ast as ctl_ast, parse_ctl
from repro.ctl.transform import observability_transform
from repro.errors import NotInSubsetError
from repro.expr import ast as expr_ast
from repro.expr.ast import WordCmp
from repro.lang import ast as lang_ast, parse_module

ROOT = Path(__file__).resolve().parents[1]
MODEL_PATHS = sorted((ROOT / "examples").glob("*.rml")) + sorted(
    (ROOT / "tests" / "corpus").glob("*.rml")
)

#: Formulas for the CTL classes no shipped model uses: E-quantified
#: operators and Boolean connectives over temporal operands.
EXTRA_CTL = (
    "EX req",
    "EG !ack",
    "EF (count < 3)",
    "E [req U ack]",
    "AX req | AF ack",
    "(AX req) <-> (AF ack)",
    "AX req ^ EF ack",
)

NODE_CLASSES = [
    cls
    for module in (expr_ast, ctl_ast, lang_ast)
    for cls in vars(module).values()
    if isinstance(cls, type)
    and issubclass(cls, Node)
    and cls.__module__ == module.__name__
    and cls.__dict__.get("__slots__")
]

#: Node class -> its dataclass twin.
TWINS = {
    cls: dataclasses.make_dataclass(
        cls.__name__,
        [(name, object) for name in cls.__slots__],
        frozen=True,
        slots=True,
    )
    for cls in NODE_CLASSES
}


def fields_of(node):
    return tuple(getattr(node, name) for name in type(node).__slots__)


def twin(value):
    """The same tree built from the dataclass twins."""
    if isinstance(value, Node):
        return TWINS[type(value)](*(twin(v) for v in fields_of(value)))
    if isinstance(value, tuple):
        return tuple(twin(v) for v in value)
    return value


def walk(value):
    """Every node reachable from a parsed module (declarations included)."""
    if isinstance(value, Node):
        yield value
        for child in fields_of(value):
            yield from walk(child)
    elif isinstance(value, tuple):
        for child in value:
            yield from walk(child)
    else:
        try:
            record_fields = fields(value)
        except TypeError:  # a leaf value, not a record
            return
        for field in record_fields:
            yield from walk(getattr(value, field.name))


def _corpus_nodes():
    nodes = []
    for path in MODEL_PATHS:
        module = parse_module(path.read_text(), filename=str(path))
        nodes.extend(walk(module))
        for spec in module.specs:
            for signal in module.observed:
                try:
                    transformed = observability_transform(spec.formula, signal)
                except NotInSubsetError:  # word-level atom on the signal
                    continue
                nodes.extend(walk(transformed))
    for text in EXTRA_CTL:
        nodes.extend(walk(parse_ctl(text)))
    return nodes


NODES = _corpus_nodes()


def test_corpus_reaches_every_node_class():
    assert len(NODE_CLASSES) == 30  # 9 expr + 15 ctl + 6 lang
    assert {type(n) for n in NODES} == set(NODE_CLASSES)


def test_hash_is_hash_of_field_tuple():
    for node in NODES:
        assert hash(node) == hash(fields_of(node)) == hash(twin(node))


def test_repr_text_matches_dataclass():
    for node in NODES:
        assert repr(node) == repr(twin(node))


def test_equality_matches_dataclass():
    # Pairs drawn across the corpus: equal trees, different trees, and
    # different classes with the same field values all compare as the
    # dataclass twins do.
    sample = NODES[::7]
    for left in sample:
        rebuilt = type(left)(*fields_of(left))
        assert rebuilt == left and not rebuilt != left
        for right in sample[:40]:
            assert (left == right) == (twin(left) == twin(right))
            assert (left != right) == (twin(left) != twin(right))


def test_same_fields_different_class_are_unequal():
    a, b = expr_ast.Var("a"), expr_ast.Var("b")
    assert expr_ast.Xor(a, b) != expr_ast.Iff(a, b)
    assert expr_ast.And((a, b)) != expr_ast.Or((a, b))
    atom = ctl_ast.Atom(a)
    assert ctl_ast.AG(atom) != ctl_ast.AF(atom)
    assert ctl_ast.AU(atom, atom) != ctl_ast.EU(atom, atom)
    assert lang_ast.WordRef("a") != expr_ast.Var("a")
    assert ctl_ast.AG(atom).__eq__(ctl_ast.EG(atom)) is NotImplemented


def test_set_and_dict_order_match_dataclass():
    # Equal hashes and equality make hash-table iteration order identical,
    # which is what keeps the PYTHONHASHSEED byte-identity pins unchanged.
    assert [twin(n) for n in set(NODES)] == list({twin(n) for n in NODES})
    assert [twin(n) for n in dict.fromkeys(NODES)] == list(
        dict.fromkeys(twin(n) for n in NODES)
    )


def test_pickle_and_copy_round_trip():
    for node in NODES:
        for clone in (
            pickle.loads(pickle.dumps(node)),
            copy.copy(node),
            copy.deepcopy(node),
        ):
            assert type(clone) is type(node)
            assert clone == node and hash(clone) == hash(node)
            assert repr(clone) == repr(node)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_frozen(cls):
    node = next(n for n in NODES if type(n) is cls)
    field = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(node, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(node, "extra", None)
    with pytest.raises(AttributeError):
        delattr(node, field)
    assert not hasattr(node, "__dict__")


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_keyword_construction_and_match_args(cls):
    node = next(n for n in NODES if type(n) is cls)
    values = fields_of(node)
    assert cls(**dict(zip(cls.__slots__, values))) == node
    assert cls.__match_args__ == TWINS[cls].__match_args__


def _type_error(build):
    with pytest.raises(TypeError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_bad_arguments_raise_dataclass_type_error(cls):
    # Every way of mis-calling the constructor raises the dataclass
    # ``__init__``'s TypeError, text included: no argument, one field
    # short, one too many, an unknown keyword, a field given twice.
    twin_cls = TWINS[cls]
    fields = cls.__slots__
    calls = [
        ((), {}),
        ((None,) * (len(fields) - 1), {}),
        ((None,) * (len(fields) + 1), {}),
        ((None,) * len(fields), {"nme": None}),
        ((None,) * len(fields), {fields[0]: None}),
    ]
    for args, kwargs in calls:
        expected = _type_error(lambda: twin_cls(*args, **kwargs))
        assert _type_error(lambda: cls(*args, **kwargs)) == expected


def test_word_cmp_validates_operator():
    assert WordCmp("<", "count", 5) == WordCmp(op="<", lhs="count", rhs=5)
    with pytest.raises(ValueError, match="unknown comparison operator '=~'"):
        WordCmp("=~", "count", 5)
    with pytest.raises(ValueError, match="unknown comparison operator"):
        WordCmp(op="<>", lhs="count", rhs="limit")
