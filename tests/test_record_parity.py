"""Records built by :func:`repro._node.record` behave exactly like the
dataclasses they replace.

Every record class in ``src/repro`` is checked against a *twin*: a
``dataclasses.make_dataclass`` class with the same fields, defaults,
``compare`` flags and decorator options (read from the class's source),
and the same methods.  Construction, equality, hashing, ``repr``,
``__match_args__``, the instance ``__dict__`` that pickling and copying
write, ``fields``, ``replace`` and the constructor's ``TypeError`` text
must all agree.
"""

import ast
import copy
import dataclasses
import importlib
import pickle
import pkgutil
import sys
from pathlib import Path
from typing import List, Optional

import pytest

import repro
from repro._node import MISSING, InitVar, field, fields, record, replace

#: Class attributes the decorator generates (plus interpreter-managed
#: ones); everything else in a record's namespace is copied to its twin.
GENERATED = {
    "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
    "__match_args__", "__record_params__",
    "__dict__", "__weakref__", "__annotations__", "__module__",
    "__qualname__", "__doc__",
}


def _record_classes():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == name
                and "__record_params__" in vars(value)
            ):
                found.append(value)
    return sorted(set(found), key=lambda cls: (cls.__module__, cls.__qualname__))


RECORDS = _record_classes()


def _options(cls):
    """The keyword arguments of the class's ``@record(...)`` decorator."""
    tree = ast.parse(Path(sys.modules[cls.__module__].__file__).read_text())
    node = next(
        n for n in ast.walk(tree)
        if isinstance(n, ast.ClassDef) and n.name == cls.__name__
    )
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "record":
            return {}
        if isinstance(decorator, ast.Call) and decorator.func.id == "record":
            return {kw.arg: ast.literal_eval(kw.value) for kw in decorator.keywords}
    raise AssertionError(f"{cls.__name__} has no @record decorator")


def _dataclass_field(spec):
    kwargs = {"compare": spec.compare}
    if spec.default is not MISSING:
        kwargs["default"] = spec.default
    if spec.default_factory is not MISSING:
        kwargs["default_factory"] = spec.default_factory
    return dataclasses.field(**kwargs)


def make_twin(cls):
    options = _options(cls)
    params = cls.__record_params__
    names = {spec.name for spec in params}
    namespace = {
        key: value for key, value in vars(cls).items()
        if key not in GENERATED and key not in names
        and (key != "__init__" or options.get("init") is False)
    }
    return dataclasses.make_dataclass(
        cls.__name__,
        [
            (
                spec.name,
                dataclasses.InitVar[object] if spec.initvar else spec.type,
                _dataclass_field(spec),
            )
            for spec in params
        ],
        namespace=namespace,
        **options,
    )


TWINS = {cls: make_twin(cls) for cls in RECORDS}


def required_args(cls):
    """Values for the fields without defaults (a registered code where a
    record validates one)."""
    from repro.lint.diagnostics import CODE_INDEX

    out = []
    for spec in cls.__record_params__:
        if spec.default is MISSING and spec.default_factory is MISSING:
            if spec.name == "code" and cls.__name__ == "Diagnostic":
                out.append(sorted(CODE_INDEX)[0])
            else:
                out.append(f"<{cls.__name__}.{spec.name}>")
    return out


def test_every_dataclass_became_a_record():
    assert len(RECORDS) == 38
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_construction_repr_eq_hash_match_twin(cls):
    twin = TWINS[cls]
    args = required_args(cls)
    rec, twin_rec = cls(*args), twin(*args)
    assert repr(rec) == repr(twin_rec)
    # The instance dict is what pickle and copy write: same keys, same
    # order, same values.
    assert list(vars(rec).items()) == list(vars(twin_rec).items())
    assert rec == cls(*args) and not rec != cls(*args)
    assert rec.__eq__(twin_rec) is NotImplemented
    assert (cls.__hash__ is None) == (twin.__hash__ is None)
    if cls.__hash__ is not None:
        assert hash(rec) == hash(twin_rec) == hash(cls(*args))
    assert cls.__match_args__ == twin.__match_args__


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_keyword_construction(cls):
    args = required_args(cls)
    positional = cls(*args)
    names = [f.name for f in fields(cls)][: len(args)]
    assert cls(**dict(zip(names, args))) == positional
    # A positional prefix plus keywords, in order and out of order.
    if len(args) >= 2:
        assert cls(args[0], **dict(zip(names[1:], args[1:]))) == positional
        assert cls(**dict(reversed(list(zip(names, args))))) == positional
        assert list(vars(cls(**dict(reversed(list(zip(names, args)))))))[
            : len(names)
        ] == names


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_match_twin(cls):
    def describe(spec, missing):
        return (
            spec.name,
            spec.type,
            None if spec.default is missing else spec.default,
            None if spec.default_factory is missing else spec.default_factory,
            spec.compare,
        )

    ours = [describe(f, MISSING) for f in fields(cls)]
    theirs = [describe(f, dataclasses.MISSING) for f in dataclasses.fields(TWINS[cls])]
    assert ours == theirs
    assert fields(cls(*required_args(cls))) == fields(cls)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_pickle_and_copy_round_trip(cls):
    rec = cls(*required_args(cls))
    for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(clone) is cls
        assert clone == rec and repr(clone) == repr(rec)
        assert list(vars(clone).items()) == list(vars(rec).items())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_frozen_matches_twin(cls):
    rec, twin_rec = cls(*required_args(cls)), TWINS[cls](*required_args(cls))
    name = fields(cls)[0].name
    value = getattr(rec, name)
    if _options(cls).get("frozen"):
        for target in (rec, twin_rec):
            with pytest.raises(dataclasses.FrozenInstanceError) as info:
                setattr(target, name, value)
            with pytest.raises(dataclasses.FrozenInstanceError) as del_info:
                delattr(target, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, "extra", 1)
        assert str(info.value) == f"cannot assign to field {name!r}"
        assert str(del_info.value) == f"cannot delete field {name!r}"
    else:
        setattr(rec, name, value)
        rec.extra = 1
        assert rec.extra == 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_defaults_and_fresh_factory_values(cls):
    first, second = cls(*required_args(cls)), cls(*required_args(cls))
    for spec in fields(cls):
        if spec.default_factory is not MISSING:
            assert getattr(first, spec.name) == spec.default_factory()
            if isinstance(getattr(first, spec.name), (list, dict)):
                assert getattr(first, spec.name) is not getattr(second, spec.name)
        elif spec.default is not MISSING:
            assert getattr(first, spec.name) == spec.default
            assert getattr(cls, spec.name) == spec.default


@pytest.mark.parametrize(
    "cls",
    [c for c in RECORDS if any(not f.compare for f in fields(c))],
    ids=lambda c: c.__name__,
)
def test_compare_false_fields_are_ignored(cls):
    rec = cls(*required_args(cls))
    for spec in fields(cls):
        if not spec.compare:
            other = replace(rec, **{spec.name: 12345})
            assert other == rec and hash(other) == hash(rec)
            assert getattr(other, spec.name) == 12345


def _type_error(build):
    with pytest.raises(TypeError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize(
    "cls",
    [c for c in RECORDS if _options(c).get("init") is not False],
    ids=lambda c: c.__name__,
)
def test_bad_arguments_raise_the_twins_type_error(cls):
    twin = TWINS[cls]
    args = required_args(cls)
    params = [spec.name for spec in cls.__record_params__]
    calls = [
        ((None,) * (len(params) + 1), {}),
        (tuple(args), {"nme": None}),
        (tuple(args) or (None,), {params[0]: None}),
    ]
    if args:
        calls += [((), {}), (tuple(args[:-1]), {})]
    for call_args, kwargs in calls:
        expected = _type_error(lambda: twin(*call_args, **kwargs))
        assert _type_error(lambda: cls(*call_args, **kwargs)) == expected


@pytest.mark.parametrize(
    # ``replace`` re-reads an InitVar through the instance, which for
    # AnalysisResult is its deprecated ``trans`` property; test_initvar_record
    # covers the InitVar path.
    "cls",
    [c for c in RECORDS if not any(f.initvar for f in c.__record_params__)],
    ids=lambda c: c.__name__,
)
def test_replace_matches_twin(cls):
    args = required_args(cls)
    rec, twin_rec = cls(*args), TWINS[cls](*args)
    name = fields(cls)[0].name
    value = getattr(rec, name)
    assert repr(replace(rec, **{name: value})) == repr(
        dataclasses.replace(twin_rec, **{name: value})
    )
    assert replace(rec) == rec and replace(rec) is not rec
    assert _type_error(lambda: replace(rec, nope=1)) == _type_error(
        lambda: dataclasses.replace(twin_rec, nope=1)
    )


def test_fields_and_replace_reject_non_records():
    for value in (object(), 3, "text", repro.EngineConfig):
        if not isinstance(value, type):
            with pytest.raises(TypeError, match="must be called with a record"):
                fields(value)
        with pytest.raises(TypeError, match="should be called on record instances"):
            replace(value)


@record
class _Box:
    name: str
    items: List[int] = field(default_factory=list)
    scale: InitVar[Optional[int]] = None

    def __post_init__(self, scale):
        if scale is not None:
            self.items = [item * scale for item in self.items]


@record
class _Labelled(_Box):
    label: str = "x"


@dataclasses.dataclass
class _BoxTwin:
    name: str
    items: List[int] = dataclasses.field(default_factory=list)
    scale: dataclasses.InitVar[Optional[int]] = None

    __post_init__ = _Box.__post_init__


@dataclasses.dataclass
class _LabelledTwin(_BoxTwin):
    label: str = "x"


def _strip_twin(text):
    return text.replace("Twin", "")


def test_initvar_record():
    box = _Box("b", [1, 2], scale=3)
    assert box.items == [3, 6] and "scale" not in vars(box)
    assert repr(box) == _strip_twin(repr(_BoxTwin("b", [1, 2], scale=3)))
    assert [f.name for f in fields(_Box)] == ["name", "items"]
    assert _Box.__match_args__ == _BoxTwin.__match_args__ == ("name", "items", "scale")
    assert replace(box, scale=2).items == [6, 12]
    assert replace(box).items == [3, 6]
    assert _Box("a") == _Box("a") and _Box.__hash__ is None
    assert _type_error(lambda: _Box()) == _strip_twin(_type_error(lambda: _BoxTwin()))
    assert _type_error(lambda: _Box(1, 2, 3, 4)) == _strip_twin(
        _type_error(lambda: _BoxTwin(1, 2, 3, 4))
    )


def test_inherited_fields_come_first():
    assert [f.name for f in fields(_Labelled)] == ["name", "items", "label"]
    assert _Labelled.__match_args__ == _LabelledTwin.__match_args__
    item = _Labelled("n", [1], 2, "y")
    assert item.items == [2] and repr(item) == "_Labelled(name='n', items=[2], label='y')"
    assert repr(item) == _strip_twin(repr(_LabelledTwin("n", [1], 2, "y")))


def test_initvar_without_default_must_be_given_to_replace():
    @record
    class Scaled:
        value: int
        factor: InitVar[int]

        def __post_init__(self, factor):
            self.value *= factor

    with pytest.raises(ValueError, match="InitVar 'factor' must be specified"):
        replace(Scaled(1, 2))
    assert replace(Scaled(1, 2), factor=5).value == 10


def test_mutable_default_is_refused():
    with pytest.raises(ValueError, match="use default_factory"):
        @record
        class Bad:
            items: list = []
