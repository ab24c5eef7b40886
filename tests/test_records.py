"""The result and configuration types are `core.Record`s, and each behaves as
the frozen dataclass with its fields and defaults: its twin, built here."""

import __future__
import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import sys
import threading

import pytest

import illation
from illation import atlas, bivalent, core, indirect, notation, syllogistic, trivalent
from illation.core import CONNECTIVES, IMPLICATION, Record
from illation.notation import Notation, parse

MODULES = (core, notation, bivalent, indirect, trivalent, atlas, syllogistic)


def samples() -> dict[type, object]:
    """One instance of every record type the package defines, by its type."""
    result = indirect.indirect_check(parse("(a -> b) | !b"))
    enumeration = atlas.enumerate_tautologies(atlas.EnumerationSpec(2, 1, emit_limit=2))
    try:
        parse("a ->")
    except notation.ParseError as exc:
        diagnostic = exc.diagnostic
    found = [
        CONNECTIVES[12], notation.SyntaxConfig(Notation.PEIRCE, "ascii"), diagnostic,
        bivalent.truth_table(parse("a | !b"), row_order="f-first"),
        bivalent.matrix_table(IMPLICATION), bivalent.classify(parse("a -> b")),
        bivalent.entails([parse("a | b")], parse("a")),
        result.trace.steps[1], result.trace.steps, result.trace, result,
        trivalent.TABLES, trivalent.truth_table3(parse("a | !b")),
        trivalent.restriction_check(),
        atlas.paper_table(), atlas.xframe_of(IMPLICATION), enumeration.spec,
        enumeration.emitted[0], enumeration.per_slot[1], enumeration,
        syllogistic.CategoricalForm("E", "x", "y"), syllogistic.barbara(),
    ]
    return {type(record): record for record in found}


SAMPLES = samples()
RECORD_TYPES = sorted(SAMPLES, key=lambda cls: cls.__qualname__)


def twin(cls: type) -> type:
    """The frozen dataclass with `cls`'s name, annotated fields and class-level
    defaults, and the `__post_init__`, `__hash__` and `__str__` it defines."""
    own = vars(cls)
    fields = [(name, kind, dataclasses.field(default=own[name])) if name in own
              else (name, kind) for name, kind in own["__annotations__"].items()]
    namespace = {name: own[name] for name in ("__post_init__", "__hash__", "__str__")
                 if name in own}
    return dataclasses.make_dataclass(cls.__qualname__, fields, namespace=namespace,
                                      frozen=True)


TWINS = {cls: twin(cls) for cls in RECORD_TYPES}


def outcome(make, *args, **kwargs):
    """What a call gives: the repr of its result, or its error's type and text."""
    try:
        return repr(make(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the errors are what is compared
        return type(exc), str(exc)


def hashed(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def values(record) -> tuple:
    return tuple(getattr(record, f.name) for f in dataclasses.fields(TWINS[type(record)]))


def test_every_record_type_has_a_sample():
    defined = {value for module in MODULES for value in vars(module).values()
               if isinstance(value, type) and issubclass(value, Record) and value is not Record}
    assert defined == set(SAMPLES)
    assert len(defined) == 22  # Connective and the 21 result and configuration types


def test_record_modules_keep_annotations_in_the_class_dict():
    """`Record` reads a record's fields from the `__annotations__` of its
    class dict.  Python 3.14 defers class annotations (PEP 649/749) and
    leaves that key out, except under `from __future__ import annotations`,
    so every module that defines a record has that import."""
    defining = set()
    for found in pkgutil.iter_modules(illation.__path__):
        if found.name == "__main__":
            continue
        module = importlib.import_module(f"illation.{found.name}")
        if any(isinstance(value, type) and issubclass(value, Record)
               and value.__module__ == module.__name__ for value in vars(module).values()):
            defining.add(found.name)
            assert vars(module).get("annotations") is __future__.annotations, found.name
    assert defining == {module.__name__.rpartition(".")[2] for module in MODULES}


@pytest.fixture(params=RECORD_TYPES, ids=lambda cls: cls.__qualname__)
def kind(request):
    return request.param


def test_fields_repr_str_and_match_args(kind):
    args = values(SAMPLES[kind])
    record, dataclass = kind(*args), TWINS[kind](*args)
    assert kind.__match_args__ == TWINS[kind].__match_args__
    assert repr(record) == repr(dataclass) == repr(SAMPLES[kind])
    assert str(record) == str(dataclass)


def test_equality_and_hash(kind):
    args = values(SAMPLES[kind])
    record, dataclass = kind(*args), TWINS[kind](*args)
    assert record == kind(*args) == SAMPLES[kind]
    assert not record != kind(*args)
    assert record != dataclass and not record == dataclass
    assert hashed(record) == hashed(dataclass) == hashed(SAMPLES[kind])


def test_each_field_takes_part_in_equality(kind):
    args = values(SAMPLES[kind])
    for i in range(len(args)):
        changed = (*args[:i], object(), *args[i + 1:])
        if not isinstance(outcome(TWINS[kind], *changed), tuple):  # else __post_init__ refuses it
            assert kind(*changed) != SAMPLES[kind]


def test_construction_by_position_keyword_and_default(kind):
    args = values(SAMPLES[kind])
    names = kind.__match_args__
    keywords = dict(zip(names, args))
    calls = [
        (args, {}), ((), keywords), (args[:1], dict(list(keywords.items())[1:])),
        (args[:-1], {}), ((), {}), (args[:1], {}),
        ((*args, "extra"), {}), ((*args, "extra", "more"), {}),
        (args, {"zz_unknown": 1}), ((), {"zz_unknown": 1}),
        (args[:1], {names[0]: args[0]}),
    ]
    for call_args, call_keywords in calls:
        assert (outcome(kind, *call_args, **call_keywords)
                == outcome(TWINS[kind], *call_args, **call_keywords)), (call_args, call_keywords)


def test_constructor_signature(kind):
    """The interpreter binds a record's arguments, through the signature
    its dataclass twin has."""
    assert inspect.signature(kind.__init__) == inspect.signature(TWINS[kind].__init__)
    assert kind.__init__.__qualname__ == TWINS[kind].__init__.__qualname__


def fresh_records() -> tuple[type, type]:
    """A record class and a record subclass of it, defined anew, so that
    neither has built a record yet."""
    class Point(Record):
        x: int
        y: int = 0

        def __post_init__(self):
            if -1 in vars(self).values():
                raise ValueError("a field is -1")

    class Labelled(Point):
        label: str
        size: int = 1

    return Point, Labelled


BAD_CALLS = [((), {}), ((1, 2, 3), {}), ((1,), {"zz_unknown": 1}), ((1,), {"x": 1}), ((-1,), {})]


@pytest.mark.parametrize("args, keywords", BAD_CALLS, ids=repr)
def test_a_first_call_that_fails(args, keywords):
    """The call that compiles a class's constructor may be a bad one: it
    fails as the twin's does, and a good call after it builds the record."""
    point = fresh_records()[0]
    dataclass = twin(point)
    got = outcome(point, *args, **keywords)
    assert isinstance(got, tuple) and got == outcome(dataclass, *args, **keywords)
    assert repr(point(1, y=2)) == repr(dataclass(1, y=2))
    assert point(1, 2) == point(1, y=2) != point(1)


@pytest.mark.parametrize("base_first", [False, True], ids=["subclass first", "base first"])
def test_a_subclass_builds_from_its_own_fields(base_first):
    """A record class's subclass has the fields annotated in its own body,
    and the constructor compiled for its base never serves it."""
    point, labelled = fresh_records()
    if base_first:
        assert repr(point(1)) == repr(twin(point)(1))
    for args, keywords in [(("a",), {}), (("a", 2), {}), ((), {"label": "a"}),
                           ((1, 2, 3), {}), ((), {"x": 1})] + BAD_CALLS[:3]:
        assert (outcome(labelled, *args, **keywords)
                == outcome(twin(labelled), *args, **keywords)), (args, keywords)
    assert outcome(point, 1, 2) == outcome(twin(point), 1, 2)
    assert outcome(labelled, -1) == (ValueError, "a field is -1")  # the base's __post_init__
    assert "__init__" in vars(point) and "__init__" in vars(labelled)
    assert point.__init__ is not labelled.__init__


def test_a_subclass_init_may_call_the_base_constructor():
    """A subclass's own `__init__` stays, and `super().__init__` reaches the
    base's constructor, which takes the base's fields."""
    point = fresh_records()[0]

    class Doubled(point):
        def __init__(self, x):
            super().__init__(2 * x)

    assert vars(Doubled(3)) == {"x": 6, "y": 0}
    assert vars(Doubled(4)) == {"x": 8, "y": 0}
    assert vars(point(5)) == {"x": 5, "y": 0}
    assert Doubled.__init__.__qualname__.endswith("Doubled.__init__")
    assert vars(point)["__init__"].__qualname__ == "fresh_records.<locals>.Point.__init__"


def test_first_records_built_at_once():
    """Threads that build a class's first records together each get their
    own class's record: no thread's constructor serves another class."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            point, labelled = fresh_records()
            start, built = threading.Barrier(8), []

            def build(make, args):
                start.wait(timeout=10)
                built.append(repr(make(*args)))

            threads = [threading.Thread(target=build, args=call) for call in
                       [(point, (1,)), (labelled, ("a",))] * 4]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert sorted(built) == sorted([repr(twin(point)(1)), repr(twin(labelled)("a"))] * 4)
    finally:
        sys.setswitchinterval(switch)


def test_records_are_frozen(kind):
    record, dataclass = SAMPLES[kind], TWINS[kind](*values(SAMPLES[kind]))
    for name in (kind.__match_args__[0], "not_a_field"):
        for target in (record, dataclass):
            with pytest.raises(AttributeError) as assigned:
                setattr(target, name, None)
            with pytest.raises(AttributeError) as deleted:
                delattr(target, name)
            assert str(assigned.value) == f"cannot assign to field {name!r}"
            assert str(deleted.value) == f"cannot delete field {name!r}"


def test_pickles_and_copies_round_trip(kind):
    record = SAMPLES[kind]
    for again in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(again) is kind
        assert repr(again) == repr(record)
        assert again == record
        assert hashed(again) == hashed(record)


@pytest.mark.parametrize("cls, args, keywords", [
    (notation.SyntaxConfig, ("modern",), {}),
    (notation.SyntaxConfig, (), {"encoding": "utf-8"}),
    (atlas.EnumerationSpec, (0,), {}),
    (atlas.EnumerationSpec, (1, 9), {}),
    (atlas.EnumerationSpec, (), {"shape_policy": "left-combs"}),
    (atlas.EnumerationSpec, (), {"emit_limit": -1}),
    (syllogistic.CategoricalForm, ("X", "x", "y"), {}),
    (syllogistic.CategoricalForm, ("A", "2x", "y"), {}),
], ids=lambda value: repr(value) if not isinstance(value, type) else value.__qualname__)
def test_post_init_errors(cls, args, keywords):
    got = outcome(cls, *args, **keywords)
    assert got == outcome(TWINS[cls], *args, **keywords)
    assert isinstance(got, tuple)  # refused


@pytest.mark.parametrize("make", [
    lambda: bivalent.truth_table(parse("a -> (b | !c)")),
    lambda: trivalent.truth_table3(parse("a | (b & !c)")),
], ids=["TruthTable", "TriadicTable"])
def test_cached_rows_stay_out_of_the_fields(make):
    table = make()
    fresh = type(table)(*values(table))
    rows = table.rows
    assert table.rows is rows and vars(table)["rows"] is rows
    assert "rows" not in vars(fresh)
    assert table == fresh and hash(table) == hash(fresh)
    assert repr(table) == repr(fresh) and "rows" not in repr(table)
