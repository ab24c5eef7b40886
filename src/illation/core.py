"""Formula trees, truth values, and the catalog of the sixteen binary connectives.

Everything else in the package (parsing, truth tables, the abbreviated-table
prover, the triadic matrices, the connective atlas) builds on this module.
All types are immutable and all functions are pure.

A connective's value vector lists its outputs on the four input pairs in the
fixed order (t,t), (t,f), (f,t), (f,f).  Peirce's 1902 sixteen-column table
prints its four rows without saying which row is which input pair, so that
order is a documented convention of this package, not a manuscript fact.

Column numbering follows the 1902 printed table except at column 8: as
printed, column 8 repeats column 2 and the vector (t,f,f,t) appears nowhere.
The canonical catalog below assigns the missing vector (equivalence) to
column 8 and records the discrepancy in the column's note.  The grid exactly
as printed, anomaly included, lives in `illation.atlas`.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Callable, Container, Iterable, Sequence


class TruthValue(enum.Enum):
    """Two-valued carrier: exactly the values t and f."""

    T = "t"
    F = "f"

    def opposite(self) -> "TruthValue":
        return TruthValue.F if self is TruthValue.T else TruthValue.T

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return self.value


class TriadicValue(enum.Enum):
    """Three-valued carrier of the 1909 matrices: V (verum), L (limit), F (falsum)."""

    V = "V"
    L = "L"
    F = "F"

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return self.value


#: The four binary input pairs, in canonical order.
INPUT_PAIRS: tuple[tuple[TruthValue, TruthValue], ...] = (
    (TruthValue.T, TruthValue.T),
    (TruthValue.T, TruthValue.F),
    (TruthValue.F, TruthValue.T),
    (TruthValue.F, TruthValue.F),
)

PAIR_INDEX: dict[tuple[TruthValue, TruthValue], int] = {
    pair: i for i, pair in enumerate(INPUT_PAIRS)
}


class Record:
    """Base of the package's result and configuration types: a frozen record
    of the fields annotated in its class body, in order, each with its
    class-level default if it has one.

    One set of methods gives each record what `@dataclass(frozen=True)`
    would generate for it: construction by position or keyword, with the
    same `TypeError`s, then `__post_init__` if the class has one; the
    dataclass `repr`; `==` between records of one class over their fields;
    `hash` of the fields; `__match_args__`; and an `AttributeError` on
    assignment or deletion.  Defining a record compiles no code, where a
    dataclass compiles six methods.  A method a subclass defines wins, and
    `functools.cached_property` works, as both write the instance dict.
    Only the formula nodes answer as dataclasses, so `dataclasses.fields`
    and `replace` apply to them alone."""

    __match_args__: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _post_init = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        cls.__match_args__ = tuple(own.get("__annotations__", {}))
        cls._defaults = {name: own[name] for name in cls.__match_args__ if name in own}
        cls._post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs) -> None:
        fields = self.__match_args__
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        if self._post_init:
            self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The fields' values from a call that does not give each field by
        position, or the `TypeError` that a call of `__init__(self, field,
        ..., field=default)` would raise, checked in the same order."""
        fields, defaults = self.__match_args__, self._defaults
        where = f"{type(self).__qualname__}.__init__()"
        bound = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in bound:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            bound[name] = value
        if len(args) > len(fields):
            most = len(fields) + 1  # self included, as in the interpreter's count
            takes = f"from {most - len(defaults)} to {most}" if defaults else most
            raise TypeError(f"{where} takes {takes} positional arguments "
                            f"but {len(args) + 1} were given")
        missing = [repr(name) for name in fields if name not in bound and name not in defaults]
        if missing:
            listed = (" and ".join(missing) if len(missing) < 3
                      else f"{', '.join(missing[:-1])}, and {missing[-1]}")
            plural = "s" if len(missing) > 1 else ""
            raise TypeError(f"{where} missing {len(missing)} required positional "
                            f"argument{plural}: {listed}")
        return [bound[name] if name in bound else defaults[name] for name in fields]

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Equal connectives are one object, compared once per binary node
        # in Formula.__eq__.
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Connective(Record):
    """One of the sixteen binary truth functions.

    `column` is the canonical 1..16 position, `vector` the outputs on
    INPUT_PAIRS, and `note` records where the column sits in the 1902 grid
    (including the column-8 anomaly).
    """

    column: int
    name: str
    vector: tuple[TruthValue, TruthValue, TruthValue, TruthValue]
    note: str

    def apply(self, left: TruthValue, right: TruthValue) -> TruthValue:
        return self.vector[PAIR_INDEX[(left, right)]]

    def __hash__(self) -> int:
        # Equal connectives share a column; hashing the vector would go
        # through Enum.__hash__ four times per formula node.
        return self.column

    def __str__(self) -> str:
        return self.name


_T = TruthValue.T
_F = TruthValue.F

# column, vector on (t,t) (t,f) (f,t) (f,f), canonical name, provenance note.
_CATALOG_ROWS = (
    (1, (_F, _F, _F, _F), "constant-false",
     "printed column 1 of the 1902 table; the all-closed frame"),
    (2, (_F, _F, _F, _T), "nor",
     "printed column 2 of the 1902 table"),
    (3, (_F, _F, _T, _F), "converse-nonimplication",
     "printed column 3 of the 1902 table"),
    (4, (_F, _T, _F, _F), "nonimplication",
     "printed column 4 of the 1902 table"),
    (5, (_T, _F, _F, _F), "conjunction",
     "printed column 5 of the 1902 table"),
    (6, (_T, _T, _F, _F), "left-projection",
     "printed column 6 of the 1902 table"),
    (7, (_T, _F, _T, _F), "right-projection",
     "printed column 7 of the 1902 table"),
    (8, (_T, _F, _F, _T), "equivalence",
     "column 8 as printed in the 1902 table reads (f,f,f,t), repeating "
     "column 2; the canonical catalog assigns column 8 the vector missing "
     "from the printed grid"),
    (9, (_F, _T, _T, _F), "exclusive-disjunction",
     "printed column 9 of the 1902 table"),
    (10, (_F, _T, _F, _T), "right-negation",
     "printed column 10 of the 1902 table"),
    (11, (_F, _F, _T, _T), "left-negation",
     "printed column 11 of the 1902 table"),
    (12, (_F, _T, _T, _T), "nand",
     "printed column 12 of the 1902 table"),
    (13, (_T, _F, _T, _T), "implication",
     "printed column 13 of the 1902 table; the 1893 two-by-two matrix and "
     "the 1883-84 list of truth conditions tabulate this connective"),
    (14, (_T, _T, _F, _T), "converse-implication",
     "printed column 14 of the 1902 table"),
    (15, (_T, _T, _T, _F), "disjunction",
     "printed column 15 of the 1902 table"),
    (16, (_T, _T, _T, _T), "constant-true",
     "printed column 16 of the 1902 table; the all-open frame"),
)

#: All sixteen connectives, indexed by canonical column minus one.
CONNECTIVES: tuple[Connective, ...] = tuple(
    Connective(column, name, vector, note)
    for column, vector, name, note in _CATALOG_ROWS
)

_BY_NAME = {c.name: c for c in CONNECTIVES}
_BY_VECTOR = {c.vector: c for c in CONNECTIVES}

CONSTANT_FALSE = _BY_NAME["constant-false"]
NOR = _BY_NAME["nor"]
CONVERSE_NONIMPLICATION = _BY_NAME["converse-nonimplication"]
NONIMPLICATION = _BY_NAME["nonimplication"]
CONJUNCTION = _BY_NAME["conjunction"]
LEFT_PROJECTION = _BY_NAME["left-projection"]
RIGHT_PROJECTION = _BY_NAME["right-projection"]
EQUIVALENCE = _BY_NAME["equivalence"]
EXCLUSIVE_DISJUNCTION = _BY_NAME["exclusive-disjunction"]
RIGHT_NEGATION = _BY_NAME["right-negation"]
LEFT_NEGATION = _BY_NAME["left-negation"]
NAND = _BY_NAME["nand"]
IMPLICATION = _BY_NAME["implication"]
CONVERSE_IMPLICATION = _BY_NAME["converse-implication"]
DISJUNCTION = _BY_NAME["disjunction"]
CONSTANT_TRUE = _BY_NAME["constant-true"]


def connective_from_vector(
    vector: tuple[TruthValue, TruthValue, TruthValue, TruthValue]
) -> Connective:
    """Return the connective with the given value vector (a bijection)."""
    key = tuple(vector)
    if len(key) != 4 or any(not isinstance(v, TruthValue) for v in key):
        raise ValueError(f"expected a 4-tuple of truth values, got {vector!r}")
    return _BY_VECTOR[key]


def connective(key: str | int) -> Connective:
    """Look a connective up by canonical name or by column number 1..16."""
    if isinstance(key, int):
        if not 1 <= key <= 16:
            raise KeyError(f"connective column out of range: {key}")
        return CONNECTIVES[key - 1]
    if key not in _BY_NAME:
        raise KeyError(f"unknown connective name: {key!r}")
    return _BY_NAME[key]


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class Formula:
    """Base class for formula tree nodes.

    A node's hash is computed once, at construction, from its operands'
    hashes, and `==`, `repr`, copying and pickling each go over the tree
    with an explicit stack or a flat list, so none of them recurses however
    deep the tree.  Nodes are frozen: assignment and deletion raise
    `dataclasses.FrozenInstanceError`, as on a frozen dataclass."""

    __slots__ = ()

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __replace__(self, /, **changes) -> Formula:
        # `copy.replace` (Python 3.13) of a node, as of a dataclass.
        from dataclasses import replace
        return replace(self, **changes)

    def __reduce__(self):
        # The node objects as a flat post-order list, operands named by
        # their place in it, rebuilt by one loop in `_rebuild`.  Each node
        # goes through __init__ again, so its hash is computed afresh:
        # string hashes differ from process to process.
        plan = []

        def place(node: Formula, *operands: int) -> int:
            if type(node) is Binary:
                plan.append((Binary, node.connective, *operands))
            elif type(node) is Negation:
                plan.append((Negation, *operands))
            else:
                plan.append((type(node), *(getattr(node, name)
                                           for name in node.__match_args__)))
            return len(plan) - 1

        fold(self, place)
        return _rebuild, (plan,)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for name in a.__match_args__:  # the fields
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, Formula):
                    pairs.append((x, y))
                elif x != y:
                    return False
        return True

    def __repr__(self) -> str:
        # The dataclass repr, `Binary(connective=..., left=..., right=...)`,
        # written left to right from a stack of strings and nodes.
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            parts = []
            opening = f"{type(item).__qualname__}("
            for name in item.__match_args__:
                value = getattr(item, name)
                if isinstance(value, Formula):
                    parts += (f"{opening}{name}=", value)
                else:
                    parts.append(f"{opening}{name}={value!r}")
                opening = ", "
            parts.append(")")
            stack += reversed(parts)
        return "".join(out)


def _rebuild(plan: list[tuple]) -> Formula:
    """The formula `Formula.__reduce__` flattened into `plan`."""
    nodes: list[Formula] = []
    for kind, *fields in plan:
        if kind is Binary:
            connective, left, right = fields
            nodes.append(Binary(connective, nodes[left], nodes[right]))
        elif kind is Negation:
            nodes.append(Negation(nodes[fields[0]]))
        else:
            nodes.append(kind(*fields))
    return nodes[-1]


class _Twin:
    """`__dataclass_fields__` or `__dataclass_params__`, the two attributes
    by which `dataclasses` knows a dataclass, on a formula node class.  The
    first read of either makes the frozen dataclass of the class's annotated
    fields and puts that twin's two attributes on the class in place of the
    descriptors, so only code that asks for a node's fields imports
    `dataclasses`."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, node: Formula | None, kind: type) -> object:
        from dataclasses import dataclass
        twin = dataclass(frozen=True, eq=False, repr=False, init=False)(
            type(kind.__name__, (), {"__annotations__": vars(kind)["__annotations__"],
                                     "__module__": kind.__module__}))
        kind.__dataclass_fields__ = twin.__dataclass_fields__
        kind.__dataclass_params__ = twin.__dataclass_params__
        return getattr(twin, self.name)


def _dataclass_view(kind: type) -> type:
    """The node class `kind`, answering `dataclasses.fields`, `replace`,
    `asdict` and `is_dataclass` as the frozen dataclass of its fields."""
    kind.__dataclass_fields__ = _Twin("__dataclass_fields__")
    kind.__dataclass_params__ = _Twin("__dataclass_params__")
    return kind


# The nodes are plain slotted classes with hand-written constructors, each
# setting its slots through their descriptors (which is what
# object.__setattr__ would reach, without the lookup), `_hash` included.
# Their fields are their annotations, in `__match_args__` order.

@_dataclass_view
class Constant(Formula):
    """The truth value `value` as a formula."""

    __slots__ = ("value", "_hash")
    __match_args__ = ("value",)
    value: TruthValue

    def __init__(self, value: TruthValue) -> None:
        _set_value(self, value)
        _set_constant_hash(self, hash((Constant, value)))


@_dataclass_view
class Variable(Formula):
    """A propositional variable."""

    __slots__ = ("name", "_hash")
    __match_args__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"variable names are letters, digits and underscores starting "
                f"with a letter; got {name!r}"
            )
        _set_name(self, name)
        _set_variable_hash(self, hash((Variable, name)))


@_dataclass_view
class Negation(Formula):
    """The negation of `operand`."""

    __slots__ = ("operand", "_hash")
    __match_args__ = ("operand",)
    operand: Formula

    def __init__(self, operand: Formula) -> None:
        _set_operand(self, operand)
        _set_negation_hash(self, hash((Negation, operand._hash)))


@_dataclass_view
class Binary(Formula):
    """`connective` applied to `left` and `right`."""

    __slots__ = ("connective", "left", "right", "_hash")
    __match_args__ = ("connective", "left", "right")
    connective: Connective
    left: Formula
    right: Formula

    def __init__(self, connective: Connective, left: Formula, right: Formula) -> None:
        _set_connective(self, connective)
        _set_left(self, left)
        _set_right(self, right)
        _set_binary_hash(self, hash((connective.column, left._hash, right._hash)))


def _slot_setters(cls: type) -> tuple:
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


_set_value, _set_constant_hash = _slot_setters(Constant)
_set_name, _set_variable_hash = _slot_setters(Variable)
_set_operand, _set_negation_hash = _slot_setters(Negation)
_set_connective, _set_left, _set_right, _set_binary_hash = _slot_setters(Binary)


def implies(left: Formula, right: Formula) -> Binary:
    return Binary(IMPLICATION, left, right)


def conj(left: Formula, right: Formula) -> Binary:
    return Binary(CONJUNCTION, left, right)


def disj(left: Formula, right: Formula) -> Binary:
    return Binary(DISJUNCTION, left, right)


def equiv(left: Formula, right: Formula) -> Binary:
    return Binary(EQUIVALENCE, left, right)


_EXIT = object()  # marks where the walk leaves the node below it


def flatten(formula: Formula, known: Container[int] = ()) -> tuple[list[Formula], list[str]]:
    """From one walk: the formula's nodes in post-order (each after its
    operands, left first, the whole formula last) and its variable names in
    first-occurrence order.  Nodes are told apart by identity, so a node
    object met again is not walked again but an equal copy of it is; the
    evaluators look operands up by `id` and pay no hash per node.  A node
    whose `id` is in `known` is passed over, with everything under it.
    This walk, with `fold` on it, is how the package visits subformulas,
    so no function recurses once per nesting level."""
    nodes: list[Formula] = []
    names: dict[str, None] = {}
    entered: set[int] = set(known)
    stack: list = [formula]  # nodes, each operator above _EXIT and itself
    while stack:
        node = stack.pop()
        if node is _EXIT:
            nodes.append(stack.pop())
        elif id(node) not in entered:
            entered.add(id(node))
            kind = type(node)
            if kind is Binary:
                stack += (node, _EXIT, node.right, node.left)
            elif kind is Negation:
                stack += (node, _EXIT, node.operand)
            else:
                if kind is Variable:
                    names[node.name] = None
                nodes.append(node)
    return nodes, list(names)


def fold(formula: Formula, combine: Callable[..., object],
         values: dict[int, object] | None = None) -> object:
    """The formula's value, where `combine(node, *operand_values)` gives each
    node's value from its operands' values, in `flatten`'s post-order: an
    equal copy of a subformula gets a value of its own.  `values` holds each
    value by its node's `id`; a node whose `id` is already there keeps that
    value, and nothing under it is walked.  An `id` names an object only
    while it lives, so every key must belong to an object kept alive for
    the whole fold: a node of the formula, or an operand it was built from."""
    values = {} if values is None else values
    for node in flatten(formula, values)[0]:
        kind = type(node)
        if kind is Binary:
            values[id(node)] = combine(node, values[id(node.left)], values[id(node.right)])
        elif kind is Negation:
            values[id(node)] = combine(node, values[id(node.operand)])
        else:
            values[id(node)] = combine(node)
    return values[id(formula)]


def variables_of(formula: Formula) -> list[str]:
    """Variable names in first-occurrence (left-to-right) order, no duplicates."""
    return flatten(formula)[1]


def subformulas(formula: Formula) -> list[Formula]:
    """Distinct subformulas in post-order: children before parents, the whole
    formula last.  Equal subformulas are one, the first met.  A node is told
    from its kind and its operands' firsts, by `id`, so an equal copy costs
    one probe and not a walk of its subtree."""
    # A binary's key is its column and its operands' firsts, a negation's
    # its operand's first (an int, so no tuple or leaf equals it) and a
    # leaf's the leaf itself: equal nodes, and only they, share a key.
    first: dict = {}  # a key -> the first node with it
    firsts: dict[int, int] = {}  # the id of each node -> that of the first equal to it
    for node in flatten(formula)[0]:
        kind = type(node)
        if kind is Binary:
            key = (node.connective.column, firsts[id(node.left)], firsts[id(node.right)])
        elif kind is Negation:
            key = firsts[id(node.operand)]
        else:
            key = node
        firsts[id(node)] = id(first.setdefault(key, node))
    return list(first.values())


def grid_size(cells: Sequence[Sequence[str]], opening: str, closing: str,
              endings: Iterable[tuple[str, int]], dashes: int = 0) -> int:
    """The length of the rows a grid writer lays out (`bivalent.row_blocks`,
    `indirect.TraceSteps.rows`): for each (ending, count) of `endings`,
    `count` rows of `opening`, one of cells[j] per column j, `closing` and
    `ending`.  A column's cells are as long as its first, but for the
    `dashes` cells that are its last, each longer by one amount in every
    column (a trace's JSON `null` against `"t"`)."""
    line = len(opening) + sum(len(column[0]) for column in cells) + len(closing)
    size = sum((line + len(ending)) * count for ending, count in endings)
    if dashes:
        size += dashes * (len(cells[0][-1]) - len(cells[0][0]))
    return size


# Errors the evaluators and the enumerator raise.  They live here, beside the
# types they are about, so the CLI can map them to exit codes without loading
# the modules that raise them; those modules re-export them.

class MissingVariableError(Exception):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class VariableLimitError(Exception):
    def __init__(self, count: int, limit: int):
        super().__init__(f"{count} variables exceed the limit of {limit}")
        self.count = count
        self.limit = limit


class UnsupportedConnectiveError(Exception):
    def __init__(self, name: str):
        super().__init__(
            f"no triadic matrix is defined for {name}; only negation, "
            f"disjunction and conjunction have one"
        )
        self.connective_name = name


class EnumerationBoundError(Exception):
    pass
