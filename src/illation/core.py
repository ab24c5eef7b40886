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
from dataclasses import dataclass


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


@dataclass(frozen=True)
class Connective:
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
    """Base class for formula tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Constant(Formula):
    value: TruthValue


@dataclass(frozen=True)
class Variable(Formula):
    name: str

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(
                f"variable names are letters, digits and underscores starting "
                f"with a letter; got {self.name!r}"
            )


@dataclass(frozen=True)
class Negation(Formula):
    operand: Formula


@dataclass(frozen=True)
class Binary(Formula):
    connective: Connective
    left: Formula
    right: Formula


def implies(left: Formula, right: Formula) -> Binary:
    return Binary(IMPLICATION, left, right)


def conj(left: Formula, right: Formula) -> Binary:
    return Binary(CONJUNCTION, left, right)


def disj(left: Formula, right: Formula) -> Binary:
    return Binary(DISJUNCTION, left, right)


def equiv(left: Formula, right: Formula) -> Binary:
    return Binary(EQUIVALENCE, left, right)


def variables_of(formula: Formula) -> list[str]:
    """Variable names in first-occurrence (left-to-right) order, no duplicates."""
    seen: dict[str, None] = {}

    def walk(node: Formula) -> None:
        if isinstance(node, Variable):
            seen.setdefault(node.name, None)
        elif isinstance(node, Negation):
            walk(node.operand)
        elif isinstance(node, Binary):
            walk(node.left)
            walk(node.right)

    walk(formula)
    return list(seen)


def subformulas(formula: Formula) -> list[Formula]:
    """Distinct subformulas in post-order: children before parents, the whole
    formula last.  Repeated subformulas appear once, at their first visit."""
    seen: dict[Formula, None] = {}

    def walk(node: Formula) -> None:
        if isinstance(node, Negation):
            walk(node.operand)
        elif isinstance(node, Binary):
            walk(node.left)
            walk(node.right)
        seen.setdefault(node, None)

    walk(formula)
    return list(seen)
