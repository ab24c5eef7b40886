"""The 1909 three-valued matrices and evaluation over them.

The third value L ("limit") sits between V (verum) and F (falsum).  Exactly
three operations are defined, copied from the manuscript matrices: a negation
that swaps V and F and fixes L, a disjunction-like table (the circled plus)
and a conjunction-like table (the barred Z).  Under the order V > L > F they
are max and min.  No implication table appears in the source, so evaluating
an implication (or any other connective without a matrix) raises
UnsupportedConnectiveError rather than guessing.

Restricted to {V, F} the three tables agree with the two-valued negation,
disjunction and conjunction; `restriction_check` verifies that mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Sequence

from .bivalent import MissingVariableError, _check_limit
from .core import (
    Binary,
    Constant,
    Formula,
    INPUT_PAIRS,
    Negation,
    TriadicValue,
    TruthValue,
    Variable,
    connective,
    variables_of,
)

_V = TriadicValue.V
_L = TriadicValue.L
_F = TriadicValue.F

#: Label order used by every triadic table.
TRIADIC_VALUES: tuple[TriadicValue, ...] = (_V, _L, _F)

NEGATION3: dict[TriadicValue, TriadicValue] = {_V: _F, _L: _L, _F: _V}

# rows: left operand V, L, F; columns: right operand V, L, F.
OPLUS_ROWS: tuple[tuple[TriadicValue, ...], ...] = (
    (_V, _V, _V),
    (_V, _L, _L),
    (_V, _L, _F),
)
ZBAR_ROWS: tuple[tuple[TriadicValue, ...], ...] = (
    (_V, _L, _F),
    (_L, _L, _F),
    (_F, _F, _F),
)

_POSITION = {v: i for i, v in enumerate(TRIADIC_VALUES)}


def neg3(value: TriadicValue) -> TriadicValue:
    return NEGATION3[value]


def oplus(left: TriadicValue, right: TriadicValue) -> TriadicValue:
    return OPLUS_ROWS[_POSITION[left]][_POSITION[right]]


def zbar(left: TriadicValue, right: TriadicValue) -> TriadicValue:
    return ZBAR_ROWS[_POSITION[left]][_POSITION[right]]


@dataclass(frozen=True)
class TriadicTables:
    negation: dict[TriadicValue, TriadicValue]
    disjunction: tuple[tuple[TriadicValue, ...], ...]
    conjunction: tuple[tuple[TriadicValue, ...], ...]


TABLES = TriadicTables(NEGATION3, OPLUS_ROWS, ZBAR_ROWS)


class UnsupportedConnectiveError(Exception):
    def __init__(self, name: str):
        super().__init__(
            f"no triadic matrix is defined for {name}; only negation, "
            f"disjunction and conjunction have one"
        )
        self.connective_name = name


Assignment3 = dict[str, TriadicValue]

#: Variables allowed before 3**n assignments are enumerated.
DEFAULT_VARIABLE_LIMIT3 = 12

_CONSTANT3 = {TruthValue.T: _V, TruthValue.F: _F}


def evaluate3(formula: Formula, assignment: Mapping[str, TriadicValue]) -> TriadicValue:
    """Evaluate over the triadic matrices; two-valued constants map t -> V,
    f -> F."""
    match formula:
        case Constant(value):
            return _CONSTANT3[value]
        case Variable(name):
            try:
                return assignment[name]
            except KeyError:
                raise MissingVariableError(name) from None
        case Negation(operand):
            return neg3(evaluate3(operand, assignment))
        case Binary(conn, left, right):
            if conn.name == "disjunction":
                op = oplus
            elif conn.name == "conjunction":
                op = zbar
            else:
                raise UnsupportedConnectiveError(conn.name)
            return op(evaluate3(left, assignment), evaluate3(right, assignment))
    raise TypeError(f"not a formula: {formula!r}")


def assignments3(variables: Sequence[str]) -> Iterable[Assignment3]:
    """All triadic assignments, V/L/F order, leftmost variable slowest."""
    for combo in product(TRIADIC_VALUES, repeat=len(variables)):
        yield dict(zip(variables, combo))


@dataclass(frozen=True)
class TriadicTable:
    variables: tuple[str, ...]
    rows: tuple[tuple[Assignment3, TriadicValue], ...]


def truth_table3(
    formula: Formula, limit: int = DEFAULT_VARIABLE_LIMIT3
) -> TriadicTable:
    names = variables_of(formula)
    _check_limit(names, limit)
    rows = tuple((a, evaluate3(formula, a)) for a in assignments3(names))
    return TriadicTable(tuple(names), rows)


def is_tautology3(
    formula: Formula,
    designated: frozenset[TriadicValue] = frozenset({_V}),
) -> bool:
    """Whether the formula lands in `designated` on every triadic assignment.
    A designated-value notion is an extension here: the source matrices come
    with no tautology definition attached.  More than DEFAULT_VARIABLE_LIMIT3
    variables raise VariableLimitError."""
    names = variables_of(formula)
    _check_limit(names, DEFAULT_VARIABLE_LIMIT3)
    return all(evaluate3(formula, a) in designated for a in assignments3(names))


@dataclass(frozen=True)
class RestrictionReport:
    """Comparison of the triadic tables, restricted to {V, F}, against the
    two-valued negation/disjunction/conjunction."""

    mismatches: tuple[tuple[str, tuple[TruthValue, ...], TriadicValue, TruthValue], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


_FROM3 = {_V: TruthValue.T, _F: TruthValue.F}


def restriction_check() -> RestrictionReport:
    mismatches: list[tuple[str, tuple[TruthValue, ...], TriadicValue, TruthValue]] = []
    for value in (TruthValue.T, TruthValue.F):
        got = neg3(_CONSTANT3[value])
        expected = value.opposite()
        if _FROM3[got] is not expected:
            mismatches.append(("negation", (value,), got, expected))
    for name, op in (("disjunction", oplus), ("conjunction", zbar)):
        vector = connective(name).vector
        for pair, expected in zip(INPUT_PAIRS, vector):
            got = op(_CONSTANT3[pair[0]], _CONSTANT3[pair[1]])
            if _FROM3[got] is not expected:
                mismatches.append((name, pair, got, expected))
    return RestrictionReport(tuple(mismatches))


def format_tables(encoding: str = "unicode") -> str:
    """The three matrices in the manuscript layout, one block per operation."""
    if encoding == "unicode":
        neg_head, or_head, and_head = "x̄", "⊕", "Ž"
    else:
        neg_head, or_head, and_head = "-x", "+", "*"
    blocks = [f"x | {neg_head}"]
    for value in TRIADIC_VALUES:
        blocks.append(f"{value} | {NEGATION3[value]}")
    for head, rows in ((or_head, OPLUS_ROWS), (and_head, ZBAR_ROWS)):
        blocks.append("")
        blocks.append(f"{head} | V L F")
        for label, row in zip(TRIADIC_VALUES, rows):
            blocks.append(f"{label} | " + " ".join(str(v) for v in row))
    return "\n".join(blocks)
