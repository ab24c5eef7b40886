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

Evaluation covers all 3**n rows at once: a formula's column is a pair of
bitmasks (V, F), bit k set where row k gives V, resp. F, and L where neither
is; negation swaps the pair, the circled plus gives (a.V | b.V, a.F & b.F) and
the barred Z gives (a.V & b.V, a.F | b.F).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property
from itertools import product

from .bivalent import Rows, _check_kind, _check_limit
from .core import (
    Binary,
    Constant,
    Formula,
    INPUT_PAIRS,
    MissingVariableError,
    Negation,
    Record,
    TriadicValue,
    TruthValue,
    UnsupportedConnectiveError,
    Variable,
    connective,
    fold,
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


class TriadicTables(Record):
    negation: dict[TriadicValue, TriadicValue]
    disjunction: tuple[tuple[TriadicValue, ...], ...]
    conjunction: tuple[tuple[TriadicValue, ...], ...]


TABLES = TriadicTables(NEGATION3, OPLUS_ROWS, ZBAR_ROWS)


Assignment3 = dict[str, TriadicValue]

#: Variables allowed before 3**n assignments are enumerated.
DEFAULT_VARIABLE_LIMIT3 = 12

_CONSTANT3 = {TruthValue.T: _V, TruthValue.F: _F}

# The circled plus and the barred Z over (V, F) mask pairs.
_MASK_RULES = {
    "disjunction": lambda a, b: (a[0] | b[0], a[1] & b[1]),
    "conjunction": lambda a, b: (a[0] & b[0], a[1] | b[1]),
}


def variable_masks3(names: Sequence[str]) -> tuple[dict[str, tuple[int, int]], int]:
    """One (V, F) mask pair per variable, set on the rows where it is V and
    where it is F, plus the all-rows mask; bit k stands for row k in
    `assignments3` order."""
    rows = 3 ** len(names)
    full = (1 << rows) - 1
    block = rows
    masks = {}
    for name in names:
        # One period is a V-block, an L-block and an F-block; double it to fill.
        block //= 3
        v = (1 << block) - 1
        f = v << 2 * block
        span = 3 * block
        while span < rows:
            v |= v << span
            f |= f << span
            span <<= 1
        masks[name] = (v & full, f & full)
    return masks, full


def truth_vector3(
    formula: Formula, masks: Mapping[str, tuple[int, int]], full: int
) -> tuple[int, int]:
    """The formula's value on every row at once as a (V, F) mask pair; rows
    in neither mask are L.  Two-valued constants map t -> V, f -> F.  `masks`
    and `full` come from `variable_masks3`.  Of several faults, the one met
    first reading the formula from the left is raised, a connective without
    a matrix before anything under it."""
    def value(node: Formula, *operands: tuple[int, int] | Exception):
        # A fault is carried up as a value until an outer one replaces it.
        if isinstance(node, Binary) and node.connective.name not in _MASK_RULES:
            return UnsupportedConnectiveError(node.connective.name)
        faults = [v for v in operands if isinstance(v, Exception)]
        if faults:
            return faults[0]
        if isinstance(node, Binary):
            return _MASK_RULES[node.connective.name](*operands)
        if isinstance(node, Negation):
            return operands[0][::-1]
        if isinstance(node, Variable):
            if node.name not in masks:
                return MissingVariableError(node.name)
            return masks[node.name]
        if isinstance(node, Constant):
            return (full, 0) if node.value is TruthValue.T else (0, full)
        raise TypeError(f"not a formula: {node!r}")
    result = fold(formula, value)
    if isinstance(result, Exception):
        raise result
    return result


def evaluate3(formula: Formula, assignment: Mapping[str, TriadicValue]) -> TriadicValue:
    """Evaluate over the triadic matrices; two-valued constants map t -> V,
    f -> F.  A value that is not a TriadicValue raises TypeError."""
    masks = {}
    for name, value in assignment.items():
        _check_kind(name, value, TriadicValue)
        masks[name] = (int(value is _V), int(value is _F))
    v, f = truth_vector3(formula, masks, 1)
    return _V if v else _F if f else _L


def assignments3(variables: Sequence[str]) -> Iterable[Assignment3]:
    """All triadic assignments, V/L/F order, leftmost variable slowest."""
    for combo in product(TRIADIC_VALUES, repeat=len(variables)):
        yield dict(zip(variables, combo))


class TriadicTable(Record):
    """A formula's triadic table, kept as its (V, F) mask pair: bit k of
    each is set where row k, in `assignments3` order, gives V, resp. F."""

    variables: tuple[str, ...]
    masks: tuple[int, int]

    @cached_property
    def rows(self) -> Rows:
        # Row k is bit k, so the binary strings read last row first.  Read as
        # hexadecimal, each binary digit is one hex digit, so 2V + F spells
        # every row's value as one digit: 2 for V, 1 for F, 0 for L.
        width = 3 ** len(self.variables)
        v, f = (int(format(mask, f"0{width}b")[::-1], 16) for mask in self.masks)
        return Rows(self.variables, TRIADIC_VALUES, format(2 * v + f, f"0{width}x"),
                    _OUTCOMES3)


_OUTCOMES3 = {"2": _V, "1": _F, "0": _L}


def truth_table3(
    formula: Formula, limit: int = DEFAULT_VARIABLE_LIMIT3
) -> TriadicTable:
    names = variables_of(formula)
    _check_limit(names, limit)
    masks, full = variable_masks3(names)
    return TriadicTable(tuple(names), truth_vector3(formula, masks, full))


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
    masks, full = variable_masks3(names)
    v, f = truth_vector3(formula, masks, full)
    covered = 0
    for value, mask in zip(TRIADIC_VALUES, (v, full ^ (v | f), f)):
        if value in designated:
            covered |= mask
    return covered == full


class RestrictionReport(Record):
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
