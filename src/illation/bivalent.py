"""Two-valued evaluation: truth tables, connective matrices, classification,
and entailment checking.

Canonical row order for truth tables puts t before f with the leftmost
variable varying slowest, so two variables enumerate (t,t), (t,f), (f,t),
(f,f).  The 1883-84 list form enumerates the other way around, which is why
table builders accept a row-order override.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from itertools import product
from operator import add, eq, itemgetter

from .core import (
    CONNECTIVES,
    Binary,
    Connective,
    Constant,
    Formula,
    MissingVariableError,
    Negation,
    Record,
    TruthValue,
    Variable,
    VariableLimitError,
    flatten,
    grid_size,
)

Assignment = dict[str, TruthValue]

#: Combined variable cap for exhaustive-enumeration operations.
DEFAULT_VARIABLE_LIMIT = 20

ROW_ORDERS = ("t-first", "f-first")


_T = TruthValue.T
_F = TruthValue.F


def variable_masks(names: Sequence[str]) -> tuple[dict[str, int], int]:
    """One bitmask per variable, set on the rows where it is t, plus the
    all-rows mask; bit k stands for row k in t-first order."""
    block = 1 << len(names)
    full = mask = (1 << block) - 1
    masks = {}
    for name in names:
        # Halve the blocks: t-blocks of `block` rows alternating with f-blocks.
        block >>= 1
        mask = (mask ^ (mask << block)) & full
        masks[name] = mask
    return masks, full


# Each set of input pairs as the union of their rows, indexed by the set:
# bit k for pair k, and set 15 - k is full ^ set k.  No int is ever negative,
# since `&` on a negative big int costs many times the plain operation.
_UNIONS = (
    lambda l, r, full: 0,
    lambda l, r, full: l & r,
    lambda l, r, full: l ^ (l & r),
    lambda l, r, full: l,
    lambda l, r, full: r ^ (l & r),
    lambda l, r, full: r,
    lambda l, r, full: l ^ r,
    lambda l, r, full: l | r,
    lambda l, r, full: full ^ (l | r),
    lambda l, r, full: full ^ l ^ r,
    lambda l, r, full: full ^ r,
    lambda l, r, full: full ^ (r ^ (l & r)),
    lambda l, r, full: full ^ l,
    lambda l, r, full: full ^ (l ^ (l & r)),
    lambda l, r, full: full ^ (l & r),
    lambda l, r, full: full,
)

# Each connective's vector as the input pairs it maps to t: bit k for pair k.
_PAIR_SETS = itemgetter(*(sum(1 << k for k, v in enumerate(conn.vector) if v is _T)
                          for conn in CONNECTIVES))

#: Each connective's kernel, by its column.
_KERNELS = (None, *_PAIR_SETS(_UNIONS))


def apply_mask(conn: Connective, left: int, right: int, full: int) -> int:
    """A connective applied row-wise to two truth vectors, subsets of `full`."""
    return _KERNELS[conn.column](left, right, full)


def apply_all(left: int, right: int, full: int) -> tuple[int, ...]:
    """The sixteen connectives applied row-wise to two truth vectors, in
    column order: each is the union of the rows of the input pairs it maps
    to t, picked from the unions of every set of pairs."""
    tt = left & right
    tf, ft, differ, either = left ^ tt, right ^ tt, left ^ right, left | right
    # Set i unions the pairs whose bits are set in i; set 15 - i is its complement.
    return _PAIR_SETS((0, tt, tf, left, ft, right, differ, either,
                       full ^ either, full ^ differ, full ^ right, full ^ ft,
                       full ^ left, full ^ tf, full ^ tt, full))


def truth_vector(formula: Formula, masks: Mapping[str, int], full: int) -> int:
    """The formula's value on every row at once: bit k is set where row k
    makes it true.  `masks` and `full` come from `variable_masks`.  A
    node object met again is not evaluated again."""
    return _vector(flatten(formula)[0], masks, full)


def _vector(nodes: list[Formula], masks: Mapping[str, int], full: int) -> int:
    """`truth_vector` of the last of `nodes`, a `flatten` list: each node's
    value from its operands' values, found by `id`."""
    values: dict[int, int] = {}
    for node in nodes:
        kind = type(node)
        if kind is Binary:
            value = _KERNELS[node.connective.column](values[id(node.left)],
                                                     values[id(node.right)], full)
        elif kind is Negation:
            value = full ^ values[id(node.operand)]
        elif kind is Variable:
            if node.name not in masks:
                raise MissingVariableError(node.name)
            value = masks[node.name]
        elif kind is Constant:
            value = full if node.value is _T else 0
        else:
            raise TypeError(f"not a formula: {node!r}")
        values[id(node)] = value
    return value


def _check_kind(name: str, value: object, kind: type) -> None:
    """Reject a one-row assignment value from the wrong carrier."""
    if not isinstance(value, kind):
        raise TypeError(
            f"{name} is bound to {value!r} ({type(value).__name__}), "
            f"not a {kind.__name__}"
        )


def evaluate(formula: Formula, assignment: Mapping[str, TruthValue]) -> TruthValue:
    """Evaluate under an assignment covering every variable of the formula.
    A value that is not a TruthValue raises TypeError."""
    masks = {}
    for name, value in assignment.items():
        _check_kind(name, value, TruthValue)
        masks[name] = int(value is _T)
    return _T if truth_vector(formula, masks, 1) else _F


def _row(names: Sequence[str], bits: int) -> Assignment | None:
    """The assignment of the lowest row set in `bits`, if any."""
    if not bits:
        return None
    # The lowest set bit's index: bits - 1 flips the bits up to it.
    row = format((bits ^ (bits - 1)).bit_length() - 1, f"0{len(names)}b")
    return {name: _F if bit == "1" else _T for name, bit in zip(names, row)}


def _check_row_order(row_order: str) -> None:
    if row_order not in ROW_ORDERS:
        raise ValueError(f"row_order must be one of {ROW_ORDERS}, got {row_order!r}")


def assignments(
    variables: Sequence[str], row_order: str = "t-first"
) -> Iterable[Assignment]:
    """All assignments over `variables`, leftmost variable varying slowest."""
    _check_row_order(row_order)
    values = (_F, _T) if row_order == "f-first" else (_T, _F)
    for combo in product(values, repeat=len(variables)):
        yield dict(zip(variables, combo))


class Rows(Sequence):
    """A table's rows, each an (assignment, value) pair in row order, worked
    out from its row number when it is read.  Every variable takes the
    values `cells` in turn, the leftmost slowest, so row k's assignment is
    k's digits in base len(cells); `codes` holds one character per row,
    and row k's value is outcomes[codes[k]].  `len` is immediate.  Indexing, slicing, iteration, `reversed` and `==`
    behave as they do on the tuple of the rows."""

    __slots__ = ("variables", "cells", "codes", "outcomes")

    def __init__(self, variables: tuple[str, ...], cells: tuple, codes: str,
                 outcomes: Mapping[str, object]) -> None:
        self.variables = variables
        self.cells = cells
        self.codes = codes
        self.outcomes = outcomes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(map(self.__getitem__, range(len(self))[key]))
        index = k = range(len(self))[key]
        digits = []
        for _ in self.variables:
            k, digit = divmod(k, len(self.cells))
            digits.append(self.cells[digit])
        return dict(zip(self.variables, reversed(digits))), self.outcomes[self.codes[index]]

    def __iter__(self) -> Iterator[tuple[dict, object]]:
        combos = product(self.cells, repeat=len(self.variables))
        return zip((dict(zip(self.variables, combo)) for combo in combos),
                   map(self.outcomes.__getitem__, self.codes))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Rows, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class TruthTable(Record):
    """A formula's truth table, kept as its truth vector: bit k is set where
    row k of the t-first order makes the formula true."""

    variables: tuple[str, ...]
    vector: int
    row_order: str = "t-first"

    @cached_property
    def rows(self) -> Rows:
        # Most significant bit first is the f-first order; t-first reverses it.
        codes = format(self.vector, f"0{1 << len(self.variables)}b")
        if self.row_order == "t-first":
            return Rows(self.variables, (_T, _F), codes[::-1], _OUTCOMES)
        return Rows(self.variables, (_F, _T), codes, _OUTCOMES)


_OUTCOMES = {"1": _T, "0": _F}


def _check_limit(names: Sequence[str], limit: int) -> None:
    if len(names) > limit:
        raise VariableLimitError(len(names), limit)


def truth_table(
    formula: Formula,
    row_order: str = "t-first",
    limit: int = DEFAULT_VARIABLE_LIMIT,
) -> TruthTable:
    """Full truth table; a closed formula yields one empty-assignment row."""
    nodes, names = flatten(formula)
    _check_limit(names, limit)
    _check_row_order(row_order)
    masks, full = variable_masks(names)
    return TruthTable(tuple(names), _vector(nodes, masks, full), row_order)


class MatrixTable(Record):
    """Two-by-two grid for a binary connective: rows are the antecedent
    (left operand) value, columns the consequent, both ordered t then f."""

    connective: Connective
    cells: tuple[tuple[TruthValue, TruthValue], tuple[TruthValue, TruthValue]]


def matrix_table(connective: Connective) -> MatrixTable:
    v = connective.vector
    return MatrixTable(connective, ((v[0], v[1]), (v[2], v[3])))


def format_matrix(matrix: MatrixTable) -> str:
    """Render the two-by-two grid in the 1893 layout."""
    lines = ["  | t f"]
    for label, row in zip("tf", matrix.cells):
        lines.append(f"{label} | " + " ".join(v.value for v in row))
    return "\n".join(lines)


def format_truth_table(
    table: TruthTable,
    header: str,
    symbols: tuple[str, str] = ("t", "f"),
) -> str:
    """Plain-text table: variable columns, a separator bar, the formula value.
    Also prints a triadic table, whose V, L and F ignore `symbols`."""
    return "".join(table_blocks(table, header, symbols))


#: The last variables, whose cells `row_blocks` lays out once as the line
#: endings every block of rows shares: a block holds 2**8 or 3**8 rows.
_BLOCK_VARIABLES = 8


def table_blocks(
    table: TruthTable,
    header: str,
    symbols: tuple[str, str] = ("t", "f"),
) -> Iterator[str]:
    """`format_truth_table`'s text in pieces: the header line, then one block
    per run of rows that share every cell but the last few variables', each
    line starting with its line break.  The lines are laid out from the
    cells and the rows' value codes, with no assignment built."""
    rows = table.rows
    t_sym, f_sym = symbols

    def sym(v) -> str:
        return t_sym if v is _T else f_sym if v is _F else v.value

    widths = [max(len(name), 1) for name in rows.variables]
    head_cells = [name.ljust(w) for name, w in zip(rows.variables, widths)]
    yield ((" ".join(head_cells) + " | " + header).rstrip() if head_cells
           else "| " + header)
    value_of = {code: sym(value) for code, value in rows.outcomes.items()}
    yield from row_blocks(rows, _text_cells(rows.variables, [sym(v) for v in rows.cells]),
                          value_of, "\n", "| ")


def _text_cells(variables: Sequence[str], symbols: Sequence[str]) -> list[list[str]]:
    """Each variable's cells in a table's text, one per value symbol, padded
    to the variable's column and each with the space after it."""
    return [[s.ljust(max(len(name), 1)) + " " for s in symbols] for name in variables]


def row_blocks(rows: Rows, cells: Sequence[Sequence[str]], value_of: Mapping[str, str],
               opening: str, closing: str) -> Iterator[str]:
    """The rows' texts in blocks, one block per run of rows that share every
    cell but the last few variables'.  A row's text is `opening`, its
    assignment's cells (cells[i][j] is variable i's at rows.cells[j]),
    `closing`, then value_of[its value code].  The blocks' endings are laid
    out once, and no assignment is built; `core.grid_size` measures what
    is written."""
    split = max(len(cells) - _BLOCK_VARIABLES, 0)
    tails = ["".join(combo) + closing for combo in product(*cells[split:])]
    starts = range(0, len(rows), len(tails))
    for start, head in zip(starts, product(*cells[:split])):
        line = opening + "".join(head)
        values = map(value_of.__getitem__, rows.codes[start:start + len(tails)])
        yield line + line.join(map(add, tails, values))


def table_size(variables: Sequence[str], rows: int, header_size: int) -> int:
    """len(format_truth_table(...)) for a table of `rows` rows over
    `variables` under a header of `header_size` characters, without building
    either, for one-character value symbols: the header line is a line of
    the cells under it without its line break, the header in its value's
    place."""
    cells = _text_cells(variables, ("t",))
    return (grid_size(cells, "", "| ", [("", 1)]) + header_size
            + grid_size(cells, "\n", "| ", [("t", rows)]))


class Verdict(Record):
    """Classification of a formula with deterministic witnesses: the first row
    in canonical order falsifying it (absent for tautologies) and the first
    satisfying it (absent for contradictions)."""

    kind: str  # "tautology" | "contradiction" | "contingent"
    falsifying: Assignment | None
    satisfying: Assignment | None


def classify(formula: Formula, limit: int = DEFAULT_VARIABLE_LIMIT) -> Verdict:
    nodes, names = flatten(formula)
    _check_limit(names, limit)
    masks, full = variable_masks(names)
    vector = _vector(nodes, masks, full)
    kind = {full: "tautology", 0: "contradiction"}.get(vector, "contingent")
    return Verdict(kind, _row(names, full ^ vector), _row(names, vector))


class EntailmentResult(Record):
    valid: bool
    counterexample: Assignment | None


def entails(
    premises: Sequence[Formula],
    conclusion: Formula,
    limit: int = DEFAULT_VARIABLE_LIMIT,
) -> EntailmentResult:
    """Semantic entailment over the combined variables of premises and
    conclusion; the counterexample, if any, is the first row in canonical
    order making every premise true and the conclusion false."""
    walks = [flatten(f) for f in (*premises, conclusion)]
    ordered = list(dict.fromkeys(name for _, names in walks for name in names))
    _check_limit(ordered, limit)
    masks, full = variable_masks(ordered)
    *premise_walks, (conclusion_nodes, _) = walks
    bad = full ^ _vector(conclusion_nodes, masks, full)
    for nodes, _ in premise_walks:
        bad &= _vector(nodes, masks, full)
    return EntailmentResult(not bad, _row(ordered, bad))
