"""The sixteen-connective atlas: the 1902 grid as printed, X-frame glyphs,
vector identification, and the brute-force tautology enumerator.

X-frame convention: each binary connective is drawn as a square frame whose
four quadrants stand for the four input pairs -- top (t,t), right (t,f),
left (f,t), bottom (f,f).  A quadrant is closed exactly where the connective
outputs f, so column 1 (constant-false) is the fully closed frame and column
16 (constant-true) the fully open one.  The source describes the device but
its explanatory figure does not survive, so the ascii glyph drawn here (a box
with an x at each closed quadrant position) is this package's own depiction;
the descriptor line is the precise statement.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from itertools import islice, product

from .bivalent import MatrixTable, apply_mask, variable_masks
from .core import (
    Binary,
    CONNECTIVES,
    Connective,
    EnumerationBoundError,
    Formula,
    Record,
    TruthValue,
    Variable,
    connective_from_vector,
)

_T = TruthValue.T
_F = TruthValue.F


# ---------------------------------------------------------------------------
# the 1902 grid, exactly as printed

#: Rows are the input pairs (t,t), (t,f), (f,t), (f,f); columns 1..16 as
#: printed.  Column 8 repeats column 2 -- (f,f,f,t) -- and (t,f,f,t) appears
#: nowhere; this grid preserves the anomaly rather than correcting it.
PRINTED_GRID: tuple[tuple[TruthValue, ...], ...] = (
    (_F, _F, _F, _F, _T, _T, _T, _F, _F, _F, _F, _F, _T, _T, _T, _T),
    (_F, _F, _F, _T, _F, _T, _F, _F, _T, _T, _F, _T, _F, _T, _T, _T),
    (_F, _F, _T, _F, _F, _F, _T, _F, _T, _F, _T, _T, _T, _F, _T, _T),
    (_F, _T, _F, _F, _F, _F, _F, _T, _F, _T, _T, _T, _T, _T, _F, _T),
)

PRINTED_ANNOTATIONS: tuple[str, ...] = (
    "note: as printed, column 8 (f,f,f,t) duplicates column 2",
    "note: the vector (t,f,f,t) is absent from the printed grid; the "
    "canonical catalog assigns it to column 8 (equivalence)",
)


class PrintedTable(Record):
    grid: tuple[tuple[TruthValue, ...], ...]
    annotations: tuple[str, ...]
    duplicate_column: int = 8
    duplicate_of: int = 2
    missing_vector: tuple[TruthValue, ...] = (_T, _F, _F, _T)

    def column(self, number: int) -> tuple[TruthValue, ...]:
        return tuple(row[number - 1] for row in self.grid)


def paper_table() -> PrintedTable:
    """The sixteen-column grid verbatim, with the column-8 anomaly flagged."""
    return PrintedTable(PRINTED_GRID, PRINTED_ANNOTATIONS)


def format_paper_table(table: PrintedTable) -> str:
    header = " ".join(f"{i:>2}" for i in range(1, 17))
    lines = [header]
    for row in table.grid:
        lines.append(" ".join(f"{v.value.upper():>2}" for v in row))
    lines.extend(table.annotations)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# identification and X-frames

def identify(source: MatrixTable | Sequence[TruthValue]) -> Connective:
    """Map a two-by-two matrix or a 4-value vector back to its connective."""
    if isinstance(source, MatrixTable):
        vector = source.cells[0] + source.cells[1]
    else:
        vector = tuple(source)
    return connective_from_vector(vector)  # type: ignore[arg-type]


#: Quadrant names in canonical pair order.
QUADRANTS = ("top", "right", "left", "bottom")


class XFrame(Record):
    """Closure flags in canonical pair order: (t,t), (t,f), (f,t), (f,f)."""

    closed: tuple[bool, bool, bool, bool]

    def closed_pairs(self) -> tuple[str, ...]:
        labels = ("tt", "tf", "ft", "ff")
        return tuple(l for l, c in zip(labels, self.closed) if c)


def xframe_of(conn: Connective) -> XFrame:
    return XFrame(tuple(v is _F for v in conn.vector))  # type: ignore[arg-type]


def connective_of_xframe(frame: XFrame) -> Connective:
    vector = tuple(_F if c else _T for c in frame.closed)
    return connective_from_vector(vector)  # type: ignore[arg-type]


def render_xframe(frame: XFrame) -> str:
    """Three-line box glyph (x marks a closed quadrant: top/left/right/bottom)
    plus the descriptor line naming the closed input pairs."""
    top, right, left, bottom = frame.closed
    lines = [
        "+-" + ("x" if top else "-") + "-+",
        "|" + ("x" if left else " ") + " " + ("x" if right else " ") + "|",
        "+-" + ("x" if bottom else "-") + "-+",
    ]
    closed = frame.closed_pairs()
    lines.append("closed: " + (",".join(closed) if closed else "none"))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# tautology enumeration

SHAPE_POLICIES = ("right-combs", "all-trees")

#: Leaf pool; a spec's max_variables picks a prefix of it.
VARIABLE_POOL = ("p", "q", "r")

MAX_VARIABLES = 3
MAX_SLOTS = 5


class EnumerationSpec(Record):
    max_variables: int = 3
    max_connective_slots: int = 3
    shape_policy: str = "right-combs"
    emit_limit: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.max_variables <= MAX_VARIABLES:
            raise EnumerationBoundError(
                f"max_variables must be 1..{MAX_VARIABLES}, got {self.max_variables}"
            )
        if not 0 <= self.max_connective_slots <= MAX_SLOTS:
            raise EnumerationBoundError(
                f"max_connective_slots must be 0..{MAX_SLOTS}, "
                f"got {self.max_connective_slots}"
            )
        if self.shape_policy not in SHAPE_POLICIES:
            raise EnumerationBoundError(
                f"shape_policy must be one of {SHAPE_POLICIES}, "
                f"got {self.shape_policy!r}"
            )
        if self.emit_limit is not None and self.emit_limit < 0:
            raise EnumerationBoundError(
                f"emit_limit must be at least 0, got {self.emit_limit}"
            )


# A shape is () for a leaf or (left_shape, right_shape) for a connective slot.
_Shape = tuple


def _splits(policy: str, slots: int) -> range:
    """The i for which a `slots`-slot tree may join an i-slot left and a
    (slots-1-i)-slot right operand; a right comb's left operand is a leaf."""
    return range(1) if policy == "right-combs" else range(slots)


def _shapes_for(policy: str, slots: int) -> list[_Shape]:
    if slots == 0:
        return [()]
    return [(l, r) for i in _splits(policy, slots)
            for l in _shapes_for(policy, i)
            for r in _shapes_for(policy, slots - 1 - i)]


def _fold(shape: _Shape, conns: Iterator[Connective], leaf: Callable[[], object],
          node: Callable[[Connective, object, object], object]) -> object:
    """Walk a filled shape: leaves left to right, connectives in pre-order."""
    if shape == ():
        return leaf()
    conn = next(conns)
    left = _fold(shape[0], conns, leaf, node)
    return node(conn, left, _fold(shape[1], conns, leaf, node))


def _vector_counts(policy: str, max_slots: int, leaf_masks: list[int],
                   full: int) -> list[dict[int, int]]:
    """For each slot count k, how many fillings of the policy's k-slot
    shapes have each truth vector."""
    maps: list[dict[int, int]] = [dict.fromkeys(leaf_masks, 1)]
    for k in range(1, max_slots + 1):
        counts: dict[int, int] = {}
        for i in _splits(policy, k):
            for (a, m), (b, n) in product(maps[i].items(), maps[k - 1 - i].items()):
                for conn in CONNECTIVES:
                    v = apply_mask(conn, a, b, full)
                    counts[v] = counts.get(v, 0) + m * n
        maps.append(counts)
    return maps


class EmittedTautology(Record):
    formula: Formula
    connectives: tuple[Connective, ...]
    slots: int


class SlotSummary(Record):
    slots: int
    generated: int
    tautologies: int

    @property
    def distinct(self) -> int:
        # A tree gives back the shape, connectives and leaves that built it,
        # so no two fillings build the same tree: every tautology is distinct.
        return self.tautologies


class EnumerationResult(Record):
    spec: EnumerationSpec
    emitted: tuple[EmittedTautology, ...]
    per_slot: tuple[SlotSummary, ...]

    @property
    def total_generated(self) -> int:
        return sum(s.generated for s in self.per_slot)

    @property
    def total_tautologies(self) -> int:
        return sum(s.tautologies for s in self.per_slot)

    @property
    def total_distinct(self) -> int:
        return sum(s.distinct for s in self.per_slot)


def _tautologies(policy: str, max_slots: int, variables: list[Variable],
                 leaf_masks: list[int], full: int) -> Iterator[EmittedTautology]:
    """The tautologies in enumeration order, each built as a tree only when
    it is drawn."""
    for slots in range(max_slots + 1):
        leaf_choices = list(product(variables, repeat=slots + 1))
        for shape in _shapes_for(policy, slots):
            for conns in product(CONNECTIVES, repeat=slots):
                # Every leaf choice at once, in leaf-odometer order.
                vectors = _fold(shape, iter(conns), lambda: leaf_masks,
                                lambda c, l, r: [apply_mask(c, a, b, full)
                                                 for a in l for b in r])
                for leaves, vector in zip(leaf_choices, vectors):
                    if vector == full:
                        formula = _fold(shape, iter(conns), iter(leaves).__next__,
                                        Binary)
                        yield EmittedTautology(formula, conns, slots)


def enumerate_tautologies(spec: EnumerationSpec) -> EnumerationResult:
    """Substitute every connective choice into every allowed shape, keep the
    fillings whose value is t on all assignments.

    Deterministic order: slot count ascending, shapes in policy order,
    connective choices as an odometer over columns 1..16 (pre-order slots,
    last slot fastest), then leaf choices as an odometer over the variable
    pool (left-to-right leaves, last leaf fastest).  The counts come from
    one map per slot count, from truth vector to the number of fillings
    with that vector; the fillings are scanned one by one only until the
    emit limit is reached.
    """
    masks, full = variable_masks(VARIABLE_POOL[: spec.max_variables])
    maps = _vector_counts(spec.shape_policy, spec.max_connective_slots,
                          list(masks.values()), full)
    per_slot = tuple(SlotSummary(k, sum(m.values()), m.get(full, 0))
                     for k, m in enumerate(maps))
    return EnumerationResult(spec, emit_tautologies(spec), per_slot)


def emit_tautologies(spec: EnumerationSpec) -> tuple[EmittedTautology, ...]:
    """The tautologies `enumerate_tautologies(spec)` emits, drawn by the
    scan alone: the per-slot counts are not computed."""
    names = VARIABLE_POOL[: spec.max_variables]
    masks, full = variable_masks(names)
    # islice draws nothing at limit 0 and stops the scan once it is reached.
    return tuple(islice(_tautologies(spec.shape_policy, spec.max_connective_slots,
                                     [Variable(n) for n in names], list(masks.values()),
                                     full),
                        spec.emit_limit))
