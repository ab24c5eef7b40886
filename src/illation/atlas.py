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

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .bivalent import MatrixTable, apply_mask, variable_masks
from .core import (
    Binary,
    CONNECTIVES,
    Connective,
    Formula,
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


@dataclass(frozen=True)
class PrintedTable:
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


@dataclass(frozen=True)
class XFrame:
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


class EnumerationBoundError(Exception):
    pass


@dataclass(frozen=True)
class EnumerationSpec:
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


def _all_shapes(slots: int, cache: dict[int, list[_Shape]]) -> list[_Shape]:
    if slots in cache:
        return cache[slots]
    if slots == 0:
        shapes: list[_Shape] = [()]
    else:
        shapes = [
            (l, r)
            for i in range(slots)
            for l in _all_shapes(i, cache)
            for r in _all_shapes(slots - 1 - i, cache)
        ]
    cache[slots] = shapes
    return shapes


def _shapes_for(policy: str, slots: int) -> list[_Shape]:
    if policy == "right-combs":
        shape: _Shape = ()
        for _ in range(slots):
            shape = ((), shape)
        return [shape]
    return _all_shapes(slots, {})


def _leaf_count(shape: _Shape) -> int:
    if shape == ():
        return 1
    return _leaf_count(shape[0]) + _leaf_count(shape[1])


def _build(shape: _Shape, leaves: list[Variable], conns: list[Connective]) -> Formula:
    """Consume leaves left-to-right and connectives in pre-order."""
    if shape == ():
        return leaves.pop(0)
    conn = conns.pop(0)
    left = _build(shape[0], leaves, conns)
    right = _build(shape[1], leaves, conns)
    return Binary(conn, left, right)


@dataclass(frozen=True)
class EmittedTautology:
    formula: Formula
    connectives: tuple[Connective, ...]
    slots: int


@dataclass(frozen=True)
class SlotSummary:
    slots: int
    generated: int
    tautologies: int
    distinct: int


@dataclass(frozen=True)
class EnumerationResult:
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


def _mask_eval(shape: _Shape, leaf_masks: list[int], conns: list[Connective],
               full: int) -> int:
    if shape == ():
        return leaf_masks.pop(0)
    conn = conns.pop(0)
    left = _mask_eval(shape[0], leaf_masks, conns, full)
    right = _mask_eval(shape[1], leaf_masks, conns, full)
    return apply_mask(conn, left, right, full)


def enumerate_tautologies(spec: EnumerationSpec) -> EnumerationResult:
    """Substitute every connective choice into every allowed shape, keep the
    fillings whose value is t on all assignments.

    Deterministic order: slot count ascending, shapes in policy order,
    connective choices as an odometer over columns 1..16 (pre-order slots,
    last slot fastest), then leaf choices as an odometer over the variable
    pool (left-to-right leaves, last leaf fastest).  The summary counts raw
    emissions and structurally distinct formulas per slot count.
    """
    names = VARIABLE_POOL[: spec.max_variables]
    name_masks, full = variable_masks(names)
    variables = {name: Variable(name) for name in names}
    emitted: list[EmittedTautology] = []
    per_slot: list[SlotSummary] = []
    limit = spec.emit_limit
    for slots in range(spec.max_connective_slots + 1):
        generated = 0
        tautologies = 0
        for shape in _shapes_for(spec.shape_policy, slots):
            leaf_count = _leaf_count(shape)
            for conns in product(CONNECTIVES, repeat=slots):
                for leaves in product(names, repeat=leaf_count):
                    generated += 1
                    masks = [name_masks[n] for n in leaves]
                    if _mask_eval(shape, masks, list(conns), full) != full:
                        continue
                    tautologies += 1
                    if limit is None or len(emitted) < limit:
                        formula = _build(
                            shape,
                            [variables[n] for n in leaves],
                            list(conns),
                        )
                        emitted.append(EmittedTautology(formula, conns, slots))
        # A tree gives back the shape, connectives and leaves that built it,
        # so no two fillings build the same tree: every tautology is distinct.
        per_slot.append(SlotSummary(slots, generated, tautologies, tautologies))
    return EnumerationResult(spec, tuple(emitted), tuple(per_slot))
