"""Abbreviated (indirect) truth tables.

The method assumes the target formula false and propagates what that forces
onto its subformulas instead of tabulating every assignment.  Columns are the
distinct subformulas in post-order (innermost first, whole formula last); a
dash marks a column the reasoning never needed to constrain — the manuscript
tables show exactly such dash-bearing rows.

Rules applied to a constrained column:

* a constant closes the branch if constrained to the other value;
* negation: !P = w forces P = opposite(w);
* binary: for c(P,Q) = w let S be the input pairs on which c outputs w.
  If every pair in S agrees on P (or on Q), that operand is forced; a
  singleton S forces both.  Otherwise the node splits into cases, built by
  walking S in the canonical pair order (t,t), (t,f), (f,t), (f,f): a pair
  whose P-value admits both Q-values inside S contributes the case "P = p
  alone" (Q stays unconstrained), symmetrically for Q, and any other pair
  contributes the two-sided case; duplicate cases are dropped.  The one-sided
  cases are what leave dashes behind.  This rule is tabulated once per
  connective and value, and turned into columns once per node and value.

A branch closes when some column would be bound to both values.  The source
tables show only forced rows; case splitting is an addition here, since
without it the method cannot decide every formula.  Branches are explored
depth-first in the order generated, closed branches stay in the trace, and
the first open branch supplies the countermodel (exploration stops there).
Unconstrained variables may be completed arbitrarily: evaluation still
yields f.

The search is one loop over one trail of bindings, each coded as
2 * column + bit, with bit 0 for t and 1 for f; its partner, code ^ 1, binds
the same column to the other value.  A flag per code is set while its
column is bound to its bit: a binding is held when its own flag is set and
conflicts when its partner's is.  Each code's rule is made once, when it is
first reached, as either what it forces (a tuple, empty for a variable) or
its cases (a list), each a tuple of (code, partner) pairs; a rule that
closes forces the node's own column to the other value.  Propagation walks
the trail from a mark and binds what each rule forces; the cases of a code
whose rule splits wait in `pending`.  An open branch splits on its next
pending cases: it binds the first at once and pushes the rest, last first,
onto one stack of untried cases, each with the mark it binds its columns
from, the pending depth and the count of splits open.  A later case will
meet the very bindings its split opened on, so one whose first pair
conflicts is settled as it is pushed: it goes on the stack as its bare mark,
and popping it records its closed step and nothing else.  Backtracking pops
the next case, unbinds the trail back to its mark, and binds it; once the
stack is empty, every branch has closed.  Each binding is appended to a
list of codes as it is made, and each step's note byte (from a table per
note, indexed by the count of codes it bound) and base to two more, so a
trace holds bindings, not snapshots.  A budget of steps is checked where a
branch opens, once the lists hold more than a chunk of steps, and at the
end; each check moves the lists' steps into the trace's arrays (see
`TraceSteps`), which hold a step in a few bytes where the lists take eight
per item.  Between two branch opens the loop records at most a few steps
per column.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from itertools import chain, islice

from .core import (CONNECTIVES, INPUT_PAIRS, Binary, Connective, Constant, Formula,
                   Negation, Record, TruthValue, Variable, _columns, grid_size)
from .notation import SyntaxConfig, _sizes, display_width, pad_display, render, value_symbols

#: The steps' notes, indexed by the note codes a trace keeps.
NOTES = NOTE_ROOT, NOTE_FORCED, NOTE_BRANCH_OPEN, NOTE_BRANCH_CLOSED = (
    "root-assumption", "forced", "branch-open", "branch-closed")
_ROOT, _FORCED, _OPEN, _CLOSED = range(4)
_VALUES = (TruthValue.T, TruthValue.F)  # indexed by a binding's bit
_NOTE_CODES = bytes(byte & 3 for byte in range(256))  # a note byte's note code


class TraceStep(Record):
    """Snapshot of every column after one rule application (None = dash),
    rebuilt from the trace's bindings whenever a step is read."""

    values: tuple[TruthValue | None, ...]
    note: str


class TraceSteps(Record, Sequence):
    """The steps of a trace as per-step bindings: step s has its base, the
    trail depth it starts from, and its note byte: its note's code plus 4
    times the count of codes it bound (0 to 2, up to any conflict), which
    follow the earlier steps' in `codes`.  Reading steps replays these deltas
    from the first step into `TraceStep` snapshots; `len` never replays."""

    width: int
    notes: bytearray
    bases: array
    codes: array

    def __len__(self) -> int:
        return len(self.notes)

    def __getitem__(self, key):
        span = range(len(self))[key]
        if not isinstance(key, slice):
            return next(self._steps(range(span, span + 1)))
        # One replay builds the span forward; a negative stride reverses it.
        built = tuple(self._steps(span if span.step > 0 else span[::-1]))
        return built if span.step > 0 else built[::-1]

    def __iter__(self) -> Iterator[TraceStep]:
        return self._steps(range(len(self)))

    def _steps(self, span: range) -> Iterator[TraceStep]:
        """The snapshots of the steps in `span`, a forward range, from one replay."""
        rows = self._replay([None] * (self.width + 1), _VALUES * self.width, NOTES)
        for row in islice(rows, span.start, span.stop, span.step):
            yield TraceStep(tuple(row[:-1]), row[-1])

    def __reversed__(self) -> Iterator[TraceStep]:
        return reversed(tuple(self))

    def _replay(self, row: list, cells: Sequence, endings: Sequence) -> Iterator[list]:
        """Replay the steps into `row`, one item per column and one more,
        and yield it once per step with that step's columns current and its
        last item endings[the step's note code]: code c shows cells[c], an
        unbound column its item in `row` as given.  Binding takes no loop, and
        a step that unbinds nothing (most closed branches) takes none at all."""
        dashes = row[:]
        take = iter(self.codes).__next__  # the codes bound, in the steps' order
        endings = [*endings] * 3  # indexed by the whole note byte
        trail: list[int] = []
        for note, base in zip(self.notes, self.bases):
            if base < len(trail):
                for code in trail[base:]:
                    row[code >> 1] = dashes[code >> 1]
                del trail[base:]
            if note > 3:  # the step binds one code, or two
                code = take()
                row[code >> 1] = cells[code]
                trail.append(code)
                if note > 7:
                    code = take()
                    row[code >> 1] = cells[code]
                    trail.append(code)
            row[-1] = endings[note]
            yield row

    def rows(self, cells: Sequence[Sequence[str]], endings: Sequence[str],
             opening: str, closing: str) -> Iterator[list[str]]:
        """Each step's line in pieces: `opening`, column j's cells[j][bit]
        where the step binds it to that bit's value, else cells[j][2] (its
        dash), `closing`, then endings[the step's note code], in width + 1
        pieces; one list holds every line, so take its pieces before the next."""
        first, *rest = cells
        columns = [[opening + cell for cell in first], *rest]
        row = [dash for _, _, dash in columns] + [""]
        codes = [cell for t, f, _ in columns for cell in (t, f)]
        return self._replay(row, codes, [closing + ending for ending in endings])

    def rows_size(self, cells: Sequence[Sequence[str]], endings: Sequence[str],
                  opening: str, closing: str) -> int:
        """The length of what `rows` writes, from the arrays without a replay:
        each note's line count, and the dashes, every column of every step
        but the ones its trail binds (its base and the codes it added)."""
        return grid_size(cells, opening, closing, zip(endings, self.note_counts().values()),
                         len(self) * self.width - sum(self.bases) - len(self.codes))

    def note_counts(self) -> dict[str, int]:
        """Each note's count of steps, every note in `NOTES` order, zeros
        too, from the note bytes without a replay."""
        notes = self.notes.translate(_NOTE_CODES)
        return {note: notes.count(code) for code, note in enumerate(NOTES)}


class IndirectTrace(Record):
    """Columns (distinct subformulas, post-order) and steps of one refutation."""

    columns: tuple[Formula, ...]
    steps: TraceSteps


class IndirectResult(Record):
    outcome: str  # "tautology" | "falsifiable"
    countermodel: dict[str, TruthValue] | None
    unconstrained: tuple[str, ...]
    trace: IndirectTrace


# A node's rule at one value: (forced bindings, cases) of (position, bit) pairs.
_Bindings = tuple[tuple[int, int], ...]
_Rule = tuple[_Bindings, tuple[_Bindings, ...]] | None  # None closes
_Table = tuple[_Rule, _Rule]  # indexed by the node's bit
_PAIRS = tuple(tuple(map(_VALUES.index, pair)) for pair in INPUT_PAIRS)  # as bits


def _connective_rule(conn: Connective, w: TruthValue) -> _Rule:
    """The binary rule for conn(P, Q) = w over operand positions 0 (P) and
    1 (Q): None when no input pair gives w, else the forced bindings and, when
    nothing is forced, the cases in canonical pair order."""
    support = [pair for pair, out in zip(_PAIRS, conn.vector) if out is w]
    if not support:
        return None
    agreed = [{pair[pos] for pair in support} for pos in (0, 1)]
    forced = tuple((pos, *bits) for pos, bits in enumerate(agreed) if len(bits) == 1)
    if forced:
        return forced, ()
    return (), tuple(dict.fromkeys(
        ((0, p),) if (p, 1 - q) in support
        else ((1, q),) if (1 - p, q) in support
        else ((0, p), (1, q))
        for p, q in support))


_CONNECTIVE_RULES: dict[int, _Table] = {
    conn.column: tuple(_connective_rule(conn, w) for w in _VALUES)
    for conn in CONNECTIVES
}
_NEGATION_RULES: _Table = tuple((((0, 1 - bit),), ()) for bit in (0, 1))
_CONSTANT_RULES: tuple[_Table, _Table] = ((((), ()), None), (None, ((), ())))
_VARIABLE_RULES: _Table = (((), ()), ((), ()))


def _in_codes(node: Formula, code: int, place: dict[int, int]) -> tuple | list:
    """The rule of `code`, the node bound to a value, over binding codes, its
    operands' columns found in `place` by `id`: a tuple of what it forces, or
    a list of its cases, each a tuple of (code, partner) pairs, the partner
    being the code of the column's other value; cases are de-duplicated over
    columns (both operands may be one column).  A rule that closes the branch
    forces the node's own column to the other value, which conflicts at once
    and binds nothing."""
    table, operands = _VARIABLE_RULES, ()  # each operand's code for t
    if type(node) is Binary:
        table = _CONNECTIVE_RULES[node.connective.column]
        operands = 2 * place[id(node.left)], 2 * place[id(node.right)]
    elif type(node) is Negation:
        table, operands = _NEGATION_RULES, (2 * place[id(node.operand)],)
    elif type(node) is Constant:
        table = _CONSTANT_RULES[_VALUES.index(node.value)]
    rule = table[code & 1]
    if rule is None:
        return ((code ^ 1, code),)
    forced, cases = rule
    if not cases:
        return tuple([(operands[pos] + bit, operands[pos] + 1 - bit) for pos, bit in forced])
    return list(dict.fromkeys([tuple([(operands[pos] + bit, operands[pos] + 1 - bit)
                                      for pos, bit in case]) for case in cases]))


class StepLimitError(Exception):
    """A search stopped once its trace held more than `max_steps` steps."""

    def __init__(self, steps: int, limit: int) -> None:
        super().__init__(f"the trace holds more than {limit} steps")
        self.steps, self.limit = steps, limit


#: The steps a search holds in lists before it moves them into its trace's arrays.
_CHUNK = 1024
# The note bytes of a step that forces, opens a case or closes a branch,
# indexed by the count of codes it bound.
_FORCED_NOTES, _OPEN_NOTES, _CLOSED_NOTES = (
    tuple(note | bound << 2 for bound in range(3)) for note in (_FORCED, _OPEN, _CLOSED))


def indirect_check(formula: Formula, max_steps: int | None = None) -> IndirectResult:
    """Refute `formula` by the rules above.  With `max_steps`, a count of
    steps, raise StepLimitError rather than return a trace of more steps:
    the count is checked where a branch opens and at the end, so the search
    records at most a few steps per column past it before it stops."""
    if max_steps is not None and (type(max_steps) is not int or max_steps < 0):
        raise ValueError(f"max_steps must be a non-negative int, got {max_steps!r}")
    columns, place = _columns(formula)
    width = len(columns)
    budget = float("inf") if max_steps is None else max_steps
    rules: list = [None] * (2 * width)  # each code's rule in codes, made on first use
    trail = [2 * width - 1]  # the codes bound on this branch: first, the whole formula is f
    bound = [False] * (2 * width - 1) + [True]  # per code: is its column bound to its bit?
    pending: list[list] = []  # the cases of each rule that splits, in the order reached
    # Each binding is appended to `new_codes` as it is made, and a step is
    # recorded as its base (the trail's length where it began) in `new_bases`
    # and its note byte, with the count of codes it bound (those bound since
    # the last step) above its note, in `new_notes`.  Once they hold more
    # than `room` steps where a branch opens, and at the end, the steps are
    # counted against the budget and moved into the arrays of `steps`.
    steps = TraceSteps(width, bytearray(), array("i"), array("i"))
    new = new_notes, new_bases, new_codes = [_ROOT | 1 << 2], [0], trail[:]
    room = min(_CHUNK, budget)
    # The cases not yet tried, the next on top.  Opening a split binds its
    # first case at once and pushes the rest, last first, each as (mark,
    # depth, opened, case): `case` is bound from trail[mark], with
    # pending[:depth] reached and `opened` splits open, its own among them.
    # A later case meets the very bindings its split opened on, so one whose
    # first pair conflicts closes on sight: it is pushed as its bare mark,
    # the base of the closed step it records when popped.
    work: list[int | tuple] = []
    size, waiting, opened = 1, 0, 0  # the lengths of trail and pending; the splits open
    mark, case, falsifiable = 0, None, False  # case: the one to bind next, if any
    while True:
        # Propagate from trail[mark]; a conflict closes the branch.
        while mark < size:
            code = trail[mark]
            mark += 1
            rule = rules[code]
            if rule is None:
                rule = rules[code] = _in_codes(columns[code >> 1], code, place)
            if not rule:
                continue
            if type(rule) is list:
                pending.append(rule)
                waiting += 1
                continue
            base = size
            for forced, partner in rule:
                if bound[partner]:
                    break
                if not bound[forced]:
                    bound[forced] = True
                    trail.append(forced)
                    new_codes.append(forced)
                    size += 1
            else:
                if size > base:
                    new_notes.append(_FORCED_NOTES[size - base])
                    new_bases.append(base)
                continue
            new_notes.append(_CLOSED_NOTES[size - base])
            new_bases.append(base)
            break
        else:  # the branch is open
            if case is None:  # split on the next pending cases, if any
                if opened == waiting:
                    falsifiable = True
                    break
                opened += 1
                cases = pending[opened - 1]
                for case in cases[:0:-1]:
                    work.append(mark if bound[case[0][1]] else (mark, waiting, opened, case))
                case = cases[0]
            # Bind `case` from trail[mark]; a conflict closes its branch.
            for code, partner in case:
                if bound[partner]:
                    new_notes.append(_CLOSED_NOTES[size - mark])
                    new_bases.append(mark)
                    break
                if not bound[code]:
                    bound[code] = True
                    trail.append(code)
                    new_codes.append(code)
                    size += 1
            else:
                new_notes.append(_OPEN_NOTES[size - mark])
                new_bases.append(mark)
                if len(new_notes) > room:
                    room = _move_steps(steps, new, budget)
                case = None
                continue
        # The branch closed: undo it back to the next untried case's mark,
        # which the loop binds next, as nothing is left to propagate there.
        # A bare mark records its closed step and leaves the undoing to the
        # next case, whose mark is no higher.
        while work:
            entry = work.pop()
            if type(entry) is int:
                new_notes.append(_CLOSED_NOTES[0])
                new_bases.append(entry)
                continue
            mark, depth, opened, case = entry
            if size > mark:
                for code in trail[mark:]:
                    bound[code] = False
                del trail[mark:], pending[depth:]
                size, waiting = mark, depth
            break
        else:  # no case is left untried
            break
    _move_steps(steps, new, budget)
    trace = IndirectTrace(tuple(columns), steps)
    if not falsifiable:
        return IndirectResult("tautology", None, (), trace)
    # Post-order meets the variables in first-occurrence order.
    flags = {node.name: bound[2 * j:2 * j + 2] for j, node in enumerate(columns)
             if isinstance(node, Variable)}
    countermodel = {name: _VALUES[f] for name, (t, f) in flags.items() if t or f}
    unconstrained = tuple(name for name, (t, f) in flags.items() if not (t or f))
    return IndirectResult("falsifiable", countermodel, unconstrained, trace)


def _move_steps(steps: TraceSteps, new: tuple[list, list, list], budget: float) -> int:
    """Count a search's steps against its budget, raising StepLimitError
    past it, then move the new steps' notes, bases and codes from their
    lists into the arrays of `steps` and return how many steps the lists
    may take before the search calls this again."""
    notes, bases, codes = new
    total = len(steps.notes) + len(notes)
    if total > budget:
        raise StepLimitError(total, budget)  # type: ignore[arg-type]
    steps.notes.extend(notes)
    steps.bases.extend(bases)
    steps.codes.extend(codes)
    del notes[:], bases[:], codes[:]
    return min(_CHUNK, budget - total)


def _text_cells(widths: Sequence[int], config: SyntaxConfig) -> list[list[str]]:
    """Each column's t, f and dash cells in a trace's text, padded to its
    width and each with the two spaces after it."""
    symbols = (*value_symbols(config.notation), "-")
    return [[pad_display(s, w) + "  " for s in symbols] for w in widths]


def trace_lines(trace: IndirectTrace, config: SyntaxConfig = SyntaxConfig()
                ) -> Iterator[list[str]]:
    """`render_trace`'s text as lists of pieces: the header line, then each
    step's line, which starts with its line break.  The steps' list is the
    one `TraceSteps.rows` reuses: take its pieces before the next."""
    headers = [render(column, config) for column in trace.columns]
    widths = [max(display_width(h), 1) for h in headers]
    header = "  ".join(pad_display(h, w) for h, w in zip(headers, widths)) + "  | note"
    return chain([[header]], trace.steps.rows(_text_cells(widths, config), NOTES, "\n", "| "))


def render_trace(trace: IndirectTrace, config: SyntaxConfig = SyntaxConfig()) -> str:
    """Columnar text form of a trace: one header of subformula renderings,
    one line per step, dashes for unconstrained columns, the note last."""
    parts: list[str] = []
    for pieces in trace_lines(trace, config):
        parts += pieces
    return "".join(parts)


def text_layout(columns: Sequence[Formula], config: SyntaxConfig = SyntaxConfig()
                ) -> tuple[int, list[list[str]]]:
    """The length of a trace's header line over `columns` and the columns'
    text cells, from each column's rendered length and width: the header
    pads each rendering as the cells below it are padded."""
    # Every column is a node object of the whole formula, the last column.
    sizes = _sizes(columns[-1], config)
    lengths, widths = zip(*(sizes[id(column)] for column in columns))
    cells = _text_cells([max(width, 1) for width in widths], config)
    # Each header cell is as long as the cells below it plus its rendering's
    # length over its width, and the header ends in "| note".
    return grid_size(cells, "", "| ", [("note", 1)]) + sum(lengths) - sum(widths), cells


def trace_size(trace: IndirectTrace, config: SyntaxConfig = SyntaxConfig()) -> int:
    """len(render_trace(trace, config)), found without building the text."""
    header, cells = text_layout(trace.columns, config)
    return header + trace.steps.rows_size(cells, NOTES, "\n", "| ")
