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
2 * column + bit, with bit 0 for t and 1 for f.  Each code's rule is made
once, when it is first reached, as either the codes it forces (a tuple,
empty for a variable) or its cases (a list); a rule that closes forces the
node's own column to the other value.  Propagation walks the trail from a
mark and binds what each rule forces; a code whose rule splits waits in
`pending`.  An open branch splits on its next pending code, and each open
split is kept as [mark, pending depth, cases, next case index]: a case
binds its columns from the mark, and backtracking unbinds them back to it.
Each binding is appended to the trace's codes as it is made and each step
to its notes, bases and ends, so a trace holds bindings, not snapshots.
A budget of steps is checked where a branch opens and at the end; between
two branch opens the loop records at most a few steps per column.
"""

from array import array
from collections.abc import Iterator, Sequence
from itertools import chain, islice

from .core import (CONNECTIVES, INPUT_PAIRS, Binary, Connective, Constant, Formula,
                   Negation, Record, TruthValue, Variable, grid_size, subformulas)
from .notation import SyntaxConfig, _sizes, display_width, pad_display, render, value_symbols

#: The steps' notes, indexed by the note codes a trace keeps.
NOTES = NOTE_ROOT, NOTE_FORCED, NOTE_BRANCH_OPEN, NOTE_BRANCH_CLOSED = (
    "root-assumption", "forced", "branch-open", "branch-closed")
_ROOT, _FORCED, _OPEN, _CLOSED = range(4)
_VALUES = (TruthValue.T, TruthValue.F)  # indexed by a binding's bit


class TraceStep(Record):
    """Snapshot of every column after one rule application (None = dash),
    rebuilt from the trace's bindings whenever a step is read."""

    values: tuple[TruthValue | None, ...]
    note: str

    def __init__(self, values: tuple[TruthValue | None, ...], note: str) -> None:
        # Record's init unrolled, as reading a trace builds one step per step.
        fields = self.__dict__
        fields["values"] = values
        fields["note"] = note


class TraceSteps(Record, Sequence):
    """The steps of a trace as per-step bindings: step s has its note, the
    trail depth it starts from (its base) and the codes it bound, up to any
    conflict: codes[ends[s-1]:ends[s]].  Reading steps replays these deltas
    from the first step into `TraceStep` snapshots; `len` never replays."""

    width: int
    notes: bytearray
    bases: array
    ends: array
    codes: array

    def __len__(self) -> int:
        return len(self.notes)

    def __getitem__(self, key):
        if isinstance(key, slice):  # builds every snapshot, then slices
            return tuple(self)[key]
        return next(self._steps(range(len(self))[key]))

    def __iter__(self) -> Iterator[TraceStep]:
        return self._steps(0)

    def _steps(self, start: int) -> Iterator[TraceStep]:
        """The snapshots from step `start` on; the replay passes the earlier
        steps without building theirs."""
        rows = self._replay([None] * (self.width + 1), _VALUES * self.width, NOTES)
        next(islice(rows, start, start), None)
        for row in rows:
            yield TraceStep(tuple(row[:-1]), row[-1])

    def __reversed__(self) -> Iterator[TraceStep]:
        return reversed(tuple(self))

    def _replay(self, row: list, cells: Sequence, endings: Sequence) -> Iterator[list]:
        """Replay the steps into `row`, one item per column and one more,
        and yield it once per step with that step's columns current and its
        last item endings[the step's note code]: code c shows cells[c], an
        unbound column its item in `row` as given.  A step that unbinds or
        binds nothing (most closed branches) costs no loop."""
        dashes = row[:]
        codes = self.codes.tolist()
        trail: list[int] = []
        start = 0
        for note, base, end in zip(self.notes, self.bases, self.ends):
            if base < len(trail):
                for code in trail[base:]:
                    row[code >> 1] = dashes[code >> 1]
                del trail[base:]
            if start < end:
                added = codes[start:end]
                for code in added:
                    row[code >> 1] = cells[code]
                trail += added
                start = end
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
        notes = self.notes
        bound = sum(self.bases) + sum(self.ends[-1:])
        return grid_size(cells, opening, closing,
                         [(ending, notes.count(code)) for code, ending in enumerate(endings)],
                         len(notes) * self.width - bound)


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
    cases = dict.fromkeys(
        ((0, p),) if (p, 1 - q) in support
        else ((1, q),) if (1 - p, q) in support
        else ((0, p), (1, q))
        for p, q in support
    )
    return (), tuple(cases)


_CONNECTIVE_RULES: dict[int, _Table] = {
    conn.column: tuple(_connective_rule(conn, w) for w in _VALUES)
    for conn in CONNECTIVES
}
_NEGATION_RULES: _Table = tuple((((0, 1 - bit),), ()) for bit in (0, 1))
_CONSTANT_RULES: tuple[_Table, _Table] = ((((), ()), None), (None, ((), ())))
_VARIABLE_RULES: _Table = (((), ()), ((), ()))


def _in_codes(node: Formula, code: int, place: dict[Formula, int]) -> tuple | list:
    """The rule of `code`, the node bound to a value, over binding codes, its
    operands' columns found in `place`: a tuple of the codes it forces, or a
    list of its cases, de-duplicated over columns (both operands may be one
    column).  A rule that closes the branch forces the node's own column to
    the other value, which conflicts at once and binds nothing."""
    table, operands = _VARIABLE_RULES, ()
    if type(node) is Binary:
        table = _CONNECTIVE_RULES[node.connective.column]
        operands = place[node.left], place[node.right]
    elif type(node) is Negation:
        table, operands = _NEGATION_RULES, (place[node.operand],)
    elif type(node) is Constant:
        table = _CONSTANT_RULES[_VALUES.index(node.value)]
    rule = table[code & 1]

    def coded(bindings: _Bindings) -> tuple[int, ...]:
        return tuple(2 * operands[pos] + bit for pos, bit in bindings)
    if rule is None:
        return (code ^ 1,)
    forced, cases = rule
    return list(dict.fromkeys(map(coded, cases))) if cases else coded(forced)


class StepLimitError(Exception):
    """A search stopped once its trace held more than `max_steps` steps."""

    def __init__(self, steps: int, limit: int) -> None:
        super().__init__(f"the trace holds more than {limit} steps")
        self.steps = steps
        self.limit = limit


def indirect_check(formula: Formula, max_steps: int | None = None) -> IndirectResult:
    """Refute `formula` by the rules above.  With `max_steps`, raise
    StepLimitError rather than return a trace of more steps: the count is
    checked where a branch opens and at the end, so the search records at
    most a few steps per column past it before it stops."""
    columns = subformulas(formula)
    place = {node: j for j, node in enumerate(columns)}
    width = len(columns)
    budget = float("inf") if max_steps is None else max_steps
    rules: list = [None] * (2 * width)  # each code's rule in codes, made on first use
    values = [-1] * width  # each column's bit, -1 for a dash
    trail = [2 * width - 1]  # the codes bound on this branch: first, the whole formula is f
    values[-1] = 1
    pending: list[int] = []  # codes whose rule splits, in the order reached
    # Each binding is appended to `codes` as it is made, and a step is
    # recorded as its note, its base (the trail's length where it began)
    # and the end of its codes, which are those bound since the last step.
    notes, bases, ends = bytearray([_ROOT]), array("i", [0]), array("i", [1])
    codes = array("i", trail)
    # The splits still open, outermost first: the k-th splits on pending[k],
    # binding its cases from trail[mark], with pending[:depth] reached, and
    # holds [mark, depth, cases, the index of its next case].
    splits: list[list] = []
    mark = 0
    falsifiable = False
    while True:
        # Propagate from trail[mark]; a conflict closes the branch.
        while mark < len(trail):
            code = trail[mark]
            mark += 1
            rule = rules[code]
            if rule is None:
                rule = rules[code] = _in_codes(columns[code >> 1], code, place)
            if not rule:
                continue
            if type(rule) is list:
                pending.append(code)
                continue
            base = len(trail)
            for forced in rule:
                held = values[forced >> 1]
                if held < 0:
                    values[forced >> 1] = forced & 1
                    trail.append(forced)
                    codes.append(forced)
                elif held != forced & 1:
                    break
            else:
                if len(trail) > base:
                    notes.append(_FORCED)
                    bases.append(base)
                    ends.append(len(codes))
                continue
            notes.append(_CLOSED)
            bases.append(base)
            ends.append(len(codes))
            break
        else:  # the branch is open: split on the next pending code, if any
            if len(splits) == len(pending):
                falsifiable = True
                break
            splits.append([mark, len(pending), rules[pending[len(splits)]], 0])
        # Undo the last case; open the next case of the innermost split that
        # has one left.
        while splits:
            split = splits[-1]
            mark, depth, cases, index = split
            if len(trail) > mark:  # undo the case tried last
                for code in trail[mark:]:
                    values[code >> 1] = -1
                del trail[mark:], pending[depth:]
            if index == len(cases):
                splits.pop()
                continue
            split[3] = index + 1
            for code in cases[index]:
                held = values[code >> 1]
                if held < 0:
                    values[code >> 1] = code & 1
                    trail.append(code)
                    codes.append(code)
                elif held != code & 1:
                    notes.append(_CLOSED)
                    bases.append(mark)
                    ends.append(len(codes))
                    break
            else:
                notes.append(_OPEN)
                bases.append(mark)
                ends.append(len(codes))
                if len(notes) > budget:
                    raise StepLimitError(len(notes), max_steps)
                break
        else:
            break
    if len(notes) > budget:
        raise StepLimitError(len(notes), max_steps)
    trace = IndirectTrace(tuple(columns), TraceSteps(width, notes, bases, ends, codes))
    if not falsifiable:
        return IndirectResult("tautology", None, (), trace)
    # Post-order meets the variables in first-occurrence order.
    found = {node.name: values[j] for j, node in enumerate(columns)
             if isinstance(node, Variable)}
    countermodel = {name: _VALUES[bit] for name, bit in found.items() if bit >= 0}
    unconstrained = tuple(name for name, bit in found.items() if bit < 0)
    return IndirectResult("falsifiable", countermodel, unconstrained, trace)


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
