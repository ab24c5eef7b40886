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
  connective and value; a node maps its operand positions to columns.

A branch closes when some column would be bound to both values.  The source
tables show only forced rows; case splitting is an addition here, since
without it the method cannot decide every formula.  Branches are explored
depth-first in the order generated, closed branches stay in the trace, and
the first open branch supplies the countermodel (exploration stops there).
Unconstrained variables may be completed arbitrarily: evaluation still
yields f.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import (
    CONNECTIVES,
    Binary,
    Connective,
    Constant,
    Formula,
    INPUT_PAIRS,
    Negation,
    TruthValue,
    Variable,
    subformulas,
    variables_of,
)
from .notation import SyntaxConfig, display_width, pad_display, render, value_symbols

NOTE_ROOT = "root-assumption"
NOTE_FORCED = "forced"
NOTE_BRANCH_OPEN = "branch-open"
NOTE_BRANCH_CLOSED = "branch-closed"


@dataclass(frozen=True)
class TraceStep:
    """Snapshot of every column after one rule application (None = dash)."""

    values: tuple[TruthValue | None, ...]
    note: str


@dataclass(frozen=True)
class IndirectTrace:
    columns: tuple[Formula, ...]
    steps: tuple[TraceStep, ...]


@dataclass(frozen=True)
class IndirectResult:
    outcome: str  # "tautology" | "falsifiable"
    countermodel: dict[str, TruthValue] | None
    unconstrained: tuple[str, ...]
    trace: IndirectTrace


_Bindings = tuple[tuple[int, TruthValue], ...]
# (forced bindings, case split) for one node bound to one value; None closes.
_Rule = tuple[_Bindings, tuple[_Bindings, ...]] | None


def _connective_rule(conn: Connective, w: TruthValue) -> _Rule:
    """The binary rule for conn(P, Q) = w over operand positions 0 (P) and
    1 (Q): None when no input pair gives w, else the forced bindings and, when
    nothing is forced, the cases in canonical pair order."""
    support = [pair for pair, out in zip(INPUT_PAIRS, conn.vector) if out is w]
    if not support:
        return None
    agreed = [{pair[pos] for pair in support} for pos in (0, 1)]
    forced = tuple((pos, *vals) for pos, vals in enumerate(agreed) if len(vals) == 1)
    if forced:
        return forced, ()
    cases = dict.fromkeys(
        ((0, p),) if (p, q.opposite()) in support
        else ((1, q),) if (p.opposite(), q) in support
        else ((0, p), (1, q))
        for p, q in support
    )
    return (), tuple(cases)


_Table = dict[TruthValue, _Rule]
_CONNECTIVE_RULES: dict[tuple[TruthValue, ...], _Table] = {
    conn.vector: {w: _connective_rule(conn, w) for w in TruthValue}
    for conn in CONNECTIVES
}
_NEGATION_RULES: _Table = {w: (((0, w.opposite()),), ()) for w in TruthValue}
_CONSTANT_RULES = {v: {v: ((), ()), v.opposite(): None} for v in TruthValue}
_VARIABLE_RULES: _Table = dict.fromkeys(TruthValue, ((), ()))


def _node_rules(
    node: Formula, index: dict[Formula, int]
) -> tuple[_Table, tuple[int, ...]]:
    """A column's rule table and the column of each operand position."""
    match node:
        case Negation(operand):
            return _NEGATION_RULES, (index[operand],)
        case Binary(conn, left, right):
            return _CONNECTIVE_RULES[conn.vector], (index[left], index[right])
        case Constant(value):
            return _CONSTANT_RULES[value], ()
    return _VARIABLE_RULES, ()


def _to_columns(operands: tuple[int, ...], bindings: _Bindings) -> _Bindings:
    return tuple((operands[pos], v) for pos, v in bindings)


def _bind(values: list[TruthValue | None], bindings: _Bindings) -> list[int] | None:
    """Bind each column to its value; the newly bound columns, or None when
    one already holds the other value (the columns before it stay bound)."""
    bound: list[int] = []
    for j, v in bindings:
        current = values[j]
        if current is None:
            values[j] = v
            bound.append(j)
        elif current is not v:
            return None
    return bound


def indirect_check(formula: Formula) -> IndirectResult:
    columns = subformulas(formula)
    index = {sub: i for i, sub in enumerate(columns)}
    nodes = [_node_rules(node, index) for node in columns]
    steps: list[TraceStep] = []

    def propagate(
        values: list[TruthValue | None], queue: deque[int], pending: list[int]
    ) -> bool:
        """Apply forcing rules until quiet; False when the branch closed."""
        while queue:
            i = queue.popleft()
            table, operands = nodes[i]
            rule = table[values[i]]
            bound = None if rule is None else _bind(
                values, _to_columns(operands, rule[0])
            )
            if bound is None:
                steps.append(TraceStep(tuple(values), NOTE_BRANCH_CLOSED))
                return False
            if bound:
                steps.append(TraceStep(tuple(values), NOTE_FORCED))
                queue.extend(bound)
            if rule[1]:
                pending.append(i)
        return True

    def explore(
        values: list[TruthValue | None], queue: deque[int], pending: list[int]
    ) -> list[TruthValue | None] | None:
        """Depth-first search; the values of the first open branch, if any."""
        if not propagate(values, queue, pending):
            return None
        if not pending:
            return values
        i, rest = pending[0], pending[1:]
        table, operands = nodes[i]
        # De-duplicated over columns: both operands may be one column.
        cases = dict.fromkeys(_to_columns(operands, c) for c in table[values[i]][1])
        for case in cases:
            branch = list(values)
            bound = _bind(branch, case)
            note = NOTE_BRANCH_CLOSED if bound is None else NOTE_BRANCH_OPEN
            steps.append(TraceStep(tuple(branch), note))
            if bound is not None:
                found = explore(branch, deque(bound), list(rest))
                if found is not None:
                    return found
        return None

    start: list[TruthValue | None] = [None] * len(columns)
    start[-1] = TruthValue.F
    steps.append(TraceStep(tuple(start), NOTE_ROOT))
    final = explore(start, deque([len(columns) - 1]), [])
    trace = IndirectTrace(tuple(columns), tuple(steps))
    if final is None:
        return IndirectResult("tautology", None, (), trace)
    found = {name: final[index[Variable(name)]] for name in variables_of(formula)}
    countermodel = {name: v for name, v in found.items() if v is not None}
    unconstrained = tuple(name for name, v in found.items() if v is None)
    return IndirectResult("falsifiable", countermodel, unconstrained, trace)


def render_trace(trace: IndirectTrace, config: SyntaxConfig = SyntaxConfig()) -> str:
    """Columnar text form of a trace: one header of subformula renderings,
    one line per step, dashes for unconstrained columns, the note last."""
    t_sym, f_sym = value_symbols(config.notation)
    headers = [render(column, config) for column in trace.columns]
    widths = [max(display_width(h), 1) for h in headers]
    symbols = {None: "-", TruthValue.T: t_sym, TruthValue.F: f_sym}
    cells = [{v: pad_display(s, w) for v, s in symbols.items()} for w in widths]
    lines = [
        "  ".join(pad_display(h, w) for h, w in zip(headers, widths)) + "  | note"
    ]
    for step in trace.steps:
        row = "  ".join(column[v] for column, v in zip(cells, step.values))
        lines.append(f"{row}  | {step.note}")
    return "\n".join(lines)
