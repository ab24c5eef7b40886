"""Shared test utilities.

The point of this module is independence: expected values come from plain
Python booleans and a second, hand-written table of the sixteen binary
operations, so the package's own evaluator is never used to check itself.
"""

from __future__ import annotations

import io
import random
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from itertools import product

from illation.cli import main
from illation.core import (
    Binary,
    Constant,
    Formula,
    Negation,
    TriadicValue,
    TruthValue,
    Variable,
    connective,
    variables_of,
)

# Independent truth functions for all sixteen binary operations, written
# with Python's own boolean operators.
BOOL_OPS = {
    "constant-false": lambda p, q: False,
    "nor": lambda p, q: not (p or q),
    "converse-nonimplication": lambda p, q: (not p) and q,
    "nonimplication": lambda p, q: p and (not q),
    "conjunction": lambda p, q: p and q,
    "left-projection": lambda p, q: p,
    "right-projection": lambda p, q: q,
    "equivalence": lambda p, q: p == q,
    "exclusive-disjunction": lambda p, q: p != q,
    "right-negation": lambda p, q: not q,
    "left-negation": lambda p, q: not p,
    "nand": lambda p, q: not (p and q),
    "implication": lambda p, q: (not p) or q,
    "converse-implication": lambda p, q: p or (not q),
    "disjunction": lambda p, q: p or q,
    "constant-true": lambda p, q: True,
}


def eval_bool(formula: Formula, env: dict[str, bool]) -> bool:
    """Reference evaluator over plain bools."""
    if isinstance(formula, Constant):
        return formula.value is TruthValue.T
    if isinstance(formula, Variable):
        return env[formula.name]
    if isinstance(formula, Negation):
        return not eval_bool(formula.operand, env)
    assert isinstance(formula, Binary)
    return BOOL_OPS[formula.connective.name](
        eval_bool(formula.left, env), eval_bool(formula.right, env)
    )


# The 1909 matrices as max and min under V > L > F, negation as 2 - rank.
_TRIADIC_RANK = {TriadicValue.V: 2, TriadicValue.L: 1, TriadicValue.F: 0}
_BY_RANK = {rank: value for value, rank in _TRIADIC_RANK.items()}


def eval_triadic(formula: Formula, env: dict[str, TriadicValue]) -> TriadicValue:
    """Reference triadic evaluator over ranks: disjunction and conjunction
    only, as in the source matrices."""

    def rank(node: Formula) -> int:
        if isinstance(node, Constant):
            return 2 if node.value is TruthValue.T else 0
        if isinstance(node, Variable):
            return _TRIADIC_RANK[env[node.name]]
        if isinstance(node, Negation):
            return 2 - rank(node.operand)
        assert isinstance(node, Binary)
        op = {"disjunction": max, "conjunction": min}[node.connective.name]
        return op(rank(node.left), rank(node.right))

    return _BY_RANK[rank(formula)]


def brute_force_kind(formula: Formula) -> str:
    """Classify by exhaustive evaluation with the reference evaluator."""
    names = variables_of(formula)
    outcomes = {
        eval_bool(formula, dict(zip(names, values)))
        for values in product((True, False), repeat=len(names))
    }
    if outcomes == {True}:
        return "tautology"
    if outcomes == {False}:
        return "contradiction"
    return "contingent"


def reference_enumeration(
    variable_count: int, max_slots: int, policy: str
) -> list[tuple[int, set[Formula]]]:
    """(generated, tautologies) per slot count 0..max_slots for the
    tautology enumerator, by building every filling of every shape as a
    tree and evaluating it on every row with `eval_bool`."""
    names = ("p", "q", "r")[:variable_count]
    envs = [dict(zip(names, values))
            for values in product((True, False), repeat=variable_count)]
    connectives = [connective(name) for name in BOOL_OPS]

    def shapes(slots: int) -> list[tuple]:
        # () is a leaf; (left, right) a connective slot.  A right comb's
        # left operand is always a leaf.
        if slots == 0:
            return [()]
        lefts = [0] if policy == "right-combs" else range(slots)
        return [(left, right) for i in lefts
                for left in shapes(i) for right in shapes(slots - 1 - i)]

    def fillings(shape: tuple) -> list[Formula]:
        if shape == ():
            return [Variable(name) for name in names]
        return [Binary(conn, left, right) for conn in connectives
                for left in fillings(shape[0]) for right in fillings(shape[1])]

    result = []
    for slots in range(max_slots + 1):
        trees = [tree for shape in shapes(slots) for tree in fillings(shape)]
        tautologies = {tree for tree in trees
                       if all(eval_bool(tree, env) for env in envs)}
        result.append((len(trees), tautologies))
    return result


def distinct_subformulas(formula: Formula) -> list[Formula]:
    """Each subformula once, by equality, after its operands, left operand
    first: the first equal copy met stands for the rest.  Plain recursion,
    so only for shallow formulas."""
    seen: dict[Formula, None] = {}

    def visit(node: Formula) -> None:
        if node in seen:
            return
        if isinstance(node, Binary):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, Negation):
            visit(node.operand)
        seen[node] = None

    visit(formula)
    return list(seen)


def xor_equivalence(n: int) -> Formula:
    """(x0 ↔ … ↔ x(n-1)) ↔ (x(n-1) ↔ … ↔ x0), each side a left comb: a
    tautology whose indirect trace more than doubles with n (172,031
    steps at n = 12)."""
    xs = [Variable(f"x{i}") for i in range(n)]
    equivalence = connective("equivalence")
    left, right = xs[0], xs[-1]
    for a, b in zip(xs[1:], xs[-2::-1]):
        left, right = Binary(equivalence, left, a), Binary(equivalence, right, b)
    return Binary(equivalence, left, right)


def reference_indirect_steps(formula: Formula) -> tuple:
    """The indirect method written plainly from the rules in the docstring of
    `illation.indirect`, with BOOL_OPS as the truth functions: (steps,
    outcome, countermodel, unconstrained), each step a (values, note) pair
    whose values give each column's TruthValue, None for a dash.  Every step
    snapshots the state, a dict from column to bool; every case binds on a
    copy of its branch's state, and nothing is ever unbound.  Recursion, so
    only for shallow formulas."""
    columns = distinct_subformulas(formula)
    index = {node: j for j, node in enumerate(columns)}
    steps: list[tuple[dict, str]] = []

    def rule(node: Formula, value: bool) -> tuple:
        """("closes", None), ("forced", bindings) or ("cases", [bindings, ...])
        for `node` = `value`, each binding a (column, bool) pair."""
        if isinstance(node, Constant):
            return ("forced", []) if value == (node.value is TruthValue.T) else ("closes", None)
        if isinstance(node, Variable):
            return "forced", []
        if isinstance(node, Negation):
            return "forced", [(index[node.operand], not value)]
        p_column, q_column = index[node.left], index[node.right]
        op = BOOL_OPS[node.connective.name]
        support = [(p, q) for p in (True, False) for q in (True, False) if op(p, q) == value]
        if not support:
            return "closes", None
        forced = []
        if len({p for p, _ in support}) == 1:
            forced.append((p_column, support[0][0]))
        if len({q for _, q in support}) == 1:
            forced.append((q_column, support[0][1]))
        if forced:
            return "forced", forced
        cases: list[list] = []
        for p, q in support:
            if (p, not q) in support:
                case = [(p_column, p)]
            elif (not p, q) in support:
                case = [(q_column, q)]
            else:
                case = [(p_column, p), (q_column, q)]
            if case not in cases:
                cases.append(case)
        return "cases", cases

    def bind(state: dict, queue: list, bindings: list) -> bool:
        for column, value in bindings:
            if column not in state:
                state[column] = value
                queue.append(column)
            elif state[column] != value:
                return False
        return True

    def branch(state: dict, queue: list, pending: list, depth: int) -> dict | None:
        """Propagate the columns in `queue`, then split on pending[depth]:
        the state of the first open branch, or None when all close."""
        while queue:
            column = queue.pop(0)
            kind, bindings = rule(columns[column], state[column])
            if kind == "cases":
                pending.append(bindings)
                continue
            before = len(state)
            if kind == "closes" or not bind(state, queue, bindings):
                steps.append((dict(state), "branch-closed"))
                return None
            if len(state) > before:
                steps.append((dict(state), "forced"))
        if depth == len(pending):
            return state
        for case in pending[depth]:
            copy, copy_queue = dict(state), []
            if not bind(copy, copy_queue, case):
                steps.append((dict(copy), "branch-closed"))
                continue
            steps.append((dict(copy), "branch-open"))
            found = branch(copy, copy_queue, list(pending), depth + 1)
            if found is not None:
                return found
        return None

    root = {len(columns) - 1: False}
    steps.append((dict(root), "root-assumption"))
    found = branch(root, [len(columns) - 1], [], 0)
    values = [(tuple(to_value(state[j]) if j in state else None
                     for j in range(len(columns))), note) for state, note in steps]
    if found is None:
        return values, "tautology", None, ()
    variables = [j for j, node in enumerate(columns) if isinstance(node, Variable)]
    countermodel = {columns[j].name: to_value(found[j]) for j in variables if j in found}
    unconstrained = tuple(columns[j].name for j in variables if j not in found)
    return values, "falsifiable", countermodel, unconstrained


def reference_table_rows(formula: Formula, row_order: str = "t-first") -> tuple:
    """A truth table's rows, each an assignment dict and the formula's value
    on it, from `eval_bool`, in `row_order`."""
    names = variables_of(formula)
    cells = (TruthValue.F, TruthValue.T) if row_order == "f-first" else (TruthValue.T,
                                                                        TruthValue.F)
    rows = []
    for combo in product(cells, repeat=len(names)):
        env = dict(zip(names, combo))
        flag = eval_bool(formula, {name: v is TruthValue.T for name, v in env.items()})
        rows.append((env, to_value(flag)))
    return tuple(rows)


def reference_triadic_rows(formula: Formula) -> tuple:
    """A triadic table's rows, V/L/F order, from `eval_triadic`."""
    names = variables_of(formula)
    return tuple(
        (env, eval_triadic(formula, env))
        for env in (dict(zip(names, combo)) for combo in product(
            (TriadicValue.V, TriadicValue.L, TriadicValue.F), repeat=len(names)))
    )


def reference_table_text(variables, rows, header: str,
                         symbols: tuple[str, str] = ("t", "f")) -> str:
    """The plain per-row formatter `format_truth_table` replaced: one line
    per (assignment, value) row, each cell looked up in the row's dict."""
    t_sym, f_sym = symbols

    def sym(v) -> str:
        return t_sym if v is TruthValue.T else f_sym if v is TruthValue.F else v.value

    widths = [max(len(name), 1) for name in variables]
    head_cells = [name.ljust(w) for name, w in zip(variables, widths)]
    lines = [(" ".join(head_cells) + " | " + header).rstrip() if head_cells
             else "| " + header]
    for assignment, value in rows:
        cells = [sym(assignment[name]).ljust(w) for name, w in zip(variables, widths)]
        prefix = " ".join(cells) + " | " if cells else "| "
        lines.append(prefix + sym(value))
    return "\n".join(lines)


def to_value(flag: bool) -> TruthValue:
    return TruthValue.T if flag else TruthValue.F


# Names safe in every notation (none is a reserved constant anywhere).
SAFE_NAMES = ("p", "q", "r", "x", "y", "z")

# Connectives primitive in every notation, so rendering never rewrites them.
PORTABLE_CONNECTIVES = ("implication", "conjunction", "disjunction")


def random_formula(
    rng: random.Random,
    max_depth: int,
    names: tuple[str, ...] = SAFE_NAMES,
    connective_names: tuple[str, ...] = PORTABLE_CONNECTIVES,
    constants: bool = True,
) -> Formula:
    """Seeded random formula; leaf probability grows as depth runs out."""
    if max_depth == 0 or rng.random() < 0.2:
        if constants and rng.random() < 0.15:
            return Constant(rng.choice((TruthValue.T, TruthValue.F)))
        return Variable(rng.choice(names))
    if rng.random() < 0.25:
        return Negation(
            random_formula(rng, max_depth - 1, names, connective_names, constants)
        )
    return Binary(
        connective(rng.choice(connective_names)),
        random_formula(rng, max_depth - 1, names, connective_names, constants),
        random_formula(rng, max_depth - 1, names, connective_names, constants),
    )


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors and --version
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


# Acceptance reporting: each criterion test records exactly one line here;
# conftest.py echoes them in a terminal-summary section at the end of the run.
CRITERION_LINES: list[str] = []


@contextmanager
def criterion(number: int, description: str):
    """Record `criterion N: PASS/FAIL` around a block of assertions."""
    try:
        yield
    except BaseException:
        CRITERION_LINES.append(f"criterion {number}: FAIL - {description}")
        raise
    CRITERION_LINES.append(f"criterion {number}: PASS - {description}")
    print(CRITERION_LINES[-1])
