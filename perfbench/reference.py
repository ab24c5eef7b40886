"""Answers the benchmark checks the package against, computed without it.

Nothing here imports the package.  Package results are read only through
their public attributes (class names, `.name`, `.operand`, `.connective`...).
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Sequence

from .inputs import AND, CONST, EQUIV, IMPL, NOT, OR, VAR

_BOOL_FORM = {
    IMPL: "((not {0}) or {1})",
    AND: "({0} and {1})",
    OR: "({0} or {1})",
    EQUIV: "({0} == {1})",
}


def bool_function(formula: tuple, names: Sequence[str]) -> Callable[..., bool]:
    """The formula as a Python function of plain bools, one positional
    argument per name, built from `not`, `and`, `or` and `==` only."""
    index = {name: i for i, name in enumerate(names)}

    def walk(node: tuple) -> str:
        kind = node[0]
        if kind == VAR:
            return f"v{index[node[1]]}"
        if kind == CONST:
            return "True" if node[1] else "False"
        if kind == NOT:
            return f"(not {walk(node[1])})"
        return _BOOL_FORM[node[1]].format(walk(node[2]), walk(node[3]))

    params = ", ".join(f"v{i}" for i in range(len(names)))
    return eval(f"lambda {params}: {walk(formula)}")  # source built above, no outside text


def rows(count: int):
    """Assignments as bool tuples: t before f, leftmost variable slowest."""
    return product((True, False), repeat=count)


def classify(formula: tuple, names: Sequence[str]):
    """(kind, first falsifying row, first satisfying row); rows are bool
    tuples in `names` order, None where there is none."""
    fn = bool_function(formula, names)
    falsifying = satisfying = None
    for row in rows(len(names)):
        if fn(*row):
            if satisfying is None:
                satisfying = row
        elif falsifying is None:
            falsifying = row
        if falsifying is not None and satisfying is not None:
            return "contingent", falsifying, satisfying
    return ("tautology" if falsifying is None else "contradiction"), falsifying, satisfying


def entails(premises: Sequence[tuple], conclusion: tuple, names: Sequence[str]):
    """First row making every premise true and the conclusion false, or None."""
    fns = [bool_function(p, names) for p in premises]
    concl = bool_function(conclusion, names)
    for row in rows(len(names)):
        if all(fn(*row) for fn in fns) and not concl(*row):
            return row
    return None


# Triadic values as numbers under the order V > L > F: negation is 2 - x,
# the circled plus is max and the barred Z is min.
TRIADIC = (2, 1, 0)
TRIADIC_SYMBOL = {2: "V", 1: "L", 0: "F"}
_TRIADIC_FORM = {OR: "max({0}, {1})", AND: "min({0}, {1})"}


def triadic_function(formula: tuple, names: Sequence[str]) -> Callable[..., int]:
    index = {name: i for i, name in enumerate(names)}

    def walk(node: tuple) -> str:
        kind = node[0]
        if kind == VAR:
            return f"v{index[node[1]]}"
        if kind == CONST:
            return "2" if node[1] else "0"
        if kind == NOT:
            return f"(2 - {walk(node[1])})"
        return _TRIADIC_FORM[node[1]].format(walk(node[2]), walk(node[3]))

    params = ", ".join(f"v{i}" for i in range(len(names)))
    return eval(f"lambda {params}: {walk(formula)}")  # source built above, no outside text


def triadic_rows(count: int):
    """Triadic assignments, V/L/F order, leftmost variable slowest."""
    return product(TRIADIC, repeat=count)


def right_comb_counts(variable_count: int, slots: int) -> list[tuple[int, int]]:
    """(generated, tautologies) per slot count 0..slots for the right-comb
    enumerator, by counting truth vectors rather than formulas: a k-slot
    comb is c(leaf, (k-1)-slot comb) for each of the sixteen binary truth
    functions c.  Right-comb fillings are structurally distinct, so the
    distinct count equals the tautology count."""
    rows_ = 1 << variable_count
    full = (1 << rows_) - 1
    leaves = []
    for i in range(variable_count):
        mask = 0
        for row, values in enumerate(rows(variable_count)):
            if values[i]:
                mask |= 1 << row
        leaves.append(mask)

    def apply(vector: int, a: int, b: int) -> int:
        # vector bits 3..0: outputs on (t,t), (t,f), (f,t), (f,f)
        out = 0
        if vector & 8:
            out |= a & b
        if vector & 4:
            out |= a & ~b
        if vector & 2:
            out |= ~a & b
        if vector & 1:
            out |= ~a & ~b
        return out & full

    counts: dict[int, int] = {}
    for mask in leaves:
        counts[mask] = counts.get(mask, 0) + 1
    result = [(variable_count, counts.get(full, 0))]
    for _ in range(slots):
        nxt: dict[int, int] = {}
        for vector in range(16):
            for a in leaves:
                for b, n in counts.items():
                    m = apply(vector, a, b)
                    nxt[m] = nxt.get(m, 0) + n
        counts = nxt
        result.append((sum(counts.values()), counts.get(full, 0)))
    return result


def same_tree(node, ref: tuple) -> bool:
    """Whether a package formula has exactly the structure `ref` describes.
    Iterative, so trees deeper than the recursion limit compare too."""
    stack = [(node, ref)]
    while stack:
        node, ref = stack.pop()
        kind = type(node).__name__
        if ref[0] == VAR:
            if kind != "Variable" or node.name != ref[1]:
                return False
        elif ref[0] == CONST:
            if kind != "Constant" or (node.value.value == "t") != ref[1]:
                return False
        elif ref[0] == NOT:
            if kind != "Negation":
                return False
            stack.append((node.operand, ref[1]))
        else:
            if kind != "Binary" or node.connective.name != ref[1]:
                return False
            stack.append((node.left, ref[2]))
            stack.append((node.right, ref[3]))
    return True


def assignment_row(assignment, names: Sequence[str]) -> tuple[bool, ...] | None:
    """A package assignment (name -> value with `.value` 't'/'f', or a JSON
    dict of 't'/'f') as a bool tuple in `names` order."""
    if assignment is None:
        return None
    out = []
    for name in names:
        value = assignment[name]
        out.append(getattr(value, "value", value) == "t")
    return tuple(out)
