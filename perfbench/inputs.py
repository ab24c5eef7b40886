"""Frozen, seeded inputs for the benchmark workloads.

This module is deliberately independent of the test suite's helpers: a later
edit to the tests must not silently change what a workload measures.  Every
function here is a pure function of its arguments and of the `random.Random`
it is handed, so one seed always gives the same inputs.

Formulas are plain tuples, not package objects, so that the package receives
only text and the references in `reference.py` never share code with it:

    ("var", name)  ("const", bool)  ("not", f)  ("bin", connective, left, right)

Connective names are the package's canonical ones ("implication",
"conjunction", "disjunction", "equivalence").
"""

from __future__ import annotations

import random
import sys
import unicodedata

VAR, CONST, NOT, BIN = "var", "const", "not", "bin"
IMPL, AND, OR, EQUIV = "implication", "conjunction", "disjunction", "equivalence"

NOTATIONS = ("peirce", "schroeder", "peano-russell", "modern")
ENCODINGS = ("unicode", "ascii")
#: All eight notation x encoding pairs, in a fixed order.
CONFIGS = tuple((n, e) for n in NOTATIONS for e in ENCODINGS)

MACRON = "̄"

# Input spellings per (notation, encoding).  "neg" is a prefix negation,
# "post" a postfix one; the peirce unicode writer also uses the macron.
_SPELLING = {
    ("peirce", "unicode"): dict(implication="≺", conjunction="·", disjunction="+",
                                neg="-", t="v", f="f"),
    ("peirce", "ascii"): dict(implication="-<", conjunction="*", disjunction="+",
                              neg="-", t="v", f="f"),
    ("schroeder", "unicode"): dict(implication="⋐", conjunction="·", disjunction="+",
                                   post="′", t="1", f="0"),
    ("schroeder", "ascii"): dict(implication="=<", conjunction="*", disjunction="+",
                                 post="'", t="1", f="0"),
    ("peano-russell", "unicode"): dict(implication="⊃", conjunction="·",
                                       disjunction="∨", equivalence="≡",
                                       neg="∼", t="⊤", f="⊥"),
    ("peano-russell", "ascii"): dict(implication=">", conjunction=".",
                                     disjunction="|", equivalence="==",
                                     neg="~", t="T", f="F"),
    ("modern", "unicode"): dict(implication="→", conjunction="∧", disjunction="∨",
                                equivalence="↔", neg="¬", t="⊤", f="⊥"),
    ("modern", "ascii"): dict(implication="->", conjunction="&", disjunction="|",
                              equivalence="<->", neg="!", t="T", f="F"),
}

# Symbols of other notations that the given notation does not use; a text
# holding one must be refused with a position.
_FOREIGN = {
    "peirce": ("→", "∧", "⊃", "≡", "¬"),
    "schroeder": ("→", "∨", "¬", "≺"),
    "peano-russell": ("≺", "→", "¬", "∧"),
    "modern": ("≺", "⊃", "≡", "⋐"),
}

_BRACKETS = ("()", "[]", "{}")


# ---------------------------------------------------------------------------
# formula generators

def sized_formula(rng: random.Random, size: int, names: tuple[str, ...],
                  connectives: tuple[str, ...]) -> tuple:
    """A random formula of exactly `size` nodes: a quarter of the inner
    nodes negations, binary splits uniform, one leaf in seven a constant."""
    if size == 1:
        if rng.random() < 1 / 7:
            return (CONST, rng.random() < 0.5)
        return (VAR, rng.choice(names))
    if size == 2 or rng.random() < 0.25:
        return (NOT, sized_formula(rng, size - 1, names, connectives))
    left = rng.randint(1, size - 2)
    return (BIN, rng.choice(connectives), sized_formula(rng, left, names, connectives),
            sized_formula(rng, size - 1 - left, names, connectives))


def wide_formula(rng: random.Random, names: tuple[str, ...], leaves: int,
                 connectives: tuple[str, ...], negations: int) -> tuple:
    """A formula with exactly `leaves` leaves, `leaves - 1` binary nodes and
    `negations` negations, mentioning every name.  Fixing the node count fixes
    the cost of a row-by-row evaluation, whatever the seed."""
    if leaves < len(names):
        raise ValueError("need at least one leaf per name")
    pool = list(names) + [rng.choice(names) for _ in range(leaves - len(names))]
    rng.shuffle(pool)
    negated = set(rng.sample(range(2 * leaves - 1), negations))
    counter = iter(range(2 * leaves - 1))

    def build(lo: int, hi: int) -> tuple:
        if hi - lo == 1:
            node: tuple = (VAR, pool[lo])
        else:
            mid = rng.randint(lo + 1, hi - 1)
            node = (BIN, rng.choice(connectives), build(lo, mid), build(mid, hi))
        return (NOT, node) if next(counter) in negated else node

    return build(0, len(pool))


def fresh_names(rng: random.Random, count: int) -> tuple[str, ...]:
    """`count` distinct variable names, a letter and digits, in a seeded
    order.  None is a reserved constant word in any notation."""
    letters = "abcdeghkmnpqrsuwxyz"
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        name = rng.choice(letters) + str(rng.randrange(100))
        if name not in seen:
            seen.add(name)
            names.append(name)
    return tuple(names)


def implication_comb(names: tuple[str, ...]) -> tuple:
    """(((x0 -> x1) -> x2) -> ...) -> x(n-1).  Known by construction: the
    first falsifying row (t-first, leftmost variable slowest) sets every
    variable t except the last; the first satisfying row is all t."""
    node: tuple = (VAR, names[0])
    for name in names[1:]:
        node = (BIN, IMPL, node, (VAR, name))
    return node


def equivalence_chain(names: tuple[str, ...]) -> tuple:
    node: tuple = (VAR, names[-1])
    for name in reversed(names[:-1]):
        node = (BIN, EQUIV, (VAR, name), node)
    return node


def xor_equivalence(names: tuple[str, ...]) -> tuple:
    """(x0 <-> ... <-> xn-1) <-> (xn-1 <-> ... <-> x0): a tautology by
    construction, since both sides compute the same parity."""
    return (BIN, EQUIV, equivalence_chain(names),
            equivalence_chain(tuple(reversed(names))))


def implication_chain_premises(names: tuple[str, ...]) -> list[tuple]:
    """x0 -> x1, x1 -> x2, ..., x(n-2) -> x(n-1)."""
    return [(BIN, IMPL, (VAR, a), (VAR, b)) for a, b in zip(names, names[1:])]


def variables(formula: tuple) -> list[str]:
    """Names in first-occurrence order, left to right (iterative)."""
    seen: dict[str, None] = {}
    stack = [formula]
    while stack:
        node = stack.pop()
        if node[0] == VAR:
            seen.setdefault(node[1], None)
        elif node[0] == NOT:
            stack.append(node[1])
        elif node[0] == BIN:
            stack.append(node[3])
            stack.append(node[2])
    return list(seen)


# ---------------------------------------------------------------------------
# text writer

def write(formula: tuple, config: tuple[str, str],
          rng: random.Random | None = None) -> str:
    """Text of `formula` in `config`.  Every binary operand is bracketed;
    with an `rng` the bracket kinds vary and the peirce unicode writer mixes
    the macron with the prefix dash, so the tokenizer sees every spelling."""
    sp = _SPELLING[config]
    macron = config == ("peirce", "unicode")

    def group(text: str) -> str:
        pair = _BRACKETS[rng.randrange(3)] if rng is not None else "()"
        return pair[0] + text + pair[1]

    def operand(node: tuple) -> str:
        text = walk(node)
        return group(text) if node[0] == BIN else text

    def walk(node: tuple) -> str:
        kind = node[0]
        if kind == VAR:
            return node[1]
        if kind == CONST:
            return sp["t"] if node[1] else sp["f"]
        if kind == NOT:
            inner = node[1]
            if "post" in sp:
                return operand(inner) + sp["post"]
            if macron and inner[0] in (VAR, CONST) and len(walk(inner)) == 1 \
                    and (rng is None or rng.random() < 0.5):
                return walk(inner) + MACRON
            return sp["neg"] + operand(inner)
        return f"{operand(node[2])} {sp[node[1]]} {operand(node[3])}"

    return walk(formula)


# ---------------------------------------------------------------------------
# hostile texts

def malformed(rng: random.Random, formula: tuple,
              config: tuple[str, str]) -> tuple[str, int]:
    """A text the parser must refuse, and the position (in the NFD form the
    parser reads) where the fault sits by construction."""
    sp = _SPELLING[config]
    inner = unicodedata.normalize("NFD", write(formula, config, rng))
    kind = rng.randrange(4)
    if kind == 0:  # dangling binary operator
        text = inner + " " + sp[IMPL] + " "
        return text, len(text)
    if kind == 1:  # a symbol of another notation, at a token boundary
        spaces = [i for i, ch in enumerate(inner) if ch == " "]
        glyph = rng.choice(_FOREIGN[config[0]])
        if not spaces:
            return glyph + " " + inner, 0
        i = rng.choice(spaces)
        return inner[:i] + glyph + inner[i:], i
    if kind == 2:  # closing bracket of the wrong kind
        text = "(" + inner + "]"
        return text, len(text) - 1
    text = "(" + inner  # unbalanced
    return text, len(text)


DEEP_KINDS = ("brackets", "negations", "implications")


def deep_nesting(kind: str, config: tuple[str, str]) -> tuple[str, tuple]:
    """A text nested deeper than the interpreter's recursion limit, and the
    tree it denotes.  The README contract: it parses, or it is refused with a
    ParseError; any other exception is a failed item."""
    depth = sys.getrecursionlimit() + 100
    sp = _SPELLING[config]
    leaf: tuple = (VAR, "p")
    tree = leaf
    if kind == "brackets":
        return "(" * depth + "p" + ")" * depth, leaf
    if kind == "negations":
        for _ in range(depth):
            tree = (NOT, tree)
        if "post" in sp:
            return "p" + sp["post"] * depth, tree
        return sp["neg"] * depth + "p", tree
    for _ in range(depth):
        tree = (BIN, IMPL, leaf, tree)
    return (" " + sp[IMPL] + " ").join(["p"] * (depth + 1)), tree
