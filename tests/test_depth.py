"""Formulas nested 100,000 deep go through every layer: no walk in the
package recurses once per nesting level."""

import copy
import pickle

import pytest

from illation import cli
from illation.bivalent import classify
from illation.core import (CONJUNCTION, IMPLICATION, TriadicValue,
                           UnsupportedConnectiveError, subformulas)
from illation.indirect import indirect_check
from illation.notation import Notation, SyntaxConfig, expand_for, parse, render, rendered_sizes
from illation.trivalent import evaluate3

from helpers import run_cli

DEPTH = 100_000
INNER = DEPTH - 1
V = TriadicValue.V
PEIRCE = SyntaxConfig(Notation.PEIRCE, "unicode")

# text, its rendering in modern unicode, verdict, indirect outcome, its
# height (here also its number of distinct subformulas), its triadic value
# with a = V (None: it has no triadic matrix)
CASES = {
    "negations": ("!" * DEPTH + "a", "¬" * DEPTH + "a", "contingent", "falsifiable",
                  DEPTH + 1, V),
    "brackets": ("(" * DEPTH + "a" + ")" * DEPTH, "a", "contingent", "falsifiable", 1, V),
    "implications": (" -> ".join(["a"] * (DEPTH + 1)),
                     "a → (" * INNER + "a → a" + ")" * INNER, "tautology", "tautology",
                     DEPTH + 1, None),
    "conjunctions": (" & ".join(["a"] * (DEPTH + 1)),
                     "(" * INNER + "a ∧ a" + ") ∧ a" * INNER, "contingent", "falsifiable",
                     DEPTH + 1, V),
    # Two equal operands, distinct objects: each node of one has an equal
    # in the other.
    "copies": (f"({'!' * DEPTH}a) & ({'!' * DEPTH}a)", f"{'¬' * DEPTH}a ∧ {'¬' * DEPTH}a",
               "contingent", "falsifiable", DEPTH + 2, V),
}


@pytest.mark.parametrize("kind", CASES)
def test_deep_formula_goes_through_every_layer(kind):
    text, rendering, verdict, outcome, height, triadic = CASES[kind]
    formula = parse(text)
    assert render(formula) == rendering
    again = parse(text)
    assert hash(again) == hash(formula)
    assert again == formula
    assert classify(formula).kind == verdict
    assert indirect_check(formula).outcome == outcome
    distinct = subformulas(formula)
    assert len(distinct) == height and distinct[-1] is formula
    # Peirce prints negation, implication and conjunction as they are.
    assert expand_for(formula, Notation.PEIRCE) is formula
    assert rendered_sizes(formula, PEIRCE)[formula] == len(render(formula, PEIRCE))
    if triadic is None:
        with pytest.raises(UnsupportedConnectiveError):
            evaluate3(formula, {"a": V})
    else:
        assert evaluate3(formula, {"a": V}) is triadic
    code, out, err = run_cli("parse", "--format", "json", text)
    if height > cli.JSON_DEPTH_LIMIT:
        assert (code, out) == (cli.EXIT_LIMIT, "")
        assert f"over the limit of {cli.JSON_DEPTH_LIMIT}" in err
    else:
        assert (code, err) == (0, "")


ATOM = "Variable(name='a')"
IMPLICATION_HEAD = f"Binary(connective={IMPLICATION!r}, "
CONJUNCTION_HEAD = f"Binary(connective={CONJUNCTION!r}, "

# The text of each case's repr, as the dataclass repr writes it.
REPRS = {
    "negations": lambda: "Negation(operand=" * DEPTH + ATOM + ")" * DEPTH,
    "brackets": lambda: ATOM,
    "implications": lambda: (f"{IMPLICATION_HEAD}left={ATOM}, right=" * DEPTH
                             + ATOM + ")" * DEPTH),
    "conjunctions": lambda: (f"{CONJUNCTION_HEAD}left=" * DEPTH
                             + ATOM + f", right={ATOM})" * DEPTH),
}


@pytest.mark.parametrize("kind", REPRS)
def test_deep_formula_reprs_copies_and_pickles(kind):
    formula = parse(CASES[kind][0])
    assert repr(formula) == REPRS[kind]()
    for again in (pickle.loads(pickle.dumps(formula)), copy.deepcopy(formula),
                  copy.copy(formula)):
        assert again == formula
        assert hash(again) == hash(formula)
