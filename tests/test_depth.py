"""Formulas nested 100,000 deep go through every layer: no walk in the
package recurses once per nesting level."""

import copy
import pickle

import pytest

from illation.bivalent import classify
from illation.core import CONJUNCTION, IMPLICATION
from illation.indirect import indirect_check
from illation.notation import parse, render

DEPTH = 100_000
INNER = DEPTH - 1

# text, its rendering in modern unicode, verdict, indirect outcome
CASES = {
    "negations": ("!" * DEPTH + "a", "¬" * DEPTH + "a", "contingent", "falsifiable"),
    "brackets": ("(" * DEPTH + "a" + ")" * DEPTH, "a", "contingent", "falsifiable"),
    "implications": (" -> ".join(["a"] * (DEPTH + 1)),
                     "a → (" * INNER + "a → a" + ")" * INNER, "tautology", "tautology"),
    "conjunctions": (" & ".join(["a"] * (DEPTH + 1)),
                     "(" * INNER + "a ∧ a" + ") ∧ a" * INNER, "contingent", "falsifiable"),
}


@pytest.mark.parametrize("kind", CASES)
def test_deep_formula_goes_through_every_layer(kind):
    text, rendering, verdict, outcome = CASES[kind]
    formula = parse(text)
    assert render(formula) == rendering
    again = parse(text)
    assert hash(again) == hash(formula)
    assert again == formula
    assert classify(formula).kind == verdict
    assert indirect_check(formula).outcome == outcome


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


@pytest.mark.parametrize("kind", CASES)
def test_deep_formula_reprs_copies_and_pickles(kind):
    formula = parse(CASES[kind][0])
    assert repr(formula) == REPRS[kind]()
    for again in (pickle.loads(pickle.dumps(formula)), copy.deepcopy(formula),
                  copy.copy(formula)):
        assert again == formula
        assert hash(again) == hash(formula)
