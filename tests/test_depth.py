"""Formulas nested 100,000 deep go through every layer: no walk in the
package recurses once per nesting level."""

import pytest

from illation.bivalent import classify
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
