"""The 1880 categorical scheme over the implication sign, plus Barbara.

The four traditional forms read the copula as implication:

    A  (universal affirmative)   subject -> predicate
    E  (universal negative)      subject -> not-predicate
    I  (particular affirmative)  marked subject -> predicate
    O  (particular negative)     marked subject -> not-predicate

A and E are plain propositional formulas.  The caron drawn over the subject
of I and O stands for an existential reading that propositional logic cannot
express, so those two forms render as text only; asking for their formula
raises QuantifiedFormError rather than silently dropping the mark.
"""

from __future__ import annotations

from .bivalent import Verdict, classify
from .core import Binary, Formula, Negation, Record, Variable, conj, implies
from .notation import Notation, SyntaxConfig, render

FIGURES = ("A", "E", "I", "O")

GLOSSES = {
    "A": ("All A are B", "universal affirmative"),
    "E": ("No A is B", "universal negative"),
    "I": ("Some A is B", "particular affirmative"),
    "O": ("Some A is not B", "particular negative"),
}

_PARTICULAR_MARK = "̌"  # combining caron drawn over the subject of I and O


class QuantifiedFormError(Exception):
    def __init__(self, figure: str):
        super().__init__(
            f"form {figure} is particular; its marked subject has no "
            f"propositional formula"
        )
        self.figure = figure


class CategoricalForm(Record):
    figure: str  # "A" | "E" | "I" | "O"
    subject: str
    predicate: str

    def __post_init__(self) -> None:
        if self.figure not in FIGURES:
            raise ValueError(f"figure must be one of {FIGURES}, got {self.figure!r}")
        Variable(self.subject)
        Variable(self.predicate)


def as_formula(form: CategoricalForm) -> Formula:
    """Propositional reading of an A or E form; I and O have none."""
    if form.figure in ("I", "O"):
        raise QuantifiedFormError(form.figure)
    predicate: Formula = Variable(form.predicate)
    if form.figure == "E":
        predicate = Negation(predicate)
    return implies(Variable(form.subject), predicate)


def render_categorical(
    form: CategoricalForm, config: SyntaxConfig = SyntaxConfig(Notation.PEIRCE)
) -> str:
    """Textual form; for I and O the subject carries the caron (ascii: a
    leading '?'), and the rest renders as the corresponding A or E body."""
    universal = CategoricalForm(
        "A" if form.figure in ("A", "I") else "E", form.subject, form.predicate
    )
    body = render(as_formula(universal), config)
    if form.figure in ("A", "E"):
        return body
    if config.encoding == "unicode" and len(form.subject) == 1:
        marked = form.subject + _PARTICULAR_MARK
    else:
        marked = "?" + form.subject
    return marked + body[len(form.subject):]


class BarbaraForms(Record):
    nested: Formula
    conjunctive: Formula
    nested_verdict: Verdict
    conjunctive_verdict: Verdict


def barbara(x: str = "x", y: str = "y", z: str = "z") -> BarbaraForms:
    """Both classical statements of Barbara: the nested conditional
    (x->y) -> ((y->z) -> (x->z)) and the conjunctive-antecedent form
    ((x->y) & (y->z)) -> (x->z), each classified."""
    xy = implies(Variable(x), Variable(y))
    yz = implies(Variable(y), Variable(z))
    xz = implies(Variable(x), Variable(z))
    nested = implies(xy, implies(yz, xz))
    conjunctive = implies(conj(xy, yz), xz)
    return BarbaraForms(nested, conjunctive, classify(nested), classify(conjunctive))
