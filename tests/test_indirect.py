"""Abbreviated (indirect) truth-table refutation."""

import gc
import hashlib
import random
import tracemalloc
from functools import reduce
from itertools import product

import pytest

from illation.bivalent import classify, evaluate
from illation.core import (
    CONNECTIVES,
    Binary,
    Negation,
    TruthValue,
    Variable,
    conj,
    connective,
    disj,
    equiv,
    implies,
    subformulas,
    variables_of,
)
from illation.indirect import (
    NOTE_BRANCH_CLOSED,
    NOTE_BRANCH_OPEN,
    NOTE_FORCED,
    NOTE_ROOT,
    IndirectResult,
    StepLimitError,
    TraceStep,
    indirect_check,
    render_trace,
)
from illation.notation import Notation, SyntaxConfig, parse, render

from helpers import random_formula, reference_indirect_steps, xor_equivalence

T, F = TruthValue.T, TruthValue.F
PEIRCE_ASCII = SyntaxConfig(Notation.PEIRCE, "ascii")
MODERN_ASCII = SyntaxConfig(Notation.MODERN, "ascii")
ALL_CONNECTIVES = tuple(c.name for c in CONNECTIVES)
NOTES = {NOTE_ROOT, NOTE_FORCED, NOTE_BRANCH_OPEN, NOTE_BRANCH_CLOSED}


def pa(text: str):
    return parse(text, PEIRCE_ASCII)


def check_shape(result: IndirectResult, formula) -> None:
    columns = result.trace.columns
    assert list(columns) == subformulas(formula)
    assert columns[-1] == formula
    first = result.trace.steps[0]
    assert first.note == NOTE_ROOT
    assert first.values[-1] is F
    assert all(v is None for v in first.values[:-1])
    for step in result.trace.steps:
        assert len(step.values) == len(columns)
        assert step.note in NOTES


class TestPeircesLaw:
    LAW = "((a -< b) -< a) -< a"

    def test_outcome(self):
        result = indirect_check(pa(self.LAW))
        assert result.outcome == "tautology"
        assert result.countermodel is None
        assert result.unconstrained == ()

    def test_trace_shape(self):
        check_shape(indirect_check(pa(self.LAW)), pa(self.LAW))

    def test_root_forces_antecedent_true_and_consequent_false(self):
        result = indirect_check(pa(self.LAW))
        forced = result.trace.steps[1]
        assert forced.note == NOTE_FORCED
        # columns: a, b, a -< b, (a -< b) -< a, whole formula
        assert forced.values[0] is F
        assert forced.values[3] is T

    def test_both_branches_close(self):
        result = indirect_check(pa(self.LAW))
        notes = [step.note for step in result.trace.steps]
        assert notes.count(NOTE_BRANCH_CLOSED) == 2

    def test_rendered_trace(self):
        result = indirect_check(pa(self.LAW))
        assert render_trace(result.trace, PEIRCE_ASCII) == (
            "a  b  a -< b  (a -< b) -< a  ((a -< b) -< a) -< a  | note\n"
            "-  -  -       -              f                     | root-assumption\n"
            "f  -  -       v              f                     | forced\n"
            "f  -  -       v              f                     | branch-closed\n"
            "f  -  f       v              f                     | branch-open\n"
            "f  -  f       v              f                     | branch-closed"
        )


class TestImmediateContradiction:
    def test_reflexivity(self):
        formula = pa("x -< x")
        result = indirect_check(formula)
        assert result.outcome == "tautology"
        check_shape(result, formula)
        assert render_trace(result.trace, PEIRCE_ASCII) == (
            "x  x -< x  | note\n"
            "-  f       | root-assumption\n"
            "v  f       | branch-closed"
        )


class TestDashBearingCountermodel:
    FORMULA = "(((a -< b) -< c) -< d) -< e"

    def test_outcome_and_countermodel(self):
        result = indirect_check(pa(self.FORMULA))
        assert result.outcome == "falsifiable"
        assert result.countermodel == {"d": T, "e": F}
        assert result.unconstrained == ("a", "b", "c")

    def test_any_completion_falsifies(self):
        formula = pa(self.FORMULA)
        result = indirect_check(formula)
        for fill in product((T, F), repeat=len(result.unconstrained)):
            assignment = dict(result.countermodel)
            assignment.update(zip(result.unconstrained, fill))
            assert evaluate(formula, assignment) is F

    def test_final_column_is_false_in_every_step(self):
        result = indirect_check(pa(self.FORMULA))
        assert all(step.values[-1] is F for step in result.trace.steps)

    def test_trace_has_dash_bearing_rows(self):
        result = indirect_check(pa(self.FORMULA))
        last = result.trace.steps[-1]
        assert None in last.values  # a, b and the inner chains stay dashes

    def test_rendered_trace(self):
        result = indirect_check(pa(self.FORMULA))
        lines = render_trace(result.trace, PEIRCE_ASCII).splitlines()
        assert lines[1].endswith("| root-assumption")
        assert lines[-1].endswith("| branch-open")
        # the final step keeps five dashes: a, b, a -< b, c, (a -< b) -< c
        assert lines[-1].split("|")[0].split().count("-") == 5


class TestSmallCases:
    def test_plain_variable_is_falsifiable(self):
        result = indirect_check(Variable("a"))
        assert result.outcome == "falsifiable"
        assert result.countermodel == {"a": F}

    def test_negation_chain(self):
        result = indirect_check(Negation(Variable("a")))
        assert result.outcome == "falsifiable"
        assert result.countermodel == {"a": T}

    def test_contradiction_is_falsifiable_not_special(self):
        result = indirect_check(pa("a * -a"))
        assert result.outcome == "falsifiable"
        assert evaluate(pa("a * -a"), result.countermodel) is F

    def test_constant_true_closes_immediately(self):
        result = indirect_check(pa("v"))
        assert result.outcome == "tautology"
        assert [s.note for s in result.trace.steps] == [
            NOTE_ROOT, NOTE_BRANCH_CLOSED
        ]

    def test_constant_false_is_its_own_countermodel(self):
        result = indirect_check(pa("f"))
        assert result.outcome == "falsifiable"
        assert result.countermodel == {}
        assert result.unconstrained == ()

    def test_excluded_middle(self):
        result = indirect_check(pa("a + -a"))
        assert result.outcome == "tautology"

    def test_equivalence_branches_two_sided(self):
        formula = equiv(Variable("a"), Variable("b"))
        result = indirect_check(formula)
        assert result.outcome == "falsifiable"
        assert result.countermodel == {"a": T, "b": F}

    def test_cases_on_one_shared_column_open_one_branch(self):
        # Both operands of F | F are one column, so the cases P = t and
        # Q = t are one case.
        result = indirect_check(parse("!(F | F)", MODERN_ASCII))
        assert result.outcome == "tautology"
        assert render_trace(result.trace, MODERN_ASCII) == (
            "F  F | F  !(F | F)  | note\n"
            "-  -      f         | root-assumption\n"
            "-  t      f         | forced\n"
            "t  t      f         | branch-open\n"
            "t  t      f         | branch-closed"
        )


def corpus_527():
    """300 seeded formulas over all sixteen connectives and the constants."""
    rng = random.Random(527)
    return [
        random_formula(rng, max_depth=4, connective_names=ALL_CONNECTIVES)
        for _ in range(300)
    ]


class TestAgainstDirectMethod:
    def test_random_corpus_agreement_and_soundness(self):
        for formula in corpus_527():
            result = indirect_check(formula)
            direct = classify(formula).kind == "tautology"
            assert (result.outcome == "tautology") == direct
            if result.outcome == "falsifiable":
                names = result.unconstrained
                for fill in (T, F):
                    assignment = dict(result.countermodel)
                    assignment.update({n: fill for n in names})
                    assert evaluate(formula, assignment) is F

    def test_traces_are_pinned(self):
        """Traces, notes and countermodels over all sixteen connectives and
        the constants, hashed; any change to a step, its order or a note
        changes the digest."""
        rng = random.Random(1883)
        digest = hashlib.sha256()
        for _ in range(2000):
            formula = random_formula(
                rng, max_depth=5, connective_names=ALL_CONNECTIVES
            )
            result = indirect_check(formula)
            digest.update(render_trace(result.trace).encode())
            digest.update(repr((
                [step.note for step in result.trace.steps],
                result.outcome, result.countermodel, result.unconstrained,
            )).encode())
        assert digest.hexdigest() == (
            "a34117ad69681d945cba6167d3071b87d7e41369e33fb60cd18b5f28901d7244"
        )

    def test_determinism(self):
        formula = pa("((a -< b) -< c) -< (b + -a)")
        first = indirect_check(formula)
        second = indirect_check(formula)
        assert first == second
        assert render_trace(first.trace) == render_trace(second.trace)


def _one_column_operands():
    """Every connective over two equal operands, each one column: a
    variable, a constant, a negation and a binary node."""
    a, b = Variable("a"), Variable("b")
    operands = [a, *(parse(text, MODERN_ASCII) for text in ("T", "F", "!a", "a & b", "a -> a"))]
    for conn in CONNECTIVES:
        for operand in operands:
            yield Binary(conn, operand, operand)
            yield Negation(Binary(conn, operand, operand))
            yield Binary(conn, Binary(conn, operand, operand), Binary(conn, operand, operand))


class TestAgainstReference:
    """The search and the trace writer against a plain search written from
    the module docstring's rules: every step, its rendered line, the
    outcome and the countermodel."""

    def check(self, formula) -> None:
        result = indirect_check(formula)
        steps, outcome, countermodel, unconstrained = reference_indirect_steps(formula)
        assert [(step.values, step.note) for step in result.trace.steps] == steps
        assert (result.outcome, result.countermodel, result.unconstrained) == (
            outcome, countermodel, unconstrained)
        widths = [max(len(render(column, MODERN_ASCII)), 1) for column in result.trace.columns]
        symbols = {None: "-", T: "t", F: "f"}
        lines = ["".join(symbols[value].ljust(width) + "  "
                         for value, width in zip(values, widths)) + "| " + note
                 for values, note in steps]
        assert render_trace(result.trace, MODERN_ASCII).split("\n")[1:] == lines

    def test_corpus(self):
        for formula in corpus_527():
            self.check(formula)

    def test_operands_of_one_column(self):
        for formula in _one_column_operands():
            self.check(formula)

    def test_xor_equivalences(self):
        for n in range(1, 7):
            self.check(xor_equivalence(n))


class TestStepBudget:
    def test_a_trace_within_the_budget_is_returned_whole(self):
        for formula in corpus_527()[:100]:
            result = indirect_check(formula)
            steps = len(result.trace.steps)
            assert indirect_check(formula, max_steps=steps) == result
            with pytest.raises(StepLimitError) as raised:
                indirect_check(formula, max_steps=steps - 1)
            assert steps - 1 < raised.value.steps <= steps

    def test_the_search_stops_soon_after_the_budget(self):
        """n = 12: 172,031 steps over 35 columns; past the budget the search
        records a few steps per column at most before it stops."""
        formula = xor_equivalence(12)
        for budget in (0, 1, 100, 1000):
            with pytest.raises(StepLimitError) as raised:
                indirect_check(formula, max_steps=budget)
            assert budget < raised.value.steps <= budget + 5 * 35 + 2
            assert raised.value.limit == budget

    def test_a_search_without_splits_is_checked_at_the_end(self):
        formula = parse("!" * 50 + "a", MODERN_ASCII)
        assert len(indirect_check(formula).trace.steps) == 51
        with pytest.raises(StepLimitError) as raised:
            indirect_check(formula, max_steps=50)
        assert raised.value.steps == 51


class TestTraceSteps:
    FORMULA = "((a -< b) -< c) -< (b + -a)"

    def test_sequence_contract(self):
        steps = indirect_check(pa(self.FORMULA)).trace.steps
        listed = list(steps)
        assert len(steps) == len(listed) > 3
        assert all(isinstance(step, TraceStep) for step in listed)
        assert steps[0] == listed[0]
        assert steps[-1] == listed[-1]
        assert steps[2] == listed[2]
        assert steps[-3] == listed[-3]
        assert steps[1:-1:2] == tuple(listed[1:-1:2])
        assert steps[::-1] == tuple(listed[::-1])
        assert steps[5:2] == ()
        assert list(reversed(steps)) == listed[::-1]
        assert [step for step in steps] == listed
        for out_of_range in (len(listed), -len(listed) - 1):
            with pytest.raises(IndexError):
                steps[out_of_range]

    def test_results_compare_equal(self):
        first, second = (indirect_check(pa(self.FORMULA)) for _ in range(2))
        assert first.trace.steps == second.trace.steps
        assert first.trace.steps != indirect_check(pa("a -< a")).trace.steps

    def test_snapshots_agree_with_the_rendered_lines(self):
        """The snapshots and render_trace replay the bindings separately;
        each step's values and note must match its rendered line."""
        symbols = {None: "-", T: "t", F: "f"}
        for formula in corpus_527():
            trace = indirect_check(formula).trace
            lines = render_trace(trace, MODERN_ASCII).split("\n")[1:]
            assert len(lines) == len(trace.steps)
            for step, line in zip(trace.steps, lines):
                cells, note = line.rsplit("  | ", 1)
                assert cells.split() == [symbols[v] for v in step.values]
                assert note == step.note

    def test_trace_memory_follows_the_bindings(self):
        """n = 10 xor-equivalence: 34,815 steps over 29 columns.  Snapshots
        of every step held about 12 MB; the bindings take well under 2 MB."""
        xs = [Variable(f"x{i}") for i in range(10)]
        formula = equiv(reduce(equiv, xs), reduce(equiv, xs[::-1]))
        tracemalloc.start()
        try:
            result = indirect_check(formula)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(result.trace.steps), len(result.trace.columns)) == (34815, 29)
        assert retained < 2_000_000

    def test_a_call_leaves_nothing_for_the_collector(self):
        """The search keeps no self-referencing closures, so all of its
        working state is freed as soon as the call returns."""
        xs = [Variable(f"x{i}") for i in range(10)]
        formula = equiv(reduce(equiv, xs), reduce(equiv, xs[::-1]))
        gc.collect()
        gc.disable()
        try:
            result = indirect_check(formula)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert result.outcome == "tautology"
        assert unreachable == 0


class TestRenderTrace:
    def test_value_symbols_follow_notation(self):
        result = indirect_check(pa("x -< x"))
        modern = render_trace(result.trace, SyntaxConfig(Notation.MODERN, "ascii"))
        assert modern == (
            "x  x -> x  | note\n"
            "-  f       | root-assumption\n"
            "t  f       | branch-closed"
        )

    def test_columns_align_under_combining_marks(self):
        result = indirect_check(parse("b̄ -< a", SyntaxConfig(Notation.PEIRCE)))
        lines = render_trace(
            result.trace, SyntaxConfig(Notation.PEIRCE)
        ).splitlines()
        noteless = [line.rsplit("|", 1)[0] for line in lines]
        stripped = {
            len("".join(ch for ch in line if not _combining(ch)))
            for line in noteless
        }
        assert len(stripped) == 1  # every row occupies the same display width


def _combining(ch: str) -> bool:
    import unicodedata

    return unicodedata.combining(ch) != 0
