"""Abbreviated (indirect) truth-table refutation."""

import gc
import hashlib
import random
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import product

import pytest

from illation import cli, indirect
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
    text_layout,
)
from illation.notation import Notation, SyntaxConfig, parse, render

from helpers import end_of, random_formula, reference_indirect_steps, xor_equivalence

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

    def check(self, formula, rendered: bool = True) -> None:
        """The search's steps and result, and with `rendered` its trace's text."""
        result = indirect_check(formula)
        reference = reference_indirect_steps(formula)
        for step in result.trace.steps:
            assert (step.values, step.note) == next(reference)
        assert (result.outcome, result.countermodel, result.unconstrained) == end_of(reference)
        if not rendered:
            return
        widths = [max(len(render(column, MODERN_ASCII)), 1) for column in result.trace.columns]
        symbols = {None: "-", T: "t", F: "f"}
        lines = ["".join(symbols[value].ljust(width) + "  "
                         for value, width in zip(step.values, widths)) + "| " + step.note
                 for step in result.trace.steps]
        assert render_trace(result.trace, MODERN_ASCII).split("\n")[1:] == lines

    def test_corpus(self):
        for formula in corpus_527():
            self.check(formula)

    def test_operands_of_one_column(self):
        for formula in _one_column_operands():
            self.check(formula)

    def test_xor_equivalences(self):
        """Steps up to n = 10, the sizes the `wide` benchmark checks, and
        their text up to n = 6, in both combs: the right comb, the shape
        `wide` writes, settles most of its later cases as they are pushed."""
        for n, comb in product(range(1, 11), ("left", "right")):
            self.check(xor_equivalence(n, comb), rendered=n <= 6)

    def test_seeded_formulas(self):
        """The formulas whose text `test_traces_are_pinned` hashes, most of
        them falsifiable, so a search resumes outer splits after inner ones."""
        rng = random.Random(1883)
        for _ in range(2000):
            formula = random_formula(rng, max_depth=5, connective_names=ALL_CONNECTIVES)
            self.check(formula, rendered=False)


class TestSplits:
    """The paths a split takes: its first case bound at once, and a later
    case whose first pair conflicts pushed as a bare mark that records its
    closed step when popped.  Each against the reference search, and against
    the result and text pinned from the loop that pushed every case whole and
    bound each one as it was popped."""

    def check(self, text: str, outcome: str, countermodel, lines: list[str]) -> None:
        formula = parse(text, MODERN_ASCII)
        TestAgainstReference().check(formula)
        result = indirect_check(formula)
        assert (result.outcome, result.countermodel, result.unconstrained) == (
            outcome, countermodel, ())
        assert render_trace(result.trace, MODERN_ASCII).split("\n")[1:] == lines

    def test_a_later_case_closes_on_sight(self):
        """Each split on `b <-> a` opens with a and b bound equal: its first
        case, (t, f), binds nothing and closes on its second pair, and its
        later case, (f, t), conflicts on its first and is pushed as a mark."""
        self.check("(a <-> b) <-> (b <-> a)", "tautology", None, [
            "-  -  -        -        f                        | root-assumption",
            "-  -  t        f        f                        | branch-open",
            "t  t  t        f        f                        | branch-open",
            "t  t  t        f        f                        | branch-closed",
            "t  t  t        f        f                        | branch-closed",
            "f  f  t        f        f                        | branch-open",
            "f  f  t        f        f                        | branch-closed",
            "f  f  t        f        f                        | branch-closed",
            "-  -  f        t        f                        | branch-open",
            "t  f  f        t        f                        | branch-open",
            "t  f  f        t        f                        | branch-closed",
            "t  f  f        t        f                        | branch-closed",
            "f  t  f        t        f                        | branch-open",
            "f  t  f        t        f                        | branch-closed",
            "f  t  f        t        f                        | branch-closed",
        ])

    def test_a_mark_is_the_last_entry_on_the_stack(self):
        """The split on p & T = f tries T = f, which closes, and then p = f,
        a mark against p = t and the last untried case: its closed step,
        at the split's mark, shows T unbound again."""
        self.check("p -> (p & T)", "tautology", None, [
            "-  -  -      f             | root-assumption",
            "t  -  f      f             | forced",
            "t  f  f      f             | branch-open",
            "t  f  f      f             | branch-closed",
            "t  -  f      f             | branch-closed",
        ])

    def test_a_first_case_closes_at_once(self):
        """r | r = t has one case over the one column, r = t, bound at once
        against r = f."""
        self.check("r | !(r | r)", "tautology", None, [
            "-  -      -         f             | root-assumption",
            "f  -      f         f             | forced",
            "f  t      f         f             | forced",
            "f  t      f         f             | branch-closed",
        ])

    def test_a_later_case_that_conflicts_on_its_second_pair_is_bound(self):
        """r <-> r = f splits into (r = t, r = f) and (r = f, r = t): each
        binds r before its second pair conflicts, so its closed step shows
        r bound, and the later case is pushed whole, not as a mark."""
        self.check("r <-> r", "tautology", None, [
            "-  f        | root-assumption",
            "t  f        | branch-closed",
            "f  f        | branch-closed",
        ])
        assert list(indirect_check(parse("r <-> r", MODERN_ASCII)).trace.steps.codes) == [3, 0, 1]

    def test_a_falsifiable_search_stops_with_marks_untried(self):
        """q | r = t tries q = t, which stays open, while its later case,
        r = t against r = f, waits on the stack as a mark."""
        self.check("!(q | r) | r", "falsifiable", {"q": T, "r": F}, [
            "-  -  -      -         f             | root-assumption",
            "-  f  -      f         f             | forced",
            "-  f  t      f         f             | forced",
            "t  f  t      f         f             | branch-open",
        ])


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

    def test_the_budget_holds_across_the_moves_into_the_arrays(self):
        """n = 12: the search moves its steps from lists into the trace's
        arrays once they pass a chunk of 1,024, and stops at the same step
        counts either side of one, two, four and eight chunks as a search
        that wrote every step into the arrays at once."""
        assert indirect._CHUNK == 1024
        formula = xor_equivalence(12)
        stopped = {}
        for budget in (1023, 1024, 1025, 2047, 2048, 2049, 4095, 4096, 4097,
                       8191, 8192, 8193, 10000):
            with pytest.raises(StepLimitError) as raised:
                indirect_check(formula, max_steps=budget)
            stopped[budget] = raised.value.steps
        assert stopped == {1023: 1024, 1024: 1026, 1025: 1026, 2047: 2049, 2048: 2049,
                           2049: 2051, 4095: 4097, 4096: 4097, 4097: 4099, 8191: 8193,
                           8192: 8193, 8193: 8199, 10000: 10002}

    @pytest.mark.parametrize("comb, n, steps, digest", [
        ("left", 6, 1151, "f8f9391aced6f0744134ccd88622387e1eb3ddf7a418a824f0cb28e74e3a1794"),
        ("left", 7, 2815, "7ebaee604de3d31a93125c569f4438b24c4a051a8e261f2b7bba5d2bebcc8a9a"),
        ("right", 6, 1151, "e3fc63576a8a3dafbea2d17cb7892adffcfe3f800dc3b04b7f651da74a5e1186"),
        ("right", 7, 2815, "e9ddca0e045df3dfc74b6a1bc54e9f6c13aeed8f9cee97abd9deff28b52440a2"),
    ])
    def test_every_budget_stops_where_it_did(self, comb, n, steps, digest):
        """Where the search stops for every budget from 0 to the whole
        trace, hashed: the steps StepLimitError counts, or None for the
        budget that returns the trace.  Pinned from the loop that pushed
        every case whole, so settling cases moves no stop."""
        formula = xor_equivalence(n, comb)
        stopped = []
        for budget in range(steps + 1):
            try:
                assert len(indirect_check(formula, max_steps=budget).trace.steps) == budget
                stopped.append(None)
            except StepLimitError as raised:
                stopped.append(raised.steps)
        assert stopped[-1] is None
        assert hashlib.sha256(repr(stopped).encode()).hexdigest() == digest

    def test_a_budget_of_every_step_returns_the_whole_trace(self):
        formula = xor_equivalence(12)
        result = indirect_check(formula, max_steps=172031)
        assert len(result.trace.steps) == 172031
        assert result == indirect_check(formula)

    @pytest.mark.parametrize("max_steps", [-1, 2.5, 1.0, True, "10"])
    def test_a_malformed_budget_is_refused_before_the_search(self, max_steps, monkeypatch):
        monkeypatch.setattr(indirect, "_columns", None)  # the search's first call
        with pytest.raises(ValueError, match="max_steps"):
            indirect_check(xor_equivalence(3), max_steps)

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

    @pytest.fixture
    def built(self, monkeypatch):
        """The snapshots built while the test runs, in order."""
        built = []

        class CountedStep(TraceStep):
            def __init__(self, *fields):
                built.append(self)
                super().__init__(*fields)

        monkeypatch.setattr(indirect, "TraceStep", CountedStep)
        return built

    def test_an_index_builds_only_its_step(self, built):
        steps = indirect_check(xor_equivalence(5)).trace.steps
        listed = list(steps)
        built.clear()
        assert steps[-1] == listed[-1]
        assert built == [listed[-1]]
        assert steps[3] == listed[3]
        assert len(built) == 2

    def test_a_slice_builds_only_its_steps(self, built):
        steps = indirect_check(xor_equivalence(5)).trace.steps
        listed = tuple(list(steps))
        built.clear()
        assert steps[-2:] == listed[-2:]
        assert len(built) == 2
        built.clear()
        assert steps[5:2] == ()
        assert built == []
        n = len(listed)
        for key in product((None, 0, 3, -4, n + 1), (None, 2, -1, -n - 1), (None, 1, 2, -1, -3)):
            built.clear()
            assert steps[slice(*key)] == listed[slice(*key)], key
            assert len(built) == len(listed[slice(*key)]), key

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

    def test_xor_equivalence_notes_are_pinned(self):
        """The steps and each note's count at n = 9 and 10: every step after
        the root opens or closes a branch, and none is forced."""
        for n, steps, opened, closed in ((9, 15359, 7678, 7680), (10, 34815, 17406, 17408)):
            trace = indirect_check(xor_equivalence(n)).trace
            assert len(trace.steps) == steps
            assert Counter(step.note for step in trace.steps) == {
                NOTE_ROOT: 1, NOTE_BRANCH_OPEN: opened, NOTE_BRANCH_CLOSED: closed}

    def test_note_counts(self):
        """Every note in order, zeros too, as the steps' notes count them."""
        traces = [indirect_check(formula).trace for formula in corpus_527()]
        traces += [indirect_check(xor_equivalence(n)).trace for n in range(1, 11)]
        for trace in traces:
            counts = trace.steps.note_counts()
            assert list(counts) == list(indirect.NOTES)
            assert counts == {**dict.fromkeys(indirect.NOTES, 0),
                              **Counter(step.note for step in trace.steps)}
        assert traces[-1].steps.note_counts() == {
            NOTE_ROOT: 1, NOTE_FORCED: 0, NOTE_BRANCH_OPEN: 17406, NOTE_BRANCH_CLOSED: 17408}

    def test_rows_size_is_the_written_length(self):
        """In the text and the JSON layout, for every corpus trace; the corpus
        holds steps that close after binding one code of two."""
        closed_after_one = indirect.NOTES.index(NOTE_BRANCH_CLOSED) | 1 << 2  # the note byte
        seen = 0
        for formula in corpus_527():
            trace = indirect_check(formula).trace
            seen += trace.steps.notes.count(closed_after_one)
            assert max(trace.steps.notes) < 3 << 2  # no step binds more than two codes
            for layout in ((text_layout(trace.columns)[1], indirect.NOTES, "\n", "| "),
                           cli._json_steps(trace.steps.width)):
                written = "".join(piece for pieces in trace.steps.rows(*layout)
                                  for piece in pieces)
                assert trace.steps.rows_size(*layout) == len(written)
        assert seen

    def test_trace_memory_follows_the_bindings(self):
        """n = 10 xor-equivalence: 34,815 steps over 29 columns.  Snapshots
        of every step held about 12 MB.  The bindings (a note byte and a base
        per step, and the codes bound) take about 0.33 MB; they took 0.48 MB
        when each step also kept where its codes end.  The search holds at
        most a chunk of steps in lists before it moves them into the arrays,
        so its peak is about 0.37 MB, against 0.36 MB when it wrote every
        step straight into the arrays; holding every step in lists until the
        end peaked at 1.0 MB, and moving them every 4,096 steps at 0.39 MB."""
        xs = [Variable(f"x{i}") for i in range(10)]
        formula = equiv(reduce(equiv, xs), reduce(equiv, xs[::-1]))
        tracemalloc.start()
        try:
            result = indirect_check(formula)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(result.trace.steps), len(result.trace.columns)) == (34815, 29)
        assert retained < 400_000
        assert peak < 450_000

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
