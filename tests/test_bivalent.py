"""Two-valued evaluation, truth tables, classification and entailment."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illation.bivalent import (
    DEFAULT_VARIABLE_LIMIT,
    EntailmentResult,
    MissingVariableError,
    TruthTable,
    VariableLimitError,
    _row,
    apply_all,
    apply_mask,
    assignments,
    classify,
    entails,
    evaluate,
    format_matrix,
    format_truth_table,
    matrix_table,
    truth_table,
)
from illation.core import (
    Binary,
    CONNECTIVES,
    Constant,
    IMPLICATION,
    connective,
    Negation,
    TriadicValue,
    TruthValue,
    Variable,
    conj,
    disj,
    implies,
    variables_of,
)
from illation.notation import Notation, SyntaxConfig, parse, render
from illation.trivalent import truth_table3

from helpers import (BOOL_OPS, brute_force_kind, eval_bool, random_formula,
                     reference_table_rows, reference_table_text, reference_triadic_rows,
                     to_value)

T, F = TruthValue.T, TruthValue.F
A, B, C = Variable("a"), Variable("b"), Variable("c")

PEIRCE_ASCII = SyntaxConfig(Notation.PEIRCE, "ascii")


def pa(text: str):
    return parse(text, PEIRCE_ASCII)


def reference_rows(formulas, names, row_order="t-first"):
    """Each assignment in `row_order` with the values of `formulas` on it,
    computed by the plain-bool reference evaluator."""
    for a in assignments(names, row_order):
        env = {name: value is T for name, value in a.items()}
        yield a, [eval_bool(f, env) for f in formulas]


def any_formula(rng, max_depth):
    """Random formula over all sixteen connectives, constants included."""
    return random_formula(rng, max_depth, connective_names=tuple(BOOL_OPS))


class TestEvaluate:
    def test_constants_and_variables(self):
        assert evaluate(Constant(T), {}) is T
        assert evaluate(Constant(F), {}) is F
        assert evaluate(A, {"a": F}) is F

    def test_negation(self):
        assert evaluate(Negation(A), {"a": T}) is F
        assert evaluate(Negation(A), {"a": F}) is T

    @pytest.mark.parametrize("conn", CONNECTIVES, ids=lambda c: c.name)
    def test_every_connective_against_reference_evaluator(self, conn):
        formula = Binary(conn, A, B)
        for left, right in product((True, False), repeat=2):
            env = {"a": left, "b": right}
            assignment = {k: to_value(v) for k, v in env.items()}
            assert evaluate(formula, assignment) is to_value(
                eval_bool(formula, env)
            )

    def test_random_formulas_against_reference_evaluator(self):
        rng = random.Random(96)
        for _ in range(300):
            formula = random_formula(rng, max_depth=5)
            names = {n for n in "pqrxyz"}
            env = {n: rng.choice((True, False)) for n in names}
            assignment = {k: to_value(v) for k, v in env.items()}
            assert evaluate(formula, assignment) is to_value(
                eval_bool(formula, env)
            )

    def test_unbound_variable_raises(self):
        with pytest.raises(MissingVariableError) as info:
            evaluate(conj(A, B), {"a": T})
        assert "b" in str(info.value)

    @pytest.mark.parametrize("value", [True, TriadicValue.V], ids=repr)
    def test_a_value_of_the_wrong_kind_is_rejected(self, value):
        with pytest.raises(TypeError) as info:
            evaluate(A, {"a": value})
        assert f"a is bound to {value!r}" in str(info.value)


def four_branch_mask(conn, left, right, full):
    """The plain union the kernel replaces: each pair's rows from `~left`
    and `~right`, negative ints masked back into `full` at the end."""
    v = conn.vector
    out = 0
    if v[0] is T:
        out |= left & right
    if v[1] is T:
        out |= left & ~right
    if v[2] is T:
        out |= ~left & right
    if v[3] is T:
        out |= ~left & ~right
    return out & full


# Each connective's vector as a map from an input pair's index to its value's bit.
_VECTOR_BITS = [str.maketrans("0123", "".join("1" if v is T else "0" for v in conn.vector))
                for conn in CONNECTIVES]


def per_row_masks(left, right, full):
    """The sixteen connectives on two truth vectors, in column order, read
    one row at a time from `conn.vector`: bit k is t exactly when the
    connective maps the pair (bit k of left, bit k of right) to t."""
    width = full.bit_length()
    pairs = "".join(str(2 * (l == "0") + (r == "0"))
                    for l, r in zip(format(left, f"0{width}b"), format(right, f"0{width}b")))
    return [int(pairs.translate(bits), 2) for bits in _VECTOR_BITS]


class TestApplyMask:
    """The pair-set kernel against a per-row reference and against the
    four-branch formula it replaces."""

    @pytest.mark.parametrize("full", [1, 3, 15, 255])
    def test_every_pair_of_vectors(self, full):
        for left, right in product(range(full + 1), repeat=2):
            assert [apply_mask(conn, left, right, full)
                    for conn in CONNECTIVES] == per_row_masks(left, right, full)

    @pytest.mark.parametrize("full", [1, 3, 15])
    def test_the_four_branch_formula(self, full):
        for conn in CONNECTIVES:
            for left, right in product(range(full + 1), repeat=2):
                assert apply_mask(conn, left, right, full) == four_branch_mask(
                    conn, left, right, full)

    @pytest.mark.parametrize("rows", [2 ** 10, 2 ** 14])
    def test_random_vectors(self, rows):
        rng = random.Random(rows)
        full = (1 << rows) - 1
        for _ in range(3):
            left, right = rng.getrandbits(rows), rng.getrandbits(rows)
            values = [apply_mask(conn, left, right, full) for conn in CONNECTIVES]
            assert values == per_row_masks(left, right, full)
            assert values == [four_branch_mask(conn, left, right, full) for conn in CONNECTIVES]


def _row_reference(names, bits):
    """_row by `bits & -bits`."""
    row = format((bits & -bits).bit_length() - 1, f"0{len(names)}b")
    return {name: F if bit == "1" else T for name, bit in zip(names, row)}


class TestLowestRow:
    def test_matches_the_lowest_set_bit(self):
        rng = random.Random(1893)
        names = [f"x{i}" for i in range(14)]
        vectors = [1 << k for k in range(1 << 14)]
        vectors += [rng.getrandbits(1 << 14) | 1 << rng.randrange(1 << 14) for _ in range(200)]
        for bits in vectors:
            assert _row(names, bits) == _row_reference(names, bits)
        assert _row(names, 0) is None


class TestApplyAll:
    @pytest.mark.parametrize("full", [3, 15, 255])
    def test_matches_one_connective_at_a_time(self, full):
        for left, right in product(range(full + 1), repeat=2):
            assert list(apply_all(left, right, full)) == [
                apply_mask(conn, left, right, full) for conn in CONNECTIVES]


class TestAssignments:
    def test_t_first_order(self):
        rows = list(assignments(["x", "y"]))
        assert [tuple(r.values()) for r in rows] == [
            (T, T), (T, F), (F, T), (F, F)
        ]

    def test_f_first_order(self):
        rows = list(assignments(["x", "y"], row_order="f-first"))
        assert [tuple(r.values()) for r in rows] == [
            (F, F), (F, T), (T, F), (T, T)
        ]

    def test_leftmost_variable_varies_slowest(self):
        rows = list(assignments(["x", "y", "z"]))
        assert len(rows) == 8
        assert [r["x"] for r in rows] == [T, T, T, T, F, F, F, F]
        assert [r["z"] for r in rows] == [T, F, T, F, T, F, T, F]

    def test_no_variables_yields_one_empty_row(self):
        assert list(assignments([])) == [{}]

    def test_bad_row_order_rejected(self):
        with pytest.raises(ValueError):
            list(assignments(["x"], row_order="shuffled"))


class TestTruthTable:
    def test_implication_rows(self):
        table = truth_table(pa("x -< y"))
        assert table.variables == ("x", "y")
        assert [value for _, value in table.rows] == [T, F, T, T]

    def test_row_order_f_first_reverses_canonical_order(self):
        canonical = truth_table(pa("x -< y"))
        reversed_ = truth_table(pa("x -< y"), row_order="f-first")
        assert list(reversed_.rows) == list(canonical.rows)[::-1]

    def test_variables_keep_first_occurrence_order(self):
        table = truth_table(pa("y -< x"))
        assert table.variables == ("y", "x")

    def test_closed_formula_single_row(self):
        table = truth_table(pa("v -< f"))
        assert table.variables == ()
        assert table.rows == (({}, F),)

    def test_variable_limit(self):
        wide = Variable("x0")
        for i in range(1, DEFAULT_VARIABLE_LIMIT + 1):
            wide = conj(wide, Variable(f"x{i}"))
        with pytest.raises(VariableLimitError):
            truth_table(wide)

    @pytest.mark.parametrize("row_order", ["t-first", "f-first"])
    def test_rows_match_the_reference_evaluator(self, row_order):
        rng = random.Random(2718)
        for _ in range(200):
            formula = any_formula(rng, max_depth=5)
            names = variables_of(formula)
            table = truth_table(formula, row_order=row_order)
            assert table.variables == tuple(names)
            assert table.row_order == row_order
            assert list(table.rows) == [
                (a, to_value(value))
                for a, (value,) in reference_rows([formula], names, row_order)
            ]

    def test_variable_limit_is_adjustable(self):
        six = Variable("x0")
        for i in range(1, 6):
            six = disj(six, Variable(f"x{i}"))
        with pytest.raises(VariableLimitError):
            truth_table(six, limit=5)
        assert len(truth_table(six, limit=6).rows) == 64
        assert classify(six, limit=6).kind == "contingent"


def chain(rng, names, connective_names=tuple(BOOL_OPS)):
    """A formula over every name of `names`, in order, joined by seeded
    connectives, each operand negated now and then."""
    formula = Variable(names[0])
    for name in names[1:]:
        right = Variable(name)
        if rng.random() < 0.3:
            right = Negation(right)
        formula = Binary(connective(rng.choice(connective_names)), formula, right)
    return formula


class TestColumnarTable:
    """A table keeps the truth vector; its rows and its text are read from
    the vector, checked here against the plain per-row reference."""

    @staticmethod
    def corpus():
        rng = random.Random(1893)
        formulas = [any_formula(rng, max_depth=5) for _ in range(120)]
        formulas += [Constant(T), Negation(Binary(IMPLICATION, Constant(T), Constant(F)))]
        wide = ("a", "bb", "long_name", "x1")
        formulas += [random_formula(rng, 4, names=wide, connective_names=tuple(BOOL_OPS))
                     for _ in range(30)]
        # Past one block of rows: more variables than a block lays out once.
        formulas += [chain(rng, [f"p{i}" for i in range(n)]) for n in (9, 10, 11, 11)]
        return formulas

    @pytest.mark.parametrize("row_order", ["t-first", "f-first"])
    def test_text_matches_the_per_row_reference(self, row_order):
        for formula in self.corpus():
            names = variables_of(formula)
            table = truth_table(formula, row_order=row_order)
            rows = reference_table_rows(formula, row_order)
            assert table.rows == rows
            header = render(formula)
            for symbols in (("t", "f"), ("v", "f")):
                assert format_truth_table(table, header, symbols) == reference_table_text(
                    names, rows, header, symbols)

    def test_rows_read_as_the_tuple_of_rows(self):
        rng = random.Random(1902)
        nine = chain(rng, [f"q{i}" for i in range(9)])
        five = chain(rng, [f"r{i}" for i in range(5)], ("conjunction", "disjunction"))
        cases = [
            (truth_table(nine), reference_table_rows(nine)),
            (truth_table(nine, row_order="f-first"), reference_table_rows(nine, "f-first")),
            (truth_table3(five), reference_triadic_rows(five)),
            (truth_table(Constant(F)), (({}, F),)),
        ]
        for table, expected in cases:
            rows, n = table.rows, len(expected)
            assert len(rows) == n
            for k in {0, n // 2, n - 1, -1, -n}:
                assert rows[k] == expected[k]
            for k in (n, -n - 1):
                with pytest.raises(IndexError):
                    rows[k]
            for key in (slice(None), slice(1, 5), slice(None, None, -3), slice(-4, None),
                        slice(5, 1), slice(None, None, 7)):
                assert rows[key] == expected[key]
            assert list(reversed(rows)) == list(reversed(expected))
            assert list(rows) == list(expected)
            assert rows == expected and expected == rows
            assert rows != list(expected) and rows != expected[1:]
        again = truth_table(parse(render(nine)))
        assert again.rows == cases[0][0].rows
        assert cases[0][0].rows != cases[1][0].rows


class TestMatrix:
    def test_implication_cells(self):
        matrix = matrix_table(IMPLICATION)
        assert matrix.cells == ((T, F), (T, T))

    def test_rows_are_antecedent_columns_consequent(self):
        matrix = matrix_table(IMPLICATION)
        # row index: antecedent t then f; column index: consequent t then f
        assert matrix.cells[0][1] is F  # t -> f is the only false cell
        assert matrix.cells[1][0] is T

    def test_format_matrix_1893_block(self):
        expected = "  | t f\nt | t f\nf | t t"
        assert format_matrix(matrix_table(IMPLICATION)) == expected

    def test_format_matrix_conjunction(self):
        assert format_matrix(matrix_table(conj(A, B).connective)) == (
            "  | t f\nt | t f\nf | f f"
        )


class TestFormatTruthTable:
    def test_fourfold_list_f_first(self):
        table = truth_table(pa("x -< y"), row_order="f-first")
        text = format_truth_table(table, "x -< y", symbols=("v", "f"))
        assert text == (
            "x y | x -< y\n"
            "f f | v\n"
            "f v | v\n"
            "v f | f\n"
            "v v | v"
        )

    def test_default_symbols_are_t_and_f(self):
        table = truth_table(pa("x * y"))
        text = format_truth_table(table, "x & y")
        assert text.splitlines() == [
            "x y | x & y", "t t | t", "t f | f", "f t | f", "f f | f"
        ]

    def test_closed_formula_layout(self):
        table = truth_table(pa("v"))
        assert format_truth_table(table, "v", symbols=("v", "f")) == "| v\n| v"

    def test_wide_variable_names_stay_aligned(self):
        table = truth_table(parse("ab & c", SyntaxConfig(Notation.MODERN, "ascii")))
        lines = format_truth_table(table, "ab & c").splitlines()
        assert lines[0] == "ab c | ab & c"
        assert lines[1] == "t  t | t"


class TestClassify:
    def test_tautology(self):
        verdict = classify(pa("((a -< b) -< a) -< a"))
        assert verdict.kind == "tautology"
        assert verdict.falsifying is None
        assert verdict.satisfying is not None

    def test_contradiction(self):
        verdict = classify(pa("a * -a"))
        assert verdict.kind == "contradiction"
        assert verdict.satisfying is None
        assert verdict.falsifying == {"a": T}

    def test_contingent_with_first_canonical_witnesses(self):
        verdict = classify(pa("a -< b"))
        assert verdict.kind == "contingent"
        assert verdict.satisfying == {"a": T, "b": T}
        assert verdict.falsifying == {"a": T, "b": F}

    def test_witnesses_actually_witness(self):
        """Each witness is the first row of its kind in canonical order,
        as found by the reference evaluator."""
        rng = random.Random(4821)
        for _ in range(200):
            formula = any_formula(rng, max_depth=4)
            verdict = classify(formula)
            assert verdict.kind == brute_force_kind(formula)
            rows = list(reference_rows([formula], variables_of(formula)))
            assert verdict.falsifying == next(
                (a for a, (value,) in rows if not value), None
            )
            assert verdict.satisfying == next(
                (a for a, (value,) in rows if value), None
            )

    def test_witnesses_at_the_default_limit(self):
        """x0 -< (x1 -< ... -< x19) is false only where x0..x18 are all t
        and x19 is f, which is the second row; the first row satisfies it."""
        names = [f"x{i}" for i in range(DEFAULT_VARIABLE_LIMIT)]
        comb = Variable(names[-1])
        for name in reversed(names[:-1]):
            comb = implies(Variable(name), comb)
        verdict = classify(comb)
        assert verdict.kind == "contingent"
        assert verdict.satisfying == {name: T for name in names}
        assert verdict.falsifying == {**verdict.satisfying, names[-1]: F}

    def test_reflexivity_and_chain(self):
        assert classify(pa("a -< a")).kind == "tautology"
        verdict = classify(pa("x -< y -< z"))
        assert verdict.kind == "contingent"
        assert verdict.falsifying == {"x": T, "y": T, "z": F}


class TestConstantsAxioms:
    def test_falsum_implies_anything(self):
        assert classify(pa("f -< a")).kind == "tautology"

    def test_anything_implies_verum(self):
        assert classify(pa("a -< v")).kind == "tautology"

    def test_one_of_the_pair_always_holds(self):
        assert classify(pa("(v -< a) + (a -< f)")).kind == "tautology"

    def test_verum_implies_a_means_a(self):
        assert [v for _, v in truth_table(pa("v -< a")).rows] == [
            v for _, v in truth_table(A).rows
        ]

    def test_a_implies_falsum_means_not_a(self):
        assert [v for _, v in truth_table(pa("a -< f")).rows] == [
            v for _, v in truth_table(Negation(A)).rows
        ]


class TestEntails:
    def test_modus_ponens(self):
        assert entails([pa("a -< b"), A], B) == EntailmentResult(True, None)

    def test_transitivity(self):
        assert entails([pa("a -< b"), pa("b -< c")], pa("a -< c")).valid

    def test_modus_tollens(self):
        assert entails([pa("a -< b"), Negation(B)], Negation(A)).valid

    def test_invalid_with_first_canonical_counterexample(self):
        result = entails([pa("a -< b")], A)
        assert not result.valid
        assert result.counterexample == {"a": F, "b": T}

    def test_affirming_the_consequent_is_invalid(self):
        result = entails([pa("a -< b"), B], A)
        assert not result.valid
        assert result.counterexample == {"a": F, "b": T}

    def test_counterexample_satisfies_premises_and_refutes_conclusion(self):
        """The counterexample is the first row, in canonical order, where the
        reference evaluator makes every premise true and the conclusion false."""
        rng = random.Random(1709)
        for _ in range(100):
            premises = [any_formula(rng, 3) for _ in range(rng.randint(0, 3))]
            conclusion = any_formula(rng, 3)
            names = list(dict.fromkeys(
                n for f in (*premises, conclusion) for n in variables_of(f)
            ))
            result = entails(premises, conclusion)
            rows = reference_rows([*premises, conclusion], names)
            first = next((a for a, (*ps, c) in rows if all(ps) and not c), None)
            assert result == EntailmentResult(first is None, first)

    def test_no_premises_means_tautology_check(self):
        assert entails([], pa("a + -a")).valid
        assert not entails([], A).valid

    def test_variable_order_spans_premises_then_conclusion(self):
        result = entails([pa("q -< p")], pa("r"))
        assert result.counterexample is not None
        assert list(result.counterexample) == ["q", "p", "r"]

    def test_empty_conclusion_variables_still_work(self):
        assert entails([pa("a")], pa("v")).valid


@settings(max_examples=120)
@given(st.text(alphabet="pqr", min_size=1, max_size=1),
       st.booleans(), st.booleans())
def test_projection_connectives_project(name, left, right):
    formula_left = Binary(CONNECTIVES[5], Variable(name), B)  # left-projection
    formula_right = Binary(CONNECTIVES[6], A, Variable(name))  # right-projection
    assignment = {name: to_value(left), "a": to_value(right), "b": to_value(right)}
    assert evaluate(formula_left, assignment) is to_value(left)
    assert evaluate(formula_right, assignment) is to_value(left)
