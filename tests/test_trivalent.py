"""The 1909 three-valued matrices and evaluation over them."""

import random
from itertools import combinations, product

import pytest

from illation.core import (
    Binary,
    Constant,
    Negation,
    TriadicValue,
    TruthValue,
    Variable,
    conj,
    connective,
    disj,
    equiv,
    implies,
    variables_of,
)
from illation.bivalent import MissingVariableError, VariableLimitError, format_truth_table
from illation.notation import render
from illation.trivalent import (
    NEGATION3,
    OPLUS_ROWS,
    TABLES,
    TRIADIC_VALUES,
    UnsupportedConnectiveError,
    ZBAR_ROWS,
    assignments3,
    evaluate3,
    format_tables,
    is_tautology3,
    neg3,
    oplus,
    restriction_check,
    truth_table3,
    zbar,
)

from helpers import (eval_triadic, random_formula, reference_table_text,
                     reference_triadic_rows)

V, L, F3 = TriadicValue.V, TriadicValue.L, TriadicValue.F
X, Y = Variable("x"), Variable("y")


class TestMatrices:
    def test_negation_table(self):
        assert NEGATION3 == {V: F3, L: L, F3: V}

    def test_disjunction_rows(self):
        assert OPLUS_ROWS == ((V, V, V), (V, L, L), (V, L, F3))

    def test_conjunction_rows(self):
        assert ZBAR_ROWS == ((V, L, F3), (L, L, F3), (F3, F3, F3))

    def test_tables_bundle(self):
        assert TABLES.negation is NEGATION3
        assert TABLES.disjunction is OPLUS_ROWS
        assert TABLES.conjunction is ZBAR_ROWS

    def test_label_order(self):
        assert TRIADIC_VALUES == (V, L, F3)


class TestOperations:
    def test_involution(self):
        for value in TRIADIC_VALUES:
            assert neg3(neg3(value)) is value

    def test_excluded_middle_fails_at_the_limit_value(self):
        assert oplus(L, neg3(L)) is L

    @pytest.mark.parametrize("op", [oplus, zbar], ids=["oplus", "zbar"])
    def test_commutative(self, op):
        for a, b in product(TRIADIC_VALUES, repeat=2):
            assert op(a, b) is op(b, a)

    @pytest.mark.parametrize("op", [oplus, zbar], ids=["oplus", "zbar"])
    def test_associative(self, op):
        for a, b, c in product(TRIADIC_VALUES, repeat=3):
            assert op(op(a, b), c) is op(a, op(b, c))

    @pytest.mark.parametrize("op", [oplus, zbar], ids=["oplus", "zbar"])
    def test_idempotent(self, op):
        for a in TRIADIC_VALUES:
            assert op(a, a) is a

    def test_max_min_characterization(self):
        rank = {V: 2, L: 1, F3: 0}
        by_rank = {2: V, 1: L, 0: F3}
        for a, b in product(TRIADIC_VALUES, repeat=2):
            assert oplus(a, b) is by_rank[max(rank[a], rank[b])]
            assert zbar(a, b) is by_rank[min(rank[a], rank[b])]

    def test_de_morgan(self):
        for a, b in product(TRIADIC_VALUES, repeat=2):
            assert neg3(oplus(a, b)) is zbar(neg3(a), neg3(b))
            assert neg3(zbar(a, b)) is oplus(neg3(a), neg3(b))


class TestEvaluate3:
    def test_negation_at_the_limit(self):
        assert evaluate3(Negation(X), {"x": L}) is L

    def test_disjunction_row_l_column_f(self):
        assert evaluate3(disj(X, Y), {"x": L, "y": F3}) is L

    def test_conjunction_row_l_column_v(self):
        assert evaluate3(conj(X, Y), {"x": L, "y": V}) is L

    def test_constants_map_to_the_extremes(self):
        assert evaluate3(Constant(TruthValue.T), {}) is V
        assert evaluate3(Constant(TruthValue.F), {}) is F3

    def test_de_morgan_as_formulas(self):
        lhs = Negation(disj(X, Y))
        rhs = conj(Negation(X), Negation(Y))
        for a, b in product(TRIADIC_VALUES, repeat=2):
            env = {"x": a, "y": b}
            assert evaluate3(lhs, env) is evaluate3(rhs, env)

    def test_implication_is_rejected(self):
        with pytest.raises(UnsupportedConnectiveError) as info:
            evaluate3(implies(X, Y), {"x": V, "y": V})
        assert "implication" in str(info.value)
        assert info.value.connective_name == "implication"

    def test_other_connectives_are_rejected_too(self):
        for name in ("equivalence", "nand", "exclusive-disjunction"):
            with pytest.raises(UnsupportedConnectiveError):
                evaluate3(Binary(connective(name), X, Y), {"x": V, "y": V})

    def test_unbound_variable(self):
        with pytest.raises(MissingVariableError):
            evaluate3(X, {})

    def test_the_left_operand_decides_which_error_wins(self):
        with pytest.raises(MissingVariableError):
            evaluate3(disj(Variable("z"), implies(X, X)), {})
        with pytest.raises(UnsupportedConnectiveError):
            evaluate3(implies(Variable("z"), X), {})

    def test_a_two_valued_value_is_rejected(self):
        for formula in (X, Negation(X)):
            with pytest.raises(TypeError) as info:
                evaluate3(formula, {"x": TruthValue.T})
            assert "x is bound to t (TruthValue)" in str(info.value)


class TestTable3:
    def test_assignment_order_v_l_f_leftmost_slowest(self):
        rows = list(assignments3(["x", "y"]))
        assert len(rows) == 9
        assert [r["x"] for r in rows] == [V, V, V, L, L, L, F3, F3, F3]
        assert [r["y"] for r in rows] == [V, L, F3] * 3

    def test_negation_column(self):
        table = truth_table3(Negation(X))
        assert [value for _, value in table.rows] == [F3, L, V]

    def test_excluded_middle_column(self):
        table = truth_table3(disj(X, Negation(X)))
        assert [value for _, value in table.rows] == [V, L, V]

    @pytest.mark.parametrize(
        "build, matrix", [(disj, OPLUS_ROWS), (conj, ZBAR_ROWS)],
        ids=["oplus", "zbar"],
    )
    def test_binary_table_flattens_the_matrix(self, build, matrix):
        table = truth_table3(build(X, Y))
        flattened = [value for row in matrix for value in row]
        assert [value for _, value in table.rows] == flattened

    def test_variable_limit(self):
        wide = Variable("x0")
        for i in range(1, 13):
            wide = disj(wide, Variable(f"x{i}"))
        with pytest.raises(VariableLimitError):
            truth_table3(wide)


    def test_text_matches_the_per_row_reference(self):
        """The text read from the (V, F) masks, against the per-row reference
        formatter over the reference rows: names of several widths, closed
        formulas, and more variables than one block of rows lays out."""
        rng = random.Random(1910)
        ops = ("conjunction", "disjunction")
        formulas = [random_formula(rng, 5, names=("a", "bb", "long_name", "x1", "y"),
                                   connective_names=ops) for _ in range(60)]
        formulas += [Constant(TruthValue.T), Negation(disj(Constant(TruthValue.F),
                                                           Constant(TruthValue.T)))]
        nine = Variable("p0")
        for i in range(1, 9):
            operand = Variable(f"p{i}")
            nine = Binary(connective(rng.choice(ops)), nine,
                          Negation(operand) if rng.random() < 0.3 else operand)
        formulas.append(nine)
        for formula in formulas:
            table = truth_table3(formula)
            rows = reference_triadic_rows(formula)
            assert table.rows == rows
            assert format_truth_table(table, render(formula)) == reference_table_text(
                variables_of(formula), rows, render(formula))


class TestTautology3:
    def test_excluded_middle_is_not_a_triadic_tautology(self):
        assert not is_tautology3(disj(X, Negation(X)))

    def test_designated_set_is_a_parameter(self):
        assert is_tautology3(disj(X, Negation(X)), designated=frozenset({V, L}))

    def test_double_negation_elimination_needs_an_implication(self):
        with pytest.raises(UnsupportedConnectiveError):
            is_tautology3(implies(Negation(Negation(X)), X))

    def test_variable_limit_before_enumerating(self):
        wide = Variable("a0")
        for i in range(1, 13):
            wide = conj(wide, Variable(f"a{i}"))
        with pytest.raises(VariableLimitError):
            is_tautology3(wide)


class TestAgainstReference:
    def test_random_formulas(self):
        """Every row of `truth_table3`, `evaluate3` on it, and `is_tautology3`
        under each designated subset, against the rank evaluator."""
        rng = random.Random(1909)
        subsets = [
            frozenset(c) for k in range(4) for c in combinations(TRIADIC_VALUES, k)
        ]
        for _ in range(300):
            formula = random_formula(
                rng, max_depth=6, names=("p", "q", "r", "s", "t"),
                connective_names=("conjunction", "disjunction"),
            )
            names = variables_of(formula)
            table = truth_table3(formula)
            assert table.variables == tuple(names)
            combos = list(product(TRIADIC_VALUES, repeat=len(names)))
            assert len(table.rows) == len(combos)
            values = set()
            for (assignment, value), combo in zip(table.rows, combos):
                env = dict(zip(names, combo))
                expected = eval_triadic(formula, env)
                assert assignment == env
                assert value is expected
                assert evaluate3(formula, env) is expected
                values.add(expected)
            for designated in subsets:
                assert is_tautology3(formula, designated) == (values <= designated)


class TestRestriction:
    def test_no_mismatches(self):
        report = restriction_check()
        assert report.ok
        assert report.mismatches == ()

    def test_restriction_by_hand(self):
        two = {TruthValue.T: V, TruthValue.F: F3}
        back = {V: TruthValue.T, F3: TruthValue.F}
        disj2 = connective("disjunction")
        conj2 = connective("conjunction")
        for a, b in product((TruthValue.T, TruthValue.F), repeat=2):
            assert back[oplus(two[a], two[b])] is disj2.apply(a, b)
            assert back[zbar(two[a], two[b])] is conj2.apply(a, b)
        for a in (TruthValue.T, TruthValue.F):
            assert back[neg3(two[a])] is a.opposite()


class TestFormatTables:
    def test_unicode_blocks(self):
        assert format_tables("unicode") == (
            "x | x̄\n"
            "V | F\n"
            "L | L\n"
            "F | V\n"
            "\n"
            "⊕ | V L F\n"
            "V | V V V\n"
            "L | V L L\n"
            "F | V L F\n"
            "\n"
            "Ž | V L F\n"
            "V | V L F\n"
            "L | L L F\n"
            "F | F F F"
        )

    def test_ascii_blocks(self):
        text = format_tables("ascii")
        assert "x | -x" in text
        assert "+ | V L F" in text
        assert "* | V L F" in text
        assert text.count("|") == 12
