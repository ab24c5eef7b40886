"""Formula AST and the sixteen-connective catalog."""

import pickle
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import illation
from illation.core import (
    Binary,
    CONJUNCTION,
    CONNECTIVES,
    Constant,
    DISJUNCTION,
    EQUIVALENCE,
    IMPLICATION,
    INPUT_PAIRS,
    Negation,
    TruthValue,
    Variable,
    conj,
    connective,
    connective_from_vector,
    disj,
    equiv,
    implies,
    subformulas,
    variables_of,
)

from helpers import BOOL_OPS, to_value

T, F = TruthValue.T, TruthValue.F


class TestTruthValue:
    def test_opposite(self):
        assert T.opposite() is F
        assert F.opposite() is T

    def test_str(self):
        assert str(T) == "t"
        assert str(F) == "f"


class TestCatalog:
    def test_sixteen_connectives_with_columns_1_to_16(self):
        assert len(CONNECTIVES) == 16
        assert [c.column for c in CONNECTIVES] == list(range(1, 17))

    def test_vectors_are_distinct_and_cover_all_sixteen(self):
        vectors = {c.vector for c in CONNECTIVES}
        assert len(vectors) == 16
        assert vectors == set(product((T, F), repeat=4))

    def test_input_pair_order(self):
        assert INPUT_PAIRS == ((T, T), (T, F), (F, T), (F, F))

    def test_named_vectors(self):
        assert IMPLICATION.vector == (T, F, T, T)
        assert CONJUNCTION.vector == (T, F, F, F)
        assert DISJUNCTION.vector == (T, T, T, F)
        assert EQUIVALENCE.vector == (T, F, F, T)

    def test_boundary_columns(self):
        assert connective(1).vector == (F, F, F, F)
        assert connective(16).vector == (T, T, T, T)

    def test_equivalence_sits_at_column_8(self):
        assert EQUIVALENCE.column == 8
        assert "column 2" in connective(8).note

    @pytest.mark.parametrize("conn", CONNECTIVES, ids=lambda c: c.name)
    def test_apply_matches_vector_and_reference_ops(self, conn):
        for (left, right), out in zip(INPUT_PAIRS, conn.vector):
            assert conn.apply(left, right) is out
            expected = BOOL_OPS[conn.name](left is T, right is T)
            assert out is to_value(expected)

    def test_lookup_by_name_column_and_vector_agree(self):
        for conn in CONNECTIVES:
            assert connective(conn.name) is conn
            assert connective(conn.column) is conn
            assert connective_from_vector(conn.vector) is conn

    def test_unknown_lookups_raise(self):
        with pytest.raises(KeyError):
            connective("xor")  # not the canonical name
        with pytest.raises(KeyError):
            connective(0)
        with pytest.raises(KeyError):
            connective(17)
        with pytest.raises(ValueError):
            connective_from_vector((T, T, T))

    def test_truth_count_distribution(self):
        by_count = {}
        for conn in CONNECTIVES:
            count = sum(1 for v in conn.vector if v is T)
            by_count[count] = by_count.get(count, 0) + 1
        assert by_count == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}


class TestFormula:
    def test_variable_name_validation(self):
        assert Variable("a").name == "a"
        assert Variable("long_name2").name == "long_name2"
        for bad in ("", "2a", "a b", "a-b", "π"):
            with pytest.raises(ValueError):
                Variable(bad)

    def test_nodes_are_frozen_and_hashable(self):
        node = implies(Variable("a"), Variable("b"))
        with pytest.raises(AttributeError):
            node.left = Variable("c")
        assert {node: 1}[implies(Variable("a"), Variable("b"))] == 1

    def test_structural_equality(self):
        assert Variable("a") == Variable("a")
        assert Variable("a") != Variable("b")
        assert Negation(Variable("a")) == Negation(Variable("a"))
        assert implies(Variable("a"), Variable("b")) != implies(
            Variable("b"), Variable("a")
        )

    def test_builders_pick_the_right_connectives(self):
        a, b = Variable("a"), Variable("b")
        assert implies(a, b).connective is IMPLICATION
        assert conj(a, b).connective is CONJUNCTION
        assert disj(a, b).connective is DISJUNCTION
        assert equiv(a, b).connective is EQUIVALENCE

    def test_variables_of_first_occurrence_order(self):
        b, a = Variable("b"), Variable("a")
        formula = conj(disj(b, a), b)
        assert variables_of(formula) == ["b", "a"]
        assert variables_of(Constant(T)) == []

    def test_subformulas_postorder_whole_formula_last(self):
        a, b = Variable("a"), Variable("b")
        law = implies(implies(implies(a, b), a), a)
        assert subformulas(law) == [
            a,
            b,
            implies(a, b),
            implies(implies(a, b), a),
            law,
        ]

    def test_subformulas_deduplicate(self):
        a = Variable("a")
        formula = conj(a, a)
        assert subformulas(formula) == [a, formula]


    def test_a_pickled_formula_hashes_afresh_in_another_process(self):
        """Hashes are computed at construction and string hashes differ
        between processes, so unpickling must not carry the old hash over."""
        text = "(a -> !b) & (T | a)"
        dumped = subprocess.run(
            [sys.executable, "-c", "import pickle, sys; from illation import parse; "
             f"sys.stdout.buffer.write(pickle.dumps(parse({text!r})))"],
            capture_output=True, check=True,
            env={"PYTHONHASHSEED": "1", "PYTHONPATH": str(Path(illation.__file__).parents[1])},
        ).stdout
        loaded = pickle.loads(dumped)
        assert loaded == illation.parse(text)
        assert loaded in {illation.parse(text)}
