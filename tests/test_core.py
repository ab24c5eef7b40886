"""Formula AST and the sixteen-connective catalog."""

import copy
import dataclasses
import pickle
import random
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
    _columns,
    conj,
    connective,
    connective_from_vector,
    disj,
    equiv,
    flatten,
    fold,
    implies,
    subformulas,
    variables_of,
)

from illation.indirect import indirect_check
from illation.notation import Notation, SyntaxConfig, parse, render, rendered_sizes

from helpers import BOOL_OPS, distinct_subformulas, random_formula, to_value

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


# One small formula of every node kind, with its repr as the dataclass repr
# writes it.
NODES = {
    "constant": (Constant(T), "Constant(value=t)"),
    "variable": (Variable("x_1"), "Variable(name='x_1')"),
    "negation": (Negation(Variable("a")), "Negation(operand=Variable(name='a'))"),
    "binary": (
        Binary(CONJUNCTION, Negation(Variable("a")), Constant(F)),
        "Binary(connective=Connective(column=5, name='conjunction', "
        "vector=(t, f, f, f), note='printed column 5 of the 1902 table'), "
        "left=Negation(operand=Variable(name='a')), right=Constant(value=f))",
    ),
}
FIELDS = {
    "constant": ("value",),
    "variable": ("name",),
    "negation": ("operand",),
    "binary": ("connective", "left", "right"),
}


class TestNodeConstructors:
    """The nodes' hand-written constructors keep the dataclass behaviour."""

    @pytest.mark.parametrize("kind", NODES)
    def test_repr_is_pinned(self, kind):
        node, text = NODES[kind]
        assert repr(node) == text

    @pytest.mark.parametrize("kind", NODES)
    def test_fields_and_match_args(self, kind):
        node, _ = NODES[kind]
        names = tuple(f.name for f in dataclasses.fields(node))
        assert names == FIELDS[kind] == type(node).__match_args__

    @pytest.mark.parametrize("kind", NODES)
    def test_replace_rebuilds_and_rehashes(self, kind):
        node, _ = NODES[kind]
        assert dataclasses.replace(node) == node
        assert hash(dataclasses.replace(node)) == hash(node)
        name = FIELDS[kind][-1]
        other = {"value": F, "name": "y", "operand": Variable("b"),
                 "right": Constant(T)}[name]
        changed = dataclasses.replace(node, **{name: other})
        assert getattr(changed, name) == other
        assert changed != node
        fresh = type(node)(*(getattr(changed, f) for f in FIELDS[kind]))
        assert changed == fresh and hash(changed) == hash(fresh)

    @pytest.mark.parametrize("kind", NODES)
    def test_pickles_and_copies_round_trip(self, kind):
        node, text = NODES[kind]
        for again in (pickle.loads(pickle.dumps(node)), copy.copy(node),
                      copy.deepcopy(node)):
            assert type(again) is type(node)
            assert again == node and hash(again) == hash(node)
            assert repr(again) == text

    @pytest.mark.parametrize("kind", NODES)
    def test_nodes_are_frozen(self, kind):
        node, _ = NODES[kind]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, FIELDS[kind][0], None)

    def test_a_bad_variable_name_still_raises(self):
        with pytest.raises(ValueError):
            Variable("2a")
        with pytest.raises(ValueError):
            dataclasses.replace(Variable("a"), name="a b")

    def test_shared_operands_pickle_once(self):
        a = Variable("a")
        inner = implies(a, a)
        formula = conj(inner, inner)
        loaded = pickle.loads(pickle.dumps(formula))
        assert loaded == formula
        assert loaded.left is loaded.right


class TestFlatten:
    def test_nodes_in_postorder_and_names_in_first_occurrence_order(self):
        b, a = Variable("b"), Variable("a")
        inner = disj(b, a)
        formula = conj(inner, Negation(b))
        nodes, names = flatten(formula)
        assert nodes == [b, a, inner, Negation(b), formula]
        assert names == ["b", "a"]

    def test_a_node_object_is_walked_once(self):
        a = Variable("a")
        inner = implies(a, a)
        nodes, names = flatten(conj(inner, inner))
        assert [id(node) for node in nodes] == [id(a), id(inner), id(nodes[-1])]
        assert names == ["a"]

    def test_an_equal_copy_is_walked_again(self):
        formula = conj(Variable("a"), Variable("a"))
        nodes, names = flatten(formula)
        assert len(nodes) == 3
        assert names == ["a"]
        assert variables_of(formula) == ["a"]

    def test_known_nodes_are_passed_over_with_all_under_them(self):
        a, b = Variable("a"), Variable("b")
        inner = disj(a, b)
        formula = conj(inner, Negation(b))
        nodes, names = flatten(formula, {id(inner)})
        assert [id(node) for node in nodes] == [id(b), id(formula.right), id(formula)]
        assert names == ["b"]


ALL_CONNECTIVES = tuple(c.name for c in CONNECTIVES)
CONFIGS = [SyntaxConfig(notation, encoding)
           for notation in Notation for encoding in ("unicode", "ascii")]


def with_equal_copies(rng: random.Random) -> list:
    """Formulas whose equal subformulas are distinct objects: a deep copy of
    an operand on the other side, and the parse of such a formula's text,
    where expansions repeat their operands as well."""
    g = random_formula(rng, 3, connective_names=ALL_CONNECTIVES)
    h = random_formula(rng, 3, connective_names=ALL_CONNECTIVES)
    c1, c2, c3 = (connective(rng.choice(ALL_CONNECTIVES)) for _ in range(3))
    built = [Binary(c1, g, copy.deepcopy(g)),
             Binary(c1, Negation(Binary(c2, g, h)),
                    Binary(c3, copy.deepcopy(h), copy.deepcopy(g)))]
    return built + [parse(render(formula)) for formula in built]


class TestOneWalk:
    """`fold` runs over `flatten` by identity; equality picks the distinct
    subformulas only where the result is defined by it."""

    FORMULAS = [formula for seed in range(40)
                for formula in with_equal_copies(random.Random(seed))]

    @staticmethod
    def ids(nodes) -> list[int]:
        return [id(node) for node in nodes]

    def test_distinct_subformulas_match_the_recursive_reference(self):
        for formula in self.FORMULAS:
            expected = self.ids(distinct_subformulas(formula))
            assert self.ids(subformulas(formula)) == expected
            assert self.ids(indirect_check(formula).trace.columns) == expected
            for config in CONFIGS:
                assert self.ids(rendered_sizes(formula, config)) == expected

    def test_each_node_object_is_placed_at_the_first_equal_column(self):
        """`_columns` gives the distinct subformulas and, by `id`, the column
        of every node object: that of the first subformula equal to it."""
        shared = 0  # compound nodes placed at a column another object holds
        for formula in self.FORMULAS:
            columns, place = _columns(formula)
            assert self.ids(columns) == self.ids(distinct_subformulas(formula))
            nodes = flatten(formula)[0]
            assert len(place) == len(nodes)
            for node in nodes:
                assert place[id(node)] == next(
                    j for j, column in enumerate(columns) if column == node)
                shared += (type(node) in (Binary, Negation)
                           and columns[place[id(node)]] is not node)
        assert shared > 100

    def test_fold_gives_each_node_object_one_value(self):
        for formula in self.FORMULAS:
            called = []
            values = {}
            fold(formula, lambda node, *operands: called.append(id(node)), values)
            assert called == self.ids(flatten(formula)[0])
            assert set(values) == set(called)

    def test_fold_passes_over_seeded_nodes(self):
        def size(node, *operands):
            return 1 + sum(operands)

        rng = random.Random(1884)
        for _ in range(50):
            # Built, so no node object is met twice.
            formula = random_formula(rng, 5, connective_names=ALL_CONNECTIVES)
            seeded = [node for node in flatten(formula)[0][:-1] if rng.random() < 0.2]
            under = {id(n) for node in seeded for n in flatten(node)[0]}
            called = []

            def counted(node, *operands):
                called.append(id(node))
                return size(node, *operands)

            values = {id(node): fold(node, size) for node in seeded}
            assert fold(formula, counted, values) == fold(formula, size)
            assert sorted(called) == sorted(set(self.ids(flatten(formula)[0])) - under)
