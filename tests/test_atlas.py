"""The printed 1902 connective grid, X-frames, and the tautology enumerator."""

from itertools import product
from math import comb

import pytest

from illation import atlas
from illation.atlas import (
    PRINTED_ANNOTATIONS,
    PRINTED_GRID,
    QUADRANTS,
    MAX_SLOTS,
    SHAPE_POLICIES,
    VARIABLE_POOL,
    EnumerationBoundError,
    EnumerationSpec,
    XFrame,
    connective_of_xframe,
    enumerate_tautologies,
    filled,
    format_paper_table,
    identify,
    paper_table,
    render_xframe,
    tautology_groups,
    xframe_of,
)
from illation.bivalent import apply_mask, classify, matrix_table, variable_masks
from illation.core import CONNECTIVES, TruthValue, connective
from illation.notation import Notation, SyntaxConfig, render

from helpers import BOOL_OPS, reference_enumeration

T, F = TruthValue.T, TruthValue.F


class TestPrintedGrid:
    def test_dimensions(self):
        assert len(PRINTED_GRID) == 4
        assert all(len(row) == 16 for row in PRINTED_GRID)

    def test_column_8_repeats_column_2(self):
        table = paper_table()
        assert table.column(8) == (F, F, F, T)
        assert table.column(8) == table.column(2)
        assert table.duplicate_column == 8
        assert table.duplicate_of == 2

    def test_all_other_columns_match_the_canonical_catalog(self):
        table = paper_table()
        for conn in CONNECTIVES:
            if conn.column == 8:
                continue
            assert table.column(conn.column) == conn.vector

    def test_missing_vector_is_equivalence(self):
        table = paper_table()
        assert table.missing_vector == (T, F, F, T)
        assert table.missing_vector == connective("equivalence").vector
        assert table.missing_vector not in {
            table.column(i) for i in range(1, 17)
        }

    def test_annotations(self):
        assert len(PRINTED_ANNOTATIONS) == 2
        assert "column 8" in PRINTED_ANNOTATIONS[0]
        assert "duplicates column 2" in PRINTED_ANNOTATIONS[0]
        assert "(t,f,f,t)" in PRINTED_ANNOTATIONS[1]
        assert "equivalence" in PRINTED_ANNOTATIONS[1]

    def test_rendered_table(self):
        assert format_paper_table(paper_table()) == (
            " 1  2  3  4  5  6  7  8  9 10 11 12 13 14 15 16\n"
            " F  F  F  F  T  T  T  F  F  F  F  F  T  T  T  T\n"
            " F  F  F  T  F  T  F  F  T  T  F  T  F  T  T  T\n"
            " F  F  T  F  F  F  T  F  T  F  T  T  T  F  T  T\n"
            " F  T  F  F  F  F  F  T  F  T  T  T  T  T  F  T\n"
            "note: as printed, column 8 (f,f,f,t) duplicates column 2\n"
            "note: the vector (t,f,f,t) is absent from the printed grid; "
            "the canonical catalog assigns it to column 8 (equivalence)"
        )


class TestIdentify:
    def test_from_vector(self):
        assert identify((T, F, F, T)) is connective("equivalence")

    def test_from_matrix_table_round_trip(self):
        for conn in CONNECTIVES:
            assert identify(matrix_table(conn)) is conn

    def test_from_plain_vector_round_trip(self):
        for conn in CONNECTIVES:
            assert identify(conn.vector) is conn
            assert identify(list(conn.vector)) is conn

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            identify((T, F, F))


class TestXFrames:
    def test_quadrant_names(self):
        assert QUADRANTS == ("top", "right", "left", "bottom")

    def test_closed_where_the_output_is_f(self):
        for conn in CONNECTIVES:
            frame = xframe_of(conn)
            assert frame.closed == tuple(v is F for v in conn.vector)

    def test_implication_closes_only_tf(self):
        assert xframe_of(connective("implication")).closed_pairs() == ("tf",)

    def test_extremes(self):
        assert xframe_of(connective("constant-false")).closed_pairs() == (
            "tt",
            "tf",
            "ft",
            "ff",
        )
        assert xframe_of(connective("constant-true")).closed_pairs() == ()

    def test_frames_are_distinct(self):
        assert len({xframe_of(c) for c in CONNECTIVES}) == 16

    def test_inverse(self):
        for conn in CONNECTIVES:
            assert connective_of_xframe(xframe_of(conn)) is conn

    def test_every_frame_names_a_connective(self):
        for closed in product((False, True), repeat=4):
            frame = XFrame(closed)
            conn = connective_of_xframe(frame)
            assert xframe_of(conn) == frame

    def test_rendered_implication(self):
        assert render_xframe(xframe_of(connective("implication"))) == (
            "+---+\n"
            "|  x|\n"
            "+---+\n"
            "closed: tf"
        )

    def test_rendered_conjunction(self):
        assert render_xframe(xframe_of(connective("conjunction"))) == (
            "+---+\n"
            "|x x|\n"
            "+-x-+\n"
            "closed: tf,ft,ff"
        )

    def test_rendered_constant_false(self):
        assert render_xframe(xframe_of(connective("constant-false"))) == (
            "+-x-+\n"
            "|x x|\n"
            "+-x-+\n"
            "closed: tt,tf,ft,ff"
        )

    def test_rendered_constant_true(self):
        assert render_xframe(xframe_of(connective("constant-true"))) == (
            "+---+\n"
            "|   |\n"
            "+---+\n"
            "closed: none"
        )

    def test_rendered_nor_closes_all_but_bottom(self):
        assert render_xframe(xframe_of(connective("nor"))) == (
            "+-x-+\n"
            "|x x|\n"
            "+---+\n"
            "closed: tt,tf,ft"
        )


class TestEnumerationSpec:
    def test_defaults(self):
        spec = EnumerationSpec()
        assert spec.max_variables == 3
        assert spec.max_connective_slots == 3
        assert spec.shape_policy == "right-combs"
        assert spec.emit_limit is None

    def test_policies(self):
        assert SHAPE_POLICIES == ("right-combs", "all-trees")
        assert VARIABLE_POOL == ("p", "q", "r")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_variables": 0},
            {"max_variables": 4},
            {"max_connective_slots": -1},
            {"max_connective_slots": 6},
            {"shape_policy": "wide"},
            {"emit_limit": -1},
            {"emit_limit": 2.5},
            {"emit_limit": True},
            {"max_connective_slots": 1.0},
            {"max_variables": True},
            {"max_variables": "3"},
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(EnumerationBoundError):
            EnumerationSpec(**kwargs)


def run(**kwargs) -> "EnumerationResult":
    return enumerate_tautologies(EnumerationSpec(**kwargs))


def reference_vector_counts(policy, max_slots, leaf_masks, full):
    """The counts per slot count as a map from truth vector to fillings,
    folded one connective at a time through `apply_mask`."""
    maps = [dict.fromkeys(leaf_masks, 1)]
    for k in range(1, max_slots + 1):
        counts = {}
        for i in range(1) if policy == "right-combs" else range(k):
            for (a, m), (b, n) in product(maps[i].items(), maps[k - 1 - i].items()):
                for conn in CONNECTIVES:
                    v = apply_mask(conn, a, b, full)
                    counts[v] = counts.get(v, 0) + m * n
        maps.append(counts)
    return maps


class TestEnumeratorCounts:
    @pytest.mark.parametrize("policy", SHAPE_POLICIES)
    @pytest.mark.parametrize("variables", [1, 2, 3])
    def test_vector_counts_match_a_connective_by_connective_fold(self, variables, policy):
        masks, full = variable_masks(VARIABLE_POOL[:variables])
        slots = 5 if policy == "right-combs" else 4
        expected = reference_vector_counts(policy, slots, list(masks.values()), full)
        assert atlas._vector_counts(policy, slots, list(masks.values()), full) == [
            [counts.get(vector, 0) for vector in range(full + 1)] for counts in expected]

    def test_slot_zero_is_the_bare_variables(self):
        result = run(max_variables=2, max_connective_slots=0)
        assert [(s.slots, s.generated, s.tautologies) for s in result.per_slot] == [
            (0, 2, 0)
        ]

    def test_two_variables_one_slot(self):
        result = run(max_variables=2, max_connective_slots=1)
        assert [
            (s.slots, s.generated, s.tautologies, s.distinct)
            for s in result.per_slot
        ] == [(0, 2, 0, 0), (1, 64, 10, 10)]
        assert result.total_generated == 66
        assert result.total_tautologies == 10
        assert result.total_distinct == 10
        assert len(result.emitted) == 10

    def test_one_slot_counts_derived_from_the_catalog(self):
        """A single application over p,q is a tautology iff its vector is
        all-t (distinct leaves) or t at both repeated-input rows (same leaf)."""
        all_t = sum(
            1 for op in BOOL_OPS.values() if all(op(a, b) for a in (True, False) for b in (True, False))
        )
        diagonal_t = sum(
            1 for op in BOOL_OPS.values() if op(True, True) and op(False, False)
        )
        assert all_t == 1
        assert diagonal_t == 4
        result = run(max_variables=2, max_connective_slots=1)
        assert result.per_slot[1].tautologies == 2 * diagonal_t + 2 * all_t

    def test_three_variables_one_slot(self):
        result = run(max_variables=3, max_connective_slots=1)
        assert result.per_slot[1].generated == 16 * 9
        assert result.per_slot[1].tautologies == 3 * 4 + 6 * 1

    @pytest.mark.parametrize("policy", SHAPE_POLICIES)
    @pytest.mark.parametrize("variables", [1, 2, 3])
    def test_counts_and_tautologies_match_a_tree_by_tree_reference(
        self, variables, policy
    ):
        result = run(max_variables=variables, max_connective_slots=2,
                     shape_policy=policy)
        expected = reference_enumeration(variables, 2, policy)
        assert [(s.generated, s.tautologies) for s in result.per_slot] == [
            (generated, len(tautologies)) for generated, tautologies in expected
        ]
        for summary, (_, tautologies) in zip(result.per_slot, expected):
            assert {e.formula for e in result.emitted
                    if e.slots == summary.slots} == tautologies

    def test_all_trees_count_at_the_slot_bound(self):
        """k slots: Catalan(k) shapes, 16^k connective and 3^(k+1) leaf
        choices."""
        k = MAX_SLOTS
        result = run(max_variables=3, max_connective_slots=k,
                     shape_policy="all-trees", emit_limit=0)
        catalan = comb(2 * k, k) // (k + 1)
        assert result.per_slot[k].generated == catalan * 16**k * 3**(k + 1)
        assert result.per_slot[k].generated == 32_105_299_968
        assert result.emitted == ()

    def test_shape_policies_diverge_at_two_slots(self):
        combs = run(max_variables=1, max_connective_slots=3,
                    shape_policy="right-combs", emit_limit=0)
        trees = run(max_variables=1, max_connective_slots=3,
                    shape_policy="all-trees", emit_limit=0)
        assert [s.generated for s in combs.per_slot] == [1, 16, 256, 4096]
        assert [s.generated for s in trees.per_slot] == [1, 16, 512, 20480]


class TestEnumeratorOutput:
    def test_two_variable_one_slot_order(self):
        result = run(max_variables=2, max_connective_slots=1)
        signature = [
            (e.connectives[0].name, e.formula.left.name, e.formula.right.name)
            for e in result.emitted
        ]
        assert signature == [
            ("equivalence", "p", "p"),
            ("equivalence", "q", "q"),
            ("implication", "p", "p"),
            ("implication", "q", "q"),
            ("converse-implication", "p", "p"),
            ("converse-implication", "q", "q"),
            ("constant-true", "p", "p"),
            ("constant-true", "p", "q"),
            ("constant-true", "q", "p"),
            ("constant-true", "q", "q"),
        ]
        assert all(e.slots == 1 for e in result.emitted)

    def test_every_emission_is_a_tautology(self):
        result = run(max_variables=2, max_connective_slots=2)
        assert result.emitted
        for emission in result.emitted:
            assert classify(emission.formula).kind == "tautology"
            assert len(emission.connectives) == emission.slots

    @pytest.mark.parametrize("policy", SHAPE_POLICIES)
    def test_emit_limit_caps_output_not_counting(self, policy):
        full = run(max_variables=3, max_connective_slots=2, shape_policy=policy)
        assert full.per_slot[1].tautologies == 18
        total = len(full.emitted)
        # 18 and 19 stop on either side of the slot-1/slot-2 boundary.
        for limit in (0, 1, 17, 18, 19, total + 1):
            capped = run(max_variables=3, max_connective_slots=2,
                         shape_policy=policy, emit_limit=limit)
            assert capped.emitted == full.emitted[:limit]
            assert capped.per_slot == full.per_slot

    def test_count_only(self):
        counted = run(max_variables=2, max_connective_slots=2, emit_limit=0)
        full = run(max_variables=2, max_connective_slots=2)
        assert counted.emitted == ()
        assert counted.per_slot == full.per_slot

    def test_deterministic(self):
        first = run(max_variables=2, max_connective_slots=2, emit_limit=50)
        second = run(max_variables=2, max_connective_slots=2, emit_limit=50)
        assert first == second

    def test_each_filling_builds_a_distinct_tree(self):
        """Shape plus filling determines the tree, so per-slot raw tautology
        counts and structurally distinct counts coincide."""
        result = run(max_variables=2, max_connective_slots=2,
                     shape_policy="all-trees")
        for summary in result.per_slot:
            trees = {e.formula for e in result.emitted if e.slots == summary.slots}
            assert len(trees) == summary.distinct == summary.tautologies


class TestTautologyGroups:
    CONFIGS = [SyntaxConfig(n, e) for n in Notation for e in ("unicode", "ascii")]

    @pytest.mark.parametrize("variables, slots, policy", [
        (3, 3, "right-combs"), (3, 2, "all-trees"), (2, 3, "all-trees"),
    ])
    def test_a_group_renders_to_one_length(self, variables, slots, policy):
        """A group's formulas differ only in their one-letter leaves, and a
        k-slot one is at least its k + 1 leaves and k spaced symbols long.
        Up to two slots every group is rendered in every notation-encoding
        pair; at three, each group in one pair, the pairs in turn."""
        groups = tautology_groups(EnumerationSpec(variables, slots, policy))
        for i, (k, shape, conns, group) in enumerate(groups):
            for config in self.CONFIGS if k < 3 else self.CONFIGS[i % 8:i % 8 + 1]:
                lengths = {len(render(filled(shape, conns, leaves), config))
                           for leaves in group}
                assert len(lengths) == 1 and min(lengths) >= 4 * k + 1, (conns, config)

    @pytest.mark.parametrize("policy", SHAPE_POLICIES)
    def test_one_group_per_filled_shape_cut_at_the_limit(self, policy):
        full = list(tautology_groups(EnumerationSpec(3, 2, policy)))
        assert len({(shape, conns) for _, shape, conns, _ in full}) == len(full)
        assert all(group for *_, group in full)
        flat = [(shape, conns, leaves) for _, shape, conns, group in full
                for leaves in group]
        for limit in (1, 17, 18, 19, 500):
            groups = tautology_groups(EnumerationSpec(3, 2, policy, limit))
            assert [(shape, conns, leaves) for _, shape, conns, group in groups
                    for leaves in group] == flat[:limit]

    def test_a_zero_limit_scans_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("emission scanned")
        monkeypatch.setattr(atlas, "_shapes_for", refuse)
        assert list(tautology_groups(EnumerationSpec(3, 5, "all-trees", 0))) == []
        assert run(max_variables=3, max_connective_slots=5, emit_limit=0).emitted == ()
