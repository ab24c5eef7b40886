"""Tests of the benchmark itself: its inputs, references and arithmetic.

    python3 -m pytest perfbench/tests
    python3 -m unittest discover -s perfbench/tests -t .
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from itertools import product
from pathlib import Path

from perfbench import inputs as gen
from perfbench import metrics, reference as ref, stats
from perfbench.inputs import AND, BIN, CONST, EQUIV, IMPL, NOT, OR, VAR
from perfbench.spans import Tracer, covered, self_times
from perfbench.workloads import WORKLOADS, load_package

ROOT = Path(__file__).resolve().parents[2]

P, Q, R = (VAR, "p"), (VAR, "q"), (VAR, "r")


def snapshot(items) -> list:
    """Items as plain data.  Trees are left out, since the texts spell them
    and the deep ones are too deep to compare, and so are the cli items'
    checker closures."""
    return [(i.kind, {k: v for k, v in i.data.items() if k != "tree" and not callable(v)})
            for i in items]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_items(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                self.assertEqual(snapshot(workload.build(7)), snapshot(workload.build(7)))

    def test_seeds_differ(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                self.assertNotEqual(snapshot(workload.build(1)), snapshot(workload.build(2)))

    def test_corpus_shares(self):
        items = WORKLOADS["corpus"].build(3)
        kinds = [i.kind for i in items]
        self.assertEqual((len(items), kinds.count("malformed"), kinds.count("deep")),
                         (1000, 20, 10))

    def test_sized_formula_has_exact_size(self):
        rng = random.Random(5)
        for size in range(1, 40):
            tree = gen.sized_formula(rng, size, ("p", "q"), (IMPL, AND, OR))
            nodes, stack = 0, [tree]
            while stack:
                node = stack.pop()
                nodes += 1
                stack.extend(n for n in node[1:] if isinstance(n, tuple))
            self.assertEqual(nodes, size)

    def test_wide_formula_shape(self):
        names = gen.fresh_names(random.Random(2), 10)
        tree = gen.wide_formula(random.Random(3), names, 20, (AND, OR), 5)
        text = gen.write(tree, ("modern", "ascii"))
        self.assertEqual(sorted(gen.variables(tree)), sorted(names))
        self.assertEqual(text.count("!"), 5)
        self.assertEqual(text.count("&") + text.count("|"), 19)

    def test_writer_per_config(self):
        tree = (BIN, IMPL, (NOT, P), (BIN, AND, Q, (CONST, True)))
        want = {
            ("peirce", "unicode"): "p̄ ≺ (q · v)",
            ("peirce", "ascii"): "-p -< (q * v)",
            ("schroeder", "unicode"): "p′ ⋐ (q · 1)",
            ("schroeder", "ascii"): "p' =< (q * 1)",
            ("peano-russell", "unicode"): "∼p ⊃ (q · ⊤)",
            ("peano-russell", "ascii"): "~p > (q . T)",
            ("modern", "unicode"): "¬p → (q ∧ ⊤)",
            ("modern", "ascii"): "!p -> (q & T)",
        }
        self.assertEqual({c: gen.write(tree, c) for c in gen.CONFIGS}, want)

    def test_known_families(self):
        self.assertEqual(gen.write(gen.implication_comb(("a", "b", "c")), ("modern", "ascii")),
                         "(a -> b) -> c")
        self.assertEqual(gen.write(gen.xor_equivalence(("a", "b")), ("modern", "ascii")),
                         "(a <-> b) <-> (b <-> a)")

    def test_deep_texts_exceed_the_recursion_limit(self):
        for kind in gen.DEEP_KINDS:
            text, tree = gen.deep_nesting(kind, ("modern", "ascii"))
            self.assertGreater(len(text), sys.getrecursionlimit())


class ReferenceTest(unittest.TestCase):
    # Hand-written truth tables on (t,t), (t,f), (f,t), (f,f).
    TABLES = {
        IMPL: (True, False, True, True),
        AND: (True, False, False, False),
        OR: (True, True, True, False),
        EQUIV: (True, False, False, True),
    }

    def test_binary_connectives(self):
        for name, column in self.TABLES.items():
            fn = ref.bool_function((BIN, name, P, Q), ["p", "q"])
            self.assertEqual(tuple(fn(*row) for row in ref.rows(2)), column, name)

    def test_negation_and_constants(self):
        self.assertEqual([ref.bool_function((NOT, P), ["p"])(v) for v in (True, False)],
                         [False, True])
        self.assertIs(ref.bool_function((CONST, True), [])(), True)
        self.assertIs(ref.bool_function((NOT, (CONST, True)), [])(), False)

    def test_row_order(self):
        self.assertEqual(list(ref.rows(2)),
                         [(True, True), (True, False), (False, True), (False, False)])

    def test_classify_witnesses(self):
        # Peirce's law; p -> q (first falsifying row t,f); p & !p.
        law = (BIN, IMPL, (BIN, IMPL, (BIN, IMPL, P, Q), P), P)
        self.assertEqual(ref.classify(law, ["p", "q"]), ("tautology", None, (True, True)))
        self.assertEqual(ref.classify((BIN, IMPL, P, Q), ["p", "q"]),
                         ("contingent", (True, False), (True, True)))
        self.assertEqual(ref.classify((BIN, AND, P, (NOT, P)), ["p"]),
                         ("contradiction", (True,), None))

    def test_comb_witness_by_construction(self):
        names = ("a", "b", "c", "d")
        kind, falsifying, satisfying = ref.classify(gen.implication_comb(names), names)
        self.assertEqual((kind, falsifying, satisfying),
                         ("contingent", (True, True, True, False), (True,) * 4))

    def test_xor_equivalence_is_a_tautology(self):
        for n in range(2, 6):
            names = tuple(f"x{i}" for i in range(n))
            self.assertEqual(ref.classify(gen.xor_equivalence(names), names)[0], "tautology")

    def test_entails(self):
        names = ["p", "q", "r"]
        premises = [(BIN, IMPL, P, Q), (BIN, IMPL, Q, R)]
        self.assertIsNone(ref.entails(premises, (BIN, IMPL, P, R), names))
        self.assertEqual(ref.entails(premises, (BIN, IMPL, R, P), names), (False, True, True))

    def test_triadic_matrices(self):
        # The 1909 matrices, rows and columns V, L, F.
        oplus = ("VVV", "VLL", "VLF")
        zbar = ("VLF", "LLF", "FFF")
        for name, matrix in ((OR, oplus), (AND, zbar)):
            fn = ref.triadic_function((BIN, name, P, Q), ["p", "q"])
            got = ["".join(ref.TRIADIC_SYMBOL[fn(a, b)] for b in ref.TRIADIC)
                   for a in ref.TRIADIC]
            self.assertEqual(tuple(got), matrix, name)
        neg = ref.triadic_function((NOT, P), ["p"])
        self.assertEqual("".join(ref.TRIADIC_SYMBOL[neg(v)] for v in ref.TRIADIC), "FLV")

    def test_enumeration_counts(self):
        self.assertEqual(ref.right_comb_counts(2, 1), [(2, 0), (64, 10)])
        counts = ref.right_comb_counts(3, 3)
        self.assertEqual(counts[1], (16 * 9, 18))
        self.assertEqual([g for g, _ in counts], [3, 16 * 9, 16 ** 2 * 27, 16 ** 3 * 81])
        self.assertEqual(sum(n for _, n in counts), 50886)

    def test_enumeration_counts_by_brute_force(self):
        # Two variables, two slots: every right comb evaluated row by row.
        vectors = list(product((True, False), repeat=4))
        tautologies = 0
        for c1, c2 in product(vectors, repeat=2):
            for a, b, c in product((0, 1), repeat=3):
                def value(row, c1=c1, c2=c2, a=a, b=b, c=c):
                    inner = c2[2 * (not row[b]) + (not row[c])]
                    return c1[2 * (not row[a]) + (not inner)]
                tautologies += all(value(row) for row in product((True, False), repeat=2))
        self.assertEqual(ref.right_comb_counts(2, 2)[2], (16 ** 2 * 8, tautologies))


class ArithmeticTest(unittest.TestCase):
    def test_covered_union(self):
        self.assertEqual(covered([(1, 3), (2, 5), (7, 8)], 0, 10), 5)
        self.assertEqual(covered([(-1, 2), (9, 12)], 0, 10), 3)
        self.assertEqual(covered([], 0, 10), 0)

    def test_self_times(self):
        spans = [
            ["item", 0.0, 10.0, None, 0],
            ["notation.parse", 1.0, 3.0, 0, 0],
            ["notation.parse", 4.0, 5.0, 0, 0],
            ["bivalent.classify", 6.0, 9.5, 0, 0],
            ["item", 10.0, 12.0, None, 1],
            ["notation.parse", 10.5, 11.0, 4, 1],
        ]
        self.assertEqual(self_times(spans), {
            "item": (10 - 6.5) + (2 - 0.5),
            "notation.parse": 3.5,
            "bivalent.classify": 3.5,
        })

    def test_nested_self_time(self):
        # A grandchild is charged to its parent span, not to the item.
        spans = [["item", 0, 10, None, 0], ["a", 0, 6, 0, 0], ["b", 1, 3, 1, 0]]
        self.assertEqual(self_times(spans), {"item": 4, "a": 4, "b": 2})

    def test_tracer_records_parent_and_item(self):
        tracer = Tracer()
        tracer.begin(3)
        self.assertEqual(tracer.call("x", lambda a: a + 1, 1), 2)
        tracer.add("n", 2)
        tracer.end()
        (item, call) = tracer.spans
        self.assertEqual((item[0], item[3], item[4]), ("item", None, 3))
        self.assertEqual((call[0], call[3], call[4]), ("x", 0, 3))
        self.assertLessEqual(item[1], call[1])
        self.assertLessEqual(call[2], item[2])
        self.assertEqual(tracer.counts["n"], 2)

    def test_tail_percentile(self):
        self.assertEqual(stats.tail(list(range(1000)))[::2], (99.0, 10))
        self.assertEqual(stats.tail(list(range(81)))[::2], (75.0, 20))
        self.assertEqual(stats.tail(list(range(30))), (50.0, 14.5, 15))
        self.assertEqual(stats.tail(list(range(1, 101)))[:2], (90.0, 90))

    def test_quartiles_match_statistics(self):
        self.assertEqual(stats.quartiles([1, 2, 3, 4, 5]), (1.5, 3, 4.5))
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4, 5]), 1.0)

    def test_per_layer_metrics(self):
        spans = [["item", 0.0, 4.0, None, 0], ["notation.parse", 0.0, 2.0, 0, 0]]
        counts = {"notation.chars": 100, "indirect.note.branch-open": 4,
                  "indirect.note.branch-closed": 1}
        from collections import Counter
        m = metrics.per_layer(spans, Counter(counts), 2, 5.0, {})
        self.assertEqual(m["notation.parse_s"], 1.0)
        self.assertEqual(m["notation.parse_calls"], 0.5)
        self.assertEqual(m["notation.chars_per_s"], 50.0)
        self.assertEqual(m["indirect.closed_ratio"], 0.25)
        self.assertEqual(m["bench.glue_s"], 1.0)
        self.assertEqual(m["atlas.hit_ratio"], 0.0)
        self.assertEqual(list(m), list(metrics.PER_LAYER))


class MeasurementTest(unittest.TestCase):
    def test_scaled_latencies_and_per_item_medians(self):
        from perfbench import host
        from perfbench.run import Measurement
        clock = host.Clock()
        # Segment 0 at nominal speed, segment 1 at a third of it on average.
        clock.samples = [host.NOMINAL_S, host.NOMINAL_S, 3 * host.NOMINAL_S]
        m = Measurement(None)
        m.timed = [(1.0, 0), (3.0, 0), (1.0, 1), (2.0, 1), (8.0, 1), (5.0, 1)]
        m.finish(clock)
        self.assertEqual(m.busy, 20.0)
        self.assertEqual(m.latencies, [1.0, 3.0, 0.5, 1.0, 4.0, 2.5])
        self.assertEqual(m.per_item(2), [1.0, 2.5])

    def test_clock_samples_after_enough_item_time(self):
        from perfbench import host
        clock = host.Clock()
        self.assertEqual(clock.segment, 0)
        clock.tick(host.EVERY_S / 2)
        self.assertEqual(clock.segment, 0)
        clock.tick(host.EVERY_S / 2)
        self.assertEqual(clock.segment, 1)
        clock.close()
        self.assertEqual(len(clock.samples), 3)
        self.assertGreater(min(clock.samples), 0.0)

    def test_setup_samples_spread_over_the_run(self):
        from perfbench.run import SetupSamples
        setup = SetupSamples(WORKLOADS["wide"], 4, 8.0)
        setup.take = lambda: setup.samples.append(0.5 + len(setup.samples))
        setup.due(0.0)
        self.assertEqual(len(setup.samples), 1)
        setup.due(1.9)
        self.assertEqual(len(setup.samples), 1)
        setup.due(4.0)
        self.assertEqual(len(setup.samples), 3)
        self.assertEqual(setup.finish(), 2.0)
        self.assertEqual(setup.samples, [0.5, 1.5, 2.5, 3.5])

    def test_modes_alternate_per_item_and_turn_each_pass(self):
        from perfbench.run import Measurement, measure
        from perfbench.spans import NullTracer

        calls = []

        class Fake:
            name, in_process = "fake", True

            def run(self, item, pkg, t):
                calls.append((item, t.enabled))

            def score(self, item, out):
                return "same"

        plain, traced = Measurement(NullTracer()), Measurement(Tracer())
        measure(Fake(), ["a", "b"], None, [plain, traced], 0.0)
        self.assertEqual(calls, [("a", False), ("a", True), ("b", False), ("b", True)])
        self.assertEqual((plain.passes, traced.passes), (1, 1))
        calls.clear()
        measure(Fake(), ["a"], None, [plain, traced], 0.0)
        self.assertEqual(calls, [("a", True), ("a", False)])


class BenchmarkFileTest(unittest.TestCase):
    def test_matches_the_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class ScoringTest(unittest.TestCase):
    """The scorers accept the package's answers on a slice of corpus."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(ROOT / "src"))
        cls.pkg = load_package()

    def test_corpus_slice_scores_clean(self):
        from perfbench.spans import NullTracer
        workload = WORKLOADS["corpus"]
        items = [i for i in workload.build(11) if i.kind != "deep"][:120]
        for item in items:
            workload.score(item, workload.run(item, self.pkg, NullTracer()))

    def test_wrong_answer_is_caught(self):
        from perfbench.spans import NullTracer
        from perfbench.workloads import Problem
        workload = WORKLOADS["corpus"]
        item = next(i for i in workload.build(11) if i.kind == "formula")
        formula, renders, verdict, result = workload.run(item, self.pkg, NullTracer())
        flipped = type(verdict)("tautology" if verdict.kind != "tautology" else "contingent",
                                verdict.falsifying, verdict.satisfying)
        with self.assertRaises(Problem):
            workload.score(item, (formula, renders, flipped, result))


if __name__ == "__main__":
    unittest.main()
