"""The four workloads: what each item does, and how its output is scored.

Every workload is a closed loop: one caller, in one process, with no
threads, issues the next item only when the last one has returned.  Items are
built from the seed before timing starts, and the package receives only the
generated texts and argument vectors.  Scoring runs between items, outside
the timed region, against `reference.py` and answers known by construction.

An item's outcome is one of:

* ok;
* "wrong": an answer that disagrees with the reference;
* "exit": a CLI exit code, or a traceback, that the README contract forbids;
* "exception": an exception the README contract does not allow;
* "nondeterministic": a repeat of the item produced different output.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

from . import inputs as gen
from . import reference as ref
from .inputs import AND, BIN, CONFIGS, EQUIV, IMPL, NOT, OR, VAR

MODERN_ASCII = ("modern", "ascii")
NOTES = ("root-assumption", "forced", "branch-open", "branch-closed")


@dataclass
class Item:
    kind: str
    data: dict[str, Any]
    # Reference answer, filled the first time the item is scored.
    expect: Any = field(default=None, repr=False)


class Problem(Exception):
    """Raised by a scorer: the item's output breaks the contract."""

    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def wrong(condition: bool, message: str) -> None:
    if not condition:
        raise Problem("wrong", message)


def fingerprint(*parts: Any) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def load_package() -> SimpleNamespace:
    """Import the package's public functions, as a library caller would."""
    from illation.atlas import EnumerationSpec, enumerate_tautologies
    from illation.bivalent import classify, entails, format_truth_table, truth_table
    from illation.core import TriadicValue
    from illation.indirect import indirect_check, render_trace
    from illation.notation import Notation, ParseError, SyntaxConfig, parse, render
    from illation.trivalent import is_tautology3, truth_table3

    configs = {c: SyntaxConfig(Notation(c[0]), c[1]) for c in CONFIGS}
    return SimpleNamespace(
        EnumerationSpec=EnumerationSpec, enumerate_tautologies=enumerate_tautologies,
        classify=classify, entails=entails, truth_table=truth_table,
        format_truth_table=format_truth_table, indirect_check=indirect_check,
        render_trace=render_trace, ParseError=ParseError, parse=parse,
        render=render, is_tautology3=is_tautology3, truth_table3=truth_table3,
        configs=configs,
        designated3=frozenset({TriadicValue.V, TriadicValue.L}),
    )


def verdict_rows(verdict, names) -> tuple:
    return (verdict.kind, ref.assignment_row(verdict.falsifying, names),
            ref.assignment_row(verdict.satisfying, names))


def count_rows(t, verdict) -> None:
    """2**n rows for a classify call, n read off its witnesses."""
    witness = verdict.falsifying if verdict.falsifying is not None else verdict.satisfying
    t.add("bivalent.rows", 2 ** len(witness))


def count_trace(t, trace) -> None:
    steps = len(trace.steps)
    t.add("indirect.steps", steps)
    t.add("indirect.trace_cells", steps * len(trace.columns))
    for step in trace.steps:
        t.add("indirect.note." + step.note)


def check_countermodel(tree, names, countermodel, unconstrained) -> None:
    """Completing the unconstrained variables either way must falsify."""
    fn = ref.bool_function(tree, names)
    for fill in (True, False):
        env = {name: fill for name in unconstrained}
        env.update({k: getattr(v, "value", v) == "t" for k, v in countermodel.items()})
        wrong(set(env) == set(names), f"countermodel covers {sorted(env)}, not {names}")
        wrong(not fn(*(env[n] for n in names)), f"countermodel {env} does not falsify")


def check_table_text(text: str, names, header: str, values) -> None:
    """A format_truth_table text: header line, then one row per assignment in
    t-first order, cells then ' | ' then the value."""
    lines = text.split("\n")
    wrong(len(lines) == len(values) + 1, f"{len(lines) - 1} table rows, want {len(values)}")
    head_cells = " ".join(n.ljust(max(len(n), 1)) for n in names)
    wrong(lines[0] == (head_cells + " | " + header).rstrip(), "table header differs")
    sym = {True: "t", False: "f"}
    for line, row, value in zip(lines[1:], ref.rows(len(names)), values):
        cells, _, out = line.rpartition(" | ")
        wrong(cells.split() == [sym[v] for v in row] and out == sym[value],
              f"table row {line!r} differs from {row} -> {value}")


def check_trace_text(text: str, steps: int, columns: int) -> None:
    """A render_trace text of a refutation: every step keeps the root f."""
    lines = text.split("\n")
    wrong(len(lines) == steps + 1, f"{len(lines) - 1} trace lines, want {steps}")
    wrong(lines[0].endswith("  | note"), "trace header lacks the note column")
    for i, line in enumerate(lines[1:]):
        cells, _, note = line.rpartition("  | ")
        cells = cells.split()
        wrong(note in NOTES and len(cells) == columns and cells[-1] == "f",
              f"trace line {i + 1} malformed: {line[:80]!r}")
        if i == 0:
            wrong(note == "root-assumption" and set(cells[:-1]) <= {"-"},
                  "first trace step is not the root assumption")


class Workload:
    name = ""
    #: False when each item is its own process, so the package is never
    #: imported into the benchmark's process.
    in_process = True

    def build(self, seed: int) -> list[Item]:
        raise NotImplementedError

    def warm_items(self) -> list[Item]:
        """Tiny items, one per kind, run once before timing starts."""
        raise NotImplementedError

    def run(self, item: Item, pkg, t) -> Any:
        raise NotImplementedError

    def score(self, item: Item, out: Any) -> str:
        """Raise Problem on a bad output; return the output's fingerprint."""
        raise NotImplementedError

    def layer_extras(self) -> dict[str, float]:
        return {}


# ---------------------------------------------------------------------------

class Corpus(Workload):
    """Why: parsing and rendering do most of the work and evaluation little,
    so a parser or renderer change shows here and an evaluator change should
    barely move it.  A fixed share of hostile texts holds the parser to the
    README contract."""

    name = "corpus"

    ITEMS = 1000
    MALFORMED = 20
    # The deep texts are the same for every seed.  The prefix forms recurse
    # in the parser; the postfix schroeder negations are read in a loop.
    DEEP_TEXTS = (
        ("brackets", ("peirce", "unicode")), ("brackets", ("modern", "ascii")),
        ("brackets", ("schroeder", "ascii")),
        ("negations", ("peirce", "ascii")), ("negations", ("peano-russell", "unicode")),
        ("negations", ("modern", "unicode")), ("negations", ("schroeder", "unicode")),
        ("implications", ("peano-russell", "ascii")), ("implications", ("schroeder", "ascii")),
        ("implications", ("modern", "unicode")),
    )
    NAMES = ("p", "q", "r")
    # Node counts of the formulas: every size from 12 to 60 in turn, so the
    # work per pass is the same for every seed and only shapes, connectives
    # and leaves vary.  Portable connectives only, as equivalence would be
    # expanded, doubling its operands, in peirce and schroeder.
    SIZES = tuple(range(12, 61))
    CONNECTIVES = (IMPL, AND, OR)

    def build(self, seed: int) -> list[Item]:
        rng = random.Random(seed)
        kinds = (["formula"] * (self.ITEMS - self.MALFORMED - len(self.DEEP_TEXTS))
                 + ["malformed"] * self.MALFORMED + ["deep"] * len(self.DEEP_TEXTS))
        rng.shuffle(kinds)
        sizes = itertools.cycle(self.SIZES)
        deep = iter(self.DEEP_TEXTS)
        items = []
        for i, kind in enumerate(kinds):
            config = CONFIGS[i % len(CONFIGS)]
            if kind == "formula":
                tree = gen.sized_formula(rng, next(sizes), self.NAMES, self.CONNECTIVES)
                items.append(Item(kind, dict(config=config, tree=tree,
                                             text=gen.write(tree, config, rng))))
            elif kind == "malformed":
                tree = gen.sized_formula(rng, 9, self.NAMES, self.CONNECTIVES)
                text, position = gen.malformed(rng, tree, config)
                items.append(Item(kind, dict(config=config, text=text, position=position)))
            else:
                deep_kind, config = next(deep)
                text, tree = gen.deep_nesting(deep_kind, config)
                items.append(Item(kind, dict(config=config, text=text, tree=tree)))
        return items

    def warm_items(self) -> list[Item]:
        tree = (BIN, IMPL, (VAR, "p"), (VAR, "p"))
        return [Item("formula", dict(config=MODERN_ASCII, tree=tree,
                                     text=gen.write(tree, MODERN_ASCII)))]

    def run(self, item: Item, pkg, t) -> Any:
        d = item.data
        text = d["text"]
        if item.kind != "formula":
            if t.enabled:
                t.add("notation.chars", len(text))
            try:
                return t.call("notation.parse", pkg.parse, text, pkg.configs[d["config"]])
            except pkg.ParseError as exc:
                if t.enabled:
                    t.add("notation.parse_errors")
                return exc
        formula = t.call("notation.parse", pkg.parse, text, pkg.configs[d["config"]])
        renders = []
        for config in CONFIGS:
            syntax = pkg.configs[config]
            shown = t.call("notation.render", pkg.render, formula, syntax)
            renders.append((shown, t.call("notation.parse", pkg.parse, shown, syntax)))
        verdict = t.call("bivalent.classify", pkg.classify, formula)
        result = t.call("indirect.check", pkg.indirect_check, formula)
        if t.enabled:
            t.add("notation.chars", len(text) + sum(len(s) for s, _ in renders))
            count_rows(t, verdict)
            count_trace(t, result.trace)
        return formula, renders, verdict, result

    def score(self, item: Item, out: Any) -> str:
        d = item.data
        if item.kind == "malformed":
            diagnostic = getattr(out, "diagnostic", None)
            wrong(diagnostic is not None, f"malformed text parsed: {d['text']!r}")
            wrong(diagnostic.position == d["position"],
                  f"error at {diagnostic.position}, fault at {d['position']}: {d['text']!r}")
            return fingerprint(str(out))
        if item.kind == "deep":
            if getattr(out, "diagnostic", None) is not None:
                return fingerprint(str(out))
            wrong(ref.same_tree(out, d["tree"]), "deep text parsed to another tree")
            return fingerprint("parsed")

        formula, renders, verdict, result = out
        tree = d["tree"]
        names = gen.variables(tree)
        wrong(ref.same_tree(formula, tree), f"parse differs: {d['text']!r}")
        for config, (shown, back) in zip(CONFIGS, renders):
            wrong(ref.same_tree(back, tree), f"{config} round trip differs: {shown!r}")
        if item.expect is None:
            item.expect = ref.classify(tree, names)
        got = verdict_rows(verdict, names)
        wrong(got == item.expect, f"classify {got} != {item.expect}: {d['text']!r}")
        tautology = item.expect[0] == "tautology"
        wrong((result.outcome == "tautology") == tautology,
              f"indirect says {result.outcome}, classify {item.expect[0]}")
        if not tautology:
            check_countermodel(tree, names, result.countermodel, result.unconstrained)
        countermodel = sorted((k, v.value) for k, v in (result.countermodel or {}).items())
        return fingerprint([s for s, _ in renders], got, result.outcome, countermodel,
                           result.unconstrained, len(result.trace.steps))


# ---------------------------------------------------------------------------

class Wide(Workload):
    """Why: exhaustive evaluation in bivalent, atlas, trivalent and indirect
    does nearly all the work, and notation only parses the inputs; this is
    where a faster truth-function kernel or prover must show.  Verdicts only.

    Item order is fixed.  The seed picks the variable names; the random
    formulas' shapes and connectives come from a stream of their own,
    seeded by the workload's name, because the evaluators short-circuit and
    so cost more or less with the shape: with shapes from the seed, one
    `tables` item near the median latency took 92 ms for some seeds and
    100 ms for others.  The order matters for peak_rss_mb: the enumerator's
    freed heap is reused by whatever runs next."""

    name = "wide"

    def build(self, seed: int) -> list[Item]:
        rng, shapes = random.Random(seed), random.Random(self.name)
        items = []
        for n in (12, 14):
            names = gen.fresh_names(rng, n)
            items.append(Item("classify", dict(
                text=gen.write(gen.implication_comb(names), MODERN_ASCII), names=names,
                expect=("contingent", (True,) * (n - 1) + (False,), (True,) * n))))
        names = gen.fresh_names(rng, 12)
        tree = gen.wide_formula(shapes, names, 24, (IMPL, AND, OR, EQUIV), 10)
        items.append(Item("classify", dict(text=gen.write(tree, MODERN_ASCII),
                                           names=gen.variables(tree), tree=tree)))
        names = gen.fresh_names(rng, 14)
        premises = [gen.write(p, MODERN_ASCII) for p in gen.implication_chain_premises(names)]
        first, last = (VAR, names[0]), (VAR, names[-1])
        items.append(Item("entails", dict(
            premises=premises, conclusion=gen.write((BIN, IMPL, first, last), MODERN_ASCII),
            names=names, expect=None)))
        items.append(Item("entails", dict(
            premises=premises, conclusion=gen.write((BIN, IMPL, last, first), MODERN_ASCII),
            names=names, expect=(False,) + (True,) * (len(names) - 1))))
        for n in (9, 10):
            names = gen.fresh_names(rng, n)
            items.append(Item("indirect", dict(
                text=gen.write(gen.xor_equivalence(names), MODERN_ASCII))))
        items.append(Item("enumerate", dict(variables=3, slots=3)))
        for n in (8, 8):
            names = gen.fresh_names(rng, n)
            body = gen.wide_formula(shapes, names, 2 * n, (AND, OR), n // 2)
            middle = (BIN, OR, (VAR, names[0]), (NOT, (VAR, names[0])))
            items.append(Item("tautology3", dict(
                text=gen.write((BIN, OR, body, middle), MODERN_ASCII))))
        return items

    def warm_items(self) -> list[Item]:
        names = ("a", "b")
        return [
            Item("classify", dict(text="a -> b", names=names,
                                  expect=("contingent", (True, False), (True, True)))),
            Item("entails", dict(premises=["a -> b", "a"], conclusion="b", names=names,
                                 expect=None)),
            Item("indirect", dict(text=gen.write(gen.xor_equivalence(names), MODERN_ASCII))),
            Item("enumerate", dict(variables=1, slots=1)),
            Item("tautology3", dict(text="a | !a")),
        ]

    def run(self, item: Item, pkg, t) -> Any:
        d = item.data
        syntax = pkg.configs[MODERN_ASCII]
        if item.kind == "enumerate":
            spec = pkg.EnumerationSpec(d["variables"], d["slots"], "right-combs", 0)
            result = t.call("atlas.enumerate", pkg.enumerate_tautologies, spec)
            if t.enabled:
                t.add("atlas.generated", result.total_generated)
                t.add("atlas.tautologies", result.total_tautologies)
            return [(s.slots, s.generated, s.tautologies, s.distinct) for s in result.per_slot]
        if item.kind == "entails":
            premises = [t.call("notation.parse", pkg.parse, p, syntax) for p in d["premises"]]
            conclusion = t.call("notation.parse", pkg.parse, d["conclusion"], syntax)
            result = t.call("bivalent.entails", pkg.entails, premises, conclusion)
            if t.enabled:
                t.add("notation.chars", sum(map(len, d["premises"])) + len(d["conclusion"]))
                t.add("bivalent.rows", 2 ** len(d["names"]))
            return result.valid, ref.assignment_row(result.counterexample, d["names"])
        if t.enabled:
            t.add("notation.chars", len(d["text"]))
        formula = t.call("notation.parse", pkg.parse, d["text"], syntax)
        if item.kind == "classify":
            verdict = t.call("bivalent.classify", pkg.classify, formula)
            if t.enabled:
                count_rows(t, verdict)
            return verdict_rows(verdict, d["names"])
        if item.kind == "indirect":
            result = t.call("indirect.check", pkg.indirect_check, formula)
            if t.enabled:
                count_trace(t, result.trace)
            return result.outcome, result.countermodel
        return t.call("trivalent.tautology3", pkg.is_tautology3, formula, pkg.designated3)

    def score(self, item: Item, out: Any) -> str:
        d = item.data
        if item.kind == "classify":
            if item.expect is None:
                item.expect = d.get("expect") or ref.classify(d["tree"], d["names"])
            wrong(out == item.expect, f"classify {out} != {item.expect}")
        elif item.kind == "entails":
            want = (d["expect"] is None, d["expect"])
            wrong(out == want, f"entails {out} != {want}")
        elif item.kind == "indirect":
            wrong(out == ("tautology", None), f"indirect {out[0]} on a tautology")
        elif item.kind == "enumerate":
            if item.expect is None:
                item.expect = [(k, g, n, n) for k, (g, n) in
                               enumerate(ref.right_comb_counts(d["variables"], d["slots"]))]
            wrong(out == item.expect, f"enumeration counts {out} != {item.expect}")
        else:
            wrong(out is True, "a {V, L}-designated tautology by construction was refused")
        return fingerprint(out)


# ---------------------------------------------------------------------------

class Tables(Workload):
    """Why: the same layers as wide, materialising rows and trace text
    instead of a verdict; a change that speeds verdicts but makes rows or
    trace snapshots costlier shows here and in peak_rss_mb.  Item order and
    formula shapes are fixed, and the seed picks names, as in wide."""

    name = "tables"

    def build(self, seed: int) -> list[Item]:
        rng, shapes = random.Random(seed), random.Random(self.name)
        items = []
        for n in (10, 11, 12):
            names = gen.fresh_names(rng, n)
            tree = gen.wide_formula(shapes, names, 2 * n, (IMPL, AND, OR, EQUIV), n // 2)
            items.append(Item("table", dict(text=gen.write(tree, MODERN_ASCII), tree=tree)))
        for n in (7, 8):
            names = gen.fresh_names(rng, n)
            tree = gen.wide_formula(shapes, names, 2 * n, (AND, OR), n // 2)
            items.append(Item("table3", dict(text=gen.write(tree, MODERN_ASCII), tree=tree)))
        for n in (6, 7, 8, 9):
            names = gen.fresh_names(rng, n)
            items.append(Item("trace", dict(
                text=gen.write(gen.xor_equivalence(names), MODERN_ASCII), columns=3 * n - 1)))
        return items

    def warm_items(self) -> list[Item]:
        tree = (BIN, IMPL, (VAR, "a"), (VAR, "b"))
        xor = gen.xor_equivalence(("a", "b"))
        return [
            Item("table", dict(text="a -> b", tree=tree)),
            Item("table3", dict(text="a | !a", tree=(BIN, OR, (VAR, "a"), (NOT, (VAR, "a"))))),
            Item("trace", dict(text=gen.write(xor, MODERN_ASCII), columns=5)),
        ]

    def run(self, item: Item, pkg, t) -> Any:
        d = item.data
        syntax = pkg.configs[MODERN_ASCII]
        if t.enabled:
            t.add("notation.chars", len(d["text"]))
        formula = t.call("notation.parse", pkg.parse, d["text"], syntax)
        if item.kind == "table":
            table = t.call("bivalent.truth_table", pkg.truth_table, formula)
            header = t.call("notation.render", pkg.render, formula, syntax)
            text = t.call("bivalent.format_table", pkg.format_truth_table, table, header)
            if t.enabled:
                t.add("bivalent.rows", len(table.rows))
            return header, text
        if item.kind == "table3":
            table = t.call("trivalent.table3", pkg.truth_table3, formula)
            if t.enabled:
                t.add("trivalent.rows3", len(table.rows))
            return table
        result = t.call("indirect.check", pkg.indirect_check, formula)
        text = t.call("indirect.render_trace", pkg.render_trace, result.trace, syntax)
        if t.enabled:
            count_trace(t, result.trace)
        return result.outcome, len(result.trace.steps), text

    def score(self, item: Item, out: Any) -> str:
        d = item.data
        if item.kind == "table":
            header, text = out
            tree = d["tree"]
            names = gen.variables(tree)
            wrong(header == gen.write(tree, MODERN_ASCII), f"rendering {header!r} differs")
            if item.expect is None:
                fn = ref.bool_function(tree, names)
                item.expect = [fn(*row) for row in ref.rows(len(names))]
            check_table_text(text, names, header, item.expect)
            return fingerprint(text.encode())
        if item.kind == "table3":
            tree = d["tree"]
            names = gen.variables(tree)
            wrong(list(out.variables) == names, f"triadic columns {out.variables} != {names}")
            if item.expect is None:
                fn = ref.triadic_function(tree, names)
                item.expect = [(tuple(ref.TRIADIC_SYMBOL[v] for v in row),
                                ref.TRIADIC_SYMBOL[fn(*row)])
                               for row in ref.triadic_rows(len(names))]
            got = [(tuple(a[n].value for n in names), v.value) for a, v in out.rows]
            wrong(got == item.expect, "triadic table differs from the max/min reference")
            return fingerprint(got)
        outcome, steps, text = out
        wrong(outcome == "tautology", f"indirect {outcome} on a tautology")
        check_trace_text(text, steps, d["columns"])
        return fingerprint(text.encode())


# ---------------------------------------------------------------------------

def _var(name: str) -> tuple:
    return (VAR, name)


def _op(connective: str, left: tuple, right: tuple) -> tuple:
    return (BIN, connective, left, right)


def _symbols(row, names) -> str:
    return ", ".join(f"{n}={'t' if v else 'f'}" for n, v in zip(names, row))


def _json_row(row, names) -> dict | None:
    return None if row is None else {n: "t" if v else "f" for n, v in zip(names, row)}


def _literal(expected: str) -> Callable[[str], None]:
    def check(out: str) -> None:
        wrong(out == expected, f"stdout {out[:120]!r} != {expected[:120]!r}")
    return check


README_INDIRECT = """outcome: tautology

a  b  a -< b  (a -< b) -< a  ((a -< b) -< a) -< a  | note
-  -  -       -              f                     | root-assumption
f  -  -       v              f                     | forced
f  -  -       v              f                     | branch-closed
f  -  f       v              f                     | branch-open
f  -  f       v              f                     | branch-closed
"""

README_RESTRICTION = """negation restricted to {V,F}: matches the two-valued negation
disjunction restricted to {V,F}: matches the two-valued disjunction
conjunction restricted to {V,F}: matches the two-valued conjunction
no mismatches
"""


def cli_mix() -> list[tuple[list[str], int, Callable[[str], None] | None, str]]:
    """(argv, exit code, stdout check, stderr prefix) for every CLI item."""
    mix: list = []

    def add(argv, check, code=0, stderr=""):
        mix.append((argv, code, check, stderr))

    # The README tour, literally (ascii pinned where the tour shows ascii).
    add(["parse", "--notation", "peirce", "--encoding", "ascii", "x -< y -< z"],
        _literal("x -< (y -< z)\n"))
    add(["translate", "--from", "peano-russell", "--to", "peirce", "--encoding", "ascii",
         "(x > y) . (y > z) > (x > z)"], _literal("((x -< y) * (y -< z)) -< (x -< z)\n"))
    add(["matrix", "implication"], _literal("  | t f\nt | t f\nf | t t\n"))
    add(["table", "--notation", "peirce", "--encoding", "ascii", "--row-order", "f-first",
         "x -< y"], _literal("x y | x -< y\nf f | v\nf v | v\nv f | f\nv v | v\n"))
    add(["check", "((a -> b) -> a) -> a"], _literal("tautology\n"))
    add(["entails", "-p", "a -> b", "-p", "a", "b"], _literal("valid\n"))
    add(["indirect", "--notation", "peirce", "--encoding", "ascii", "((a -< b) -< a) -< a"],
        _literal(README_INDIRECT))
    add(["connectives", "xframe", "implication"], _literal("+---+\n|  x|\n+---+\nclosed: tf\n"))
    add(["triadic", "eval", "--assign", "x=L", "x | !x"], _literal("L\n"))
    add(["triadic", "check-restriction"], _literal(README_RESTRICTION))
    counts = ref.right_comb_counts(2, 1)
    add(["connectives", "enumerate", "--vars", "2", "--slots", "1", "--count-only"],
        _literal("".join(f"slots={k}: generated={g} tautologies={n} distinct={n}\n"
                         for k, (g, n) in enumerate(counts))
                 + "total: generated=66 tautologies=10 distinct=10\n"))

    p, q, r, a, b, c, d = map(_var, "pqrabcd")

    # check, text and json, against the reference classifier.
    for tree, argv, code in (
            (_op(IMPL, a, b), ["--status"], 1),
            (_op(AND, p, (NOT, p)), [], 0),
            (_op(IMPL, _op(AND, _op(IMPL, p, q), _op(IMPL, q, r)), _op(IMPL, p, r)),
             ["--format", "json"], 0)):
        text = gen.write(tree, MODERN_ASCII)
        names = gen.variables(tree)
        kind, fals, sat = ref.classify(tree, names)
        if "json" in argv:
            check = _json_equal({"schema": 1, "command": "check", "rendering": text,
                                 "verdict": kind, "falsifying": _json_row(fals, names),
                                 "satisfying": _json_row(sat, names)})
        else:
            want = kind + "\n"
            if kind != "tautology":
                want += "falsifying: " + _symbols(fals, names) + "\n"
            if kind == "contingent":
                want += "satisfying: " + _symbols(sat, names) + "\n"
            check = _literal(want)
        add(["check", "--encoding", "ascii", *argv, text], check, code=code)

    # table, text and json.
    for tree, fmt in ((_op(IMPL, _op(OR, p, (NOT, q)), r), "text"),
                      (_op(IMPL, _op(OR, a, (NOT, b)), _op(EQUIV, c, d)), "json")):
        text = gen.write(tree, MODERN_ASCII)
        names = gen.variables(tree)
        fn = ref.bool_function(tree, names)
        values = [fn(*row) for row in ref.rows(len(names))]
        if fmt == "text":
            add(["table", "--encoding", "ascii", text], _table_check(names, text, values))
        else:
            want_doc = {"schema": 1, "command": "table", "rendering": text,
                        "variables": names, "row_order": "t-first",
                        "rows": [{"assignment": _json_row(row, names), "value": "t" if v else "f"}
                                 for row, v in zip(ref.rows(len(names)), values)]}
            add(["table", "--encoding", "ascii", "--format", "json", text], _json_equal(want_doc))

    # indirect: a falsifiable comb as text, a tautology as json.
    comb = gen.implication_comb(("a", "b", "c", "d"))
    add(["indirect", "--encoding", "ascii", gen.write(comb, MODERN_ASCII)],
        _indirect_text_check(comb))
    xor = gen.write(gen.xor_equivalence(("a", "b", "c")), MODERN_ASCII)
    add(["indirect", "--encoding", "ascii", "--format", "json", xor], _indirect_json_check(8))

    # translate, text and json.
    tree = _op(IMPL, _op(AND, p, q), (NOT, r))
    add(["translate", "--from", "modern", "--to", "schroeder", "--encoding", "unicode",
         gen.write(tree, MODERN_ASCII)], _literal(gen.write(tree, ("schroeder", "unicode")) + "\n"))
    tree = _op(IMPL, _var("x"), _op(IMPL, _var("y"), (NOT, _var("z"))))
    source = gen.write(tree, ("peirce", "ascii"))
    want_doc = {"schema": 1, "command": "translate", "from": "peirce", "to": "modern",
                "encoding": "ascii", "input": source, "output": gen.write(tree, MODERN_ASCII)}
    add(["translate", "--from", "peirce", "--to", "modern", "--encoding", "ascii",
         "--format", "json", source], _json_equal(want_doc))

    # entails, text and json, on an invalid argument.
    premises, conclusion = [_op(IMPL, p, q), _op(IMPL, q, r)], _op(IMPL, r, p)
    names = ["p", "q", "r"]
    row = ref.entails(premises, conclusion, names)
    argv = ["entails", "--encoding", "ascii"]
    for premise in premises:
        argv += ["-p", gen.write(premise, MODERN_ASCII)]
    argv.append(gen.write(conclusion, MODERN_ASCII))
    add(argv, _literal("invalid\ncounterexample: " + _symbols(row, names) + "\n"))
    add(argv + ["--format", "json"], _json_equal(
        {"schema": 1, "command": "entails", "valid": False,
         "counterexample": _json_row(row, names)}))

    # enumerate --count-only, text and json.
    counts = ref.right_comb_counts(3, 2)
    lines = [f"slots={k}: generated={g} tautologies={n} distinct={n}"
             for k, (g, n) in enumerate(counts)]
    total_g, total_n = sum(g for g, _ in counts), sum(n for _, n in counts)
    lines.append(f"total: generated={total_g} tautologies={total_n} distinct={total_n}")
    add(["connectives", "enumerate", "--vars", "3", "--slots", "2", "--count-only"],
        _literal("\n".join(lines) + "\n"))
    counts = ref.right_comb_counts(2, 2)
    add(["connectives", "enumerate", "--vars", "2", "--slots", "2", "--count-only",
         "--format", "json"], _json_equal({
             "schema": 1, "command": "connectives enumerate", "max_variables": 2,
             "max_connective_slots": 2, "shape_policy": "right-combs", "emitted": [],
             "per_slot": [{"slots": k, "generated": g, "tautologies": n, "distinct": n}
                          for k, (g, n) in enumerate(counts)],
             "total_generated": sum(g for g, _ in counts),
             "total_tautologies": sum(n for _, n in counts),
             "total_distinct": sum(n for _, n in counts)}))

    # The exit-code contract: 2 parse error, 3 undefined triadic operation,
    # 4 a size limit, each reported on stderr.
    add(["check", "--encoding", "ascii", "a -> (b"], _literal(""), code=2,
        stderr="parse error at position 7")
    add(["triadic", "eval", "--assign", "x=V", "x -> x"], _literal(""), code=3,
        stderr="error: no triadic matrix")
    add(["table", "--encoding", "ascii", " & ".join(f"a{i}" for i in range(21))],
        _literal(""), code=4, stderr="error: 21 variables exceed the limit of 20")
    return mix


def _json_equal(want: dict) -> Callable[[str], None]:
    def check(out: str) -> None:
        try:
            doc = json.loads(out)
        except ValueError:
            raise Problem("wrong", f"stdout is not JSON: {out[:80]!r}") from None
        wrong(doc == want, f"JSON {out[:160]!r} != {json.dumps(want)[:160]!r}")
    return check


def _table_check(names, header, values) -> Callable[[str], None]:
    def check(out: str) -> None:
        wrong(out.endswith("\n"), "table output lacks its final newline")
        check_table_text(out[:-1], names, header, values)
    return check


def _indirect_text_check(tree: tuple) -> Callable[[str], None]:
    names = gen.variables(tree)

    def check(out: str) -> None:
        head, _, trace = out.partition("\n\n")
        lines = head.split("\n")
        wrong(lines[0] == "outcome: falsifiable", f"indirect said {lines[0]!r}")
        wrong(lines[1].startswith("countermodel: "), "no countermodel line")
        model = dict(pair.split("=") for pair in lines[1][len("countermodel: "):].split(", "))
        free = lines[2][len("unconstrained: "):].split(", ") if len(lines) > 2 else []
        check_countermodel(tree, names, model, free)
        wrong(trace.endswith("\n"), "trace lacks its final newline")
        trace_lines = trace[:-1].split("\n")
        wrong(trace_lines[1].endswith("| root-assumption"), "trace does not start at the root")
        for line in trace_lines[1:]:
            wrong(line.rpartition("  | ")[2] in NOTES, f"unknown trace note in {line!r}")
    return check


def _indirect_json_check(columns: int) -> Callable[[str], None]:
    def check(out: str) -> None:
        doc = json.loads(out)
        wrong(doc["outcome"] == "tautology" and doc["countermodel"] is None,
              f"indirect said {doc['outcome']} on a tautology")
        wrong(len(doc["columns"]) == columns, f"{len(doc['columns'])} columns, want {columns}")
        wrong(doc["steps"][0]["note"] == "root-assumption", "trace does not start at the root")
        for step in doc["steps"]:
            wrong(step["note"] in NOTES and len(step["values"]) == columns
                  and step["values"][-1] == "f", f"malformed step {step}")
    return check


class Cli(Workload):
    """Why: the only workload that pays interpreter start, import, argparse
    and JSON emit, once per child process, as a shell user does.  The mix is
    fixed; the seed orders it."""

    name = "cli"
    in_process = False

    def __init__(self) -> None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONIOENCODING="utf-8",
                        PYTHONPATH=src + (os.pathsep + path if path else ""))

    def build(self, seed: int) -> list[Item]:
        items = [Item("argv", dict(argv=argv, code=code, check=check, stderr=stderr))
                 for argv, code, check, stderr in cli_mix()]
        random.Random(seed).shuffle(items)
        return items

    def warm_items(self) -> list[Item]:
        return [Item("argv", dict(argv=["check", "a -> a"], code=0,
                                  check=_literal("tautology\n"), stderr=""))]

    def child(self, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], env=self.env,
                              capture_output=True, timeout=120)

    def run(self, item: Item, pkg, t) -> Any:
        done = t.call("cli.process", self.child, "-m", "illation", *item.data["argv"])
        if t.enabled:
            t.add("cli.stdout_bytes", len(done.stdout))
        return done

    def score(self, item: Item, out: Any) -> str:
        d = item.data
        stderr = out.stderr.decode("utf-8", "replace")
        if out.returncode != d["code"] or "Traceback" in stderr:
            raise Problem("exit", f"{d['argv']} exited {out.returncode}: {stderr[-200:]!r}")
        wrong(stderr.startswith(d["stderr"]), f"{d['argv']} stderr {stderr[:120]!r}")
        d["check"](out.stdout.decode("utf-8"))
        return fingerprint(out.returncode, out.stdout, out.stderr)

    def layer_extras(self) -> dict[str, float]:
        """The floor and the import cost of a child, and main() in-process."""
        from statistics import median
        from time import perf_counter

        def timed(*argv: str) -> float:
            start = perf_counter()
            self.child(*argv)
            return perf_counter() - start

        interpreter = median(timed("-c", "pass") for _ in range(5))
        imported = median(timed("-c", "import illation.cli") for _ in range(5))

        import contextlib
        import io

        from illation.cli import main
        times = []
        for _ in range(3):
            for argv, _code, _check, _stderr in cli_mix():
                sink = io.StringIO()
                start = perf_counter()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    main(argv)
                times.append(perf_counter() - start)
        return {"cli.interpreter_ms": interpreter * 1000,
                "cli.import_ms": (imported - interpreter) * 1000,
                "cli.main_ms": median(times) * 1000}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Corpus(), Wide(), Tables(), Cli())}
