"""End-to-end command-line behavior: output fixtures, exit codes, JSON."""

import argparse
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import illation
from illation import atlas, bivalent, cli, indirect, trivalent
from illation.core import (CONNECTIVES, Binary, Negation, TruthValue, Variable, flatten,
                           grid_size, implies, variables_of)
from illation.indirect import indirect_check, render_trace, trace_size
from illation.notation import (RESERVED_WORDS, Notation, SyntaxConfig, parse, render,
                               rendered_sizes, value_symbols)

from helpers import random_formula, run_cli, xor_equivalence

ALL_CONNECTIVES = tuple(c.name for c in CONNECTIVES)


class TestParse:
    def test_echoes_the_normal_form(self):
        code, out, err = run_cli("parse", "a -> b")
        assert (code, out, err) == (0, "a -> b\n", "")

    def test_notation_flag(self):
        code, out, _ = run_cli("parse", "--notation", "peirce", "a -< b")
        assert (code, out) == (0, "a -< b\n")

    def test_encoding_flag(self):
        code, out, _ = run_cli("parse", "--encoding", "unicode", "a -> b")
        assert (code, out) == (0, "a → b\n")

    def test_full_parenthesization(self):
        code, out, _ = run_cli(
            "parse", "--notation", "peirce", "x -< y -< z"
        )
        assert (code, out) == (0, "x -< (y -< z)\n")

    def test_stdin_dash(self, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"a & b\n")))
        code, out, _ = run_cli("parse", "-")
        assert (code, out) == (0, "a & b\n")

    def test_file_input(self, tmp_path):
        source = tmp_path / "formula.txt"
        source.write_text("a | b\n", encoding="utf-8")
        code, out, _ = run_cli("parse", "--file", str(source))
        assert (code, out) == (0, "a | b\n")

    def test_json(self):
        code, out, _ = run_cli("parse", "--format", "json", "!a")
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == 1
        assert payload["command"] == "parse"
        assert payload["rendering"] == "!a"
        assert payload["ast"] == {
            "type": "negation",
            "operand": {"type": "variable", "name": "a"},
        }


class TestTranslate:
    def test_barbara(self):
        code, out, _ = run_cli(
            "translate",
            "--from", "peano-russell",
            "--to", "peirce",
            "(x > y) . (y > z) > (x > z)",
        )
        assert (code, out) == (0, "((x -< y) * (y -< z)) -< (x -< z)\n")

    def test_missing_target_is_a_usage_error(self):
        code, _, err = run_cli("translate", "--from", "modern", "a -> b")
        assert code == 2
        assert "--to" in err


class TestMatrix:
    EXPECTED = "  | t f\nt | t f\nf | t t\n"

    def test_by_name(self):
        code, out, _ = run_cli("matrix", "implication")
        assert (code, out) == (0, self.EXPECTED)

    def test_by_column_number(self):
        code, out, _ = run_cli("matrix", "13")
        assert (code, out) == (0, self.EXPECTED)

    def test_always_uses_t_and_f(self):
        code, out, _ = run_cli("matrix", "--notation", "peirce", "implication")
        assert (code, out) == (0, self.EXPECTED)

    def test_unknown_name(self):
        code, _, err = run_cli("matrix", "nope")
        assert code == 2
        assert err == "error: unknown connective name: 'nope'\n"

    def test_column_out_of_range(self):
        code, _, err = run_cli("matrix", "17")
        assert code == 2
        assert "out of range" in err

    @pytest.mark.parametrize("text", ["٣", "²"], ids=["arabic-indic", "superscript"])
    def test_only_ascii_digits_are_columns(self, text):
        for command in (["matrix"], ["connectives", "xframe"]):
            assert run_cli(*command, text) == (
                2, "", f"error: unknown connective name: {text!r}\n")


class TestTable:
    def test_f_first_fixture(self):
        code, out, _ = run_cli(
            "table", "--notation", "peirce", "--row-order", "f-first", "x -< y"
        )
        assert code == 0
        assert out == (
            "x y | x -< y\n"
            "f f | v\n"
            "f v | v\n"
            "v f | f\n"
            "v v | v\n"
        )

    def test_default_row_order_is_t_first(self):
        code, out, _ = run_cli("table", "a & b")
        assert code == 0
        assert out.splitlines()[1] == "t t | t"

    def test_json_rows(self):
        code, out, _ = run_cli("table", "--format", "json", "a -> b")
        payload = json.loads(out)
        assert code == 0
        assert payload["row_order"] == "t-first"
        assert payload["variables"] == ["a", "b"]
        assert [row["value"] for row in payload["rows"]] == ["t", "f", "t", "t"]
        assert payload["rows"][1]["assignment"] == {"a": "t", "b": "f"}

    def test_row_order_belongs_to_table_alone(self):
        code, out, err = run_cli("triadic", "table", "--row-order", "f-first", "x")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --row-order" in err

    def test_variable_limit_exit(self):
        wide = " | ".join(f"x{i}" for i in range(21))
        code, _, err = run_cli("table", wide)
        assert code == 4
        assert "exceed" in err


def _whole_json_table(argv: list[str], formula, config: SyntaxConfig, rows,
                      **fields) -> str:
    """What `table` or `triadic table --format json` printed when it built
    every row as a dict and dumped the document at once."""
    rows_json = [{"assignment": {name: v.value for name, v in assignment.items()},
                  "value": value.value} for assignment, value in rows]
    return json.dumps({"schema": 1, "command": " ".join(argv),
                       "rendering": render(formula, config),
                       "variables": variables_of(formula), **fields, "rows": rows_json},
                      ensure_ascii=False, indent=2) + "\n"


class TestJsonTableBlocks:
    """`table` and `triadic table --format json` write their rows in blocks,
    the same bytes as `json.dumps` of the whole document."""

    TEXTS = ["T", "!F", "a", "a -> b", " & ".join("abcdeghij"),
             "long_name_1 | (b2 -> !long_name_1)"]

    def cases(self):
        """(the formula, its config, the CLI arguments that give both)."""
        rng = random.Random(1509)
        ascii_modern = SyntaxConfig(Notation.MODERN, "ascii")
        texts = self.TEXTS + [render(random_formula(rng, 4), ascii_modern) for _ in range(6)]
        configs = [("modern", "ascii"), ("peirce", "unicode"), ("peano-russell", "ascii")]
        for i, text in enumerate(texts):
            notation, encoding = configs[i % len(configs)]
            config = SyntaxConfig(Notation(notation), encoding)
            rendering = render(parse(text), config)
            yield parse(rendering, config), config, [
                "--notation", notation, "--encoding", encoding, "--", rendering]

    @pytest.mark.parametrize("row_order", ["t-first", "f-first"])
    def test_table(self, row_order):
        for formula, config, argv in self.cases():
            code, out, err = run_cli("table", "--format", "json", "--row-order", row_order, *argv)
            rows = bivalent.truth_table(formula, row_order=row_order).rows
            assert (code, err) == (0, "")
            same = out == _whole_json_table(["table"], formula, config, rows,
                                            row_order=row_order)
            assert same, argv

    def test_triadic_table(self):
        for formula, config, argv in self.cases():
            if any(isinstance(node, Binary) and node.connective.name
                   not in ("conjunction", "disjunction") for node in flatten(formula)[0]):
                continue
            code, out, err = run_cli("triadic", "table", "--format", "json", *argv)
            rows = trivalent.truth_table3(formula).rows
            assert (code, err) == (0, "")
            same = out == _whole_json_table(["triadic", "table"], formula, config, rows)
            assert same, argv


def _whole_json_trace(argv: list[str], formula, config: SyntaxConfig) -> str:
    """What `indirect --format json` printed when it built every step as a
    dict and dumped the document at once."""
    result = indirect_check(formula)
    countermodel = result.countermodel
    steps = [{"values": [v.value if v is not None else None for v in step.values],
              "note": step.note} for step in result.trace.steps]
    return json.dumps({"schema": 1, "command": " ".join(argv),
                       "rendering": render(formula, config),
                       "outcome": result.outcome,
                       "countermodel": None if countermodel is None else {
                           name: v.value for name, v in countermodel.items()},
                       "unconstrained": list(result.unconstrained),
                       "columns": [render(c, config) for c in result.trace.columns],
                       "steps": steps},
                      ensure_ascii=False, indent=2) + "\n"


class TestJsonTraceBlocks:
    """`indirect --format json` writes its steps in blocks, the same bytes as
    `json.dumps` of the whole document, and `grid_size` gives the length of
    every table and trace form the writers lay out."""

    PAIRS = [(n.value, e) for n in Notation for e in ("unicode", "ascii")]

    def cases(self):
        """(the formula, its config, the CLI arguments that give both) over
        every notation-encoding pair, tautologies and falsifiable formulas."""
        rng = random.Random(1884)
        for i in range(40):
            formula = random_formula(rng, max_depth=4, connective_names=ALL_CONNECTIVES)
            if i % 3 == 0:
                formula = implies(formula, formula)
            notation, encoding = self.PAIRS[i % len(self.PAIRS)]
            config = SyntaxConfig(Notation(notation), encoding)
            rendering = render(formula, config)
            yield parse(rendering, config), config, [
                "--notation", notation, "--encoding", encoding, "--", rendering]

    def test_trace(self):
        outcomes = set()
        for formula, config, argv in self.cases():
            code, out, err = run_cli("indirect", "--format", "json", *argv)
            assert (code, err) == (0, "")
            assert out == _whole_json_trace(["indirect"], formula, config), argv
            outcomes.add(indirect_check(formula).outcome)
        assert outcomes == {"tautology", "falsifiable"}

    def test_sizes_are_the_lengths(self):
        for formula, config, _ in self.cases():
            table = bivalent.truth_table(formula)
            rows, rendering = table.rows, render(formula, config)
            symbols = value_symbols(config.notation)
            assert bivalent.table_size(rows.variables, len(rows), len(rendering)) == len(
                bivalent.format_truth_table(table, rendering, symbols))
            cells, opening, closing, endings = cli._json_rows(rows.variables, rows.cells)
            value_of = {code: endings[v] for code, v in rows.outcomes.items()}
            written = "".join(bivalent.row_blocks(rows, cells, value_of, opening, closing))
            assert grid_size(cells, opening, closing,
                             [(endings[TruthValue.T], len(rows))]) == len(written)
            trace = indirect_check(formula).trace
            assert trace_size(trace, config) == len(render_trace(trace, config))
            layout = cli._json_steps(trace.steps.width)
            written = [piece for pieces in trace.steps.rows(*layout) for piece in pieces]
            assert trace.steps.rows_size(*layout) == len("".join(written))


class TestCheck:
    def test_tautology(self):
        code, out, _ = run_cli("check", "((a -> b) -> a) -> a")
        assert (code, out) == (0, "tautology\n")

    def test_contingent_reports_witnesses(self):
        code, out, _ = run_cli("check", "a -> b")
        assert code == 0
        assert out == (
            "contingent\n"
            "falsifying: a=t, b=f\n"
            "satisfying: a=t, b=t\n"
        )

    def test_contradiction(self):
        code, out, _ = run_cli("check", "a & !a")
        assert code == 0
        assert out.splitlines()[0] == "contradiction"

    def test_status_flag_gates_the_exit_code(self):
        code, out, _ = run_cli("check", "--status", "a -> b")
        assert code == 1
        assert out.splitlines()[0] == "contingent"
        code, _, _ = run_cli("check", "--status", "a | !a")
        assert code == 0

    def test_peirce_value_symbols(self):
        code, out, _ = run_cli("check", "--notation", "peirce", "a * -a")
        assert code == 0
        assert out == "contradiction\nfalsifying: a=v\n"

    def test_json_uses_plain_t_f(self):
        code, out, _ = run_cli(
            "check", "--format", "json", "--notation", "peirce", "a -< b"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "contingent"
        assert payload["falsifying"] == {"a": "t", "b": "f"}


class TestEntails:
    def test_modus_ponens(self):
        code, out, _ = run_cli("entails", "-p", "a -> b", "-p", "a", "b")
        assert (code, out) == (0, "valid\n")

    def test_invalid_is_still_exit_zero(self):
        code, out, _ = run_cli(
            "entails", "--notation", "peirce", "-p", "a -< b", "a"
        )
        assert code == 0
        assert out == "invalid\ncounterexample: a=f, b=v\n"

    def test_json(self):
        code, out, _ = run_cli(
            "entails", "--format", "json", "-p", "a -> b", "-p", "a", "b"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload == {
            "schema": 1,
            "command": "entails",
            "valid": True,
            "counterexample": None,
        }


class TestIndirect:
    def test_peirces_law_trace(self):
        code, out, _ = run_cli(
            "indirect", "--notation", "peirce", "((a -< b) -< a) -< a"
        )
        assert code == 0
        assert out == (
            "outcome: tautology\n"
            "\n"
            "a  b  a -< b  (a -< b) -< a  ((a -< b) -< a) -< a  | note\n"
            "-  -  -       -              f                     | root-assumption\n"
            "f  -  -       v              f                     | forced\n"
            "f  -  -       v              f                     | branch-closed\n"
            "f  -  f       v              f                     | branch-open\n"
            "f  -  f       v              f                     | branch-closed\n"
        )

    def test_falsifiable_reports_the_countermodel(self):
        code, out, _ = run_cli(
            "indirect", "--notation", "peirce", "(((a -< b) -< c) -< d) -< e"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "outcome: falsifiable"
        assert lines[1] == "countermodel: d=v, e=f"
        assert lines[2] == "unconstrained: a, b, c"

    def test_json_shape(self):
        code, out, _ = run_cli("indirect", "--format", "json", "x -> x")
        payload = json.loads(out)
        assert code == 0
        assert payload["outcome"] == "tautology"
        assert payload["countermodel"] is None
        assert payload["columns"] == ["x", "x -> x"]
        assert payload["steps"][0] == {
            "values": [None, "f"],
            "note": "root-assumption",
        }
        assert payload["steps"][1] == {
            "values": ["t", "f"],
            "note": "branch-closed",
        }

    def test_json_traces_are_pinned(self):
        """JSON stdout of `indirect` for 304 seeded formulas over all sixteen
        connectives and the constants; the notation-encoding pairs take
        turns, 38 formulas each.  The JSON steps carry every column's value
        at every step, which the text trace shows only through its cells."""
        rng = random.Random(1884)
        pairs = [(n.value, e) for n in Notation for e in ("unicode", "ascii")]
        digest = hashlib.sha256()
        for i in range(304):
            formula = random_formula(rng, max_depth=5, connective_names=ALL_CONNECTIVES)
            notation, encoding = pairs[i % len(pairs)]
            text = render(formula, SyntaxConfig(Notation(notation), encoding))
            code, out, err = run_cli(
                "indirect", "--notation", notation, "--encoding", encoding,
                "--format", "json", "--", text,
            )
            assert (code, err) == (0, "")
            digest.update(out.encode())
        assert digest.hexdigest() == (
            "b2cef8026bbb7f9f8971042c3ab23733d267888505ce0bd4552e34631e9aee60"
        )


class TestTriadic:
    def test_tables_ascii(self):
        code, out, _ = run_cli("triadic", "tables")
        assert code == 0
        assert out == (
            "x | -x\n"
            "V | F\n"
            "L | L\n"
            "F | V\n"
            "\n"
            "+ | V L F\n"
            "V | V V V\n"
            "L | V L L\n"
            "F | V L F\n"
            "\n"
            "* | V L F\n"
            "V | V L F\n"
            "L | L L F\n"
            "F | F F F\n"
        )

    def test_tables_json(self):
        code, out, _ = run_cli("triadic", "tables", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "schema": 1,
            "command": "triadic tables",
            "values": ["V", "L", "F"],
            "negation": ["F", "L", "V"],
            "disjunction": [["V", "V", "V"], ["V", "L", "L"], ["V", "L", "F"]],
            "conjunction": [["V", "L", "F"], ["L", "L", "F"], ["F", "F", "F"]],
        }

    def test_tables_unicode(self):
        code, out, _ = run_cli("triadic", "tables", "--encoding", "unicode")
        assert code == 0
        assert "x | x̄" in out
        assert "⊕ | V L F" in out
        assert "Ž | V L F" in out

    def test_eval(self):
        code, out, _ = run_cli("triadic", "eval", "--assign", "x=L", "!x")
        assert (code, out) == (0, "L\n")
        code, out, _ = run_cli(
            "triadic", "eval", "--assign", "x=L", "--assign", "y=F", "x | y"
        )
        assert (code, out) == (0, "L\n")

    def test_eval_unsupported_connective(self):
        code, _, err = run_cli(
            "triadic", "eval", "--assign", "x=V", "--assign", "y=V", "x -> y"
        )
        assert code == 3
        assert "no triadic matrix is defined for implication" in err

    def test_eval_bad_assignment(self):
        code, _, err = run_cli("triadic", "eval", "--assign", "x=Q", "x")
        assert code == 2
        assert "V, L or F" in err

    def test_eval_unbound_variable(self):
        code, _, err = run_cli("triadic", "eval", "x")
        assert code == 2
        assert err == "error: unbound variable: x\n"

    def test_table_columns(self):
        code, out, _ = run_cli("triadic", "table", "x | !x")
        assert code == 0
        assert out.splitlines()[1:] == ["V | V", "L | L", "F | V"]

    def test_table_keeps_v_l_f_in_peirce_notation(self):
        code, out, _ = run_cli(
            "triadic", "table", "--notation", "peirce", "--encoding", "ascii",
            "x + -y",
        )
        assert code == 0
        assert out == (
            "x y | x + -y\n"
            "V V | V\n"
            "V L | V\n"
            "V F | V\n"
            "L V | L\n"
            "L L | L\n"
            "L F | V\n"
            "F V | F\n"
            "F L | L\n"
            "F F | V\n"
        )

    def test_table_and_eval_stdout_are_pinned(self):
        """Text and JSON stdout of `triadic table`, and of `triadic eval` on
        one seeded row, for 304 seeded formulas of up to six variables; the
        notation-encoding pairs take turns, 38 formulas each."""
        rng = random.Random(1909)
        pairs = [(n.value, e) for n in Notation for e in ("unicode", "ascii")]
        digest = hashlib.sha256()
        for i in range(304):
            formula = random_formula(
                rng, max_depth=5,
                connective_names=("conjunction", "disjunction"), constants=False,
            )
            notation, encoding = pairs[i % len(pairs)]
            text = render(formula, SyntaxConfig(Notation(notation), encoding))
            assign = [
                f"--assign={name}={rng.choice('VLF')}"
                for name in variables_of(formula)
            ]
            for command in (["table"], ["eval", *assign]):
                for fmt in ("text", "json"):
                    code, out, err = run_cli(
                        "triadic", *command, "--notation", notation,
                        "--encoding", encoding, "--format", fmt, "--", text,
                    )
                    assert (code, err) == (0, "")
                    digest.update(out.encode())
        assert digest.hexdigest() == (
            "330276faa0af595945c21234e57f94eb85664515d45ae34b49ecf2239efa9292"
        )

    def test_check_restriction(self):
        code, out, _ = run_cli("triadic", "check-restriction")
        assert code == 0
        assert out == (
            "negation restricted to {V,F}: matches the two-valued negation\n"
            "disjunction restricted to {V,F}: matches the two-valued disjunction\n"
            "conjunction restricted to {V,F}: matches the two-valued conjunction\n"
            "no mismatches\n"
        )


class TestConnectives:
    def test_catalog_first_and_last_rows(self):
        code, out, _ = run_cli("connectives", "catalog")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 16
        assert lines[0] == " 1  constant-false           f f f f  closed: tt,tf,ft,ff"
        assert lines[7] == " 8  equivalence              t f f t  closed: tf,ft"
        assert lines[12] == "13  implication              t f t t  closed: tf"
        assert lines[15] == "16  constant-true            t t t t  closed: none"

    def test_paper_table_contains_both_annotations(self):
        code, out, _ = run_cli("connectives", "paper-table")
        assert code == 0
        assert out.splitlines()[0] == (
            " 1  2  3  4  5  6  7  8  9 10 11 12 13 14 15 16"
        )
        assert "note: as printed, column 8 (f,f,f,t) duplicates column 2" in out
        assert "absent from the printed grid" in out

    def test_identify(self):
        code, out, _ = run_cli("connectives", "identify", "v,f,f,v")
        assert (code, out) == (0, "equivalence (column 8)\n")

    def test_identify_accepts_other_spellings(self):
        for spelling in ("t,f,f,t", "t f f t", "tfft", "1001"):
            code, out, _ = run_cli("connectives", "identify", spelling)
            assert (code, out) == (0, "equivalence (column 8)\n")

    def test_xframe(self):
        code, out, _ = run_cli("connectives", "xframe", "implication")
        assert (code, out) == (0, "+---+\n|  x|\n+---+\nclosed: tf\n")

    def test_enumerate_counts(self):
        code, out, _ = run_cli(
            "connectives", "enumerate", "--vars", "2", "--slots", "1"
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "p <-> p"
        assert lines[-3] == "slots=0: generated=2 tautologies=0 distinct=0"
        assert lines[-2] == "slots=1: generated=64 tautologies=10 distinct=10"
        assert lines[-1] == "total: generated=66 tautologies=10 distinct=10"

    def test_enumerate_count_only(self):
        code, out, _ = run_cli(
            "connectives", "enumerate", "--vars", "2", "--slots", "1",
            "--count-only",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("slots=0:")

    def test_enumerate_limit(self):
        code, out, _ = run_cli(
            "connectives", "enumerate", "--vars", "2", "--slots", "1",
            "--limit", "3",
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[:3] == ["p <-> p", "q <-> q", "p -> p"]
        assert lines[3].startswith("slots=0:")

    def test_enumerate_bounds_exit(self):
        code, _, err = run_cli("connectives", "enumerate", "--vars", "9")
        assert code == 4
        assert "must be 1..3" in err

    def test_enumerate_negative_limit_exit(self):
        code, out, err = run_cli("connectives", "enumerate", "--limit", "-1")
        assert (code, out) == (4, "")
        assert err == "error: emit_limit must be at least 0, got -1\n"

    def test_enumerate_count_only_still_validates_the_limit(self):
        code, out, err = run_cli(
            "connectives", "enumerate", "--count-only", "--limit", "-1"
        )
        assert (code, out) == (4, "")
        assert err == "error: emit_limit must be at least 0, got -1\n"

    @pytest.mark.parametrize("argv, digest", [
        (["--encoding", "ascii"],
         "c2d84b99380f0368cf6922f1c6de63533664443c6949609c30786431210f2c43"),
        (["--vars", "2", "--slots", "4", "--shape", "all-trees", "--limit", "500",
          "--notation", "peirce", "--encoding", "unicode"],
         "e1d07677a13b19dc0a5225eb826ac6fad9846e12dc5f0e89cd6425e023f3cef9"),
        (["--format", "json", "--slots", "2", "--limit", "100", "--encoding", "ascii"],
         "241d287b0d4ba296a26a7c9a919d50d8fe99442f744c27570c382a933daaf645"),
    ], ids=["default", "all-trees", "json"])
    def test_enumerate_counts_once(self, argv, digest):
        """A run that emits counts the fillings once and draws the emission
        with the scan alone; the digests were taken when it counted twice."""
        with mock.patch.object(atlas, "_vector_counts",
                               wraps=atlas._vector_counts) as counts:
            code, out, err = run_cli("connectives", "enumerate", *argv)
        assert (code, err, counts.call_count) == (0, "", 1)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSyllogism:
    @pytest.mark.parametrize("notation", [n.value for n in Notation])
    def test_constant_words_are_not_terms(self, notation):
        """A term the notation reads as a constant exits 2 naming it; any
        other word renders a form that parses back with the word a variable."""
        config = SyntaxConfig(Notation(notation), "ascii")
        reserved = RESERVED_WORDS[config.notation]
        for word in ("v", "f", "T", "F"):
            for figure, subject, predicate in (("A", word, "b"), ("E", "a", word)):
                code, out, err = run_cli("syllogism", "render", figure, subject,
                                         predicate, "--notation", notation,
                                         "--encoding", "ascii")
                body = Variable(predicate)
                if figure == "E":
                    body = Negation(body)
                if word in reserved:
                    assert (code, out) == (2, "")
                    assert err == (f"error: term {word!r} is a constant of the "
                                   f"{notation} notation\n")
                else:
                    assert (code, err) == (0, "")
                    assert parse(out, config) == implies(Variable(subject), body)
            code, out, err = run_cli("syllogism", "barbara", "x", "y", word,
                                     "--notation", notation)
            assert code == (2 if word in reserved else 0)
            assert (word in reserved) == (word in err)

    def test_render(self):
        code, out, _ = run_cli("syllogism", "render", "A", "a", "b")
        assert (code, out) == (0, "a -> b\n")

    def test_render_particular_unicode(self):
        code, out, _ = run_cli(
            "syllogism", "render", "I", "a", "b",
            "--notation", "peirce", "--encoding", "unicode",
        )
        assert (code, out) == (0, "ǎ ≺ b\n")

    def test_aeio_table(self):
        code, out, _ = run_cli("syllogism", "aeio-table")
        assert code == 0
        assert out == (
            "A. a -> b    All A are B      (universal affirmative)\n"
            "E. a -> !b   No A is B        (universal negative)\n"
            "I. ?a -> b   Some A is B      (particular affirmative)\n"
            "O. ?a -> !b  Some A is not B  (particular negative)\n"
        )

    def test_aeio_table_aligns_despite_combining_marks(self):
        code, out, _ = run_cli(
            "syllogism", "aeio-table",
            "--notation", "peirce", "--encoding", "unicode",
        )
        assert code == 0
        assert out == (
            "A. a ≺ b  All A are B      (universal affirmative)\n"
            "E. a ≺ b̄  No A is B        (universal negative)\n"
            "I. ǎ ≺ b  Some A is B      (particular affirmative)\n"
            "O. ǎ ≺ b̄  Some A is not B  (particular negative)\n"
        )

    def test_barbara_default_terms(self):
        code, out, _ = run_cli("syllogism", "barbara")
        assert code == 0
        assert out == (
            "nested:      (x -> y) -> ((y -> z) -> (x -> z))  [tautology]\n"
            "conjunctive: ((x -> y) & (y -> z)) -> (x -> z)  [tautology]\n"
        )

    def test_barbara_custom_terms(self):
        code, out, _ = run_cli(
            "syllogism", "barbara", "p", "q", "r", "--notation", "peirce"
        )
        assert code == 0
        assert "((p -< q) * (q -< r)) -< (p -< r)" in out


def _predicted(err: str, bound: str = "") -> int:
    """The size an exit-4 output-limit error names: the output's, or with
    `bound` "more than ", a lower bound of it."""
    found = re.fullmatch(f"error: the output would take {bound}" r"(\d+) characters, "
                         r"over the limit of (\d+)\n", err)
    assert found is not None, err
    return int(found[1])


class TestOutputBound:
    PAIRS = [(n.value, e) for n in Notation for e in ("unicode", "ascii")]

    def test_prediction_is_the_output_length(self, monkeypatch):
        """With the limit one below a command's text, or its JSON, the
        command exits 4 naming exactly that length; at the length it prints."""
        rng = random.Random(1902)
        for i in range(24):
            formula = random_formula(rng, max_depth=4, connective_names=ALL_CONNECTIVES)
            notation, encoding = self.PAIRS[i % len(self.PAIRS)]
            text = render(formula, SyntaxConfig(Notation(notation), encoding))
            target = self.PAIRS[(i + 3) % len(self.PAIRS)][0]
            for argv in (["parse", "--notation", notation],
                         ["translate", "--from", notation, "--to", target],
                         ["indirect", "--notation", notation],
                         ["indirect", "--notation", notation, "--format", "json"]):
                argv += ["--encoding", encoding, "--", text]
                monkeypatch.setattr(cli, "OUTPUT_LIMIT", 64 * 2**20)
                code, out, err = run_cli(*argv)
                assert (code, err) == (0, "")
                size = len(out) - 1  # print adds the last line break
                monkeypatch.setattr(cli, "OUTPUT_LIMIT", size)
                assert run_cli(*argv) == (0, out, "")
                monkeypatch.setattr(cli, "OUTPUT_LIMIT", size - 1)
                code, out, err = run_cli(*argv)
                assert (code, out, _predicted(err)) == (4, "", size)

    def test_library_sizes_match_the_texts(self):
        rng = random.Random(1903)
        configs = [SyntaxConfig(Notation(n), e) for n, e in self.PAIRS]
        for _ in range(40):
            formula = random_formula(rng, max_depth=5, connective_names=ALL_CONNECTIVES)
            trace = indirect_check(formula).trace
            for config in configs:
                sizes = rendered_sizes(formula, config)
                assert list(sizes) == list(trace.columns)
                assert all(size == len(render(node, config))
                           for node, size in sizes.items())
                assert trace_size(trace, config) == len(render_trace(trace, config))

    @pytest.fixture
    def nothing_rendered(self, monkeypatch):
        """Every builder of text or table rows refuses, patched where the CLI
        looks it up: `render` in cli, the others in their modules, from
        which each handler imports them when it runs."""
        def refuse(*args, **kwargs):
            raise AssertionError("text built past the limit")
        for module, name in ((cli, "render"), (indirect, "render_trace"),
                             (bivalent, "truth_table"), (bivalent, "format_truth_table"),
                             (bivalent, "table_blocks"), (trivalent, "truth_table3")):
            monkeypatch.setattr(module, name, refuse)

    def test_table_prediction_is_the_output_length(self, monkeypatch):
        """The table bound counts the rows as well as the header: in every
        notation-encoding pair and row order, and for the triadic table,
        the limit one below the text, or the JSON, refuses it naming its
        length."""
        rng = random.Random(1883)
        names = ("a", "bb", "long_name", "x1")
        argvs = [["table", "--encoding", "ascii", "!T | F"],  # closed: one row
                 ["triadic", "table", "--encoding", "unicode", "¬⊤ ∨ ⊥"]]
        for i in range(32):
            notation, encoding = self.PAIRS[i % len(self.PAIRS)]
            order = ("t-first", "f-first")[i // len(self.PAIRS) % 2]
            formula = random_formula(rng, max_depth=3, names=names,
                                     connective_names=ALL_CONNECTIVES)
            text = render(formula, SyntaxConfig(Notation(notation), encoding))
            argvs.append(["table", "--row-order", order, "--notation", notation,
                          "--encoding", encoding, "--", text])
        for i in range(16):
            notation, encoding = self.PAIRS[i % len(self.PAIRS)]
            formula = random_formula(rng, max_depth=3, names=names,
                                     connective_names=("disjunction", "conjunction"))
            text = render(formula, SyntaxConfig(Notation(notation), encoding))
            argvs.append(["triadic", "table", "--notation", notation,
                          "--encoding", encoding, "--", text])
        leaf = {"table": 1, "triadic": 2}  # the words of each command's path
        argvs += [[*argv[:leaf[argv[0]]], "--format", "json", *argv[leaf[argv[0]]:]]
                  for argv in argvs]
        for argv in argvs:
            monkeypatch.setattr(cli, "OUTPUT_LIMIT", 64 * 2**20)
            code, out, err = run_cli(*argv)
            assert (code, err) == (0, "")
            size = len(out) - 1
            monkeypatch.setattr(cli, "OUTPUT_LIMIT", size)
            assert run_cli(*argv) == (0, out, "")
            monkeypatch.setattr(cli, "OUTPUT_LIMIT", size - 1)
            code, out, err = run_cli(*argv)
            assert (code, out, _predicted(err)) == (4, "", size)

    def test_wide_table_exits_before_building(self, nothing_rendered):
        """Twelve variables with names of about 3,000 characters: 4,096 rows
        of 36,042 characters each."""
        text = " & ".join(f"v{i}" + "x" * 3000 for i in range(12))
        code, out, err = run_cli("table", "--encoding", "ascii", text)
        assert (code, out, _predicted(err)) == (4, "", 147_700_151)

    def test_wide_table_json_exits_before_building(self, nothing_rendered):
        """18 one-letter variables: 10 MB of text, but 101 MB of JSON."""
        text = " & ".join("abcdefghijklmnopqr")
        code, out, err = run_cli("table", "--format", "json", text)
        assert (code, out, _predicted(err)) == (4, "", 101_187_968)

    def test_table_input_errors_come_before_the_bound(self, monkeypatch):
        monkeypatch.setattr(cli, "OUTPUT_LIMIT", 10)
        code, _, err = run_cli("table", " & ".join(f"x{i}" for i in range(21)))
        assert (code, err) == (4, "error: 21 variables exceed the limit of 20\n")
        code, _, err = run_cli("triadic", "table", "a -> b")
        assert code == 3 and "no triadic matrix is defined for implication" in err

    def test_exponential_translation_exits_before_rendering(self, nothing_rendered):
        chain = " <-> ".join(f"x{i}" for i in range(24))
        code, out, err = run_cli("translate", "--from", "modern", "--to", "peirce", chain)
        peirce = SyntaxConfig(Notation.PEIRCE, "unicode")
        expected = rendered_sizes(parse(chain), peirce)[parse(chain)]
        assert (code, out, _predicted(err)) == (4, "", expected)
        assert expected > cli.OUTPUT_LIMIT

    def test_cubic_trace_exits_before_rendering(self, nothing_rendered):
        """2,001 steps, each line at least 2,007,012 characters: past the
        33 steps the limit holds of those, so the error names those lines'
        length, a lower bound of the trace's."""
        text = "!" * 2000 + "a"
        code, out, err = run_cli("indirect", "--encoding", "ascii", text)
        trace = indirect_check(parse(text)).trace
        head = "outcome: falsifiable\ncountermodel: a=f\n\n"
        assert (code, out) == (4, "")
        assert _predicted(err, "more than ") == 2001 * 2_007_012
        assert 2001 * 2_007_012 < len(head) + trace_size(
            trace, SyntaxConfig(Notation.MODERN, "ascii"))

    @pytest.mark.parametrize("form", ["text", "json"])
    @pytest.mark.parametrize("n, shortest", [(16, {"text": 2151, "json": 673}),
                                             (24, {"text": 4783, "json": 985})])
    def test_deep_trace_stops_at_the_step_budget(self, monkeypatch, nothing_rendered,
                                                 n, shortest, form):
        """The xor-equivalence's trace more than doubles with n.  The search
        stops soon after the limit over the shortest step line, in the form
        asked for: a few steps per column past it at most."""
        searched = []

        def search(formula, max_steps=None):
            searched.append(max_steps)
            try:
                return indirect_check(formula, max_steps)
            except indirect.StepLimitError as exc:
                searched.append(exc.steps)
                raise
        monkeypatch.setattr(indirect, "indirect_check", search)
        formula = xor_equivalence(n)
        code, out, err = run_cli("indirect", "--format", form, "--encoding", "unicode",
                                 render(formula, SyntaxConfig(Notation.MODERN, "unicode")))
        budget, steps = searched
        width = 3 * n - 1
        assert (code, out) == (4, "")
        assert budget == cli.OUTPUT_LIMIT // shortest[form]
        assert budget < steps <= budget + 5 * width + 2
        assert _predicted(err, "more than ") == steps * shortest[form] > cli.OUTPUT_LIMIT

    def test_a_trace_past_the_budget_names_its_shortest_lines(self, monkeypatch):
        """With a limit that holds one step fewer of the shortest line than
        the trace has, the error names the steps recorded times that line."""
        argv = ["indirect", "--encoding", "ascii", "(a <-> b) <-> (b <-> a)"]
        trace = indirect_check(parse(argv[-1])).trace
        steps = len(trace.steps)
        ascii = SyntaxConfig(Notation.MODERN, "ascii")
        shortest = (1 + sum(len(render(column, ascii)) + 2 for column in trace.columns)
                    + len("| forced"))
        monkeypatch.setattr(cli, "OUTPUT_LIMIT", (steps - 1) * shortest)
        code, out, err = run_cli(*argv)
        bound = _predicted(err, "more than ")
        assert (code, out, bound % shortest) == (4, "", 0)
        assert steps - 1 < bound // shortest <= steps

    def test_large_enumeration_exits_before_rendering(self, nothing_rendered):
        code, out, err = run_cli(
            "connectives", "enumerate", "--vars", "3", "--slots", "5",
            "--shape", "all-trees", "--limit", "1000000000")
        assert (code, out) == (4, "")
        assert _predicted(err) > 10**9

    def test_enumeration_bound_covers_the_output(self, monkeypatch):
        """The enumerator's prediction is an upper bound; a limit at the
        actual length still prints."""
        for notation, form in (("peirce", "text"), ("modern", "text"),
                               ("peirce", "json"), ("modern", "json")):
            argv = ("connectives", "enumerate", "--notation", notation, "--vars", "2",
                    "--slots", "2", "--limit", "300", "--format", form)
            monkeypatch.setattr(cli, "OUTPUT_LIMIT", 64 * 2**20)
            code, out, _ = run_cli(*argv)
            assert code == 0
            monkeypatch.setattr(cli, "OUTPUT_LIMIT", len(out) - 2)
            code, _, err = run_cli(*argv)
            assert code == 4 and _predicted(err) >= len(out) - 1

    def test_enumeration_lines_stay_under_their_bound(self):
        """Every formula with one or two connectives renders within the
        bound the enumerator's prediction uses for its slot count."""
        p = Variable("p")
        by_slots = {1: [Binary(c, p, p) for c in CONNECTIVES]}
        by_slots[2] = [Binary(c, a, p) for c in CONNECTIVES for a in by_slots[1]]
        by_slots[2] += [Binary(c, p, a) for c in CONNECTIVES for a in by_slots[1]]
        for notation, encoding in self.PAIRS:
            config = SyntaxConfig(Notation(notation), encoding)
            bounds = cli._longest_renderings(2, config)
            for slots, formulas in by_slots.items():
                longest = max(len(render(f, config)) for f in formulas)
                assert longest <= bounds[slots]

    def test_json_depth_is_checked_before_rendering(self, nothing_rendered):
        code, out, err = run_cli("parse", "--format", "json", "!" * 600 + "a")
        assert (code, out) == (4, "")
        assert err == (f"error: the JSON ast would nest 601 levels deep, over the "
                       f"limit of {cli.JSON_DEPTH_LIMIT}\n")

    def test_json_ast_depth_is_bounded(self):
        deepest = "!" * (cli.JSON_DEPTH_LIMIT - 1) + "a"
        code, out, _ = run_cli("parse", "--format", "json", "--encoding", "ascii", deepest)
        assert code == 0
        assert json.loads(out)["rendering"] == deepest
        code, out, err = run_cli("parse", "--format", "json", "!" + deepest)
        assert (code, out) == (4, "")
        assert err == (f"error: the JSON ast would nest {cli.JSON_DEPTH_LIMIT + 1} "
                       f"levels deep, over the limit of {cli.JSON_DEPTH_LIMIT}\n")
        assert run_cli("parse", "!" + deepest)[0] == 0


SRC = os.path.dirname(os.path.dirname(os.path.abspath(illation.__file__)))


def child(argv: list[str], **kwargs) -> subprocess.Popen:
    """`python -m illation *argv` in a new interpreter, stderr piped."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.Popen([sys.executable, "-m", "illation", *argv], env=env,
                            stderr=subprocess.PIPE, **kwargs)


class TestClosedStdout:
    """A reader that closes stdout early gets no traceback on stderr and
    the command's own exit code."""

    def test_a_reader_that_stops_after_one_line(self):
        # 16,384 rows, about 800 KB: far more than a pipe holds.
        text = " & ".join(f"x{i}" for i in range(14))
        process = child(["table", text], stdout=subprocess.PIPE)
        with process:
            assert process.stdout.readline().startswith(b"x0 x1 ")
            process.stdout.close()
            assert process.wait(timeout=60) == 0
            assert process.stderr.read() == b""

    @pytest.mark.parametrize("argv, code", [
        (["check", "a -> a"], 0),
        (["check", "--status", "a & b"], 1),
    ], ids=["tautology", "failed-status"])
    def test_a_stdout_closed_before_the_first_write(self, argv, code):
        read, write = os.pipe()
        os.close(read)
        try:
            process = child(argv, stdout=write)
        finally:
            os.close(write)
        with process:
            assert process.wait(timeout=60) == code
            assert process.stderr.read() == b""


class TestErrorsAndPlumbing:
    def test_parse_error_names_the_position(self):
        code, _, err = run_cli("parse", "a ->")
        assert code == 2
        assert err.startswith("parse error at position 4")

    def test_foreign_symbol_names_the_owner(self):
        code, _, err = run_cli("parse", "a ≺ b")
        assert code == 2
        assert "'≺' is a symbol of the peirce notation, not of modern" in err

    def test_usage_error(self):
        code, _, _ = run_cli("parse")
        assert code == 2

    def test_unknown_subcommand(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_formula_that_starts_with_a_dash_names_the_separator(self):
        code, out, err = run_cli("parse", "--notation", "peirce", "-a")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: -a" in err
        assert "a formula that starts with '-' goes after '--'" in err
        assert run_cli("parse", "--notation", "peirce", "--", "-a")[0] == 0

    @pytest.mark.parametrize("argv", [
        ["check", "a", "b"],
        ["check"],
        ["parse", "--notation", "peirce", "-a"],
    ], ids=["extra-argument", "no-formula", "dash-formula"])
    def test_argument_errors_show_the_subcommand_usage(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: illation {argv[0]} [-h]")
        assert "[--notation {" in err
        assert f"illation {argv[0]}: error: " in err

    def test_missing_file(self, tmp_path):
        path = str(tmp_path / "absent.txt")
        code, out, err = run_cli("check", "--file", path)
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {path}: No such file or directory\n"
        assert "Traceback" not in err

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"a -> \xe9")
        code, out, err = run_cli("parse", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {path}: not valid UTF-8 at byte 5\n"
        assert "Traceback" not in err

    def test_stdin_that_is_not_utf8(self, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"a \xff b")))
        code, out, err = run_cli("parse", "-")
        assert (code, out) == (2, "")
        assert err == "error: cannot read <stdin>: not valid UTF-8 at byte 2\n"

    def test_deep_brackets_parse(self):
        code, out, err = run_cli("parse", "(" * 600 + "a" + ")" * 600)
        assert (code, out, err) == (0, "a\n", "")

    def test_deep_negation_is_a_failed_check(self):
        code, out, err = run_cli("check", "--status", "!" * 1000 + "a")
        assert (code, out, err) == (
            1, "contingent\nfalsifying: a=f\nsatisfying: a=t\n", "")

    def test_version(self):
        code, out, _ = run_cli("--version")
        assert code == 0
        assert out.startswith("illation ")

    @pytest.mark.parametrize(
        "path, argv",
        [
            pytest.param(path, argv, id=path)
            for path, argv in [
                ("parse", ["a -> b"]),
                ("check", ["a & !a"]),
                ("table", ["a | b"]),
                ("entails", ["-p", "a", "a"]),
                ("indirect", ["a -> a"]),
                ("translate", ["--from", "modern", "--to", "peirce", "a -> b"]),
                ("matrix", ["implication"]),
                ("triadic tables", []),
                ("triadic eval", ["--assign", "x=L", "!x"]),
                ("triadic table", ["x | !x"]),
                ("triadic check-restriction", []),
                ("connectives catalog", []),
                ("connectives paper-table", []),
                ("connectives identify", ["v,f,f,v"]),
                ("connectives xframe", ["implication"]),
                ("connectives enumerate", ["--vars", "2", "--slots", "1"]),
                ("syllogism render", ["A", "a", "b"]),
                ("syllogism barbara", []),
                ("syllogism aeio-table", []),
            ]
        ],
    )
    def test_json_outputs_are_well_formed(self, path, argv):
        code, out, _ = run_cli(*path.split(), "--format", "json", *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["command"] == path

    def test_deterministic_output(self):
        argv = ("indirect", "--notation", "peirce", "(((a -< b) -< c) -< d) -< e")
        assert run_cli(*argv) == run_cli(*argv)


class TestOneParser:
    """The parser is built once per process, and keeps nothing from one call
    to the next: appended options, default lists, and a usage error before a
    valid call all give what a freshly built parser gives."""

    CALLS = [
        ["entails", "-p", "x", "-p", "y", "z"],
        ["entails", "-p", "a", "b"],
        ["triadic", "eval", "--assign", "x=L", "--assign", "y=V", "x | !y"],
        ["triadic", "eval", "--assign", "x=F", "x | !y"],
        ["check", "a", "b"],
        ["check", "a | !a"],
        ["syllogism", "barbara", "p", "q", "r"],
        ["syllogism", "barbara"],
    ]

    def test_calls_in_one_process_match_fresh_runs(self):
        fresh = []
        for argv in self.CALLS:
            cli._parser.cache_clear()
            fresh.append(run_cli(*argv))
        cli._parser.cache_clear()
        assert [run_cli(*argv) for argv in self.CALLS] == fresh
        assert cli._parser.cache_info().misses == 1
        assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 2, 0, 0, 0]


class TestHelpFormatter:
    """The parser's formatter reads the terminal's width only when it lays
    out help or usage, and lays it out as argparse's own formatter does at
    every width `COLUMNS` sets."""

    ARGVS = [["--help"], ["triadic", "--help"], ["connectives", "enumerate", "--help"],
             ["indirect", "--help"], [], ["triadic"], ["check", "--bogus", "a"],
             ["table", "--row-order", "sideways", "a"]]

    def runs(self, monkeypatch, formatter) -> list:
        monkeypatch.setattr(cli, "_Formatter", formatter)
        cli._parser.cache_clear()
        found = []
        for columns in ("12", "30", "80", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            found += [run_cli(*argv) for argv in self.ARGVS]
        cli._parser.cache_clear()
        return found

    def test_help_matches_argparse_at_every_width(self, monkeypatch):
        lazy = self.runs(monkeypatch, cli._Formatter)
        assert lazy == self.runs(monkeypatch, argparse.HelpFormatter)
        assert lazy[0] != lazy[3 * len(self.ARGVS)]  # --help at 12 and 200 columns

    def test_building_the_parser_reads_no_width(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("terminal width read while building the parser")
        monkeypatch.setattr("shutil.get_terminal_size", refuse)
        cli._parser.cache_clear()
        try:
            assert run_cli("check", "a | !a")[0] == 0
        finally:
            cli._parser.cache_clear()


# Argument vectors for the fuzz test: a command, options, then a formula.
_COMMANDS = st.sampled_from([
    ["parse"], ["table"], ["check"], ["check", "--status"], ["indirect"],
    ["translate", "--from", "peirce", "--to", "schroeder"],
    ["translate", "--from", "modern", "--to", "peirce"],
    ["entails", "-p", "a"], ["triadic", "table"], ["triadic", "eval", "--assign", "a=L"],
])
_OPTIONS = st.lists(st.sampled_from([
    "--notation=peirce", "--notation=schroeder", "--notation=peano-russell",
    "--notation=modern", "--encoding=ascii", "--encoding=unicode", "--format=json",
    "--format=text", "--row-order=f-first", "--bogus",
]), max_size=3)
_SYMBOLS = st.sampled_from([
    "a", "b", "x1", "T", "f", "1", " ", "(", ")", "[", "]", "{", "}", "!", "-",
    "->", "-<", "=<", "<->", "==", "&", "*", ".", "|", "+", "~", "'", "¬", "→",
    "≺", "̄", "⊤", "?",
])
_DEEP = st.builds(
    lambda kind, n: {"not": "!" * n + "a", "brackets": "(" * n + "a" + ")" * n,
                     "chain": " -> ".join(["a"] * n), "xor": "a" + " <-> a" * n}[kind],
    st.sampled_from(["not", "brackets", "chain", "xor"]), st.integers(1, 2500))
_FORMULAS = st.one_of(st.lists(_SYMBOLS, max_size=12).map("".join), _DEEP,
                      st.text(max_size=8))
_ENUMERATE = st.builds(
    lambda v, k, shape, limit: ["connectives", "enumerate", f"--vars={v}", f"--slots={k}",
                                f"--shape={shape}", f"--limit={limit}"],
    st.integers(0, 4), st.integers(0, 6), st.sampled_from(["right-combs", "all-trees"]),
    st.sampled_from([-1, 0, 3]))


class TestFuzz:
    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(command=st.one_of(_COMMANDS, _ENUMERATE), options=_OPTIONS,
           formula=_FORMULAS, separator=st.booleans(), stdin=st.booleans(),
           data=st.binary(max_size=20))
    def test_exit_codes_stay_in_the_contract(self, command, options, formula,
                                             separator, stdin, data):
        """Any argv (and stdin) ends in an exit code the README allows, with
        no traceback, and the same stdout when run again."""
        argv = [*command, *options]
        if command[0] != "connectives":
            argv += ["--"] if separator else []
            argv += ["-"] if stdin else [formula]
        runs = []
        for _ in range(2):
            with mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(
                    formula.encode() if stdin and not data else data))):
                runs.append(run_cli(*argv))
        (code, out, err), again = runs
        assert code in (0, 1, 2, 3, 4)
        assert "Traceback" not in err
        assert again == runs[0]
