"""Command-line interface.

Exit codes: 0 success; 1 only for `check --status` on a non-tautology;
2 parse or usage errors; 3 operations the requested semantics does not
define (e.g. a triadic implication); 4 exceeded size bounds.

Output is deterministic: the same argv and input produce identical bytes.
`--format json` emits one schema-stable JSON document per invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import __version__
from .atlas import (
    CONNECTIVES,
    EnumerationBoundError,
    EnumerationSpec,
    enumerate_tautologies,
    format_paper_table,
    identify,
    paper_table,
    render_xframe,
    xframe_of,
)
from .bivalent import (
    MissingVariableError,
    VariableLimitError,
    classify,
    entails,
    format_matrix,
    format_truth_table,
    matrix_table,
    truth_table,
)
from .core import (
    Binary,
    Connective,
    Constant,
    Formula,
    Negation,
    TriadicValue,
    TruthValue,
    Variable,
    connective,
    variables_of,
)
from .indirect import indirect_check, render_trace
from .notation import (
    Notation,
    ParseError,
    SyntaxConfig,
    display_width,
    pad_display,
    parse,
    render,
    translate,
    value_symbols,
)
from .syllogistic import CategoricalForm, GLOSSES, barbara, render_categorical
from .trivalent import (
    UnsupportedConnectiveError,
    evaluate3,
    format_tables,
    restriction_check,
    truth_table3,
)

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_LIMIT = 4

_NOTATION_NAMES = [n.value for n in Notation]


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--notation", choices=_NOTATION_NAMES, default="modern")
    common.add_argument("--encoding", choices=["unicode", "ascii"], default=None,
                        help="default: unicode when stdout advertises UTF-8")
    common.add_argument("--format", dest="format_", choices=["text", "json"],
                        default="text")
    common.add_argument("--row-order", choices=["t-first", "f-first"],
                        default="t-first")

    top = argparse.ArgumentParser(
        prog="illation",
        description="Propositional logic over Peirce-era notations.",
    )
    top.add_argument("--version", action="version", version=f"illation {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def formula_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("formula", nargs="?",
                       help="formula text, or - to read stdin")
        p.add_argument("--file", help="read the formula from a file")

    p = sub.add_parser("parse", parents=[common],
                       help="parse a formula and echo its canonical form")
    formula_arg(p)

    p = sub.add_parser("translate", parents=[common],
                       help="re-render a formula in another notation")
    p.add_argument("--from", dest="source", choices=_NOTATION_NAMES, required=True)
    p.add_argument("--to", dest="target", choices=_NOTATION_NAMES, required=True)
    formula_arg(p)

    p = sub.add_parser("table", parents=[common], help="full truth table")
    formula_arg(p)

    p = sub.add_parser("matrix", parents=[common],
                       help="two-by-two matrix of a binary connective")
    p.add_argument("connective", help="canonical name or column number 1..16")

    p = sub.add_parser("check", parents=[common],
                       help="classify as tautology / contradiction / contingent")
    p.add_argument("--status", action="store_true",
                   help="exit 1 when the formula is not a tautology")
    formula_arg(p)

    p = sub.add_parser("entails", parents=[common],
                       help="test whether premises entail a conclusion")
    p.add_argument("-p", "--premise", action="append", default=[],
                   dest="premises", metavar="FORMULA")
    p.add_argument("conclusion")

    p = sub.add_parser("indirect", parents=[common],
                       help="abbreviated truth table with trace")
    formula_arg(p)

    triadic = sub.add_parser("triadic", help="three-valued operations")
    tsub = triadic.add_subparsers(dest="subcommand", required=True)
    tsub.add_parser("tables", parents=[common],
                    help="print the three 1909 matrices")
    p = tsub.add_parser("eval", parents=[common],
                        help="evaluate under a V/L/F assignment")
    formula_arg(p)
    p.add_argument("--assign", action="append", default=[], metavar="NAME=VALUE")
    p = tsub.add_parser("table", parents=[common],
                        help="full three-valued table")
    formula_arg(p)
    tsub.add_parser("check-restriction", parents=[common],
                    help="compare the matrices restricted to {V,F} with the "
                         "two-valued connectives")

    conn = sub.add_parser("connectives", help="the sixteen binary connectives")
    csub = conn.add_subparsers(dest="subcommand", required=True)
    csub.add_parser("catalog", parents=[common],
                    help="canonical catalog with columns, vectors and frames")
    csub.add_parser("paper-table", parents=[common],
                    help="the 1902 sixteen-column grid exactly as printed")
    p = csub.add_parser("identify", parents=[common],
                        help="name the connective with a given value vector")
    p.add_argument("values",
                   help="four values on (t,t) (t,f) (f,t) (f,f), e.g. v,f,f,v")
    p = csub.add_parser("xframe", parents=[common],
                        help="X-frame glyph of a connective")
    p.add_argument("connective")
    p = csub.add_parser("enumerate", parents=[common],
                        help="enumerate tautologies by substitution")
    p.add_argument("--vars", type=int, default=3, dest="max_variables")
    p.add_argument("--slots", type=int, default=3, dest="max_slots")
    p.add_argument("--shape", choices=["right-combs", "all-trees"],
                   default="right-combs")
    p.add_argument("--limit", type=int, default=20, dest="emit_limit",
                   help="print at most this many tautologies")
    p.add_argument("--count-only", action="store_true")

    syl = sub.add_parser("syllogism", help="the categorical A/E/I/O scheme")
    ssub = syl.add_subparsers(dest="subcommand", required=True)
    p = ssub.add_parser("render", parents=[common],
                        help="render one categorical form")
    p.add_argument("figure", choices=["A", "E", "I", "O"])
    p.add_argument("subject")
    p.add_argument("predicate")
    p = ssub.add_parser("barbara", parents=[common],
                        help="both Barbara formulas and their verdicts")
    p.add_argument("terms", nargs="*", default=[], metavar="TERM",
                   help="up to three term names (default x y z)")
    ssub.add_parser("aeio-table", parents=[common],
                    help="the four categorical forms with glosses")

    return top


# ---------------------------------------------------------------------------
# helpers

def _config(args: argparse.Namespace) -> SyntaxConfig:
    encoding = args.encoding
    if encoding is None:
        out = getattr(sys.stdout, "encoding", None) or ""
        encoding = "unicode" if "utf" in out.lower() else "ascii"
    return SyntaxConfig(Notation(args.notation), encoding)


def _read_formula(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"cannot read {args.file}: not valid UTF-8 at byte {exc.start}"
            ) from None
        except OSError as exc:
            raise ValueError(
                f"cannot read {args.file}: {exc.strerror or exc}"
            ) from None
    if args.formula is None:
        parser.error("a formula argument or --file is required")
    if args.formula == "-":
        return sys.stdin.read().strip()
    return args.formula


def _emit_json(payload: dict) -> None:
    print(json.dumps({"schema": 1, **payload}, ensure_ascii=False, indent=2))


def _formula_json(node: Formula) -> dict:
    if isinstance(node, Variable):
        return {"type": "variable", "name": node.name}
    if isinstance(node, Constant):
        return {"type": "constant", "value": node.value.value}
    if isinstance(node, Negation):
        return {"type": "negation", "operand": _formula_json(node.operand)}
    assert isinstance(node, Binary)
    return {
        "type": "binary",
        "connective": node.connective.name,
        "left": _formula_json(node.left),
        "right": _formula_json(node.right),
    }


def _assignment_json(assignment: dict[str, TruthValue] | None) -> dict | None:
    if assignment is None:
        return None
    return {name: value.value for name, value in assignment.items()}


def _format_assignment(assignment: dict[str, TruthValue],
                       symbols: tuple[str, str]) -> str:
    t_sym, f_sym = symbols
    return ", ".join(
        f"{name}={t_sym if value is TruthValue.T else f_sym}"
        for name, value in assignment.items()
    )


def _resolve_connective(text: str) -> Connective:
    if text.isdigit():
        return connective(int(text))
    return connective(text)


_VALUE_WORDS = {
    "t": TruthValue.T, "v": TruthValue.T, "1": TruthValue.T,
    "f": TruthValue.F, "0": TruthValue.F,
}


def _parse_values(text: str) -> tuple[TruthValue, ...]:
    cleaned = text.replace(",", " ").split()
    if len(cleaned) == 1 and len(cleaned[0]) == 4:
        cleaned = list(cleaned[0])
    values = []
    for word in cleaned:
        key = word.lower()
        if key not in _VALUE_WORDS:
            raise ValueError(f"not a truth value: {word!r}")
        values.append(_VALUE_WORDS[key])
    if len(values) != 4:
        raise ValueError(f"expected 4 values, got {len(values)}")
    return tuple(values)


# ---------------------------------------------------------------------------
# command handlers

def _cmd_parse(args, parser) -> int:
    config = _config(args)
    formula = parse(_read_formula(args, parser), config)
    rendering = render(formula, config)
    if args.format_ == "json":
        _emit_json({
            "command": "parse",
            "notation": config.notation.value,
            "encoding": config.encoding,
            "rendering": rendering,
            "variables": variables_of(formula),
            "ast": _formula_json(formula),
        })
    else:
        print(rendering)
    return EXIT_OK


def _cmd_translate(args, parser) -> int:
    source = SyntaxConfig(Notation(args.source), "unicode")
    target_encoding = _config(args).encoding
    target = SyntaxConfig(Notation(args.target), target_encoding)
    text = _read_formula(args, parser)
    output = translate(text, source, target)
    if args.format_ == "json":
        _emit_json({
            "command": "translate",
            "from": source.notation.value,
            "to": target.notation.value,
            "encoding": target.encoding,
            "input": text,
            "output": output,
        })
    else:
        print(output)
    return EXIT_OK


def _cmd_table(args, parser) -> int:
    config = _config(args)
    formula = parse(_read_formula(args, parser), config)
    table = truth_table(formula, row_order=args.row_order)
    symbols = value_symbols(config.notation)
    if args.format_ == "json":
        _emit_json({
            "command": "table",
            "rendering": render(formula, config),
            "variables": list(table.variables),
            "row_order": table.row_order,
            "rows": [
                {"assignment": _assignment_json(a), "value": v.value}
                for a, v in table.rows
            ],
        })
    else:
        print(format_truth_table(table, render(formula, config), symbols))
    return EXIT_OK


def _cmd_matrix(args, parser) -> int:
    conn = _resolve_connective(args.connective)
    matrix = matrix_table(conn)
    if args.format_ == "json":
        _emit_json({
            "command": "matrix",
            "connective": conn.name,
            "column": conn.column,
            "rows": [[v.value for v in row] for row in matrix.cells],
            "labels": ["t", "f"],
        })
    else:
        print(format_matrix(matrix))
    return EXIT_OK


def _cmd_check(args, parser) -> int:
    config = _config(args)
    formula = parse(_read_formula(args, parser), config)
    verdict = classify(formula)
    symbols = value_symbols(config.notation)
    if args.format_ == "json":
        _emit_json({
            "command": "check",
            "rendering": render(formula, config),
            "verdict": verdict.kind,
            "falsifying": _assignment_json(verdict.falsifying),
            "satisfying": _assignment_json(verdict.satisfying),
        })
    else:
        print(verdict.kind)
        if verdict.kind != "tautology" and verdict.falsifying is not None:
            print("falsifying: " + _format_assignment(verdict.falsifying, symbols))
        if verdict.kind == "contingent" and verdict.satisfying is not None:
            print("satisfying: " + _format_assignment(verdict.satisfying, symbols))
    if args.status and verdict.kind != "tautology":
        return EXIT_FAILED_CHECK
    return EXIT_OK


def _cmd_entails(args, parser) -> int:
    config = _config(args)
    premises = [parse(text, config) for text in args.premises]
    conclusion = parse(args.conclusion, config)
    result = entails(premises, conclusion)
    symbols = value_symbols(config.notation)
    if args.format_ == "json":
        _emit_json({
            "command": "entails",
            "valid": result.valid,
            "counterexample": _assignment_json(result.counterexample),
        })
    else:
        print("valid" if result.valid else "invalid")
        if result.counterexample is not None:
            print("counterexample: "
                  + _format_assignment(result.counterexample, symbols))
    return EXIT_OK


def _cmd_indirect(args, parser) -> int:
    config = _config(args)
    formula = parse(_read_formula(args, parser), config)
    result = indirect_check(formula)
    symbols = value_symbols(config.notation)
    if args.format_ == "json":
        _emit_json({
            "command": "indirect",
            "rendering": render(formula, config),
            "outcome": result.outcome,
            "countermodel": _assignment_json(result.countermodel),
            "unconstrained": list(result.unconstrained),
            "columns": [render(c, config) for c in result.trace.columns],
            "steps": [
                {
                    "values": [v.value if v is not None else None
                               for v in step.values],
                    "note": step.note,
                }
                for step in result.trace.steps
            ],
        })
    else:
        print("outcome: " + result.outcome)
        if result.countermodel is not None:
            print("countermodel: "
                  + (_format_assignment(result.countermodel, symbols) or "(empty)"))
            if result.unconstrained:
                print("unconstrained: " + ", ".join(result.unconstrained))
        print()
        print(render_trace(result.trace, config))
    return EXIT_OK


_TRIADIC_WORDS = {"v": TriadicValue.V, "l": TriadicValue.L, "f": TriadicValue.F}


def _cmd_triadic(args, parser) -> int:
    config = _config(args)
    if args.subcommand == "tables":
        print(format_tables(config.encoding))
        return EXIT_OK
    if args.subcommand == "check-restriction":
        report = restriction_check()
        if args.format_ == "json":
            _emit_json({
                "command": "triadic check-restriction",
                "ok": report.ok,
                "mismatches": [
                    {"operation": op, "inputs": [v.value for v in pair],
                     "got": got.value, "expected": expected.value}
                    for op, pair, got, expected in report.mismatches
                ],
            })
        else:
            for name in ("negation", "disjunction", "conjunction"):
                bad = [m for m in report.mismatches if m[0] == name]
                status = "matches" if not bad else "differs from"
                print(f"{name} restricted to {{V,F}}: {status} the "
                      f"two-valued {name}")
            print("no mismatches" if report.ok
                  else f"{len(report.mismatches)} mismatches")
        return EXIT_OK

    formula = parse(_read_formula(args, parser), config)
    if args.subcommand == "eval":
        assignment: dict[str, TriadicValue] = {}
        for item in args.assign:
            name, _, word = item.partition("=")
            if word.lower() not in _TRIADIC_WORDS:
                parser.error(f"--assign values are V, L or F; got {item!r}")
            assignment[name] = _TRIADIC_WORDS[word.lower()]
        value = evaluate3(formula, assignment)
        if args.format_ == "json":
            _emit_json({
                "command": "triadic eval",
                "value": value.value,
                "assignment": {k: v.value for k, v in assignment.items()},
            })
        else:
            print(value.value)
        return EXIT_OK

    table = truth_table3(formula)
    if args.format_ == "json":
        _emit_json({
            "command": "triadic table",
            "rendering": render(formula, config),
            "variables": list(table.variables),
            "rows": [
                {"assignment": {k: v.value for k, v in a.items()},
                 "value": value.value}
                for a, value in table.rows
            ],
        })
    else:
        print(format_truth_table(table, render(formula, config)))
    return EXIT_OK


def _cmd_connectives(args, parser) -> int:
    if args.subcommand == "catalog":
        if args.format_ == "json":
            _emit_json({
                "command": "connectives catalog",
                "connectives": [
                    {
                        "column": c.column,
                        "name": c.name,
                        "vector": [v.value for v in c.vector],
                        "closed": list(xframe_of(c).closed_pairs()),
                        "note": c.note,
                    }
                    for c in CONNECTIVES
                ],
            })
        else:
            for c in CONNECTIVES:
                vector = " ".join(v.value for v in c.vector)
                closed = ",".join(xframe_of(c).closed_pairs()) or "none"
                print(f"{c.column:>2}  {c.name:<24} {vector}  closed: {closed}")
        return EXIT_OK

    if args.subcommand == "paper-table":
        table = paper_table()
        if args.format_ == "json":
            _emit_json({
                "command": "connectives paper-table",
                "rows": [[v.value for v in row] for row in table.grid],
                "annotations": list(table.annotations),
                "duplicate_column": table.duplicate_column,
                "duplicate_of": table.duplicate_of,
                "missing_vector": [v.value for v in table.missing_vector],
            })
        else:
            print(format_paper_table(table))
        return EXIT_OK

    if args.subcommand == "identify":
        try:
            values = _parse_values(args.values)
        except ValueError as exc:
            parser.error(str(exc))
        conn = identify(values)
        if args.format_ == "json":
            _emit_json({
                "command": "connectives identify",
                "name": conn.name,
                "column": conn.column,
                "vector": [v.value for v in conn.vector],
            })
        else:
            print(f"{conn.name} (column {conn.column})")
        return EXIT_OK

    if args.subcommand == "xframe":
        conn = _resolve_connective(args.connective)
        frame = xframe_of(conn)
        if args.format_ == "json":
            _emit_json({
                "command": "connectives xframe",
                "name": conn.name,
                "column": conn.column,
                "closed": list(frame.closed_pairs()),
                "glyph": render_xframe(frame).split("\n"),
            })
        else:
            print(render_xframe(frame))
        return EXIT_OK

    # enumerate
    spec = EnumerationSpec(
        max_variables=args.max_variables,
        max_connective_slots=args.max_slots,
        shape_policy=args.shape,
        emit_limit=0 if args.count_only else args.emit_limit,
    )
    result = enumerate_tautologies(spec)
    config = _config(args)
    if args.format_ == "json":
        _emit_json({
            "command": "connectives enumerate",
            "max_variables": spec.max_variables,
            "max_connective_slots": spec.max_connective_slots,
            "shape_policy": spec.shape_policy,
            "emitted": [
                {
                    "rendering": render(e.formula, config),
                    "connectives": [c.name for c in e.connectives],
                    "slots": e.slots,
                }
                for e in result.emitted
            ],
            "per_slot": [
                {"slots": s.slots, "generated": s.generated,
                 "tautologies": s.tautologies, "distinct": s.distinct}
                for s in result.per_slot
            ],
            "total_generated": result.total_generated,
            "total_tautologies": result.total_tautologies,
            "total_distinct": result.total_distinct,
        })
    else:
        for e in result.emitted:
            print(render(e.formula, config))
        for s in result.per_slot:
            print(f"slots={s.slots}: generated={s.generated} "
                  f"tautologies={s.tautologies} distinct={s.distinct}")
        print(f"total: generated={result.total_generated} "
              f"tautologies={result.total_tautologies} "
              f"distinct={result.total_distinct}")
    return EXIT_OK


def _cmd_syllogism(args, parser) -> int:
    config = _config(args)
    if args.subcommand == "render":
        form = CategoricalForm(args.figure, args.subject, args.predicate)
        text = render_categorical(form, config)
        if args.format_ == "json":
            _emit_json({
                "command": "syllogism render",
                "figure": form.figure,
                "rendering": text,
                "gloss": GLOSSES[form.figure][0],
                "kind": GLOSSES[form.figure][1],
            })
        else:
            print(text)
        return EXIT_OK

    if args.subcommand == "barbara":
        terms = list(args.terms) or ["x", "y", "z"]
        if len(terms) != 3:
            parser.error("barbara takes exactly three term names (or none)")
        forms = barbara(*terms)
        if args.format_ == "json":
            _emit_json({
                "command": "syllogism barbara",
                "nested": render(forms.nested, config),
                "nested_verdict": forms.nested_verdict.kind,
                "conjunctive": render(forms.conjunctive, config),
                "conjunctive_verdict": forms.conjunctive_verdict.kind,
            })
        else:
            print(f"nested:      {render(forms.nested, config)}"
                  f"  [{forms.nested_verdict.kind}]")
            print(f"conjunctive: {render(forms.conjunctive, config)}"
                  f"  [{forms.conjunctive_verdict.kind}]")
        return EXIT_OK

    # aeio-table
    rows = []
    for figure in ("A", "E", "I", "O"):
        form = CategoricalForm(figure, "a", "b")
        rows.append((figure, render_categorical(form, config),
                     GLOSSES[figure][0], GLOSSES[figure][1]))
    if args.format_ == "json":
        _emit_json({
            "command": "syllogism aeio-table",
            "forms": [
                {"figure": f, "rendering": r, "gloss": g, "kind": k}
                for f, r, g, k in rows
            ],
        })
    else:
        width = max(display_width(r) for _, r, _, _ in rows)
        for figure, rendering, gloss, kind in rows:
            print(f"{figure}. {pad_display(rendering, width)}  {gloss:<16} ({kind})")
    return EXIT_OK


_HANDLERS = {
    "parse": _cmd_parse,
    "translate": _cmd_translate,
    "table": _cmd_table,
    "matrix": _cmd_matrix,
    "check": _cmd_check,
    "entails": _cmd_entails,
    "indirect": _cmd_indirect,
    "triadic": _cmd_triadic,
    "connectives": _cmd_connectives,
    "syllogism": _cmd_syllogism,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args, parser)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedConnectiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (VariableLimitError, EnumerationBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (MissingVariableError, KeyError, ValueError) as exc:
        # str(KeyError) wraps its argument in quotes; unwrap for readability.
        reason = exc.args[0] if exc.args else exc
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())
