"""Command-line interface.

Exit codes: 0 success; 1 only for `check --status` on a non-tautology;
2 parse or usage errors; 3 operations the requested semantics does not
define (e.g. a triadic implication); 4 exceeded size bounds: the variable
limits, the enumerator's bounds, and the output bounds below.

Formulas of any nesting depth are accepted.  What a command would print is
bounded instead: its formula renderings, table rows and trace are
measured in the form `--format` asks for before any text is built, and
past OUTPUT_LIMIT characters the command exits 4 naming the predicted
size; `indirect` stops its search once its steps' shortest lines alone
would pass the limit, naming that lower bound, and `parse --format json`
also exits 4, before rendering, when its `ast` would nest deeper than
JSON_DEPTH_LIMIT.

Output is deterministic: the same argv and input produce identical bytes.
`--format json` emits one schema-stable JSON document per invocation,
written by `main` once every handler has finished its work.

The commands are one table: each handler declares its leaf's path, help
and arguments with `_leaf`, and `_parser` builds the argparse tree from the
table once per process.  A command loads only what it uses: this module
imports `core` and `notation`, each handler imports what it calls from the
other submodules in its first line, and `main` imports `json` only for
`--format json`.  No command imports `dataclasses`, `inspect` or `typing`,
nor `shutil`, which argparse's formatter loads only to lay out help.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain

from . import __version__
from .core import (CONNECTIVES, Binary, Connective, Constant, EnumerationBoundError,
                   Formula, MissingVariableError, Negation, TriadicValue, TruthValue,
                   UnsupportedConnectiveError, Variable, VariableLimitError, connective,
                   fold, grid_size, variables_of)
from .notation import (RESERVED_WORDS, Notation, ParseError, SyntaxConfig, display_width,
                       pad_display, parse, render, rendered_size, rendered_sizes,
                       value_symbols)

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_LIMIT = 4

#: Most characters a command may print.  Renderings grow exponentially in
#: depth where a notation expands a connective it has no symbol for, and an
#: indirect trace grows with columns times steps, so the size is predicted
#: first and a larger output exits 4 before any of its text is built.
OUTPUT_LIMIT = 64 * 2**20
#: Deepest formula `parse --format json` writes as its `ast`: the standard
#: library's JSON writer and reader both recurse once per level.
JSON_DEPTH_LIMIT = 500

_NOTATION_NAMES = [n.value for n in Notation]


class OutputLimitError(Exception):
    """An output over one of the bounds above, refused before it is built."""


def _check_size(size: int, bound: str = "") -> None:
    """Refuse an output of `size` characters, or of more than `size` with
    `bound` "more than ", past OUTPUT_LIMIT."""
    if size > OUTPUT_LIMIT:
        raise OutputLimitError(f"the output would take {bound}{size} characters, "
                               f"over the limit of {OUTPUT_LIMIT}")


class Output:
    """A handler's result. Only the form `--format` asks for is built, so a
    text run never assembles JSON rows and a JSON run never lays out text.
    `payload` gives the JSON payload, or the whole document in pieces, and
    `text` the text, or its pieces; pieces are written as they come."""

    __slots__ = ("payload", "text", "code")

    def __init__(self, payload: Callable[[], dict | Iterable[str]],
                 text: Callable[[], str | Iterable[str]], code: int = EXIT_OK) -> None:
        self.payload, self.text, self.code = payload, text, code


def _json_document(path: str, payload: dict) -> str:
    """The `--format json` output of the command at `path`."""
    import json
    return json.dumps({"schema": 1, "command": path, **payload},
                      ensure_ascii=False, indent=2)


def _json_list(path: str, payload: dict, blocks: Iterator[str]) -> Iterator[str]:
    """`_json_document(path, payload)` with `blocks` as the items of the
    empty list that ends `payload`, the text `json.dumps` gives for the
    whole, with no item built as a dict.  Every item starts with the comma
    before it, which the first drops."""
    document = _json_document(path, payload)
    yield document[:-len("]\n}")] + next(blocks)[1:]
    yield from blocks
    yield "\n  ]\n}"


def _json_list_size(path: str, payload: dict, items: int) -> int:
    """The length of `_json_list`'s text around blocks of `items` characters."""
    return len(_json_document(path, payload)) + len("\n  ") - len(",") + items


def _json_cells(keys: Sequence[str], values: Sequence[str]) -> list[list[str]]:
    """The cells of JSON rows: per key, its item at each of `values`."""
    last = len(keys) - 1
    return [[f'\n        {key}{value}{"," * (i < last)}' for value in values]
            for i, key in enumerate(keys)]


def _json_rows(variables: Sequence[str], values: Sequence) -> tuple:
    """A table's JSON rows as `row_blocks` lays them out: the cells at
    `values`, the opening, the closing and each value's ending.  Every
    value is one character, so every row's JSON has one length."""
    import json
    keys = [json.dumps(name, ensure_ascii=False) + ": " for name in variables]
    cells = _json_cells(keys, [f'"{value.value}"' for value in values])
    closing = ("\n      " if keys else "") + '},\n      "value": "'
    endings = {value: f'{value.value}"\n    }}' for value in values}
    return cells, ',\n    {\n      "assignment": {', closing, endings


def _json_steps(width: int) -> tuple:
    """A trace's JSON steps as `TraceSteps.rows` lays them out: the cells,
    each note's ending, the opening and the closing."""
    from .indirect import NOTES
    cells = _json_cells([""] * width, ['"t"', '"f"', "null"])
    endings = [f'{note}"\n    }}' for note in NOTES]
    return cells, endings, ',\n    {\n      "values": [', '\n      ],\n      "note": "'


def _blocks(lines: Iterable[list[str]]) -> Iterator[str]:
    """The pieces of `lines` (each a list, which may be reused for the
    next) joined in blocks of about 2**15 pieces."""
    block: list[str] = []
    for pieces in lines:
        block += pieces
        if len(block) >= 1 << 15:
            yield "".join(block)
            block.clear()
    yield "".join(block)


# ---------------------------------------------------------------------------
# the command table, filled by `_leaf` in help order

_LEAVES: list[tuple[str, str, tuple, Callable]] = []
_GROUPS = {
    "triadic": "three-valued operations",
    "connectives": "the sixteen binary connectives",
    "syllogism": "the categorical A/E/I/O scheme",
}


def _arg(*names: str, **keywords) -> tuple:
    """One argument of a leaf, as `add_argument` takes it."""
    return names, keywords


_FORMULA = (
    _arg("formula", nargs="?", help="formula text, or - to read stdin; "
                                    "put a formula that starts with - after --"),
    _arg("--file", help="read the formula from a file"),
)


def _leaf(path: str, help: str, *arguments: tuple) -> Callable:
    """Declare the decorated handler as the leaf command at `path`."""
    def declare(handler: Callable) -> Callable:
        _LEAVES.append((path, help, arguments, handler))
        return handler
    return declare


class _Formatter(argparse.HelpFormatter):
    """argparse's formatter, reading the terminal's width (and loading
    `shutil` to do so) only when it lays out help or usage: `add_argument`
    builds a formatter for every argument just to check its metavar."""

    def __init__(self, prog: str) -> None:
        super().__init__(prog, width=0)
        del self._width, self._max_help_position

    def __getattr__(self, name: str):
        if name not in ("_width", "_max_help_position"):
            raise AttributeError(name)
        terminal = argparse.HelpFormatter(self._prog)
        self._width, self._max_help_position = terminal._width, terminal._max_help_position
        return getattr(self, name)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command tree, built from the table on first use.  A subcommand
    group is given its `prog`, which argparse would otherwise lay out as a
    usage line."""
    common = argparse.ArgumentParser(add_help=False, formatter_class=_Formatter)
    common.add_argument("--notation", choices=_NOTATION_NAMES, default="modern")
    common.add_argument("--encoding", choices=["unicode", "ascii"], default=None,
                        help="default: unicode when stdout advertises UTF-8")
    common.add_argument("--format", dest="format_", choices=["text", "json"],
                        default="text")

    top = argparse.ArgumentParser(
        prog="illation",
        description="Propositional logic over Peirce-era notations.",
        formatter_class=_Formatter,
    )
    top.add_argument("--version", action="version", version=f"illation {__version__}")
    groups = {"": top.add_subparsers(dest="command", required=True, prog=top.prog)}
    for path, help, arguments, handler in _LEAVES:
        group, _, name = path.rpartition(" ")
        if group not in groups:
            parent = groups[""].add_parser(group, help=_GROUPS[group],
                                           formatter_class=_Formatter)
            groups[group] = parent.add_subparsers(dest="subcommand", required=True,
                                                  prog=parent.prog)
        leaf = groups[group].add_parser(name, parents=[common], help=help,
                                        formatter_class=_Formatter)
        # Errors found after parsing name the leaf's own usage and options.
        leaf.set_defaults(handler=handler, path=path, parser=leaf)
        for names, keywords in arguments:
            leaf.add_argument(*names, **keywords)
    return top


# ---------------------------------------------------------------------------
# helpers

def _config(args: argparse.Namespace) -> SyntaxConfig:
    encoding = args.encoding
    if encoding is None:
        out = getattr(sys.stdout, "encoding", None) or ""
        encoding = "unicode" if "utf" in out.lower() else "ascii"
    return SyntaxConfig(Notation(args.notation), encoding)


def _read_formula(args: argparse.Namespace) -> str:
    if args.file is not None:
        source = args.file
        try:
            with open(source, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise ValueError(f"cannot read {source}: {exc.strerror or exc}") from None
    elif args.formula is None:
        args.parser.error("a formula argument or --file is required")
    elif args.formula == "-":
        source, data = "<stdin>", sys.stdin.buffer.read()
    else:
        return args.formula
    try:
        return data.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"cannot read {source}: not valid UTF-8 at byte {exc.start}"
        ) from None


def _parsed(args: argparse.Namespace) -> tuple[Formula, SyntaxConfig]:
    """The leaf's formula, read and parsed, and its syntax."""
    config = _config(args)
    return parse(_read_formula(args), config), config


def _render_bounded(formula: Formula, config: SyntaxConfig) -> str:
    """render, after checking the rendering's predicted size."""
    _check_size(rendered_size(formula, config))
    return render(formula, config)


def _formula_json(formula: Formula) -> dict:
    """The formula as nested dicts."""
    def tree(node: Formula, *operands: dict) -> dict:
        if isinstance(node, Variable):
            return {"type": "variable", "name": node.name}
        if isinstance(node, Constant):
            return {"type": "constant", "value": node.value.value}
        if isinstance(node, Negation):
            return {"type": "negation", "operand": operands[0]}
        return {"type": "binary", "connective": node.connective.name,
                "left": operands[0], "right": operands[1]}

    return fold(formula, tree)


def _assignment_json(assignment: dict | None) -> dict | None:
    if assignment is None:
        return None
    return {name: value.value for name, value in assignment.items()}


def _grid_json(rows) -> list[list[str]]:
    return [[v.value for v in row] for row in rows]


def _format_assignment(assignment: dict[str, TruthValue],
                       symbols: tuple[str, str]) -> str:
    t_sym, f_sym = symbols
    return ", ".join(
        f"{name}={t_sym if value is TruthValue.T else f_sym}"
        for name, value in assignment.items()
    )


def _resolve_connective(text: str) -> Connective:
    return connective(int(text) if text.isascii() and text.isdigit() else text)


def _check_terms(args: argparse.Namespace, *terms: str) -> None:
    """Refuse a term the notation reads as a constant: its rendering would
    parse back with the constant in the term's place."""
    for term in terms:
        if term in RESERVED_WORDS[Notation(args.notation)]:
            raise ValueError(f"term {term!r} is a constant of the {args.notation} notation")


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
# command handlers: each does the work and returns an Output; none prints.

@_leaf("parse", "parse a formula and echo its canonical form", *_FORMULA)
def _cmd_parse(args) -> Output:
    formula, config = _parsed(args)
    _check_size(rendered_size(formula, config))
    if args.format_ == "json":
        depth = fold(formula, lambda node, *below: 1 + max(below, default=0))
        if depth > JSON_DEPTH_LIMIT:
            raise OutputLimitError(
                f"the JSON ast would nest {depth} levels deep, over the limit of "
                f"{JSON_DEPTH_LIMIT}")
    rendering = render(formula, config)
    return Output(lambda: {
        "notation": config.notation.value,
        "encoding": config.encoding,
        "rendering": rendering,
        "variables": variables_of(formula),
        "ast": _formula_json(formula),
    }, lambda: rendering)


@_leaf("translate", "re-render a formula in another notation",
       _arg("--from", dest="source", choices=_NOTATION_NAMES, required=True),
       _arg("--to", dest="target", choices=_NOTATION_NAMES, required=True),
       *_FORMULA)
def _cmd_translate(args) -> Output:
    source = SyntaxConfig(Notation(args.source), "unicode")
    target = SyntaxConfig(Notation(args.target), _config(args).encoding)
    text = _read_formula(args)
    output = _render_bounded(parse(text, source), target)
    return Output(lambda: {
        "from": source.notation.value,
        "to": target.notation.value,
        "encoding": target.encoding,
        "input": text,
        "output": output,
    }, lambda: output)


def _table(args: argparse.Namespace, formula: Formula, config: SyntaxConfig,
           fields: dict, values: Sequence, build: Callable) -> Output:
    """The Output of the table `build()` makes, once the size of the form
    `--format` asks for is checked, before the table or its text is built,
    from the cells its writer lays out: a row per assignment of `values` to
    the variables of `fields`, under the formula's rendering.  `fields`
    follow the rendering in the JSON payload, the empty "rows" last; no
    rendering holds a character JSON escapes."""
    from .bivalent import row_blocks, table_blocks, table_size
    names, header = fields["variables"], rendered_size(formula, config)
    count = len(values) ** len(names)
    if args.format_ == "text":
        _check_size(table_size(names, count, header))
    else:
        cells, opening, closing, endings = _json_rows(names, values)
        items = grid_size(cells, opening, closing, [(endings[values[0]], count)])
        _check_size(_json_list_size(args.path, {"rendering": "", **fields}, items) + header)
    table = build()
    rendering = render(formula, config)

    def json_table() -> Iterator[str]:
        rows = table.rows
        cells, opening, closing, endings = _json_rows(rows.variables, rows.cells)
        value_of = {code: endings[value] for code, value in rows.outcomes.items()}
        return _json_list(args.path, {"rendering": rendering, **fields},
                          row_blocks(rows, cells, value_of, opening, closing))

    return Output(json_table,
                  lambda: table_blocks(table, rendering, value_symbols(config.notation)))


@_leaf("table", "full truth table",
       _arg("--row-order", choices=["t-first", "f-first"], default="t-first"),
       *_FORMULA)
def _cmd_table(args) -> Output:
    from .bivalent import DEFAULT_VARIABLE_LIMIT, truth_table
    formula, config = _parsed(args)
    names = variables_of(formula)
    if len(names) > DEFAULT_VARIABLE_LIMIT:  # truth_table's error, before the size check
        raise VariableLimitError(len(names), DEFAULT_VARIABLE_LIMIT)
    return _table(args, formula, config,
                  {"variables": names, "row_order": args.row_order, "rows": []},
                  tuple(TruthValue), lambda: truth_table(formula, row_order=args.row_order))


@_leaf("matrix", "two-by-two matrix of a binary connective",
       _arg("connective", help="canonical name or column number 1..16"))
def _cmd_matrix(args) -> Output:
    from .bivalent import format_matrix, matrix_table
    conn = _resolve_connective(args.connective)
    matrix = matrix_table(conn)
    return Output(lambda: {
        "connective": conn.name,
        "column": conn.column,
        "rows": _grid_json(matrix.cells),
        "labels": ["t", "f"],
    }, lambda: format_matrix(matrix))


@_leaf("check", "classify as tautology / contradiction / contingent",
       _arg("--status", action="store_true",
            help="exit 1 when the formula is not a tautology"),
       *_FORMULA)
def _cmd_check(args) -> Output:
    from .bivalent import classify
    formula, config = _parsed(args)
    verdict = classify(formula)

    def text() -> str:
        symbols = value_symbols(config.notation)
        lines = [verdict.kind]
        if verdict.kind != "tautology" and verdict.falsifying is not None:
            lines.append("falsifying: " + _format_assignment(verdict.falsifying, symbols))
        if verdict.kind == "contingent" and verdict.satisfying is not None:
            lines.append("satisfying: " + _format_assignment(verdict.satisfying, symbols))
        return "\n".join(lines)

    failed = args.status and verdict.kind != "tautology"
    return Output(lambda: {
        "rendering": _render_bounded(formula, config),
        "verdict": verdict.kind,
        "falsifying": _assignment_json(verdict.falsifying),
        "satisfying": _assignment_json(verdict.satisfying),
    }, text, EXIT_FAILED_CHECK if failed else EXIT_OK)


@_leaf("entails", "test whether premises entail a conclusion",
       _arg("-p", "--premise", action="append", default=[], dest="premises",
            metavar="FORMULA"),
       _arg("conclusion"))
def _cmd_entails(args) -> Output:
    from .bivalent import entails
    config = _config(args)
    premises = [parse(text, config) for text in args.premises]
    conclusion = parse(args.conclusion, config)
    result = entails(premises, conclusion)

    def text() -> str:
        lines = ["valid" if result.valid else "invalid"]
        if result.counterexample is not None:
            symbols = value_symbols(config.notation)
            lines.append("counterexample: "
                         + _format_assignment(result.counterexample, symbols))
        return "\n".join(lines)

    return Output(lambda: {
        "valid": result.valid,
        "counterexample": _assignment_json(result.counterexample),
    }, text)


@_leaf("indirect", "abbreviated truth table with trace", *_FORMULA)
def _cmd_indirect(args) -> Output:
    from .indirect import NOTES, StepLimitError, indirect_check, text_layout, trace_lines
    formula, config = _parsed(args)
    sizes = rendered_sizes(formula, config)  # the columns', in column order
    lengths = list(sizes.values())
    if args.format_ == "json":
        layout = _json_steps(len(lengths))
    else:
        # The header holds every column's rendering: a trace whose renderings
        # alone pass the limit is refused naming their length, before any
        # cell as wide as one is laid out.
        _check_size(sum(lengths), "more than ")
        header, cells = text_layout(list(sizes), config)
        layout = cells, NOTES, "\n", "| "
    # A step's line is at least its t or f cells and the shortest ending, so
    # the search stops once it has more steps than the limit holds of those.
    cells, endings, opening, closing = layout
    shortest = grid_size(cells, opening, closing, [(min(endings, key=len), 1)])
    try:
        result = indirect_check(formula, OUTPUT_LIMIT // shortest)
    except StepLimitError as exc:
        _check_size(exc.steps * shortest, "more than ")
        raise
    trace = result.trace
    lines = ["outcome: " + result.outcome]
    if result.countermodel is not None:
        symbols = value_symbols(config.notation)
        lines.append("countermodel: " + (
            _format_assignment(result.countermodel, symbols) or "(empty)"))
        if result.unconstrained:
            lines.append("unconstrained: " + ", ".join(result.unconstrained))
    head = "\n".join([*lines, "", ""])

    def payload(columns: list[str]) -> dict:
        return {"rendering": columns[-1], "outcome": result.outcome,
                "countermodel": _assignment_json(result.countermodel),
                "unconstrained": list(result.unconstrained), "columns": columns,
                "steps": []}

    if args.format_ == "json":
        _check_size(_json_list_size(args.path, payload([""] * len(lengths)),
                                    trace.steps.rows_size(*layout)) + sum(lengths) + lengths[-1])
    else:
        _check_size(len(head) + header + trace.steps.rows_size(*layout))
    return Output(lambda: _json_list(
        args.path, payload([render(column, config) for column in trace.columns]),
        _blocks(trace.steps.rows(*layout))),
        lambda: _blocks(chain([[head]], trace_lines(trace, config))))


_TRIADIC_WORDS = {"v": TriadicValue.V, "l": TriadicValue.L, "f": TriadicValue.F}


@_leaf("triadic tables", "print the three 1909 matrices")
def _cmd_triadic_tables(args) -> Output:
    from .trivalent import TABLES, format_tables
    return Output(lambda: {
        "values": [v.value for v in TABLES.negation],
        "negation": [v.value for v in TABLES.negation.values()],
        "disjunction": _grid_json(TABLES.disjunction),
        "conjunction": _grid_json(TABLES.conjunction),
    }, lambda: format_tables(_config(args).encoding))


@_leaf("triadic eval", "evaluate under a V/L/F assignment",
       *_FORMULA, _arg("--assign", action="append", default=[], metavar="NAME=VALUE"))
def _cmd_triadic_eval(args) -> Output:
    from .trivalent import evaluate3
    formula = _parsed(args)[0]
    assignment: dict[str, TriadicValue] = {}
    for item in args.assign:
        name, _, word = item.partition("=")
        if word.lower() not in _TRIADIC_WORDS:
            args.parser.error(f"--assign values are V, L or F; got {item!r}")
        assignment[name] = _TRIADIC_WORDS[word.lower()]
    value = evaluate3(formula, assignment)
    return Output(lambda: {
        "value": value.value,
        "assignment": _assignment_json(assignment),
    }, lambda: value.value)


@_leaf("triadic table", "full three-valued table", *_FORMULA)
def _cmd_triadic_table(args) -> Output:
    from .trivalent import is_tautology3, truth_table3
    formula, config = _parsed(args)
    is_tautology3(formula)  # raises what truth_table3 would, before the size check
    return _table(args, formula, config, {"variables": variables_of(formula), "rows": []},
                  tuple(TriadicValue), lambda: truth_table3(formula))


@_leaf("triadic check-restriction",
       "compare the matrices restricted to {V,F} with the two-valued connectives")
def _cmd_triadic_check_restriction(args) -> Output:
    from .trivalent import restriction_check
    report = restriction_check()

    def text() -> str:
        lines = []
        for name in ("negation", "disjunction", "conjunction"):
            bad = [m for m in report.mismatches if m[0] == name]
            status = "matches" if not bad else "differs from"
            lines.append(f"{name} restricted to {{V,F}}: {status} the "
                         f"two-valued {name}")
        lines.append("no mismatches" if report.ok
                     else f"{len(report.mismatches)} mismatches")
        return "\n".join(lines)

    return Output(lambda: {
        "ok": report.ok,
        "mismatches": [
            {"operation": op, "inputs": [v.value for v in pair],
             "got": got.value, "expected": expected.value}
            for op, pair, got, expected in report.mismatches
        ],
    }, text)


@_leaf("connectives catalog", "canonical catalog with columns, vectors and frames")
def _cmd_connectives_catalog(args) -> Output:
    from .atlas import xframe_of
    def line(c: Connective) -> str:
        vector = " ".join(v.value for v in c.vector)
        closed = ",".join(xframe_of(c).closed_pairs()) or "none"
        return f"{c.column:>2}  {c.name:<24} {vector}  closed: {closed}"

    return Output(lambda: {
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
    }, lambda: "\n".join(line(c) for c in CONNECTIVES))


@_leaf("connectives paper-table", "the 1902 sixteen-column grid exactly as printed")
def _cmd_connectives_paper_table(args) -> Output:
    from .atlas import format_paper_table, paper_table
    table = paper_table()
    return Output(lambda: {
        "rows": _grid_json(table.grid),
        "annotations": list(table.annotations),
        "duplicate_column": table.duplicate_column,
        "duplicate_of": table.duplicate_of,
        "missing_vector": [v.value for v in table.missing_vector],
    }, lambda: format_paper_table(table))


@_leaf("connectives identify", "name the connective with a given value vector",
       _arg("values", help="four values on (t,t) (t,f) (f,t) (f,f), e.g. v,f,f,v"))
def _cmd_connectives_identify(args) -> Output:
    from .atlas import identify
    try:
        values = _parse_values(args.values)
    except ValueError as exc:
        args.parser.error(str(exc))
    conn = identify(values)
    return Output(lambda: {
        "name": conn.name,
        "column": conn.column,
        "vector": [v.value for v in conn.vector],
    }, lambda: f"{conn.name} (column {conn.column})")


@_leaf("connectives xframe", "X-frame glyph of a connective", _arg("connective"))
def _cmd_connectives_xframe(args) -> Output:
    from .atlas import render_xframe, xframe_of
    conn = _resolve_connective(args.connective)
    frame = xframe_of(conn)
    return Output(lambda: {
        "name": conn.name,
        "column": conn.column,
        "closed": list(frame.closed_pairs()),
        "glyph": render_xframe(frame).split("\n"),
    }, lambda: render_xframe(frame))


def _longest_renderings(max_slots: int, config: SyntaxConfig) -> list[int]:
    """For each slot count, a bound on the rendered length of any formula
    with that many connectives over one-letter variables: the longest
    rendering of a connective over two variables that stand for operands of
    the bounds below, with room for their brackets."""
    bounds = [1]
    for slots in range(1, max_slots + 1):
        longest = 0
        for i in range(slots):
            left, right = (Variable("p" * (bounds[j] + 2)) for j in (i, slots - 1 - i))
            for c in CONNECTIVES:
                formula = Binary(c, left, right)
                longest = max(longest, rendered_size(formula, config))
        bounds.append(longest)
    return bounds


@_leaf("connectives enumerate", "enumerate tautologies by substitution",
       _arg("--vars", type=int, default=3, dest="max_variables"),
       _arg("--slots", type=int, default=3, dest="max_slots"),
       _arg("--shape", choices=["right-combs", "all-trees"], default="right-combs"),
       _arg("--limit", type=int, default=20, dest="emit_limit",
            help="print at most this many tautologies"),
       _arg("--count-only", action="store_true"))
def _cmd_connectives_enumerate(args) -> Output:
    from .atlas import EnumerationSpec, emit_tautologies, enumerate_tautologies
    bounds = (args.max_variables, args.max_slots, args.shape)
    spec = EnumerationSpec(*bounds, args.emit_limit)
    # Count first: --count-only emits nothing, but --limit is still
    # validated above, and the counts bound the lines to be emitted.
    result = enumerate_tautologies(EnumerationSpec(*bounds, emit_limit=0))
    config = _config(args)
    summary = [f"slots={s.slots}: generated={s.generated} "
               f"tautologies={s.tautologies} distinct={s.distinct}"
               for s in result.per_slot]
    summary.append(f"total: generated={result.total_generated} "
                   f"tautologies={result.total_tautologies} "
                   f"distinct={result.total_distinct}")

    document = {
        "max_variables": spec.max_variables,
        "max_connective_slots": spec.max_connective_slots,
        "shape_policy": spec.shape_policy,
        "emitted": [],
        "per_slot": [
            {"slots": s.slots, "generated": s.generated,
             "tautologies": s.tautologies, "distinct": s.distinct}
            for s in result.per_slot
        ],
        "total_generated": result.total_generated,
        "total_tautologies": result.total_tautologies,
        "total_distinct": result.total_distinct,
    }
    emitted = ()
    if not args.count_only and spec.emit_limit != 0:
        # Emission runs in slot order, so the counts say how many of each.
        # A line takes at most its slot count's longest rendering and a line
        # break; an entry of the JSON, that rendering, as many of the longest
        # connective name as it has slots, and at most the first entry's
        # shape (a later one's is two characters shorter).
        if args.format_ == "json":
            size = empty = len(_json_document(args.path, document))
        else:
            size = len("\n".join(summary))
        name, left = max(len(c.name) for c in CONNECTIVES), spec.emit_limit
        for s, longest in zip(result.per_slot,
                              _longest_renderings(spec.max_connective_slots, config)):
            drawn, line = min(left, s.tautologies), longest + 1
            if args.format_ == "json":
                entry = {"rendering": "", "connectives": [""] * s.slots, "slots": s.slots}
                shape = len(_json_document(args.path, {**document, "emitted": [entry]}))
                line = longest + s.slots * name + shape - empty
            size += drawn * line
            left -= drawn
        _check_size(size)
        # The counts are in hand: draw the emission without counting again.
        emitted = emit_tautologies(spec)

    return Output(lambda: {**document, "emitted": [
        {"rendering": render(e.formula, config),
         "connectives": [c.name for c in e.connectives], "slots": e.slots}
        for e in emitted
    ]}, lambda: "\n".join([*(render(e.formula, config) for e in emitted), *summary]))


@_leaf("syllogism render", "render one categorical form",
       _arg("figure", choices=["A", "E", "I", "O"]), _arg("subject"), _arg("predicate"))
def _cmd_syllogism_render(args) -> Output:
    from .syllogistic import GLOSSES, CategoricalForm, render_categorical
    form = CategoricalForm(args.figure, args.subject, args.predicate)
    _check_terms(args, form.subject, form.predicate)
    text = render_categorical(form, _config(args))
    return Output(lambda: {
        "figure": form.figure,
        "rendering": text,
        "gloss": GLOSSES[form.figure][0],
        "kind": GLOSSES[form.figure][1],
    }, lambda: text)


@_leaf("syllogism barbara", "both Barbara formulas and their verdicts",
       _arg("terms", nargs="*", default=[], metavar="TERM",
            help="up to three term names (default x y z)"))
def _cmd_syllogism_barbara(args) -> Output:
    from .syllogistic import barbara
    config = _config(args)
    terms = list(args.terms) or ["x", "y", "z"]
    if len(terms) != 3:
        args.parser.error("barbara takes exactly three term names (or none)")
    _check_terms(args, *terms)
    forms = barbara(*terms)
    nested, conjunctive = render(forms.nested, config), render(forms.conjunctive, config)
    return Output(lambda: {
        "nested": nested,
        "nested_verdict": forms.nested_verdict.kind,
        "conjunctive": conjunctive,
        "conjunctive_verdict": forms.conjunctive_verdict.kind,
    }, lambda: (f"nested:      {nested}  [{forms.nested_verdict.kind}]\n"
                f"conjunctive: {conjunctive}  [{forms.conjunctive_verdict.kind}]"))


@_leaf("syllogism aeio-table", "the four categorical forms with glosses")
def _cmd_syllogism_aeio_table(args) -> Output:
    from .syllogistic import GLOSSES, CategoricalForm, render_categorical
    config = _config(args)
    rows = [(figure, render_categorical(CategoricalForm(figure, "a", "b"), config),
             *GLOSSES[figure]) for figure in "AEIO"]

    def text() -> str:
        width = max(display_width(r) for _, r, _, _ in rows)
        return "\n".join(
            f"{figure}. {pad_display(rendering, width)}  {gloss:<16} ({kind})"
            for figure, rendering, gloss, kind in rows
        )

    return Output(lambda: {
        "forms": [
            {"figure": f, "rendering": r, "gloss": g, "kind": k}
            for f, r, g, k in rows
        ],
    }, text)


def main(argv: Sequence[str] | None = None) -> int:
    args, unknown = _parser().parse_known_args(argv)
    if unknown:
        message = "unrecognized arguments: " + " ".join(unknown)
        if any(arg.startswith("-") for arg in unknown):
            message += ("; a formula that starts with '-' goes after '--', "
                        "as in: illation parse -- -a")
        args.parser.error(message)
    try:
        output = args.handler(args)
        if args.format_ == "json":
            document = output.payload()
            if isinstance(document, dict):
                document = _json_document(args.path, document)
        else:
            document = output.text()
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedConnectiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (VariableLimitError, EnumerationBoundError, OutputLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (MissingVariableError, KeyError, ValueError) as exc:
        # str(KeyError) wraps its argument in quotes; unwrap for readability.
        reason = exc.args[0] if exc.args else exc
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_PARSE
    try:
        sys.stdout.writelines([document] if isinstance(document, str) else document)
        print(flush=True)
    except BrokenPipeError:
        # The reader closed stdout.  Point its descriptor at the null device,
        # so the flush at shutdown cannot fail again and write to stderr (the
        # "Note on SIGPIPE" in the documentation of `signal`).
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return output.code


def entry() -> None:
    sys.exit(main())
