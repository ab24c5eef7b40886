"""A seeded corpus of command lines and the digests of their runs.

Each case is an argv and the bytes behind it: stdin for a `-` argument, or
the content of the file named by a `{file}` argument.  Every case runs
in-process through `illation.cli.main` with an 80-column terminal, and each
digest is the sha256 of the (argv, exit code, stdout, stderr) of its runs.

- Digest A covers what illation writes itself: every leaf command in text
  and JSON under four notation-encoding pairs, formulas read from argv,
  stdin and a file, and exit codes 0 to 4.  No run in it exits through
  argparse, so it has one value on every Python.
- Digest B covers argparse's own text: `--help` at every level,
  `--version`, and the usage errors.  argparse words these differently
  from one Python release to the next, so B has one value per version.

The CLI needs only the standard library, so the digests of a Python
without pytest come from running this file:

    PYTHONPATH=src python tests/cli_corpus.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from illation.cli import main
from illation.notation import Notation, SyntaxConfig, render

from helpers import random_formula

LEAVES = (
    "parse", "translate", "table", "matrix", "check", "entails", "indirect",
    "triadic tables", "triadic eval", "triadic table", "triadic check-restriction",
    "connectives catalog", "connectives paper-table", "connectives identify",
    "connectives xframe", "connectives enumerate",
    "syllogism render", "syllogism barbara", "syllogism aeio-table",
)
GROUPS = ("triadic", "connectives", "syllogism")
PAIRS = (("modern", "ascii"), ("peirce", "unicode"),
         ("schroeder", "ascii"), ("peano-russell", "unicode"))
TRIADIC = ("conjunction", "disjunction")
# Conjunction and disjunction come twice, to be drawn more often; Peirce's
# and Schroeder's notations expand the last five.
CONNECTIVE_NAMES = TRIADIC + (
    "implication", "conjunction", "disjunction", "equivalence",
    "exclusive-disjunction", "nand", "nor", "converse-nonimplication",
)

Case = tuple[list[str], bytes]


def illation_cases(seed: int = 1893) -> list[Case]:
    """Cases whose every line illation writes itself."""
    rng = random.Random(seed)
    cases: list[Case] = []
    notations = [n for n, _ in PAIRS]
    for index, (notation, encoding) in enumerate(PAIRS):
        config = SyntaxConfig(Notation(notation), encoding)
        other = notations[(index + 1) % len(notations)]
        for fmt in ("text", "json"):
            common = ["--notation", notation, "--encoding", encoding, "--format", fmt]

            def add(path: str, *argv: str, data: bytes = b"") -> None:
                cases.append(([*path.split(), *common, *argv], data))

            def formula(names=CONNECTIVE_NAMES, constants=True) -> str:
                return render(random_formula(rng, max_depth=3, connective_names=names,
                                             constants=constants), config)

            add("parse", "--", formula())
            add("parse", "-", data=formula().encode() + b"\n")
            add("parse", "--file", "{file}", data=formula().encode())
            add("translate", "--from", notation, "--to", other, "--", formula())
            add("table", "--", formula())
            add("table", "--row-order", "f-first", "--", formula())
            add("matrix", "implication")
            add("matrix", str(rng.randint(1, 16)))
            add("check", "--", formula())
            add("check", "--status", "--", formula())
            add("check", "--status", "-", data=formula().encode())
            add("entails", "-p", formula(), "-p", formula(), "--", formula())
            add("indirect", "--", formula())
            add("indirect", "--file", "{file}", data=formula().encode())
            add("triadic tables")
            triadic = formula(TRIADIC, constants=False)
            add("triadic eval", *(f"--assign={name}={rng.choice('VLF')}"
                                  for name in sorted(set(triadic) & set("pqrxyz"))),
                "--", triadic)
            add("triadic table", "--", formula(TRIADIC, constants=False))
            add("triadic check-restriction")
            add("connectives catalog")
            add("connectives paper-table")
            add("connectives identify", rng.choice(["v,f,f,v", "tftt", "1 0 0 0"]))
            add("connectives xframe", rng.choice(["implication", "7", "nor"]))
            add("connectives enumerate", "--vars", "2", "--slots", "2",
                "--limit", str(rng.randint(0, 6)))
            add("connectives enumerate", "--vars", "2", "--slots", "3",
                "--shape", "all-trees", "--count-only")
            for figure in "AEIO":
                add("syllogism render", figure, "x", "y")
            add("syllogism barbara")
            add("syllogism barbara", "p", "q", "r")
            add("syllogism aeio-table")
    # Exit codes 1 to 4 without argparse.
    cases += [
        (["check", "--status", "a -> b"], b""),
        (["check", "--status", "a | !a"], b""),
        (["parse", "a ->"], b""),
        (["parse", "a ≺ b"], b""),
        (["parse", "-"], b"a \xff b"),
        (["matrix", "nope"], b""),
        (["matrix", "17"], b""),
        (["triadic", "eval", "--assign", "a=L", "--assign", "b=V", "a -> b"], b""),
        (["triadic", "eval", "--assign", "a=L", "a & b"], b""),
        (["triadic", "table", "a -> b"], b""),
        (["table", " | ".join(f"x{i}" for i in range(21))], b""),
        (["translate", "--from", "modern", "--to", "peirce",
          " <-> ".join(f"x{i}" for i in range(24))], b""),
        (["connectives", "enumerate", "--limit", "-1"], b""),
        (["connectives", "enumerate", "--vars", "9"], b""),
        (["parse", "--format", "json", "!" * 600 + "a"], b""),
    ]
    return cases


def argparse_cases() -> list[Case]:
    """Cases that end in argparse's own text: help, version, usage errors."""
    helps = [[], *([group] for group in GROUPS), *(leaf.split() for leaf in LEAVES)]
    errors = [
        [], ["frobnicate"], ["triadic"], ["connectives", "frob"],
        ["check"], ["parse", "--format", "json"],
        ["check", "a", "b"], ["syllogism", "aeio-table", "extra"],
        ["parse", "--notation", "peirce", "-a"], ["check", "--bogus", "a"],
        ["parse", "--notation", "klingon", "a"],
        ["table", "--row-order", "sideways", "a"],
        ["syllogism", "render", "Q", "a", "b"],
        ["connectives", "enumerate", "--vars", "x"],
        ["connectives", "enumerate", "--limit", "2.5"],
        ["translate", "--from", "modern", "a -> b"],
        ["entails", "-p"],
        ["triadic", "eval", "--assign", "x=Q", "x"],
        ["connectives", "identify", "v,f"],
        ["syllogism", "barbara", "a", "b"],
        ["matrix"],
    ]
    return ([([*path, "--help"], b"") for path in helps] + [(["--version"], b"")]
            + [(argv, b"") for argv in errors])


def run(argv: list[str], data: bytes, path: str) -> tuple[int, str, str, bool]:
    """(exit code, stdout, stderr, whether argparse ended the run) of one
    case, with `{file}` standing for `path`."""
    if "{file}" in argv:
        with open(path, "wb") as handle:
            handle.write(data)
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(data))
    with redirect_stdout(out), redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            mock.patch("sys.stdin", stdin):
        try:
            code, exited = main([path if w == "{file}" else w for w in argv]), False
        except SystemExit as exc:
            code, exited = exc.code, True
    return code, out.getvalue(), err.getvalue(), exited


def digest(cases: list[Case], exits: bool) -> tuple[str, list[tuple]]:
    """The digest of the cases' runs and the runs themselves; each run must
    end through argparse exactly when `exits` is true."""
    total = hashlib.sha256()
    runs = []
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "formula.txt")
        for argv, data in cases:
            code, out, err, exited = run(argv, data, path)
            if exited != exits:
                raise AssertionError(f"{argv}: argparse ended the run: {exited}")
            total.update(json.dumps([argv, code, out, err]).encode() + b"\n")
            runs.append((argv, code, out, err))
    return total.hexdigest(), runs


if __name__ == "__main__":
    print(".".join(map(str, sys.version_info[:3])))
    print("A", digest(illation_cases(), False)[0])
    print("B", digest(argparse_cases(), True)[0])
