"""The command-line surface pinned over the seeded corpus of cli_corpus.py:
digest A (what illation writes) on every Python, digest B (argparse's help,
version and usage text) per Python version."""

import sys

import pytest

from cli_corpus import LEAVES, PAIRS, argparse_cases, digest, illation_cases

ILLATION_DIGEST = "11d55721f35f409d6346465eaac5e62ec913bb66b6e4e5adde73185b02a4aa6d"
# Keyed by (major, minor) where argparse's text held over every patch release
# tried, and by the exact release where it changed within a minor version.
ARGPARSE_DIGESTS = {
    (3, 10): "d8d1855577ad6331e9c2ea483eb43a8125fcdd963ac125e459d9bbc49d815064",
    (3, 11): "d8d1855577ad6331e9c2ea483eb43a8125fcdd963ac125e459d9bbc49d815064",
    (3, 12): "d8d1855577ad6331e9c2ea483eb43a8125fcdd963ac125e459d9bbc49d815064",
    (3, 13, 0): "5a2e60af0ce9831fa9a6cef59e6709a764244cc5fb1eeb9a4c138a216b6ea04b",
    (3, 13, 13): "b0bc0d7bf84c542f10201d41c1b31d01e38ecc70d49b58fd492330c10b278b3c",
}


def test_illation_output_is_pinned():
    """Over every leaf in text and JSON under every pair, formulas read from
    argv, stdin and a file, and each exit code 0 to 4."""
    cases = illation_cases()
    seen = set()
    for argv, _ in cases:
        if "--notation" in argv:  # the leaf's path, then the three common options
            at = argv.index("--notation")
            seen.add((" ".join(argv[:at]), argv[at + 5], (argv[at + 1], argv[at + 3])))
    assert seen == {(leaf, fmt, pair) for leaf in LEAVES for fmt in ("text", "json")
                    for pair in PAIRS}
    assert any(argv[-1] == "-" for argv, _ in cases)
    assert any("{file}" in argv for argv, _ in cases)
    value, runs = digest(cases, exits=False)
    assert {code for _, code, _, _ in runs} == {0, 1, 2, 3, 4}
    assert not any("Traceback" in err for _, _, _, err in runs)
    assert value == ILLATION_DIGEST


def test_argparse_text_is_pinned():
    release = sys.version_info[:3]
    version = release if release in ARGPARSE_DIGESTS else release[:2]
    if version not in ARGPARSE_DIGESTS:
        pytest.skip("no argparse digest taken on Python " + ".".join(map(str, release)))
    value, runs = digest(argparse_cases(), exits=True)
    assert {code for _, code, _, _ in runs} == {0, 2}
    assert all((out + err).startswith(("usage: illation", "illation "))
               for _, _, out, err in runs)
    assert value == ARGPARSE_DIGESTS[version]
