"""What a fresh interpreter loads: `import illation` loads no submodule, a
command loads only the submodules it calls, and the lazy namespace gives the
same objects as the modules that define them."""

import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import illation

SRC = os.path.dirname(os.path.dirname(os.path.abspath(illation.__file__)))

# The package namespace as it was when every submodule was imported eagerly.
PUBLIC = {
    "Binary", "Connective", "Constant", "Formula", "Negation", "Variable",
    "TruthValue", "TriadicValue", "CONNECTIVES", "INPUT_PAIRS",
    "conj", "disj", "equiv", "implies",
    "connective", "connective_from_vector", "subformulas", "variables_of",
    "Notation", "ParseDiagnostic", "ParseError", "SyntaxConfig",
    "parse", "render", "translate",
    "EntailmentResult", "MatrixTable", "MissingVariableError", "TruthTable",
    "VariableLimitError", "Verdict",
    "classify", "entails", "evaluate", "matrix_table", "truth_table",
    "IndirectResult", "IndirectTrace", "indirect_check", "render_trace",
    "TriadicTables", "UnsupportedConnectiveError",
    "evaluate3", "is_tautology3", "restriction_check", "truth_table3",
    "EnumerationSpec", "XFrame",
    "enumerate_tautologies", "identify", "paper_table", "render_xframe",
    "xframe_of",
    "BarbaraForms", "CategoricalForm", "QuantifiedFormError",
    "as_formula", "barbara", "render_categorical",
    "__version__",
}
SUBMODULES = ("core", "notation", "bivalent", "indirect", "trivalent", "atlas",
              "syllogistic")


def fresh(code: str):
    """Run `code` in a new interpreter; it ends by printing one JSON line."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = ("import json, sys; print(json.dumps(sorted(m.partition('.')[2]"
          " for m in sys.modules if m.startswith('illation.'))))")


def test_import_loads_no_submodule():
    assert fresh("import illation\n" + LOADED) == []


@pytest.mark.parametrize("argv, loaded", [
    (["check", "a -> a"], ["bivalent", "cli", "core", "notation"]),
    (["indirect", "a -> a"], ["cli", "core", "indirect", "notation"]),
    (["triadic", "eval", "a", "--assign", "a=L"],
     ["bivalent", "cli", "core", "notation", "trivalent"]),
    (["connectives", "xframe", "implication"],
     ["atlas", "bivalent", "cli", "core", "notation"]),
    (["syllogism", "render", "A", "x", "y"],
     ["bivalent", "cli", "core", "notation", "syllogistic"]),
], ids=["check", "indirect", "triadic-eval", "connectives-xframe", "syllogism-render"])
def test_a_command_loads_what_it_calls(argv, loaded):
    run = ("import contextlib, io\nfrom illation import cli\n"
           f"with contextlib.redirect_stdout(io.StringIO()):\n"
           f"    assert cli.main({argv!r}) == 0\n")
    assert fresh(run + LOADED) == loaded


def test_public_names_resolve_to_their_modules_objects():
    probe = f"""
import importlib, json
import illation
from illation import *
names = [n for n in illation.__all__ if n != "__version__"]
modules = [importlib.import_module("illation." + m) for m in {SUBMODULES!r}]
print(json.dumps({{
    "all": sorted(illation.__all__),
    "unbound": [n for n in illation.__all__ if n not in globals()],
    "homeless": [n for n in names
                 if not any(getattr(m, n, None) is globals()[n] for m in modules)],
    "differ": [n for n in names if getattr(illation, n) is not globals()[n]],
    "undir": [n for n in illation.__all__ if n not in dir(illation)],
}}))
"""
    found = fresh(probe)
    assert found["all"] == sorted(PUBLIC)
    assert found["unbound"] == found["homeless"] == found["differ"] == found["undir"] == []


def test_unknown_attribute_raises():
    probe = """
import json
import illation
try:
    illation.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
"""
    assert fresh(probe) == "module 'illation' has no attribute 'no_such_name'"


def test_moved_errors_are_the_same_objects():
    from illation import atlas, bivalent, core, trivalent

    assert bivalent.VariableLimitError is core.VariableLimitError
    assert bivalent.MissingVariableError is core.MissingVariableError
    assert trivalent.MissingVariableError is core.MissingVariableError
    assert trivalent.UnsupportedConnectiveError is core.UnsupportedConnectiveError
    assert atlas.EnumerationBoundError is core.EnumerationBoundError


def test_only_the_formula_nodes_are_dataclasses():
    """The result and configuration types are `core.Record`s: defining a
    dataclass compiles its methods when the module is imported."""
    names = [info.name for info in pkgutil.iter_modules(illation.__path__)
             if info.name != "__main__"]
    assert set(SUBMODULES) | {"cli"} == set(names)
    found = set()
    for name in names:
        module = importlib.import_module(f"illation.{name}")
        found |= {f"{name}.{key}" for key, value in vars(module).items()
                  if isinstance(value, type) and value.__module__ == module.__name__
                  and dataclasses.is_dataclass(value)}
    assert found == {"core.Constant", "core.Variable", "core.Negation", "core.Binary"}


def test_cli_does_not_import_dataclasses():
    from illation import cli

    with open(cli.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "dataclasses" not in imported
