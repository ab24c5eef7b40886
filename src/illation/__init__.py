"""illation: propositional logic over Peirce-era notations.

Formula trees with the full sixteen-connective catalog, four concrete
syntaxes (peirce, schroeder, peano-russell, modern), direct and abbreviated
truth tables, the 1909 triadic matrices, X-frame glyphs, a brute-force
tautology enumerator, and the categorical A/E/I/O scheme.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  A submodule is
# imported when one of its names is first used (PEP 562), so `import
# illation` loads none of them.
_SOURCES = {
    "core": (
        "Binary", "Connective", "Constant", "Formula", "Negation", "Variable",
        "TruthValue", "TriadicValue", "CONNECTIVES", "INPUT_PAIRS",
        "conj", "disj", "equiv", "implies",
        "connective", "connective_from_vector", "subformulas", "variables_of",
        "MissingVariableError", "VariableLimitError", "UnsupportedConnectiveError",
    ),
    "notation": (
        "Notation", "ParseDiagnostic", "ParseError", "SyntaxConfig",
        "parse", "render", "translate",
    ),
    "bivalent": (
        "EntailmentResult", "MatrixTable", "TruthTable", "Verdict",
        "classify", "entails", "evaluate", "matrix_table", "truth_table",
    ),
    "indirect": ("IndirectResult", "IndirectTrace", "indirect_check", "render_trace"),
    "trivalent": (
        "TriadicTables", "evaluate3", "is_tautology3", "restriction_check",
        "truth_table3",
    ),
    "atlas": (
        "EnumerationSpec", "XFrame",
        "enumerate_tautologies", "identify", "paper_table", "render_xframe",
        "xframe_of",
    ),
    "syllogistic": (
        "BarbaraForms", "CategoricalForm", "QuantifiedFormError",
        "as_formula", "barbara", "render_categorical",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}
__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
