"""Parsing, rendering and translation across the four supported notations.

Symbol maps (unicode form / ascii form):

================  ============  ===========  ===========  ===========  ==============
notation          implication   negation     conjunction  disjunction  extras
================  ============  ===========  ===========  ===========  ==============
peirce            primary ; -<       macron ; -   . (middle   +            constants v, f
                                (prefix -    dot) ; *
                                on groups)
schroeder         closed-subset prime ' as   middle dot   +            constants 1, 0
                  sign ; =<     postfix      ; *
peano-russell     horseshoe ; > tilde ; ~    middle dot   vee ; |      equivalence
                                             ; .                       triple-bar ; ==
                                                                       constants tee/
                                                                       falsum ; T, F
modern            arrow ; ->    hook-not ; ! wedge ; &    vee ; |      equivalence
                                                                       double-arrow ;
                                                                       <->  constants
                                                                       tee/falsum; T, F
================  ============  ===========  ===========  ===========  ==============

Rules shared by all notations:

* precedence: negation > conjunction > disjunction > implication > equivalence;
* implication and equivalence are right-associative, conjunction and
  disjunction chains parse left-nested;
* juxtaposition is never conjunction -- an explicit mark is always required;
* variable names are letters/digits/underscores starting with a letter, of any
  length, case-sensitive; the constant words of the active notation (v/f, T/F)
  are reserved and never parse as variables;
* round, square and curly brackets are interchangeable on input (each pair
  must match in kind); output uses round brackets only.

The parser accepts both the unicode and the ascii spelling of the active
notation's symbols; the renderer emits exactly one encoding.  Rendering
parenthesizes every compound (binary) proper subformula, which mirrors the
bracketing of the historical displays and makes output reparse exactly.

Notations without a primitive symbol for one of the sixteen connectives render
it through a fixed defining expansion over negation / conjunction /
disjunction / implication (see EXPANSIONS).  Expansion preserves the truth
vector and the left-to-right variable order, so a render/parse round trip is
idempotent from the first rendering onward.
"""

from __future__ import annotations

import enum
import re
import unicodedata
from dataclasses import dataclass
from typing import Callable, TypeVar

from .core import (
    Binary,
    Connective,
    Constant,
    Formula,
    Negation,
    TruthValue,
    Variable,
    conj,
    disj,
    equiv,
    fold,
    implies,
)

T = TypeVar("T")

MACRON = "̄"  # combining overbar used by peirce unicode negation
PRIME = "′"


class Notation(enum.Enum):
    PEIRCE = "peirce"
    SCHROEDER = "schroeder"
    PEANO_RUSSELL = "peano-russell"
    MODERN = "modern"

    def __str__(self) -> str:
        return self.value


_ENCODINGS = ("unicode", "ascii")


@dataclass(frozen=True)
class SyntaxConfig:
    notation: Notation = Notation.MODERN
    encoding: str = "unicode"

    def __post_init__(self) -> None:
        if self.encoding not in _ENCODINGS:
            raise ValueError(f"encoding must be one of {_ENCODINGS}, got {self.encoding!r}")


@dataclass(frozen=True)
class ParseDiagnostic:
    position: int
    message: str
    expected: tuple[str, ...] = ()

    def __str__(self) -> str:
        s = f"parse error at position {self.position}: {self.message}"
        if self.expected:
            s += " (expected: " + ", ".join(self.expected) + ")"
        return s


class ParseError(Exception):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def _error(position: int, message: str, expected: tuple[str, ...] = ()) -> ParseError:
    return ParseError(ParseDiagnostic(position, message, expected))


# ---------------------------------------------------------------------------
# lexing

# token kinds: impl, and, or, equiv, not (prefix), postnot (postfix),
# lparen, rparen, var, const

_INPUT_SYMBOLS: dict[Notation, tuple[tuple[str, str], ...]] = {
    Notation.PEIRCE: (
        ("-<", "impl"), ("≺", "impl"),
        ("·", "and"), ("*", "and"),
        ("+", "or"),
        ("-", "not"), (MACRON, "postnot"),
    ),
    Notation.SCHROEDER: (
        ("=<", "impl"), ("⋐", "impl"), ("⊆", "impl"),
        ("·", "and"), ("*", "and"),
        ("+", "or"),
        (PRIME, "postnot"), ("'", "postnot"),
        ("1", "const:t"), ("0", "const:f"),
    ),
    Notation.PEANO_RUSSELL: (
        ("==", "equiv"), ("≡", "equiv"),
        ("⊃", "impl"), (">", "impl"),
        ("·", "and"), (".", "and"),
        ("∨", "or"), ("|", "or"),
        ("∼", "not"), ("~", "not"),
        ("⊤", "const:t"), ("⊥", "const:f"),
    ),
    Notation.MODERN: (
        ("<->", "equiv"), ("↔", "equiv"),
        ("->", "impl"), ("→", "impl"),
        ("∧", "and"), ("&", "and"),
        ("∨", "or"), ("|", "or"),
        ("¬", "not"), ("!", "not"),
        ("⊤", "const:t"), ("⊥", "const:f"),
    ),
}

#: Constant words reserved per notation (never variables there).
RESERVED_WORDS: dict[Notation, dict[str, TruthValue]] = {
    Notation.PEIRCE: {"v": TruthValue.T, "f": TruthValue.F},
    Notation.SCHROEDER: {},
    Notation.PEANO_RUSSELL: {"T": TruthValue.T, "F": TruthValue.F},
    Notation.MODERN: {"T": TruthValue.T, "F": TruthValue.F},
}

# glyph -> notations that use it, for cross-notation diagnostics
_FOREIGN: dict[str, set[Notation]] = {}
for _n, _syms in _INPUT_SYMBOLS.items():
    for _lit, _kind in _syms:
        if not _kind.startswith("const"):
            _FOREIGN.setdefault(_lit, set()).add(_n)

_MATCHING_CLOSE = {"(": ")", "[": "]", "{": "}"}


# A token is (kind, text, position, value); value is a constant's only.
_Token = tuple[str, str, int, TruthValue | None]
_SCANNERS: dict[Notation, re.Pattern] = {}


def _scanner(notation: Notation) -> re.Pattern:
    """Spacing, then one token of the notation, in a group named after its
    kind: lparen, rparen, name, symbol (longest first) or, for any other
    character but a space, other.  A name is ASCII letters, digits and
    underscores starting with a letter."""
    if notation not in _SCANNERS:
        symbols = sorted((lit for lit, _ in _INPUT_SYMBOLS[notation]),
                         key=len, reverse=True)
        _SCANNERS[notation] = re.compile(
            r"\s*(?:(?P<lparen>[([{])|(?P<rparen>[)\]}])|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
            r"|(?P<symbol>" + "|".join(map(re.escape, symbols)) + r")|(?P<other>\S))")
    return _SCANNERS[notation]


def _tokenize(text: str, notation: Notation) -> list[_Token]:
    kinds = dict(_INPUT_SYMBOLS[notation])
    reserved = RESERVED_WORDS[notation]
    tokens: list[_Token] = []
    for found in _scanner(notation).finditer(text):
        group = found.lastgroup
        word, i = found[group], found.start(group)
        if group == "symbol":
            kind = kinds[word]
            if kind.startswith("const:"):
                value = TruthValue.T if kind.endswith("t") else TruthValue.F
                tokens.append(("const", word, i, value))
            else:
                tokens.append((kind, word, i, None))
        elif group == "name":
            if word in reserved:
                tokens.append(("const", word, i, reserved[word]))
            else:
                tokens.append(("var", word, i, None))
        elif group == "other":
            owners = sorted(other.value for other in _FOREIGN.get(word, ())
                            if other is not notation)
            if owners:
                raise _error(i, f"{word!r} is a symbol of the {', '.join(owners)} "
                                f"notation, not of {notation.value}")
            raise _error(i, f"unexpected character {word!r}")
        else:
            tokens.append((group, word, i, None))
    return tokens


# ---------------------------------------------------------------------------
# parsing

_HAS_EQUIV = {Notation.PEANO_RUSSELL, Notation.MODERN}


# Binary operator kinds: precedence (higher binds tighter), whether a chain
# of them nests to the left, and the node they build.  Prefix negation binds
# tighter than all of them.
_BINARY_OPERATORS: dict[str, tuple[int, bool, Callable[[Formula, Formula], Formula]]] = {
    "and": (4, True, conj),
    "or": (3, True, disj),
    "impl": (2, False, implies),
    "equiv": (1, False, equiv),
}
_PREFIX_PRECEDENCE = 5
_OPERAND_EXPECTED = ("variable", "constant", "'('")


def _reduce(operands: list[Formula], kind: str) -> None:
    """Apply a prefix negation or a binary operator to the top operands."""
    if kind == "not":
        operands[-1] = Negation(operands[-1])
    else:
        right = operands.pop()
        operands[-1] = _BINARY_OPERATORS[kind][2](operands[-1], right)


def _parse_tokens(tokens: list[_Token], length: int) -> Formula:
    """Operator-precedence parse over an operand stack and an operator stack
    of (kind, text, position): prefix negations, binary operators and open
    brackets.  Postfix marks apply at once to the operand just read, so they
    bind tighter than a pending prefix negation."""
    operands: list[Formula] = []
    operators: list[tuple[str, str, int]] = []
    names: dict[str, Variable] = {}  # one node per variable name
    expect_operand = True
    for kind, text, pos, value in tokens:
        if expect_operand:
            if kind == "not" or kind == "lparen":
                operators.append((kind, text, pos))
                continue
            if kind == "var":
                if text not in names:
                    names[text] = Variable(text)
                operands.append(names[text])
            elif kind == "const":
                operands.append(Constant(value))
            else:
                raise _error(pos, f"unexpected {text!r}", _OPERAND_EXPECTED)
            expect_operand = False
        elif kind == "postnot":
            operands[-1] = Negation(operands[-1])
        elif kind in _BINARY_OPERATORS:
            precedence, nests_left, _ = _BINARY_OPERATORS[kind]
            while operators and operators[-1][0] != "lparen":
                top = operators[-1][0]
                above = (_PREFIX_PRECEDENCE if top == "not"
                         else _BINARY_OPERATORS[top][0])
                if above < precedence or (above == precedence and not nests_left):
                    break
                _reduce(operands, operators.pop()[0])
            operators.append((kind, text, pos))
            expect_operand = True
        else:
            while operators and operators[-1][0] != "lparen":
                _reduce(operands, operators.pop()[0])
            if not operators:
                raise _error(pos, f"unexpected {text!r} after a complete formula",
                             ("end of input", "binary operator"))
            _, opener, opened_at = operators[-1]
            want = _MATCHING_CLOSE[opener]
            if kind != "rparen":
                raise _error(pos, "unbalanced bracket", (f"'{want}'",))
            if text != want:
                raise _error(
                    pos,
                    f"mismatched bracket: {opener!r} opened at position "
                    f"{opened_at} is closed by {text!r}",
                    (f"'{want}'",),
                )
            operators.pop()
    if expect_operand:
        raise _error(length, "formula ends where an operand was expected",
                     _OPERAND_EXPECTED)
    while operators:
        kind, text, _ = operators.pop()
        if kind == "lparen":
            raise _error(length, "unbalanced bracket", (f"'{_MATCHING_CLOSE[text]}'",))
        _reduce(operands, kind)
    return operands[0]


def parse(text: str, config: SyntaxConfig = SyntaxConfig()) -> Formula:
    """Parse `text` under `config` into a formula tree.

    Raises ParseError (carrying a ParseDiagnostic with position, message and
    expected-token list) on empty input, unbalanced brackets, misplaced
    operators, and symbols belonging to a different notation.
    """
    normalized = unicodedata.normalize("NFD", text)
    tokens = _tokenize(normalized, config.notation)
    if not tokens:
        raise _error(0, "empty input", ("formula",))
    return _parse_tokens(tokens, len(normalized))


# ---------------------------------------------------------------------------
# defining expansions for connectives a notation lacks

def _const_false(p: Formula, q: Formula) -> Formula:
    return conj(conj(p, Negation(p)), q)


def _const_true(p: Formula, q: Formula) -> Formula:
    return disj(disj(p, Negation(p)), q)


#: Defining expansion of every connective that is not primitive everywhere.
#: Each expansion preserves the truth vector and mentions P and Q in order.
EXPANSIONS: dict[str, Callable[[Formula, Formula], Formula]] = {
    "constant-false": _const_false,
    "nor": lambda p, q: Negation(disj(p, q)),
    "converse-nonimplication": lambda p, q: conj(Negation(p), q),
    "nonimplication": lambda p, q: conj(p, Negation(q)),
    "left-projection": lambda p, q: conj(p, disj(q, Negation(q))),
    "right-projection": lambda p, q: conj(disj(p, Negation(p)), q),
    "equivalence": lambda p, q: disj(conj(p, q), conj(Negation(p), Negation(q))),
    "exclusive-disjunction": lambda p, q: disj(conj(p, Negation(q)), conj(Negation(p), q)),
    "right-negation": lambda p, q: conj(disj(p, Negation(p)), Negation(q)),
    "left-negation": lambda p, q: conj(Negation(p), disj(q, Negation(q))),
    "nand": lambda p, q: Negation(conj(p, q)),
    "converse-implication": lambda p, q: disj(p, Negation(q)),
    "constant-true": _const_true,
}

_BASE_PRIMITIVES = {"implication", "conjunction", "disjunction"}

PRIMITIVE_CONNECTIVES: dict[Notation, frozenset[str]] = {
    n: frozenset(_BASE_PRIMITIVES | ({"equivalence"} if n in _HAS_EQUIV else set()))
    for n in Notation
}


#: Connectives whose expansion is a negation, so it is never bracketed.
_NEGATED_EXPANSIONS = frozenset(
    name for name, expand in EXPANSIONS.items()
    if isinstance(expand(Variable("p"), Variable("q")), Negation)
)


def _fold_expanded(formula: Formula, notation: Notation,
                   combine: Callable[..., T]) -> dict[Formula, T]:
    """`fold` over the formula as expanded for `notation`: each distinct
    subformula's value, in post-order, where a connective the notation
    lacks takes the value of its expansion over the operands' values."""
    primitives = PRIMITIVE_CONNECTIVES[notation]

    def value(node: Formula, *operands: T) -> T:
        if isinstance(node, Binary) and node.connective.name not in primitives:
            expansion = EXPANSIONS[node.connective.name](node.left, node.right)
            known = {node.left: operands[0], node.right: operands[1]}
            return fold(expansion, combine, known)
        return combine(node, *operands)

    values: dict[Formula, T] = {}
    fold(formula, value, values)
    return values


def _lowered(node: Formula, *operands: Formula) -> Formula:
    """The node over its expanded operands, itself when none was expanded."""
    if isinstance(node, Binary):
        left, right = operands
        if left is not node.left or right is not node.right:
            return Binary(node.connective, left, right)
    elif isinstance(node, Negation) and operands[0] is not node.operand:
        return Negation(operands[0])
    return node


def expand_for(formula: Formula, notation: Notation) -> Formula:
    """Rewrite connectives the notation cannot print into their expansions;
    a subformula with nothing to expand is kept as it is."""
    return _fold_expanded(formula, notation, _lowered)[formula]


# ---------------------------------------------------------------------------
# rendering

@dataclass(frozen=True)
class _RenderSymbols:
    impl: str
    and_: str
    or_: str
    const_t: str
    const_f: str
    equiv: str | None = None
    neg_prefix: str | None = None
    neg_postfix: str | None = None
    macron: bool = False


_RENDER: dict[tuple[Notation, str], _RenderSymbols] = {
    (Notation.PEIRCE, "unicode"): _RenderSymbols(
        "≺", "·", "+", "v", "f", neg_prefix="-", macron=True),
    (Notation.PEIRCE, "ascii"): _RenderSymbols(
        "-<", "*", "+", "v", "f", neg_prefix="-"),
    (Notation.SCHROEDER, "unicode"): _RenderSymbols(
        "⋐", "·", "+", "1", "0", neg_postfix=PRIME),
    (Notation.SCHROEDER, "ascii"): _RenderSymbols(
        "=<", "*", "+", "1", "0", neg_postfix="'"),
    (Notation.PEANO_RUSSELL, "unicode"): _RenderSymbols(
        "⊃", "·", "∨", "⊤", "⊥",
        equiv="≡", neg_prefix="∼"),
    (Notation.PEANO_RUSSELL, "ascii"): _RenderSymbols(
        ">", ".", "|", "T", "F", equiv="==", neg_prefix="~"),
    (Notation.MODERN, "unicode"): _RenderSymbols(
        "→", "∧", "∨", "⊤", "⊥",
        equiv="↔", neg_prefix="¬"),
    (Notation.MODERN, "ascii"): _RenderSymbols(
        "->", "&", "|", "T", "F", equiv="<->", neg_prefix="!"),
}

_BINARY_SYMBOL_FIELD = {
    "implication": "impl",
    "conjunction": "and_",
    "disjunction": "or_",
    "equivalence": "equiv",
}


def _bracketed(node: Formula) -> bool:
    """Whether the node renders as a binary, and so is bracketed as an operand."""
    return type(node) is Binary and node.connective.name not in _NEGATED_EXPANSIONS


def _pieces(node: Formula, syms: _RenderSymbols, *operands: T) -> tuple:
    """A node's rendering as its literal strings and its operands' values
    (their texts, sizes or the operands themselves), in order.  `node` is
    a leaf, a negation or a binary the notation has a symbol for."""
    if isinstance(node, Binary):
        middle = f" {getattr(syms, _BINARY_SYMBOL_FIELD[node.connective.name])} "
        left, right = operands
        if _bracketed(node.left):  # every compound operand is bracketed
            if _bracketed(node.right):
                return "(", left, ")" + middle + "(", right, ")"
            return "(", left, ")" + middle, right
        if _bracketed(node.right):
            return left, middle + "(", right, ")"
        return left, middle, right
    if isinstance(node, Negation):
        operand, (value,) = node.operand, operands
        if syms.macron and (
            isinstance(operand, Constant)
            or (isinstance(operand, Variable) and len(operand.name) == 1)
        ):
            return value, MACRON
        if syms.neg_postfix is not None:
            if _bracketed(operand):
                return "(", value, ")" + syms.neg_postfix
            return value, syms.neg_postfix
        if _bracketed(operand):
            return syms.neg_prefix + "(", value, ")"
        return syms.neg_prefix, value
    if isinstance(node, Variable):
        return (node.name,)
    return (syms.const_t if node.value is TruthValue.T else syms.const_f,)


def render(formula: Formula, config: SyntaxConfig = SyntaxConfig()) -> str:
    """Render a formula in the configured notation and encoding.

    The output reparses under the same config to the same tree, after the
    one-time expansion of connectives the notation has no symbol for.  One
    walk with an explicit stack writes the text left to right, expanding a
    connective the notation lacks where it meets it.
    """
    syms = _RENDER[(config.notation, config.encoding)]
    primitives = PRIMITIVE_CONNECTIVES[config.notation]
    out: list[str] = []
    stack: list = [formula]
    # Each expansion made, by the id of its node of `formula` (alive throughout).
    expansions: dict[int, Formula] = {}
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif type(item) is Variable:
            out.append(item.name)
        elif isinstance(item, Binary) and item.connective.name not in primitives:
            if id(item) not in expansions:
                expand = EXPANSIONS[item.connective.name]
                expansions[id(item)] = expand(item.left, item.right)
            stack.append(expansions[id(item)])
        elif isinstance(item, Binary):
            stack += reversed(_pieces(item, syms, item.left, item.right))
        elif isinstance(item, Negation):
            stack += reversed(_pieces(item, syms, item.operand))
        else:
            out += _pieces(item, syms)
    return "".join(out)


def rendered_sizes(
    formula: Formula,
    config: SyntaxConfig = SyntaxConfig(),
    measure: Callable[[str], int] = len,
) -> dict[Formula, int]:
    """Every distinct subformula's rendered size, in post-order, without
    building any text: `measure` (`len` for characters, `display_width` for
    terminal cells) of each literal piece, summed."""
    syms = _RENDER[(config.notation, config.encoding)]

    def size(node: Formula, *operands: int) -> int:
        return sum(p if type(p) is int else measure(p)
                   for p in _pieces(node, syms, *operands))

    return _fold_expanded(formula, config.notation, size)


def translate(text: str, source: SyntaxConfig, target: SyntaxConfig) -> str:
    """parse under `source`, render under `target`."""
    return render(parse(text, source), target)


def value_symbols(notation: Notation) -> tuple[str, str]:
    """Symbols used for the two truth values in tables: the peirce notation
    writes v/f (as the 1883-84 and 1902 lists do), the others t/f."""
    if notation is Notation.PEIRCE:
        return ("v", "f")
    return ("t", "f")


def display_width(text: str) -> int:
    """Terminal cells `text` occupies: combining marks take none."""
    return sum(1 for ch in text if not unicodedata.combining(ch))


def pad_display(text: str, width: int) -> str:
    """Left-justify by display width (len() overcounts combining marks)."""
    return text + " " * max(0, width - display_width(text))
