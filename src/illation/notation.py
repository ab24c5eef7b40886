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
from collections.abc import Callable
from operator import length_hint

from .core import (
    CONJUNCTION,
    DISJUNCTION,
    EQUIVALENCE,
    IMPLICATION,
    Binary,
    Connective,
    Constant,
    Formula,
    Negation,
    Record,
    TruthValue,
    Variable,
    conj,
    disj,
    fold,
    subformulas,
)

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


class SyntaxConfig(Record):
    notation: Notation = Notation.MODERN
    encoding: str = "unicode"

    def __post_init__(self) -> None:
        if type(self.notation) is not Notation:
            named = ", ".join(f"Notation.{n.name}" for n in Notation)
            raise ValueError(f"notation must be one of {named}, got {self.notation!r}")
        if self.encoding not in _ENCODINGS:
            raise ValueError(f"encoding must be one of {_ENCODINGS}, got {self.encoding!r}")


class ParseDiagnostic(Record):
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

# Each input symbol is a binary operator's kind (see _BINARY_OPERATORS), a
# negation mark ("not" before its operand, "postnot" after it), or the truth
# value of a constant.
_INPUT_SYMBOLS: dict[Notation, tuple[tuple[str, str | TruthValue], ...]] = {
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
        ("1", TruthValue.T), ("0", TruthValue.F),
    ),
    Notation.PEANO_RUSSELL: (
        ("==", "equiv"), ("≡", "equiv"),
        ("⊃", "impl"), (">", "impl"),
        ("·", "and"), (".", "and"),
        ("∨", "or"), ("|", "or"),
        ("∼", "not"), ("~", "not"),
        ("⊤", TruthValue.T), ("⊥", TruthValue.F),
    ),
    Notation.MODERN: (
        ("<->", "equiv"), ("↔", "equiv"),
        ("->", "impl"), ("→", "impl"),
        ("∧", "and"), ("&", "and"),
        ("∨", "or"), ("|", "or"),
        ("¬", "not"), ("!", "not"),
        ("⊤", TruthValue.T), ("⊥", TruthValue.F),
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
        if not isinstance(_kind, TruthValue):
            _FOREIGN.setdefault(_lit, set()).add(_n)

_MATCHING_CLOSE = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = frozenset(_MATCHING_CLOSE.values())

_HAS_EQUIV = {Notation.PEANO_RUSSELL, Notation.MODERN}

# Binary operator kinds: precedence (higher binds tighter), whether a chain
# of them nests to the left, and their connective.  Prefix negation binds
# tighter than all of them.
_BINARY_OPERATORS: dict[str, tuple[int, bool, Connective]] = {
    "and": (4, True, CONJUNCTION),
    "or": (3, True, DISJUNCTION),
    "impl": (2, False, IMPLICATION),
    "equiv": (1, False, EQUIVALENCE),
}
_PREFIX_PRECEDENCE = 5
_OPERAND_EXPECTED = ("variable", "constant", "'('")

# Lexeme roles.  Where an operand is expected, an operand is read and a
# prefix negation or an open bracket waits; after an operand, a postfix mark
# applies at once, and a binary operator or a closing bracket first reduces
# the operators waiting above its reach.  Any other role there is an error.
_OPERAND, _PREFIX, _OPEN, _POSTFIX, _BINARY, _CLOSE = range(6)

# A lexeme's entry is (role, power, reach, payload).  An operator waits on
# the stack with its power: twice its precedence, and 0 for an open bracket,
# so that one comparison stops a reduction at a bracket.  Pending operators
# of a power above the reach are reduced: 2p - 1 for a left-nesting binary
# operator of precedence p, 2p for a right-nesting one, 0 for a closing
# bracket.  The payload is an operand's node, a binary operator's
# connective, or the closing bracket an open one wants.
_Entry = tuple[int, int, int, object]

_END = ""  # the lexeme put after the last: it closes the bottom of the stack
_BOTTOM: _Entry = (_OPEN, 0, 0, _END)
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_LEXERS: dict[Notation, tuple[re.Pattern, dict[str, _Entry]]] = {}


def _lexer(notation: Notation) -> tuple[re.Pattern, dict[str, _Entry]]:
    """The notation's pattern and lexeme table, built on first use.

    The pattern skips spacing and captures one lexeme: a bracket, a name
    (ASCII letters, digits and underscores starting with a letter), a
    symbol (longest first), or any other character but a space.  The table
    has an entry for every bracket, symbol and constant word; a lexeme it
    lacks is a variable name or a character the notation does not use."""
    if notation not in _LEXERS:
        table: dict[str, _Entry] = {_END: (_CLOSE, 0, 0, None)}
        for opener, closer in _MATCHING_CLOSE.items():
            table[opener] = (_OPEN, 0, 0, closer)
            table[closer] = (_CLOSE, 0, 0, None)
        for word, value in RESERVED_WORDS[notation].items():
            table[word] = (_OPERAND, 0, 0, Constant(value))
        for symbol, kind in _INPUT_SYMBOLS[notation]:
            if isinstance(kind, TruthValue):
                table[symbol] = (_OPERAND, 0, 0, Constant(kind))
            elif kind == "not":
                table[symbol] = (_PREFIX, 2 * _PREFIX_PRECEDENCE, 0, None)
            elif kind == "postnot":
                table[symbol] = (_POSTFIX, 0, 0, None)
            else:
                precedence, nests_left, conn = _BINARY_OPERATORS[kind]
                reach = 2 * precedence - 1 if nests_left else 2 * precedence
                table[symbol] = (_BINARY, 2 * precedence, reach, conn)
        symbols = sorted((lit for lit, _ in _INPUT_SYMBOLS[notation]),
                         key=len, reverse=True)
        pattern = re.compile(r"\s*([([{]|[)\]}]|[A-Za-z][A-Za-z0-9_]*|"
                             + "|".join(map(re.escape, symbols)) + r"|\S)")
        _LEXERS[notation] = pattern, table
    return _LEXERS[notation]


# ---------------------------------------------------------------------------
# parsing

def parse(text: str, config: SyntaxConfig = SyntaxConfig()) -> Formula:
    """Parse `text` under `config` into a formula tree.

    Raises ParseError (carrying a ParseDiagnostic with position, message and
    expected-token list) on empty input, unbalanced brackets, misplaced
    operators, and symbols belonging to a different notation.

    One operator-precedence pass over the lexemes, with an operand stack and
    an operator stack of table entries.  Postfix marks apply at once to the
    operand just read, so they bind tighter than a pending prefix negation.
    Each name read is one `Variable` node however often it occurs.
    """
    normalized = unicodedata.normalize("NFD", text)
    pattern, table = _lexer(config.notation)
    lexemes = pattern.findall(normalized)
    if not lexemes:
        raise _error(0, "empty input", ("formula",))
    lexemes.append(_END)
    operands: list[Formula] = []
    operators: list[_Entry] = [_BOTTOM]
    known = dict(table)  # and each name read, as an operand entry
    expect_operand = True
    remaining = iter(lexemes)
    for lexeme in remaining:
        entry = known.get(lexeme)
        if entry is None:  # a new name, or a character the notation lacks
            if not expect_operand or lexeme[0] not in _NAME_START:
                break
            entry = known[lexeme] = (_OPERAND, 0, 0, Variable(lexeme))
        role = entry[0]
        if expect_operand:
            if role == _OPERAND:
                operands.append(entry[3])
                expect_operand = False
            elif role == _PREFIX or role == _OPEN:
                operators.append(entry)
            else:
                break
        elif role == _POSTFIX:
            operands[-1] = Negation(operands[-1])
        elif role >= _BINARY:
            reach = entry[2]
            while operators[-1][1] > reach:
                _, _, _, conn = operators.pop()
                right = operands.pop()
                if conn is None:  # a prefix negation
                    operands.append(Negation(right))
                else:
                    operands.append(Binary(conn, operands.pop(), right))
            if role == _BINARY:
                operators.append(entry)
                expect_operand = True
            elif operators[-1][3] == lexeme:  # the bracket it closes
                operators.pop()
            else:
                break
        else:
            break
    else:
        return operands[0]
    stopped_at = len(lexemes) - length_hint(remaining) - 1
    raise _diagnosis(normalized, config.notation, lexemes, stopped_at, expect_operand)


def _diagnosis(text: str, notation: Notation, lexemes: list[str], index: int,
               expect_operand: bool) -> ParseError:
    """The error of a parse of `text` that stopped at `lexemes[index]`,
    where an operand was expected or not.  The first character the notation
    does not use is reported before any syntax error.  Positions are found
    by scanning the text again."""
    pattern, table = _lexer(notation)
    positions = [found.start(1) for found in pattern.finditer(text)]
    for word, position in zip(lexemes, positions):
        if word not in table and word[0] not in _NAME_START:
            owners = sorted(other.value for other in _FOREIGN.get(word, ())
                            if other is not notation)
            if owners:
                return _error(position, f"{word!r} is a symbol of the "
                                        f"{', '.join(owners)} notation, not of {notation.value}")
            return _error(position, f"unexpected character {word!r}")
    positions.append(len(text))  # the place of _END
    word, position = lexemes[index], positions[index]
    if expect_operand:
        if word == _END:
            return _error(position, "formula ends where an operand was expected",
                          _OPERAND_EXPECTED)
        return _error(position, f"unexpected {word!r}", _OPERAND_EXPECTED)
    open_brackets = []  # the indices of the brackets open before `index`
    for i in range(index):
        if lexemes[i] in _MATCHING_CLOSE:
            open_brackets.append(i)
        elif lexemes[i] in _CLOSERS:
            open_brackets.pop()
    if not open_brackets:
        return _error(position, f"unexpected {word!r} after a complete formula",
                      ("end of input", "binary operator"))
    opener = lexemes[open_brackets[-1]]
    want = (f"'{_MATCHING_CLOSE[opener]}'",)
    if word not in _CLOSERS:
        return _error(position, "unbalanced bracket", want)
    return _error(
        position,
        f"mismatched bracket: {opener!r} opened at position "
        f"{positions[open_brackets[-1]]} is closed by {word!r}",
        want,
    )


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


def _expanded(combine: Callable[..., object], notation: Notation) -> Callable[..., object]:
    """`combine` over the formula as expanded for `notation`, to `fold` with:
    a connective the notation lacks takes the value of its expansion, folded
    over the operands' values.  The expansion is built from the operand
    objects themselves, so their `id`s stay keys for the fold under it."""
    primitives = PRIMITIVE_CONNECTIVES[notation]

    def value(node: Formula, *operands: object) -> object:
        if type(node) is Binary and node.connective.name not in primitives:
            return fold(EXPANSIONS[node.connective.name](node.left, node.right), combine,
                        {id(node.left): operands[0], id(node.right): operands[1]})
        return combine(node, *operands)

    return value


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
    return fold(formula, _expanded(_lowered, notation))


# ---------------------------------------------------------------------------
# rendering

class _RenderSymbols(Record):
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


class _Layout:
    """A pair's literal strings around a node's operands (see `_frame`)."""

    __slots__ = ("binaries", "negations", "macron", "constants")

    def __init__(self, syms: _RenderSymbols) -> None:
        # Each binary's frames by 2 * (left bracketed) + (right bracketed).
        self.binaries: dict[str, tuple[tuple[str, str, str], ...]] = {}
        for name, field in _BINARY_SYMBOL_FIELD.items():
            if getattr(syms, field) is not None:
                middle = f" {getattr(syms, field)} "
                self.binaries[name] = (("", middle, ""), ("", middle + "(", ")"),
                                       ("(", ")" + middle, ""), ("(", ")" + middle + "(", ")"))
        # A negation's frames by whether its operand is bracketed.
        if syms.neg_postfix is not None:
            self.negations = (("", syms.neg_postfix), ("(", ")" + syms.neg_postfix))
        else:
            self.negations = ((syms.neg_prefix, ""), (syms.neg_prefix + "(", ")"))
        self.macron = syms.macron
        self.constants = {TruthValue.T: syms.const_t, TruthValue.F: syms.const_f}


_LAYOUTS = {key: _Layout(syms) for key, syms in _RENDER.items()}


def _bracketed(node: Formula) -> bool:
    """Whether the node renders as a binary, and so is bracketed as an operand."""
    return type(node) is Binary and node.connective.name not in _NEGATED_EXPANSIONS


def _frame(node: Formula, layout: _Layout) -> tuple[str, ...]:
    """The literal strings before, between and after a node's operands:
    (before, between, after) for a binary the pair has a symbol for,
    (before, after) for a negation, (text,) for a leaf.  Every compound
    operand is bracketed."""
    if type(node) is Binary:
        return layout.binaries[node.connective.name][
            2 * _bracketed(node.left) + _bracketed(node.right)]
    if type(node) is Negation:
        operand = node.operand
        if layout.macron and (
            type(operand) is Constant
            or (type(operand) is Variable and len(operand.name) == 1)
        ):
            return "", MACRON
        return layout.negations[_bracketed(operand)]
    if type(node) is Variable:
        return (node.name,)
    return (layout.constants[node.value],)


def render(formula: Formula, config: SyntaxConfig = SyntaxConfig()) -> str:
    """Render a formula in the configured notation and encoding.

    The output reparses under the same config to the same tree, after the
    one-time expansion of connectives the notation has no symbol for.  One
    walk with an explicit stack writes the text left to right, expanding a
    connective the notation lacks where it meets it.  It goes down each
    left spine writing the text before each left operand at once; what
    follows a left operand waits on the stack, as one string where the
    right operand is a variable.
    """
    layout = _LAYOUTS[(config.notation, config.encoding)]
    primitives = PRIMITIVE_CONNECTIVES[config.notation]
    out: list[str] = []
    stack: list = [formula]
    # Each expansion made, by the id of its node of `formula` (alive throughout).
    expansions: dict[int, Formula] = {}
    while stack:
        item = stack.pop()
        while type(item) is not str:
            if type(item) is Binary and item.connective.name not in primitives:
                if id(item) not in expansions:
                    expand = EXPANSIONS[item.connective.name]
                    expansions[id(item)] = expand(item.left, item.right)
                item = expansions[id(item)]
                continue
            frame = _frame(item, layout)
            if type(item) is Binary:
                before, between, after = frame
                right = item.right
                if type(right) is Variable:  # so not bracketed: after is ""
                    stack.append(between + right.name)
                else:
                    stack += (after, right, between)
                out.append(before)
                item = item.left
            elif type(item) is Negation:
                out.append(frame[0])
                stack.append(frame[1])
                item = item.operand
            else:
                item = frame[0]
        out.append(item)
    return "".join(out)


def _sizes(formula: Formula, config: SyntaxConfig) -> dict[int, tuple[int, int]]:
    """Each node's rendered (length, display width), keyed by the node's
    `id`, from one fold that builds no text: its literal pieces' sizes plus
    its operands', where a connective the notation lacks takes its
    expansion's."""
    layout = _LAYOUTS[(config.notation, config.encoding)]

    def size(node: Formula, *operands: tuple[int, int]) -> tuple[int, int]:
        length = width = 0
        for piece in _frame(node, layout):
            length += len(piece)
            width += display_width(piece)
        for below_length, below_width in operands:
            length += below_length
            width += below_width
        return length, width

    values: dict[int, tuple[int, int]] = {}
    fold(formula, _expanded(size, config.notation), values)
    return values


def rendered_size(formula: Formula, config: SyntaxConfig = SyntaxConfig()) -> int:
    """len(render(formula, config)), without building the text."""
    return _sizes(formula, config)[id(formula)][0]


def rendered_sizes(formula: Formula, config: SyntaxConfig = SyntaxConfig()
                   ) -> dict[Formula, int]:
    """Every distinct subformula's rendered length, in post-order, without
    building any text."""
    values = _sizes(formula, config)
    return {node: values[id(node)][0] for node in subformulas(formula)}


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
    if text.isascii():
        return len(text)
    return sum(1 for ch in text if not unicodedata.combining(ch))


def pad_display(text: str, width: int) -> str:
    """Left-justify by display width (len() overcounts combining marks)."""
    return text + " " * max(0, width - display_width(text))
