"""Parsing, rendering and translation across the four supported notations.

Symbols by notation, unicode / ascii (a reading of `_SPELLINGS`, which
drives the lexer, the renderer and the primitive sets):

=============  ===========  ===========  ===========  ===========  ========  ===========
notation       implication  equivalence  conjunction  disjunction  negation  constants
=============  ===========  ===========  ===========  ===========  ========  ===========
peirce         ≺ / -<       --           · / *        + / +        -a / -a   v, f
schroeder      ⋐ / =<       --           · / *        + / +        a′ / a'   1, 0
peano-russell  ⊃ / >        ≡ / ==       · / .        ∨ / |        ∼a / ~a   ⊤, ⊥ / T, F
modern         → / ->       ↔ / <->      ∧ / &        ∨ / |        ¬a / !a   ⊤, ⊥ / T, F
=============  ===========  ===========  ===========  ===========  ========  ===========

Peirce's unicode form writes the negation of a one-character atom as a
combining macron over it (ā); the parser also reads ⊆ as Schröder's
implication.

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
    _NAME_RE,
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
            s += f" (expected: {', '.join(self.expected)})"
        return s


class ParseError(Exception):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def _error(position: int, message: str, expected: tuple[str, ...] = ()) -> ParseError:
    return ParseError(ParseDiagnostic(position, message, expected))


# ---------------------------------------------------------------------------
# lexing

# Each notation's roles, each with its spellings: the unicode rendering,
# then the ascii one, then any other spelling the parser reads.  A role is a
# primitive connective, a negation mark ("not" before its operand, "postnot"
# after it), or the truth value of a constant.
_SPELLINGS: dict[Notation, dict[Connective | str | TruthValue, tuple[str, ...]]] = {
    Notation.PEIRCE: {
        IMPLICATION: ("≺", "-<"), CONJUNCTION: ("·", "*"), DISJUNCTION: ("+", "+"),
        "not": ("-", "-"), "postnot": (MACRON,),
        TruthValue.T: ("v", "v"), TruthValue.F: ("f", "f"),
    },
    Notation.SCHROEDER: {
        IMPLICATION: ("⋐", "=<", "⊆"), CONJUNCTION: ("·", "*"), DISJUNCTION: ("+", "+"),
        "postnot": (PRIME, "'"),
        TruthValue.T: ("1", "1"), TruthValue.F: ("0", "0"),
    },
    Notation.PEANO_RUSSELL: {
        EQUIVALENCE: ("≡", "=="), IMPLICATION: ("⊃", ">"), CONJUNCTION: ("·", "."),
        DISJUNCTION: ("∨", "|"), "not": ("∼", "~"),
        TruthValue.T: ("⊤", "T"), TruthValue.F: ("⊥", "F"),
    },
    Notation.MODERN: {
        EQUIVALENCE: ("↔", "<->"), IMPLICATION: ("→", "->"), CONJUNCTION: ("∧", "&"),
        DISJUNCTION: ("∨", "|"), "not": ("¬", "!"),
        TruthValue.T: ("⊤", "T"), TruthValue.F: ("⊥", "F"),
    },
}

#: Constant words reserved per notation (never variables there).
RESERVED_WORDS: dict[Notation, dict[str, TruthValue]] = {
    notation: {word: role for role, spellings in roles.items() if isinstance(role, TruthValue)
               for word in spellings if _NAME_RE.match(word)}
    for notation, roles in _SPELLINGS.items()
}

#: The connectives each notation has a symbol for, by name.
PRIMITIVE_CONNECTIVES: dict[Notation, frozenset[str]] = {
    notation: frozenset(role.name for role in roles if isinstance(role, Connective))
    for notation, roles in _SPELLINGS.items()
}

# spelling -> notations that use it as a mark, for cross-notation diagnostics
_FOREIGN: dict[str, set[Notation]] = {}
for _n, _roles in _SPELLINGS.items():
    for _role, _spellings in _roles.items():
        if not isinstance(_role, TruthValue):
            for _spelling in _spellings:
                _FOREIGN.setdefault(_spelling, set()).add(_n)

_MATCHING_CLOSE = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = frozenset(_MATCHING_CLOSE.values())

# Each binary connective's precedence (higher binds tighter) and whether a
# chain of it nests to the left.  Prefix negation binds tighter than all.
_BINARY_OPERATORS: dict[Connective, tuple[int, bool]] = {
    CONJUNCTION: (4, True),
    DISJUNCTION: (3, True),
    IMPLICATION: (2, False),
    EQUIVALENCE: (1, False),
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
        table: dict[str, _Entry] = {}
        for role, spellings in _SPELLINGS[notation].items():
            if isinstance(role, TruthValue):
                entry = (_OPERAND, 0, 0, Constant(role))
            elif role == "not":
                entry = (_PREFIX, 2 * _PREFIX_PRECEDENCE, 0, None)
            elif role == "postnot":
                entry = (_POSTFIX, 0, 0, None)
            else:
                precedence, nests_left = _BINARY_OPERATORS[role]
                reach = 2 * precedence - 1 if nests_left else 2 * precedence
                entry = (_BINARY, 2 * precedence, reach, role)
            table.update(dict.fromkeys(spellings, entry))
        words = RESERVED_WORDS[notation]
        symbols = sorted((lexeme for lexeme in table if lexeme not in words),
                         key=len, reverse=True)
        table[_END] = (_CLOSE, 0, 0, None)
        for opener, closer in _MATCHING_CLOSE.items():
            table[opener] = (_OPEN, 0, 0, closer)
            table[closer] = (_CLOSE, 0, 0, None)
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
    raise _diagnosis(text, normalized, config.notation, lexemes, stopped_at, expect_operand)


def _diagnosis(text: str, normalized: str, notation: Notation, lexemes: list[str],
               index: int, expect_operand: bool) -> ParseError:
    """The error of a parse of `text`, whose NFD form is `normalized`, that
    stopped at `lexemes[index]`, where an operand was expected or not.  The
    first character the notation does not use is reported before any syntax
    error.  Positions are found by scanning the NFD form again, and index the
    text as given: a character covers as many NFD indices as its own NFD form
    has characters, and is quoted as given."""
    pattern, table = _lexer(notation)
    # The last position is the place of _END.
    positions = [found.start(1) for found in pattern.finditer(normalized)] + [len(normalized)]
    if len(normalized) > len(text):
        given = [i for i, char in enumerate(text + " ") for _ in unicodedata.normalize("NFD", char)]
        positions = [given[position] for position in positions]
    for word, position in zip(lexemes, positions):
        if word not in table and word[0] not in _NAME_START:
            owners = sorted(other.value for other in _FOREIGN.get(word, ())
                            if other is not notation)
            if owners:
                return _error(position, f"{text[position]!r} is a symbol of the "
                                        f"{', '.join(owners)} notation, not of {notation.value}")
            return _error(position, f"unexpected character {text[position]!r}")
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

class _Layout:
    """A pair's literal strings around a node's operands (see `_frame`),
    read from the notation's spellings at the encoding's index."""

    def __init__(self, notation: Notation, encoding: str) -> None:
        at = _ENCODINGS.index(encoding)
        spelt = {role: spellings[at] for role, spellings in _SPELLINGS[notation].items()
                 if at < len(spellings)}
        # Each binary's frames by 2 * (left bracketed) + (right bracketed).
        self.binaries: dict[str, tuple[tuple[str, str, str], ...]] = {}
        for role, symbol in spelt.items():
            if isinstance(role, Connective):
                middle = f" {symbol} "
                self.binaries[role.name] = (("", middle, ""), ("", f"{middle}(", ")"),
                                            ("(", f"){middle}", ""), ("(", f"){middle}(", ")"))
        # A negation's frames by whether its operand is bracketed.  A notation
        # with a prefix mark writes its postfix one, if the encoding has it,
        # over a one-character atom only.
        if "not" in spelt:
            prefix = spelt["not"]
            self.negations = ((prefix, ""), (f"{prefix}(", ")"))
            self.overbar = spelt.get("postnot", "")
        else:
            postfix = spelt["postnot"]
            self.negations = (("", postfix), ("(", f"){postfix}"))
            self.overbar = ""
        self.constants = {value: spelt[value] for value in TruthValue}


_LAYOUTS = {(notation, encoding): _Layout(notation, encoding)
            for notation in Notation for encoding in _ENCODINGS}


def _frame(node: Formula, layout: _Layout) -> tuple[str, ...]:
    """The literal strings before, between and after a node's operands:
    (before, between, after) for a binary the pair has a symbol for,
    (before, after) for a negation, (text,) for a leaf.  Every operand that
    renders as a binary is bracketed.  `render` picks a binary's frame in
    its own walk as this does."""
    if type(node) is Binary:
        left, right = node.left, node.right
        return layout.binaries[node.connective.name][
            2 * (type(left) is Binary and left.connective.name not in _NEGATED_EXPANSIONS)
            + (type(right) is Binary and right.connective.name not in _NEGATED_EXPANSIONS)]
    if type(node) is Negation:
        operand = node.operand
        if layout.overbar and (
            type(operand) is Constant
            or (type(operand) is Variable and len(operand.name) == 1)
        ):
            return "", layout.overbar
        return layout.negations[
            type(operand) is Binary and operand.connective.name not in _NEGATED_EXPANSIONS]
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
    right operand is a variable.  It picks a binary's frame itself and
    writes a variable's name; a negation or a constant takes `_frame`'s.
    """
    layout = _LAYOUTS[(config.notation, config.encoding)]
    primitives = PRIMITIVE_CONNECTIVES[config.notation]
    binaries = layout.binaries
    out: list[str] = []
    stack: list = [formula]
    # Each expansion made, by the id of its node of `formula` (alive throughout).
    expansions: dict[int, Formula] = {}
    while stack:
        item = stack.pop()
        while type(item) is not str:
            kind = type(item)
            if kind is Binary:
                name = item.connective.name
                if name not in primitives:
                    if id(item) not in expansions:
                        expansions[id(item)] = EXPANSIONS[name](item.left, item.right)
                    item = expansions[id(item)]
                    continue
                left, right = item.left, item.right
                before, between, after = binaries[name][  # as `_frame` picks it
                    2 * (type(left) is Binary
                         and left.connective.name not in _NEGATED_EXPANSIONS)
                    + (type(right) is Binary
                       and right.connective.name not in _NEGATED_EXPANSIONS)]
                if type(right) is Variable:  # so not bracketed: after is ""
                    stack.append(between + right.name)
                else:
                    stack += (after, right, between)
                out.append(before)
                item = left
            elif kind is Variable:
                item = item.name
            elif kind is Negation:
                before, after = _frame(item, layout)
                out.append(before)
                stack.append(after)
                item = item.operand
            else:
                item = _frame(item, layout)[0]
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
    return ("v" if notation is Notation.PEIRCE else "t", "f")


def display_width(text: str) -> int:
    """Terminal cells `text` occupies: combining marks take none."""
    if text.isascii():
        return len(text)
    return sum(1 for ch in text if not unicodedata.combining(ch))


def pad_display(text: str, width: int) -> str:
    """Left-justify by display width (len() overcounts combining marks)."""
    return text + " " * (width - display_width(text))
