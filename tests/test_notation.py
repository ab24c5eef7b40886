"""Parser, renderer and translator over the four notations."""

import functools
import hashlib
import random
import unicodedata
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illation import notation as notation_module
from illation.bivalent import truth_table
from illation.core import (
    CONJUNCTION,
    CONNECTIVES,
    DISJUNCTION,
    EQUIVALENCE,
    IMPLICATION,
    Binary,
    Constant,
    Negation,
    TruthValue,
    Variable,
    conj,
    connective,
    disj,
    equiv,
    flatten,
    implies,
)
from illation.notation import (
    EXPANSIONS,
    Notation,
    PRIMITIVE_CONNECTIVES,
    RESERVED_WORDS,
    ParseError,
    SyntaxConfig,
    display_width,
    expand_for,
    pad_display,
    parse,
    render,
    translate,
    value_symbols,
)

from helpers import PORTABLE_CONNECTIVES, SAFE_NAMES, random_formula

T, F = TruthValue.T, TruthValue.F
A, B, C = Variable("a"), Variable("b"), Variable("c")

ALL_CONFIGS = [
    SyntaxConfig(notation, encoding)
    for notation in Notation
    for encoding in ("unicode", "ascii")
]

CONFIG_IDS = [f"{c.notation.value}-{c.encoding}" for c in ALL_CONFIGS]


def cfg(notation: str, encoding: str = "unicode") -> SyntaxConfig:
    return SyntaxConfig(Notation(notation), encoding)


class TestSyntaxConfig:
    def test_defaults(self):
        assert SyntaxConfig() == SyntaxConfig(Notation.MODERN, "unicode")

    def test_bad_encoding_rejected(self):
        with pytest.raises(ValueError):
            SyntaxConfig(Notation.MODERN, "utf-8")

    def test_a_notation_name_is_not_a_notation(self):
        # A string here used to pass, and parse then failed with a bare KeyError.
        message = ("notation must be one of Notation.PEIRCE, Notation.SCHROEDER, "
                   "Notation.PEANO_RUSSELL, Notation.MODERN, got 'modern'")
        with pytest.raises(ValueError) as refused:
            SyntaxConfig("modern")
        assert str(refused.value) == message
        with pytest.raises(ValueError):
            SyntaxConfig(notation=None)


class TestParsingBasics:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
    def test_single_variable(self, config):
        assert parse("a", config) == A

    def test_multi_character_variable(self):
        assert parse("alpha_2", cfg("modern")) == Variable("alpha_2")

    def test_implication_right_associative(self):
        got = parse("x -< y -< z", cfg("peirce", "ascii"))
        assert got == implies(Variable("x"), implies(Variable("y"), Variable("z")))

    def test_peirces_law_tree(self):
        got = parse("((A > B) > A) > A", cfg("peano-russell", "ascii"))
        a, b = Variable("A"), Variable("B")
        assert got == implies(implies(implies(a, b), a), a)

    def test_equivalence_right_associative(self):
        got = parse("a <-> b <-> c", cfg("modern", "ascii"))
        assert got == equiv(A, equiv(B, C))

    def test_conjunction_binds_tighter_than_disjunction(self):
        assert parse("a & b | c", cfg("modern", "ascii")) == disj(conj(A, B), C)
        assert parse("a | b & c", cfg("modern", "ascii")) == disj(A, conj(B, C))

    def test_disjunction_binds_tighter_than_implication(self):
        assert parse("a | b -> c", cfg("modern", "ascii")) == implies(disj(A, B), C)

    def test_implication_binds_tighter_than_equivalence(self):
        assert parse("a -> b <-> c", cfg("modern", "ascii")) == equiv(
            implies(A, B), C
        )
        assert parse("a <-> b -> c", cfg("modern", "ascii")) == equiv(
            A, implies(B, C)
        )

    def test_conjunction_and_disjunction_parse_left_nested(self):
        assert parse("a & b & c", cfg("modern", "ascii")) == conj(conj(A, B), C)
        assert parse("a | b | c", cfg("modern", "ascii")) == disj(disj(A, B), C)

    def test_negation_binds_tightest(self):
        assert parse("!a & b", cfg("modern", "ascii")) == conj(Negation(A), B)
        assert parse("!(a & b)", cfg("modern", "ascii")) == Negation(conj(A, B))

    def test_double_negation(self):
        assert parse("!!a", cfg("modern", "ascii")) == Negation(Negation(A))
        assert parse("a''", cfg("schroeder", "ascii")) == Negation(Negation(A))

    def test_brackets_interchangeable_but_kind_matched(self):
        target = conj(disj(A, B), C)
        assert parse("[a | b] & c", cfg("modern", "ascii")) == target
        assert parse("{a | b} & c", cfg("modern", "ascii")) == target

    def test_unicode_and_ascii_spellings_mix(self):
        assert parse("a ∧ b & c", cfg("modern", "ascii")) == conj(conj(A, B), C)
        assert parse("a ≺ b", cfg("peirce", "ascii")) == implies(A, B)


class TestSharedNodes:
    """Each name is one `Variable` node within a parse, and equal texts parse
    to equal trees."""

    def test_one_variable_node_per_name(self):
        formula = parse("a -> (b -> a)")
        assert formula.left is formula.right.right

    def test_unequal_subformulas_stay_apart(self):
        formula = parse("(a -> b) & (b -> a) & (a & b)")
        assert formula.left.left is not formula.left.right
        assert formula.right == conj(A, B)

    def test_two_parses_are_equal_and_hash_equal(self):
        text = "((a | !b) -> c) <-> !((a | !b) -> c)"
        first, second = parse(text), parse(text)
        assert first == second
        assert hash(first) == hash(second)
        assert {first: 1}[second] == 1

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
    def test_shared_tree_equals_the_tree_built_by_hand(self, config):
        built = equiv(conj(implies(A, Negation(B)), implies(A, Negation(B))),
                      disj(Negation(B), Constant(T)))
        assert parse(render(built, config), config) == expand_for(built, config.notation)


class TestConstantsAndReservedWords:
    def test_peirce_constants(self):
        assert parse("v", cfg("peirce")) == Constant(T)
        assert parse("f", cfg("peirce")) == Constant(F)

    def test_schroeder_constants(self):
        assert parse("1", cfg("schroeder")) == Constant(T)
        assert parse("0", cfg("schroeder")) == Constant(F)

    def test_peano_russell_and_modern_constants(self):
        for notation in ("peano-russell", "modern"):
            assert parse("T", cfg(notation)) == Constant(T)
            assert parse("F", cfg(notation)) == Constant(F)
            assert parse("⊤", cfg(notation)) == Constant(T)
            assert parse("⊥", cfg(notation)) == Constant(F)

    def test_reserved_words_do_not_leak_across_notations(self):
        # v/f are constants only for peirce; T/F only for the two others.
        assert parse("v", cfg("modern")) == Variable("v")
        assert parse("T", cfg("peirce")) == Variable("T")
        assert parse("v", cfg("schroeder")) == Variable("v")
        assert parse("T", cfg("schroeder")) == Variable("T")

    def test_constant_axioms_parse(self):
        assert parse("f -< a", cfg("peirce", "ascii")) == implies(Constant(F), A)
        assert parse("a -< v", cfg("peirce", "ascii")) == implies(A, Constant(T))


class TestDiagnostics:
    def check(self, text, notation, position=None, fragment=None):
        with pytest.raises(ParseError) as info:
            parse(text, cfg(notation, "ascii"))
        diagnostic = info.value.diagnostic
        if position is not None:
            assert diagnostic.position == position
        if fragment is not None:
            assert fragment in str(info.value)
        return diagnostic

    def test_empty_input(self):
        self.check("", "modern", position=0, fragment="empty input")
        self.check("   ", "modern", fragment="empty input")

    def test_dangling_operator(self):
        diagnostic = self.check("a &", "modern")
        assert diagnostic.position == 3
        assert "variable" in diagnostic.expected

    def test_misplaced_operator(self):
        self.check("a & & b", "modern", position=4, fragment="unexpected '&'")

    def test_unbalanced_bracket(self):
        self.check("(a & b", "modern", fragment="unbalanced bracket")

    def test_mismatched_bracket_kind(self):
        self.check("[a & b)", "modern", fragment="mismatched bracket")

    def test_trailing_input(self):
        self.check("a b", "modern", position=2, fragment="after a complete formula")

    def test_juxtaposition_is_not_conjunction(self):
        self.check("(a)(b)", "modern", fragment="after a complete formula")

    def test_foreign_symbol_names_its_notation(self):
        self.check("a -< b", "modern", fragment="peirce")
        self.check("a > b", "modern", fragment="peano-russell")
        self.check("a & b", "peirce", fragment="modern")

    def test_unknown_character(self):
        self.check("a @ b", "modern", fragment="unexpected character")

    def test_position_survives_into_message(self):
        message = str(self.check("a & & b", "modern"))
        assert "position 4" in message


class TestNormalization:
    def test_precomposed_macron_parses_as_negation(self):
        # "ā" as the single code point U+0101 decomposes to a + combining macron.
        assert parse("ā", cfg("peirce")) == Negation(A)

    def test_combining_macron_parses_as_negation(self):
        assert parse("ā", cfg("peirce")) == Negation(A)

    def test_macron_is_foreign_outside_peirce(self):
        with pytest.raises(ParseError) as info:
            parse("ā", cfg("modern"))
        assert "peirce" in str(info.value)

    # Precomposed characters, one code point each, whose NFD forms take two.
    A_MACRON, E_MACRON, E_ACUTE = "\u0101", "\u0113", "\u00e9"

    @pytest.mark.parametrize("text, position, fragment", [
        (f"{A_MACRON} ≺ )", 4, "unexpected ')'"),
        (f"{E_ACUTE} -< ", 0, f"unexpected character '{E_ACUTE}'"),
        (f"x ≺ ({A_MACRON} ·", 8, "formula ends"),
        (f"{A_MACRON} · ({E_MACRON} ≺ b]", 10, "'(' opened at position 4 is closed by ']'"),
    ])
    def test_positions_index_the_text_as_given(self, text, position, fragment):
        with pytest.raises(ParseError) as info:
            parse(text, cfg("peirce"))
        assert info.value.diagnostic.position == position
        assert fragment in str(info.value)

    def test_a_foreign_mark_is_quoted_as_given(self):
        with pytest.raises(ParseError) as info:
            parse(f"b ∧ {self.A_MACRON}", cfg("modern"))
        assert info.value.diagnostic.position == 4
        assert f"'{self.A_MACRON}' is a symbol of the peirce notation" in str(info.value)

    @settings(max_examples=200)
    @given(words=st.lists(st.sampled_from([
        A_MACRON, E_MACRON, E_ACUTE, "\u0304", "\u0301",
        "a", "b", "≺", "·", "+", "-", "(", ")", "]", " ", "?"]), max_size=12))
    def test_a_position_names_the_character_its_nfd_position_lies_in(self, words):
        """A text and its NFD form parse alike, and where they fail, the
        text's position is that of the character given whose NFD form
        holds the NFD form's position."""
        text = "".join(words)
        nfd = unicodedata.normalize("NFD", text)
        try:
            tree = parse(text, cfg("peirce"))
        except ParseError as exc:
            given = exc.diagnostic
        else:
            assert parse(nfd, cfg("peirce")) == tree
            return
        with pytest.raises(ParseError) as info:
            parse(nfd, cfg("peirce"))
        decomposed = info.value.diagnostic
        assert given.expected == decomposed.expected
        if given.position == len(text):
            assert decomposed.position == len(nfd)
        else:
            start = len(unicodedata.normalize("NFD", text[:given.position]))
            end = start + len(unicodedata.normalize("NFD", text[given.position]))
            assert start <= decomposed.position < end


class TestRendering:
    LAW = implies(implies(implies(A, B), A), A)

    LAW_RENDERINGS = {
        ("peirce", "unicode"): "((a ≺ b) ≺ a) ≺ a",
        ("peirce", "ascii"): "((a -< b) -< a) -< a",
        ("schroeder", "unicode"): "((a ⋐ b) ⋐ a) ⋐ a",
        ("schroeder", "ascii"): "((a =< b) =< a) =< a",
        ("peano-russell", "unicode"): "((a ⊃ b) ⊃ a) ⊃ a",
        ("peano-russell", "ascii"): "((a > b) > a) > a",
        ("modern", "unicode"): "((a → b) → a) → a",
        ("modern", "ascii"): "((a -> b) -> a) -> a",
    }

    @pytest.mark.parametrize("key", sorted(LAW_RENDERINGS), ids="-".join)
    def test_peirces_law_renderings(self, key):
        assert render(self.LAW, cfg(*key)) == self.LAW_RENDERINGS[key]

    NEGATION_RENDERINGS = {
        ("peirce", "unicode"): "ā",
        ("peirce", "ascii"): "-a",
        ("schroeder", "unicode"): "a′",
        ("schroeder", "ascii"): "a'",
        ("peano-russell", "unicode"): "∼a",
        ("peano-russell", "ascii"): "~a",
        ("modern", "unicode"): "¬a",
        ("modern", "ascii"): "!a",
    }

    @pytest.mark.parametrize("key", sorted(NEGATION_RENDERINGS), ids="-".join)
    def test_negation_renderings(self, key):
        assert render(Negation(A), cfg(*key)) == self.NEGATION_RENDERINGS[key]

    def test_macron_only_over_single_character_atoms(self):
        assert render(Negation(Variable("ab")), cfg("peirce")) == "-ab"
        assert render(Negation(conj(A, B)), cfg("peirce")) == "-(a · b)"
        assert render(Negation(Constant(T)), cfg("peirce")) == "v̄"
        assert render(Negation(Negation(A)), cfg("peirce")) == "-ā"

    def test_schroeder_negation_wraps_groups(self):
        assert render(Negation(conj(A, B)), cfg("schroeder")) == "(a · b)′"
        assert render(Negation(Negation(A)), cfg("schroeder")) == "a′′"

    def test_constants_per_notation(self):
        t, f = Constant(T), Constant(F)
        assert render(t, cfg("peirce")) == "v"
        assert render(f, cfg("peirce")) == "f"
        assert render(t, cfg("schroeder")) == "1"
        assert render(f, cfg("schroeder")) == "0"
        assert render(t, cfg("peano-russell")) == "⊤"
        assert render(f, cfg("peano-russell", "ascii")) == "F"
        assert render(t, cfg("modern", "ascii")) == "T"
        assert render(f, cfg("modern")) == "⊥"

    def test_every_compound_child_is_parenthesized(self):
        barbara = implies(
            conj(implies(Variable("x"), Variable("y")),
                 implies(Variable("y"), Variable("z"))),
            implies(Variable("x"), Variable("z")),
        )
        assert render(barbara, cfg("peirce", "ascii")) == (
            "((x -< y) * (y -< z)) -< (x -< z)"
        )

    def test_right_nested_implication_chain(self):
        chain = implies(Variable("x"), implies(Variable("y"), Variable("z")))
        assert render(chain, cfg("peirce", "ascii")) == "x -< (y -< z)"

    def test_equivalence_expands_outside_modern_and_peano_russell(self):
        e = equiv(A, B)
        assert render(e, cfg("modern", "ascii")) == "a <-> b"
        assert render(e, cfg("peano-russell", "ascii")) == "a == b"
        assert render(e, cfg("peirce", "ascii")) == "(a * b) + (-a * -b)"
        assert render(e, cfg("schroeder", "ascii")) == "(a * b) + (a' * b')"


def _render_by_frames(formula, config: SyntaxConfig) -> str:
    """The plain walk `render` replaces: every node's pieces from `_frame`,
    the notation lacking a connective expanded where the walk meets it."""
    layout = notation_module._LAYOUTS[(config.notation, config.encoding)]
    primitives = PRIMITIVE_CONNECTIVES[config.notation]
    out, stack = [], [formula]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif type(item) is Binary and item.connective.name not in primitives:
            stack.append(EXPANSIONS[item.connective.name](item.left, item.right))
        else:
            frame = notation_module._frame(item, layout)
            operands = ((item.left, item.right) if type(item) is Binary
                        else (item.operand,) if type(item) is Negation else ())
            # frame[0], operands[0], frame[1], ..., pushed in reverse
            pieces = [frame[0]]
            for operand, after in zip(operands, frame[1:]):
                pieces += (operand, after)
            stack += reversed(pieces)
    return "".join(out)


class TestRenderAgainstFrames:
    """`render` picks a binary's frame and writes a variable's name in its
    own walk; each rendering is checked against the `_frame` walk, and
    every node's predicted size against its rendering."""

    NAMES = ("p", "q", "long_name", "x1")

    def operands(self):
        p, q = Variable("p"), Variable("long_name")
        yield from (p, q, Constant(T), Negation(p), Negation(q), Negation(Constant(F)))
        for conn in CONNECTIVES:
            yield Binary(conn, p, q)
        yield Negation(Binary(connective("nor"), p, q))  # a negation where expanded
        yield Negation(conj(p, q))

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
    def test_every_connective_over_every_operand(self, config):
        """Each connective over each operand, on either side, beside a
        variable, a binary and a connective that expands to a negation."""
        operands = list(self.operands())
        beside = (Variable("p"), conj(A, B), Binary(connective("nand"), A, B))
        for conn in CONNECTIVES:
            for one in operands:
                for formula in (Binary(conn, one, one), *(
                        Binary(conn, *pair) for other in beside
                        for pair in ((one, other), (other, one)))):
                    assert render(formula, config) == _render_by_frames(formula, config)

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
    def test_random_formulas_and_every_node_size(self, config):
        rng = random.Random(1885)
        every = tuple(c.name for c in CONNECTIVES)
        for _ in range(40):
            formula = random_formula(rng, 4, self.NAMES, every)
            # equal subtrees: one object twice, and an equal copy
            twin = random_formula(rng, 3, self.NAMES, every)
            formula = Binary(rng.choice(CONNECTIVES), formula,
                             Binary(rng.choice(CONNECTIVES), twin, twin))
            formula = Binary(rng.choice(CONNECTIVES), formula, parse(render(formula)))
            assert render(formula, config) == _render_by_frames(formula, config)
            sizes = notation_module._sizes(formula, config)
            for node in flatten(formula)[0]:
                assert sizes[id(node)][0] == len(render(node, config))


class TestSpellings:
    """Each notation's symbols spelt out: its reserved words, its primitive
    connectives, what every spelling of every role parses to, and the
    renderings of FORMS in each encoding."""

    FORMS = (implies(A, B), conj(A, B), disj(A, B), equiv(A, B),
             Negation(A), Negation(conj(A, B)), Constant(T), Constant(F))
    BINARIES = {"implication", "conjunction", "disjunction"}

    # notation: (reserved words, primitive connectives, spellings by role,
    #            renderings of FORMS by encoding)
    TABLES = {
        "peirce": (
            {"v": T, "f": F},
            BINARIES,
            {IMPLICATION: ("≺", "-<"), CONJUNCTION: ("·", "*"), DISJUNCTION: ("+",),
             "not": ("-",), "postnot": ("\u0304",), T: ("v",), F: ("f",)},
            {"unicode": ("a ≺ b", "a · b", "a + b", "(a · b) + (a\u0304 · b\u0304)",
                         "a\u0304", "-(a · b)", "v", "f"),
             "ascii": ("a -< b", "a * b", "a + b", "(a * b) + (-a * -b)",
                       "-a", "-(a * b)", "v", "f")},
        ),
        "schroeder": (
            {},
            BINARIES,
            {IMPLICATION: ("⋐", "=<", "⊆"), CONJUNCTION: ("·", "*"),
             DISJUNCTION: ("+",), "postnot": ("′", "'"), T: ("1",), F: ("0",)},
            {"unicode": ("a ⋐ b", "a · b", "a + b", "(a · b) + (a′ · b′)",
                         "a′", "(a · b)′", "1", "0"),
             "ascii": ("a =< b", "a * b", "a + b", "(a * b) + (a' * b')",
                       "a'", "(a * b)'", "1", "0")},
        ),
        "peano-russell": (
            {"T": T, "F": F},
            BINARIES | {"equivalence"},
            {IMPLICATION: ("⊃", ">"), EQUIVALENCE: ("≡", "=="), CONJUNCTION: ("·", "."),
             DISJUNCTION: ("∨", "|"), "not": ("∼", "~"), T: ("⊤", "T"), F: ("⊥", "F")},
            {"unicode": ("a ⊃ b", "a · b", "a ∨ b", "a ≡ b", "∼a", "∼(a · b)", "⊤", "⊥"),
             "ascii": ("a > b", "a . b", "a | b", "a == b", "~a", "~(a . b)", "T", "F")},
        ),
        "modern": (
            {"T": T, "F": F},
            BINARIES | {"equivalence"},
            {IMPLICATION: ("→", "->"), EQUIVALENCE: ("↔", "<->"), CONJUNCTION: ("∧", "&"),
             DISJUNCTION: ("∨", "|"), "not": ("¬", "!"), T: ("⊤", "T"), F: ("⊥", "F")},
            {"unicode": ("a → b", "a ∧ b", "a ∨ b", "a ↔ b", "¬a", "¬(a ∧ b)", "⊤", "⊥"),
             "ascii": ("a -> b", "a & b", "a | b", "a <-> b", "!a", "!(a & b)", "T", "F")},
        ),
    }

    @pytest.mark.parametrize("name", TABLES)
    def test_symbols_are_pinned(self, name):
        reserved, primitives, spellings, renderings = self.TABLES[name]
        notation = Notation(name)
        assert RESERVED_WORDS[notation] == reserved
        assert PRIMITIVE_CONNECTIVES[notation] == primitives
        config = SyntaxConfig(notation)
        for role, spelt in spellings.items():
            for symbol in spelt:
                if role == "not":
                    assert parse(symbol + "a", config) == Negation(A)
                elif role == "postnot":
                    assert parse("a" + symbol, config) == Negation(A)
                elif role in (T, F):
                    assert parse(symbol, config) == Constant(role)
                else:
                    assert parse(f"a {symbol} b", config) == Binary(role, A, B)
        assert spellings == {role: tuple(dict.fromkeys(spelt)) for role, spelt
                             in notation_module._SPELLINGS[notation].items()}

    @pytest.mark.parametrize(("name", "encoding"),
                             [(name, encoding) for name in TABLES
                              for encoding in ("unicode", "ascii")])
    def test_renderings_are_pinned(self, name, encoding):
        expected = self.TABLES[name][3][encoding]
        config = SyntaxConfig(Notation(name), encoding)
        assert tuple(render(form, config) for form in self.FORMS) == expected


class TestExpansions:
    def test_every_non_primitive_connective_has_an_expansion(self):
        never_primitive = {
            c.name for c in CONNECTIVES
        } - PRIMITIVE_CONNECTIVES[Notation.MODERN]
        assert set(EXPANSIONS) == never_primitive | {"equivalence"}

    @pytest.mark.parametrize("name", sorted(EXPANSIONS))
    def test_expansion_preserves_truth_vector_and_variable_order(self, name):
        p, q = Variable("p"), Variable("q")
        original = Binary(connective(name), p, q)
        expanded = EXPANSIONS[name](p, q)
        assert truth_table(original) == truth_table(expanded)

    @pytest.mark.parametrize("notation", list(Notation), ids=lambda n: n.value)
    def test_expand_for_leaves_primitives_alone(self, notation):
        formula = implies(conj(A, B), disj(A, B))
        assert expand_for(formula, notation) == formula

    def test_expand_for_keeps_a_formula_with_nothing_to_expand(self):
        formula = parse("(a & b) | (a & b)")
        assert formula.left is not formula.right
        assert expand_for(formula, Notation.MODERN) is formula

    def test_expand_for_expands_each_equal_copy(self):
        formula = parse("(a <-> b) & (a <-> b)")
        expansion = EXPANSIONS["equivalence"](A, B)
        assert expand_for(formula, Notation.PEIRCE) == conj(expansion, expansion)

    @pytest.mark.parametrize("conn", CONNECTIVES, ids=lambda c: c.name)
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
    def test_all_sixteen_render_and_reparse_everywhere(self, conn, config):
        formula = Binary(conn, Variable("p"), Variable("q"))
        text = render(formula, config)
        reparsed = parse(text, config)
        assert reparsed == expand_for(formula, config.notation)
        assert truth_table(reparsed) == truth_table(formula)


class TestRoundTrip:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
    def test_round_trip_of_portable_formula(self, config):
        formula = implies(
            conj(Negation(Variable("p")), disj(Variable("q"), Constant(T))),
            implies(Variable("q"), Negation(Variable("r"))),
        )
        text = render(formula, config)
        assert parse(text, config) == formula
        assert render(parse(text, config), config) == text

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
    def test_rendering_is_idempotent_after_expansion(self, config):
        formula = equiv(Variable("p"), Binary(connective("nand"),
                                              Variable("q"), Variable("r")))
        first = render(formula, config)
        assert render(parse(first, config), config) == first


class TestTranslate:
    def test_barbara_to_peirce(self):
        got = translate(
            "(x > y) . (y > z) > (x > z)",
            cfg("peano-russell", "ascii"),
            cfg("peirce", "ascii"),
        )
        assert got == "((x -< y) * (y -< z)) -< (x -< z)"

    TRIPLE = "[(~c > a) > (~a > c)] > {(~c > a) > [(c > a) > a]}"

    def test_three_notation_display(self):
        source = cfg("peano-russell", "ascii")
        assert translate(self.TRIPLE, source, cfg("peano-russell")) == (
            "((∼c ⊃ a) ⊃ (∼a ⊃ c)) ⊃ ((∼c ⊃ a) ⊃ ((c ⊃ a) ⊃ a))"
        )
        assert translate(self.TRIPLE, source, cfg("peirce")) == (
            "((c̄ ≺ a) ≺ (ā ≺ c)) ≺ ((c̄ ≺ a) ≺ ((c ≺ a) ≺ a))"
        )
        assert translate(self.TRIPLE, source, cfg("schroeder")) == (
            "((c′ ⋐ a) ⋐ (a′ ⋐ c)) ⋐ ((c′ ⋐ a) ⋐ ((c ⋐ a) ⋐ a))"
        )

    def test_identity_translation_reparses_to_same_tree(self):
        config = cfg("modern", "ascii")
        text = "p -> (q & !r)"
        assert parse(translate(text, config, config), config) == parse(text, config)

    def test_translation_preserves_truth_tables(self):
        source = cfg("modern", "ascii")
        for target in ALL_CONFIGS:
            moved = translate("(p -> q) & (q | !p)", source, target)
            assert truth_table(parse(moved, target)) == truth_table(
                parse("(p -> q) & (q | !p)", source)
            )


# hypothesis formula strategy over connectives printable in every notation
_leaves = st.one_of(
    st.sampled_from([Variable(n) for n in SAFE_NAMES]),
    st.sampled_from([Constant(T), Constant(F)]),
)
_portable = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(Negation, inner),
        st.builds(
            Binary,
            st.sampled_from([connective(n) for n in PORTABLE_CONNECTIVES]),
            inner,
            inner,
        ),
    ),
    max_leaves=10,
)
_any_connective = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(Negation, inner),
        st.builds(Binary, st.sampled_from(CONNECTIVES), inner, inner),
    ),
    max_leaves=8,
)


class TestRoundTripProperties:
    @settings(max_examples=150)
    @given(formula=_portable, config=st.sampled_from(ALL_CONFIGS))
    def test_parse_inverts_render(self, formula, config):
        assert parse(render(formula, config), config) == formula

    @settings(max_examples=150)
    @given(formula=_any_connective, config=st.sampled_from(ALL_CONFIGS))
    def test_render_is_idempotent_and_semantics_preserving(self, formula, config):
        first = render(formula, config)
        reparsed = parse(first, config)
        assert render(reparsed, config) == first
        assert truth_table(reparsed) == truth_table(formula)

    @settings(max_examples=200)
    @given(text=st.text(max_size=30))
    def test_parse_failures_are_always_diagnostics(self, text):
        for config in (cfg("peirce"), cfg("modern", "ascii")):
            try:
                parse(text, config)
            except ParseError as exc:
                assert 0 <= exc.diagnostic.position <= len(text)


def _polish(node) -> str:
    """Prefix spelling of a tree, independent of the package's renderer."""
    if isinstance(node, Variable):
        return "v:" + node.name
    if isinstance(node, Constant):
        return "c:" + node.value.value
    if isinstance(node, Negation):
        return "N " + _polish(node.operand)
    return f"B{node.connective.column} {_polish(node.left)} {_polish(node.right)}"


def _mix_brackets(rng: random.Random, text: str) -> str:
    """Swap each round bracket pair for a random kind, pairs kept matched."""
    out, closers = [], []
    for ch in text:
        if ch == "(":
            opener, closer = rng.choice(("()", "[]", "{}"))
            closers.append(closer)
            out.append(opener)
        elif ch == ")":
            out.append(closers.pop())
        else:
            out.append(ch)
    return "".join(out)


# Each notation's own input symbols and constant words; the shared words are
# brackets, names and spacing; the stray ones belong to no notation.
_OWN_WORDS = {
    Notation.PEIRCE: ("-<", "≺", "·", "*", "+", "-", "-", "̄", "ā", "v", "f"),
    Notation.SCHROEDER: ("=<", "⋐", "⊆", "·", "*", "+", "'", "′", "1", "0"),
    Notation.PEANO_RUSSELL: ("==", "≡", "⊃", ">", "·", ".", "∨", "|", "∼", "~",
                             "⊤", "⊥", "T", "F"),
    Notation.MODERN: ("<->", "↔", "->", "→", "∧", "&", "∨", "|", "¬", "!",
                      "⊤", "⊥", "T", "F"),
}
_SHARED_WORDS = ("(", ")", "(", ")", "[", "]", "{", "}", "a", "b", "p1", "x_y", " ")
_STRAY_WORDS = ("?", "=", "<", "#", "é")


def _token_string(rng: random.Random, notation: Notation) -> str:
    own = _OWN_WORDS[notation] + _SHARED_WORDS
    words = []
    for _ in range(rng.randint(0, 10)):
        roll = rng.random()
        if roll < 0.04:
            words.append(rng.choice(_STRAY_WORDS))
        elif roll < 0.1:
            words.append(rng.choice(rng.choice(list(_OWN_WORDS.values()))))
        else:
            words.append(rng.choice(own))
    return "".join(words)


@functools.cache
def _pin_texts() -> tuple[tuple[str, SyntaxConfig], ...]:
    """A seeded corpus of texts to parse: random formulas over all sixteen
    connectives and the constants, rendered in all eight notation-encoding
    pairs, plainly and with mixed bracket kinds, and 20,000 random token
    strings under random pairs."""
    rng = random.Random(1893)
    texts = []
    all_connectives = tuple(c.name for c in CONNECTIVES)
    for _ in range(200):
        formula = random_formula(rng, max_depth=4, connective_names=all_connectives)
        for config in ALL_CONFIGS:
            shown = render(formula, config)
            texts += [(shown, config), (_mix_brackets(rng, shown), config)]
    for _ in range(20_000):
        config = rng.choice(ALL_CONFIGS)
        texts.append((_token_string(rng, config.notation), config))
    return tuple(texts)


def _parse_digest(nfd: bool) -> str:
    """The sha256 of the trees and diagnostics of `parse` over the texts of
    `_pin_texts` that are in NFD form, or over the others."""
    digest = hashlib.sha256()
    for text, config in _pin_texts():
        if unicodedata.is_normalized("NFD", text) is not nfd:
            continue
        try:
            result = _polish(parse(text, config))
        except ParseError as exc:
            result = str(exc)
        digest.update(f"{config.notation}/{config.encoding}\0{text}\0{result}\n".encode())
    return digest.hexdigest()


class TestParserPin:
    """Positions index the text as given, so texts in NFD form, where they
    are NFD positions too, are pinned apart from texts with a precomposed
    character (é, ā), whose NFD form is longer."""

    def test_parse_is_pinned(self):
        assert _parse_digest(nfd=True) == (
            "8ac9c4262ec248308e47af28492ded7f160d363ebfeae458b6ac13a28ae8a753"
        )

    def test_parse_of_precomposed_text_is_pinned(self):
        assert _parse_digest(nfd=False) == (
            "5b27202ba607df6a1ac1a2744dd45e8026ec6f5ecce132c484f54219e572f6f9"
        )


class TestValueSymbolsAndWidth:
    def test_value_symbols(self):
        assert value_symbols(Notation.PEIRCE) == ("v", "f")
        for notation in (Notation.SCHROEDER, Notation.PEANO_RUSSELL,
                         Notation.MODERN):
            assert value_symbols(notation) == ("t", "f")

    def test_display_width_ignores_combining_marks(self):
        assert display_width("ā ≺ b") == 5
        assert display_width("abc") == 3
        assert pad_display("ā", 3) == "ā  "
