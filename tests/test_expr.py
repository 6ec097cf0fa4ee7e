"""Expression language: token scan, grammar, blade-symbol semantics,
function atoms, error positions, and the canonical printer round trip."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cliffalg import (
    CoefficientTooLarge,
    Multivector,
    ParseError,
    Signature,
    clifford_conjugation,
    even_part,
    expr,
    geometric_product,
    grade_involution,
    norm,
    odd_part,
    parse_multivector,
    pretty_print,
    reversion,
)
from cliffalg.core_algebra import _negative_mask, _zero_mask
from support import (
    REFERENCE_FUNCTIONS,
    all_signatures,
    count_products,
    normalize_word,
    rand_multivector,
    reference_blade_word,
    reference_parse,
    reference_pretty_print,
    reference_tokenize,
    reference_value,
    render_expression,
    render_parenthesized,
    word_to_multivector,
)

S02 = Signature(0, 2)
S20 = Signature(2, 0)
S01 = Signature(0, 1)


def value(text, sig):
    return parse_multivector(text, sig)


class TestGrammar:
    def test_rational_atoms(self):
        assert value("3", S20) == 3
        assert value("3/4", S20) == Fraction(3, 4)
        assert value("-5/2", S20) == Fraction(-5, 2)
        assert value("0", S20) == 0

    def test_precedence_product_over_sum(self):
        # 1 + 2*e1^2 = 1 + 2 in Cl(2,0)
        assert value("1+2*e1^2", S20) == 3

    def test_power_binds_tighter_than_unary_minus(self):
        # -e1^2 = -(e1^2) = -1 in Cl(2,0)
        assert value("-e1^2", S20) == -1

    def test_unary_minus_nests(self):
        assert value("--e1", S20) == Multivector.generator(S20, 1)
        assert value("-(-e1)", S20) == Multivector.generator(S20, 1)

    def test_subtraction_left_associative(self):
        assert value("5-2-1", S20) == 2

    def test_parenthesized(self):
        assert value("(1+e12)*(1-e12)", S02) == 2
        assert value("(1+e12)*(1-e12)", Signature(0, 0, 2)) == 1

    def test_power_zero_and_chains(self):
        assert value("e12^0", S02) == 1
        assert value("e12^2", S02) == -1
        assert value("2^3", S20) == 8

    def test_whitespace_insensitive(self):
        assert value(" 1 + 2 * e1 ", S20) == value("1+2*e1", S20)

    def test_short_name_is_the_same_function(self):
        # wrapping either name by identity must see every parse
        assert expr.parse is parse_multivector

    def test_decimal_digits_of_any_script(self):
        # int() reads every decimal digit, not only ASCII ones
        assert value("٣*e1", S20) == 3 * Multivector.generator(S20, 1)
        assert value("e١٢", S02) == value("e12", S02)


@st.composite
def expression_trees(draw):
    """(signature, tree): regular and degenerate signatures with n <= 5, and
    a random expression tree over their generators (see support.render_expression)."""
    n = draw(st.integers(1, 5))
    s = draw(st.integers(0, n))
    p = draw(st.integers(0, n - s))
    sig = Signature(p, n - s - p, s)
    numbers = st.builds(
        lambda a, b: ("num", a, b), st.integers(0, 9), st.none() | st.integers(1, 5)
    )
    blades = st.builds(
        lambda word, braced: ("blade", tuple(word), braced),
        st.lists(st.integers(1, n), min_size=1, max_size=4),
        st.booleans(),
    )

    def extend(children):
        return st.one_of(
            st.builds(
                lambda first, rest: ("sum", first, rest),
                children,
                st.lists(st.tuples(st.sampled_from("+-"), children), min_size=1, max_size=3),
            ),
            st.builds(lambda factors: ("product", factors), st.lists(children, min_size=2, max_size=3)),
            st.builds(lambda child: ("neg", child), children),
            st.builds(lambda child, k: ("pow", child, k), children, st.integers(0, 4)),
            st.builds(
                lambda name, child: ("call", name, child), st.sampled_from(sorted(expr.FUNCTIONS)), children
            ),
        )

    return sig, draw(st.recursive(numbers | blades, extend, max_leaves=8))


E1 = ("blade", (1,), False)


class TestEvaluation:
    def test_reference_covers_every_function(self):
        assert set(REFERENCE_FUNCTIONS) == set(expr.FUNCTIONS)

    @settings(max_examples=300, deadline=None)
    @given(expression_trees())
    # a blade that cancels and comes back; zero and rational factors on either side
    @example((Signature(1, 1, 1), ("sum", E1, [("-", E1), ("+", ("blade", (3, 2, 3), True))])))
    @example(
        (
            Signature(2, 0, 1),
            ("product", [("num", 0, None), ("blade", (2, 1), False), ("num", 3, 4), E1]),
        )
    )
    def test_matches_reference_fold(self, case):
        sig, tree = case
        assert parse_multivector(render_expression(tree), sig) == reference_value(tree, sig)

    def test_sum_of_monomials_forms_no_product(self, monkeypatch):
        # every term but the scalar one is written c*blade with |c| > 1
        sig = Signature(4, 0)
        x = Multivector(sig, {m: (m + 2) * (-1) ** m for m in range(16)})
        text = pretty_print(x)
        assert text.count("*") == 15
        calls = count_products(monkeypatch)
        assert value(text, sig) == x
        assert calls == [0]


@st.composite
def blade_words(draw):
    """A generator word of up to 12 letters, repeats allowed, in one Cl(p,q,s), n <= 7 and s in {0, 1, 2}."""
    n = draw(st.integers(1, 7))
    s = draw(st.integers(0, min(n, 2)))
    p = draw(st.integers(0, n - s))
    return Signature(p, n - s - p, s), draw(st.lists(st.integers(1, n), max_size=12))


class TestBladeSymbols:
    def test_reduction_through_relations(self):
        e1 = Multivector.generator(S02, 1)
        e2 = Multivector.generator(S02, 2)
        assert value("e21", S02) == -geometric_product(e1, e2)
        assert value("e11", S01) == -1
        assert value("e11", S20) == 1
        assert value("e11", Signature(0, 0, 1)) == 0

    def test_written_words_match_rewriting_oracle(self):
        # every word of up to four letters, folded by blade signs alone
        sig = Signature(1, 1, 1)
        for length in range(1, 5):
            for word in itertools.product(range(1, 4), repeat=length):
                sign, indices = normalize_word(word, sig)
                text = "e" + "".join(map(str, word))
                assert value(text, sig) == sign * word_to_multivector(indices, sig)

    def test_braced_form(self):
        assert value("e{1,2}", S02) == value("e12", S02)
        assert value("e{2,1}", S02) == value("e21", S02)

    def test_braced_form_required_above_nine(self):
        sig = Signature(10, 0)
        assert value("e{10}", sig) == Multivector.generator(sig, 10)
        with pytest.raises(ParseError):
            parse_multivector("e12", sig)

    def test_digit_form_in_nine_generators(self):
        sig = Signature(9, 0)
        expected = word_to_multivector([1, 2, 3, 4, 5, 6, 7, 8, 9], sig)
        assert value("e123456789", sig) == expected

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_multivector("e3", S02)
        with pytest.raises(ParseError):
            parse_multivector("e0", S02)
        with pytest.raises(ParseError):
            parse_multivector("e{3}", S02)

    def test_long_written_words(self):
        sig = Signature(3, 0)
        assert value("e123321", sig) == 1
        # e1*e2*e3*e1: two transpositions carry the last factor home
        assert value("e1231", sig) == value("e23", sig)
        assert value("e121", sig) == -value("e2", sig)

    @settings(max_examples=300, deadline=None)
    @given(blade_words())
    # e3 and e4 are null: a word zeroes only when one of them repeats
    @example((Signature(1, 1, 2), [1, 2, 3, 4]))
    @example((Signature(1, 1, 2), [4, 1, 2, 4, 3]))
    @example((Signature(0, 3), [3, 2, 1, 3, 2, 1]))
    def test_word_matches_blade_mul_fold(self, case):
        sig, indices = case
        sign, mask = expr._blade_word(indices, _negative_mask(sig), _zero_mask(sig))
        assert (sign, mask) == reference_blade_word(indices, sig)


class TestFunctions:
    def test_each_function_matches_library(self):
        rng = random.Random(401)
        sig = Signature(1, 2)
        x = rand_multivector(rng, sig, density=0.8)
        text = f"({pretty_print(x)})"
        pairs = [
            ("rev", reversion),
            ("gi", grade_involution),
            ("conj", clifford_conjugation),
            ("even", even_part),
            ("odd", odd_part),
            ("N", norm),
        ]
        for name, fn in pairs:
            assert value(f"{name}{text}", sig) == fn(x)

    def test_norm_example(self):
        assert value("N(1+e12)", S02) == 2
        assert value("N(e1)", S02) == 1
        assert value("N(e1)", S20) == -1

    def test_functions_need_parentheses(self):
        with pytest.raises(ParseError):
            parse_multivector("rev e1", S20)

    def test_unknown_name_rejected(self):
        with pytest.raises(ParseError):
            parse_multivector("foo(e1)", S20)

    def test_nested_calls(self):
        rng = random.Random(409)
        x = rand_multivector(rng, S02, density=0.9)
        text = pretty_print(x)
        assert value(f"rev(conj({text}))", S02) == reversion(clifford_conjugation(x))


REJECTED = [
    "",
    "2e1",
    "e1 e2",
    "1.5",
    "e1^(2)",
    "(e1",
    "e1)",
    "1+",
    "*e1",
    "e1**e2",
    "e{1",
    "e{}",
    "e{1,}",
    "1/0",
    "e",
    "2/e1",
    "e1^-1",
    "2^²",
    "1/²",
    "e²",
]


class TestParseErrors:
    @pytest.mark.parametrize("text", REJECTED)
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_multivector(text, S20)

    def test_position_reported(self):
        with pytest.raises(ParseError) as info:
            parse_multivector("1 + $", S20)
        assert info.value.position == 4
        assert "position 4" in str(info.value)
        with pytest.raises(ParseError) as info:
            parse_multivector("e1 e2", S20)
        assert info.value.position == 3

    def test_budget_error_in_prefix_comes_first(self):
        # the value is computed as the text is read: a prefix past the
        # coefficient budget fails before the stray parenthesis is reached
        with pytest.raises(CoefficientTooLarge):
            parse_multivector("2^9000 )", S20)

    def test_in_budget_prefix_still_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_multivector("e1^2 )", S20)

    def test_token_errors_come_before_evaluation(self):
        with pytest.raises(ParseError):
            parse_multivector("2^9000 $", S20)

    def test_implicit_multiplication_rejected_everywhere(self):
        with pytest.raises(ParseError):
            parse_multivector("2(1+e1)", S20)
        with pytest.raises(ParseError):
            parse_multivector("(1)(2)", S20)


class TestPrettyPrint:
    def test_zero(self):
        assert pretty_print(Multivector.zero(S20)) == "0"

    def test_leading_negative(self):
        e12 = Multivector.basis_blade(S02, 0b11)
        assert pretty_print(-e12) == "-e12"
        assert pretty_print(e12 - 1) == "-1 + e12"

    def test_unit_coefficient_suppressed(self):
        x = Multivector(S02, {0: Fraction(1, 2), 0b01: 1, 0b10: Fraction(-2, 3)})
        assert pretty_print(x) == "1/2 + e1 - 2/3*e2"

    def test_ascending_mask_order(self):
        sig = Signature(3, 0)
        x = Multivector(sig, {0b111: 1, 0b001: 1, 0b110: 1})
        assert pretty_print(x) == "e1 + e23 + e123"

    def test_braced_names_above_nine(self):
        sig = Signature(10, 0)
        x = Multivector(sig, {(1 << 9) | 1: 2})
        assert pretty_print(x) == "2*e{1,10}"
        assert value(pretty_print(x), sig) == x

    def test_round_trip_random(self):
        rng = random.Random(419)
        for sig in all_signatures(4):
            for _ in range(10):
                x = rand_multivector(rng, sig, density=0.4)
                assert value(pretty_print(x), sig) == x

    def test_round_trip_high_dimension(self):
        rng = random.Random(421)
        sig = Signature(6, 5)
        for _ in range(5):
            x = rand_multivector(rng, sig, density=0.01)
            assert value(pretty_print(x), sig) == x


def general_parse(text, sig):
    """parse_multivector's general path alone: the one-pattern scan and the one-loop reader."""
    return expr._evaluate(text, sig)


@st.composite
def signatures(draw, max_n):
    n = draw(st.integers(0, max_n))
    s = draw(st.integers(0, n))
    p = draw(st.integers(0, n - s))
    return Signature(p, n - s - p, s)


# numerators and denominators at the budget: 8192 bits pass it and 8193 do
# not; two coprime 4097-bit denominators give an 8193-bit scale whose
# reduced coefficients all pass it
EDGE_INTEGERS = (2**8191 + 1, 2**8192 - 1, 3**5168, 2**8192 + 1, 3**5169, 2**4096 + 1, 2**4097 - 1)


@st.composite
def printable_elements(draw):
    """(signature, coefficients) on a signature with n <= 16, s >= 0, up to 8
    terms, with fractional and negative coefficients whose numerators and
    denominators are small or from EDGE_INTEGERS.  Not a Multivector: its
    repr prints, and would raise past the budget."""
    sig = draw(signatures(16))
    sizes = st.one_of(st.integers(1, 30), st.sampled_from(EDGE_INTEGERS))
    coefficient = st.builds(lambda sign, a, b: Fraction(sign * a, b), st.sampled_from([1, -1]), sizes, sizes)
    masks = st.integers(0, (1 << sig.n) - 1)
    return sig, draw(st.dictionaries(masks, coefficient, max_size=8))


def printed(render, x):
    """The text, or the type and message of the error."""
    try:
        return render(x)
    except CoefficientTooLarge as error:
        return type(error), str(error)


class TestPrinterMatchesFractions:
    @settings(max_examples=300, deadline=None)
    @given(printable_elements())
    @example((S20, {0: Fraction(-1, 2**4096 + 1), 0b11: Fraction(3, 2**4097 - 1)}))
    @example((Signature(1, 0, 1), {0b10: 2**8192 - 1, 0b11: Fraction(-1, 2**8192 - 1)}))
    @example((S20, {0: 1, 0b01: Fraction(-(2**8192 + 1), 3)}))
    @example((S20, {0b10: Fraction(5, 3**5169)}))
    @example((Signature(9, 7), {0: Fraction(-1, 2), (1 << 16) - 1: Fraction(7, 3), 0b1000000001: -1}))
    def test_same_text_or_error(self, case):
        x = Multivector(*case)
        assert printed(pretty_print, x) == printed(reference_pretty_print, x)


@st.composite
def monomial_sums(draw):
    """(signature, text, readable): a sum of rational*blade monomials on a
    signature with n <= 12, s >= 0.  Each piece is drawn in or out of the
    reader's language (a leading "+", a missing sign, a zero denominator, an
    index out of range or past 3 digits, the digit form past 9 generators,
    non-ASCII digits or spaces, a literal past MAX_LITERAL_DIGITS, a space
    inside braces); readable is True when every piece is in it."""
    sig = draw(signatures(12))
    n = sig.n
    longest = expr.MAX_LITERAL_DIGITS
    readable = True

    def pick(options):
        # (text, readable) pairs: one piece in twenty may leave the language
        nonlocal readable
        if draw(st.integers(0, 19)):
            options = [option for option in options if option[1]]
        text, ok = draw(st.sampled_from(options))
        readable &= ok
        return text

    def gap():
        return pick([("", True), (" ", True), ("\t", True), ("\n  ", True), ("\u00a0", False)])

    def literal(value, denominator=False):
        return pick(
            [
                (str(value), value != 0 or not denominator),
                ("00" + str(value), value != 0 or not denominator),
                ("9" * longest, True),
                ("1" + "0" * longest, False),
                ("٣", False),
            ]
        )

    def index(top):
        i = draw(st.integers(1, top)) if n and draw(st.integers(0, 15)) else draw(st.sampled_from([0, n + 1]))
        nonlocal readable
        readable &= 1 <= i <= n
        return i

    def blade():
        # words over e1, e2 alone often meet again: cancellation and re-insertion
        top = n if draw(st.booleans()) else min(n, 2)
        word = [index(top) for _ in range(draw(st.integers(1, 4)))]
        if max(word) < 10 and not draw(st.booleans()):
            nonlocal readable
            readable &= n <= 9
            return "e" + "".join(map(str, word)) + pick([("", True), ("٢", False)])
        names = [pick([(str(i), True), (f"{i:03}", True), (f"{i:04}", False), (f" {i}", False)]) for i in word]
        return "e{" + ",".join(names) + "}"

    terms = []
    for position in range(draw(st.integers(1, 6))):
        if position == 0:
            sign = pick([("", True), ("-", True), ("+", False)])
        else:
            # a missing sign leaves a space: "0" then "0" with no gap is the one literal "00"
            sign = pick([("+", True), ("-", True), (" ", False)])
        form = draw(st.sampled_from(["rational", "monomial", "blade"]) if n else st.just("rational"))
        body = ""
        if form != "blade":
            body = literal(draw(st.integers(0, 9)))
            if draw(st.booleans()):
                body += gap() + "/" + gap() + literal(draw(st.integers(0, 5)), denominator=True)
        if form == "monomial":
            body += gap() + "*" + gap()
        if form != "rational":
            body += blade()
        terms.append(gap() + sign + gap() + body + gap())
    return sig, "".join(terms), readable


S111 = Signature(1, 1, 1)
S10 = Signature(10, 0)


class TestMonomialReader:
    @settings(max_examples=400, deadline=None)
    @given(monomial_sums())
    # cancellation and re-insertion, out-of-order and repeated words, null generators
    @example((S111, "e1 + e2 - e1 + e12 + e21 + 2*e1 - 3", True))
    @example((S111, "e13 + e31 + 0*e2 - 0 + e33 + 2*e233", True))
    @example((S10, "1/2*e{10,1} - e{001,010}", True))
    # the fall-back cases: each is read by the general reader, or refused by it
    @example((S111, "+e1", False))
    @example((S111, "1/0*e1", False))
    @example((S111, "1/00", False))
    @example((S111, "e14", False))
    @example((S111, "e{0}", False))
    @example((S10, "e1", False))
    @example((S111, "1 e1", False))
    @example((S111, "0 0", False))
    @example((S111, "1 + -e1", False))
    @example((S111, "٣*e1", False))
    @example((S111, "e١", False))
    @example((S111, "e{1, 2}", False))
    @example((S111, "e{0001}", False))
    @example((S111, "e1²", False))
    @example((S111, "e1^2", False))
    @example((S111, "(1 + e1)", False))
    @example((S111, "rev(e12)", False))
    @example((S111, "e1*e2", False))
    @example((S111, "2*3", False))
    @example((S111, "1 +", False))
    @example((S111, "", False))
    def test_matches_general_parser(self, case):
        sig, text, readable = case
        value = expr._monomial_sum(text, sig)
        assert (value is not None) == readable
        if value is not None:
            # the same coefficients in the same key order
            assert list(value._coeffs.items()) == list(general_parse(text, sig)._coeffs.items())

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_reads_pretty_print(self, data):
        sig = data.draw(signatures(12))
        masks = st.integers(0, (1 << sig.n) - 1)
        coeffs = data.draw(st.dictionaries(masks, st.fractions(-20, 20, max_denominator=9), max_size=12))
        x = Multivector(sig, coeffs)
        assert expr._monomial_sum(pretty_print(x), sig) == x


@st.composite
def general_texts(draw):
    """(signature, text): an expression tree rendered minimally or fully
    parenthesized, and three times in four with one token deleted,
    duplicated or swapped with another."""
    sig, tree = draw(expression_trees())
    text = draw(st.sampled_from([render_expression, render_parenthesized]))(tree)
    edit = draw(st.sampled_from(["none", "delete", "duplicate", "swap"]))
    if edit != "none":
        tokens = expr._TOKEN.findall(text)
        i = draw(st.integers(0, len(tokens) - 1))
        if edit == "delete":
            del tokens[i]
        elif edit == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        text = " ".join(tokens)
    return sig, text


def outcome(parse, text, sig):
    """The value with its key order, or the error's type, message and position."""
    try:
        value = parse(text, sig)
    except (ParseError, CoefficientTooLarge) as error:
        return type(error), str(error), getattr(error, "position", None)
    return value, list(value._coeffs.items())


def with_examples(cases):
    """One hypothesis @example per case."""

    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test

    return decorate


S6_4_1 = Signature(6, 4, 1)
# error texts, the first error from the left, key order, the nesting limit,
# braced blades at n >= 10
GENERAL_EXAMPLES = [(S20, text) for text in REJECTED] + [
    (S20, "2^9000 )"),
    (S20, "(2^5000) * (2^4000) )"),
    (S20, "N(2^5000*e1 + 2^4000) )"),
    (S20, "rev 1"),
    (S20, "N()"),
    (S20, "e{1"),
    (S20, "e1^2^3"),
    (S20, "(e1 + 1)^2 * -rev(e12 - 3/4)^3 - --e21"),
    # key order through the scalar shortcut on either side, and through 0
    (S20, "(e2 + e1) * 3 - 3/4 * (e12 + e2 + 1)"),
    (S20, "(e2 + e1) * (1 + e1 - e1) * 0 + e2 - e1"),
    (S20, "(" * 100 + "1 + e1" + ")" * 100),
    (S20, "(" * 101 + "1 + e1" + ")" * 101),
    (S20, "-rev(" * 50 + "e12" + ")" * 50),
    (S20, "-rev(" * 51 + "e12" + ")" * 51),
    (S10, "e{10,1} * (e{2,10} - 3/2*e{1})^2"),
    (S10, "e{1,10"),
    (S10, "e{11}"),
    (S10, "e12 + e{1}"),
    (S6_4_1, "rev(e{11,2} + e{0011}) * e{11} + e{3,1,3}"),
]


def count_sums(monkeypatch):
    """The part counts of the calls the readers make to core_algebra's shared sum from now on."""
    calls = []
    shared = expr._sum

    def counted(sig, parts):
        calls.append(len(parts))
        return shared(sig, parts)

    monkeypatch.setattr(expr, "_sum", counted)
    return calls


# a flat sum of 600 terms over the 8 blades of Cl(2,1): blades cancel and come back
S21 = Signature(2, 1)
FLAT_BLADES = ["", "*e1", "*e2", "*e3", "*e12", "*e13", "*e23", "*e123"]
FLAT_TERMS = [f"{'-' if k % 3 else '+'} {k % 5}/{k % 4 + 1}{FLAT_BLADES[k % 8]}" for k in range(600)]
FLAT_SUM = "1 " + " ".join(FLAT_TERMS)


class TestSharedSum:
    def test_parenthesized_flat_sum_is_one_shared_sum(self, monkeypatch):
        calls = count_sums(monkeypatch)
        x = parse_multivector(f"({FLAT_SUM})", S21)
        # the inner frame's 601 terms in one call; the outer frame's one term is returned as it is
        assert calls == [601]
        assert outcome(parse_multivector, f"({FLAT_SUM})", S21) == outcome(reference_parse, FLAT_SUM, S21)
        assert x == parse_multivector(FLAT_SUM, S21)

    def test_monomial_sum_is_one_shared_sum(self, monkeypatch):
        calls = count_sums(monkeypatch)
        assert expr._monomial_sum(FLAT_SUM, S21) is not None
        # the zero terms (numerator 0) do not enter the sum
        assert calls == [1 + sum(1 for k in range(600) if k % 5)]

    def test_single_term_forms_no_sum(self, monkeypatch):
        calls = count_sums(monkeypatch)
        assert parse_multivector("((e1 * e2))", S21) == Multivector.basis_blade(S21, 0b11)
        assert calls == []


class TestGeneralReader:
    @settings(max_examples=400, deadline=None)
    @given(general_texts())
    @with_examples(GENERAL_EXAMPLES)
    def test_matches_recursive_descent(self, case):
        # the same value in the same key order, or the same error at the same place
        sig, text = case
        assert outcome(parse_multivector, text, sig) == outcome(reference_parse, text, sig)

    @pytest.mark.parametrize("openers", [["("], ["rev("], ["-"], ["(", "rev(", "-"]])
    def test_nesting_limit_is_exact(self, openers):
        e12 = Multivector.basis_blade(S20, 0b11)
        for levels in (expr.MAX_NESTING_DEPTH, expr.MAX_NESTING_DEPTH + 1):
            chain = [openers[i % len(openers)] for i in range(levels)]
            prefix = "".join(chain)
            text = prefix + "e12" + ")" * sum(opener.endswith("(") for opener in chain)
            if levels == expr.MAX_NESTING_DEPTH:
                # rev(e12) and -e12 each flip the sign
                flips = sum(opener != "(" for opener in chain)
                assert value(text, S20) == (-1) ** flips * e12
            else:
                # raised at the 101st opener: the "(" of a call, the "-" of a minus
                with pytest.raises(ParseError, match="nests deeper than 100 levels") as info:
                    parse_multivector(text, S20)
                assert info.value.position == len(prefix) - 1

    def test_depth_counts_open_levels_only(self):
        # a closed parenthesis and a finished factor give their levels back
        full = "(" * 100 + "1" + ")" * 100
        assert value(f"{full} + {full} * {full}", S20) == 2
        assert value("-" * 100 + "e1 * " + "-" * 100 + "e1", S20) == 1
        assert value("-" * 50 + "(" * 50 + "e1" + ")" * 50 + "^2", S20) == 1


SYMBOLS = "+-*/^(){},"


@st.composite
def unicode_texts(draw):
    """(signature, text): up to 12 pieces, with Unicode digits, numerals
    that are no digits, letters ("一" is also a numeral), "_" and Unicode
    whitespace among the ASCII tokens."""
    pieces = ["٣", "²", "½", "Ⅷ", "é", "一", "_", "\x1c", "\u3000", " ", "$", "x"]
    pieces += ["1", "20", "0", "e", "e1", "e12", "rev", "N", *SYMBOLS]
    sig = draw(st.sampled_from([S20, S01, Signature(1, 1, 1), S10]))
    return sig, "".join(draw(st.lists(st.sampled_from(pieces), max_size=12)))


class TestScan:
    def test_classes_are_the_str_predicates(self):
        # every code point, lone surrogates included, in ascending order
        every = "".join(map(chr, range(0x110000)))

        def code_points(pattern):
            return "".join(re.findall(pattern, every))

        def code_points_where(predicate):
            return "".join(filter(predicate, every))

        # the scan is this one alternation of re's Unicode classes, with no re.ASCII
        assert expr._TOKEN.pattern == r"\d+|[^\W\d_][^\W_]*|[-+*/^(){},]|\S"
        assert not expr._TOKEN.flags & re.ASCII
        # findall skips what \S leaves out: whitespace
        assert code_points(r"\s") == code_points_where(str.isspace)
        assert code_points(r"\d") == code_points_where(str.isdecimal)
        # a name continues with letters and digits; \w also matches "_"
        assert code_points(r"[^\W_]") == code_points_where(str.isalnum)
        # a name starts with a letter: the class also holds 1131 numerals, which _outside reports
        starts = code_points(r"[^\W\d_]")
        letters = code_points_where(str.isalpha)
        assert "".join(c for c in starts if expr._outside(c) is None) == letters
        assert len(starts) - len(letters) == 1131
        # every other character but whitespace and the symbols is outside the token set
        kept = expr._OUTSIDE.sub("", every)
        assert kept == code_points_where(lambda c: c.isspace() or c.isalnum() or c in SYMBOLS)

    def test_first_character_outside_wins(self):
        # a numeral that is no letter before a character _OUTSIDE finds, and after it
        assert expr._outside("e1 + ½ $") == 5
        assert expr._outside("e1 $ ½") == 3
        assert expr._outside("1²") == 1
        assert expr._outside("e² + é1 + \u3000٣ \x1c") is None

    @settings(max_examples=400, deadline=None)
    @given(unicode_texts())
    @example((S20, "e1_2"))
    @example((S20, "1²"))
    @example((S20, "e² + ٣*e1\x1c"))
    @example((S20, "(1 +\u3000é1"))
    def test_matches_reference_on_unicode(self, case):
        sig, text = case
        assert outcome(parse_multivector, text, sig) == outcome(reference_parse, text, sig)
        try:
            reference = reference_tokenize(text)
        except ParseError as error:
            assert expr._outside(text) == error.position
        else:
            assert expr._outside(text) is None
            assert expr._TOKEN.findall(text) == [token.text for token in reference[:-1]]
