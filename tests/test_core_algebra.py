"""Core arithmetic: blade products against an independent rewriting oracle,
algebra laws, involutions, vectors, inverses, and the fast table kernel."""

import copy
import functools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cliffalg import (
    CoefficientTooLarge,
    DimensionCapExceeded,
    Multivector,
    NotAVector,
    NotInvertible,
    Signature,
    SignatureMismatch,
    add,
    blade_from_indices,
    blade_grade,
    blade_indices,
    blade_mul,
    blade_name,
    clifford_conjugation,
    embed_vector,
    even_part,
    extract_vector,
    geometric_product,
    grade_involution,
    grade_projection,
    inverse,
    involution,
    multiplication_table,
    norm,
    odd_part,
    parse,
    pretty_print,
    reversion,
    scalar_mul,
)
from cliffalg import core_algebra
from cliffalg.core_algebra import (
    MAX_CAP,
    _blade_square,
    _blade_times,
    _name_halves,
    _product,
    _sandwich,
    _sum,
    _times_blade,
)
from support import (
    all_signatures,
    dense_inverse,
    normalize_word,
    rand_multivector,
    rand_vector,
    reference_add,
    reference_blade_name,
    reference_blade_product,
    reference_blade_times,
    reference_int_product,
    reference_product,
)

SMALL_SIGS = all_signatures(3)


def blade_word(mask):
    return list(blade_indices(mask))


class TestBladeProduct:
    def test_against_rewriting_oracle_exhaustive(self):
        # fully independent path: bubble rewriting with the two relations
        for sig in all_signatures(4):
            dim = 1 << sig.n
            for a in range(dim):
                for b in range(dim):
                    coef, mask = blade_mul(a, b, sig)
                    sign, word = normalize_word(blade_word(a) + blade_word(b), sig)
                    assert mask == a ^ b
                    if sign == 0:
                        assert coef == 0
                    else:
                        assert coef == sign
                        assert blade_from_indices(word, sig.n) == mask

    def test_oracle_spot_checks_n5(self):
        # up to the default cap 10 and the CLI maximum 16; from n = 10 on the
        # reordering parity takes a fourth doubling step
        sigs = [Signature(5, 0), Signature(0, 5), Signature(2, 2, 1), Signature(1, 3, 1)]
        sigs += [Signature(9, 0), Signature(5, 4, 1), Signature(8, 8)]
        for sig in sigs:
            rng = random.Random(501)
            dim = 1 << sig.n
            for _ in range(300):
                a, b = rng.randrange(dim), rng.randrange(dim)
                coef, mask = blade_mul(a, b, sig)
                sign, _ = normalize_word(blade_word(a) + blade_word(b), sig)
                assert coef == sign and mask == a ^ b

    def test_quaternion_square(self):
        sig = Signature(0, 2)
        assert blade_mul(0b11, 0b11, sig) == (Fraction(-1), 0)
        assert blade_mul(0b11, 0b01, sig) == (Fraction(1), 0b10)
        assert blade_mul(0b01, 0b11, sig) == (Fraction(-1), 0b10)

    def test_degenerate_shared_generator(self):
        sig = Signature(0, 0, 1)
        assert blade_mul(1, 1, sig) == (Fraction(0), 0)

    def test_table_matches_blade_mul(self):
        for sig in all_signatures(4):
            table = multiplication_table(sig)
            dim = 1 << sig.n
            for a in range(dim):
                for b in range(dim):
                    assert table[a][b] == blade_mul(a, b, sig)

    def test_table_cap(self):
        with pytest.raises(DimensionCapExceeded):
            multiplication_table(Signature(3, 0), cap=2)
        with pytest.raises(DimensionCapExceeded):
            multiplication_table(Signature(6, 5))


class TestBladeHelpers:
    def test_grade_indices_roundtrip(self):
        for mask in range(64):
            indices = blade_indices(mask)
            assert blade_grade(mask) == len(indices)
            assert blade_from_indices(indices, 6) == mask

    def test_blade_names(self):
        assert blade_name(0, 3) == "1"
        assert blade_name(0b101, 3) == "e13"
        assert blade_name(0b101, 10) == "e{1,3}"

    @pytest.mark.parametrize("n", range(11))
    def test_blade_name_every_mask_matches_bit_loop(self, n):
        # every mask on both sides of n = 9, where the separator becomes ","
        for mask in range(1 << n):
            assert blade_name(mask, n) == reference_blade_name(mask, n)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, MAX_CAP).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
    @example((16, (1 << 16) - 1))
    @example((16, 1 << 15))
    @example((11, 0b11111))
    def test_blade_name_drawn_masks_match_bit_loop(self, case):
        n, mask = case
        assert blade_name(mask, n) == reference_blade_name(mask, n)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 40), mask=st.integers(0, (1 << 40) - 1))
    @example(n=3, mask=0b1000)
    @example(n=17, mask=1 << 16)
    def test_blade_name_past_the_tables_matches_bit_loop(self, n, mask):
        # a mask past 2^n, or n past MAX_CAP, is named without the tables
        assert blade_name(mask, n) == reference_blade_name(mask, n)

    def test_name_tables_are_bounded(self):
        for n in range(2 * MAX_CAP):
            blade_name((1 << n) - 1, n)
        assert _name_halves.cache_info().currsize <= MAX_CAP
        for n in range(1, MAX_CAP + 1):
            h, low, high = _name_halves(n)
            assert h == n // 2 and len(low) == 1 << h and len(high) == 1 << (n - h) <= 256

    def test_from_indices_errors(self):
        with pytest.raises(ValueError):
            blade_from_indices([0], 3)
        with pytest.raises(ValueError):
            blade_from_indices([4], 3)
        with pytest.raises(ValueError):
            blade_from_indices([1, 1], 3)


class TestSignature:
    def test_generator_squares(self):
        sig = Signature(1, 2, 1)
        assert [sig.generator_square(i) for i in range(1, 5)] == [1, -1, -1, 0]
        with pytest.raises(ValueError):
            sig.generator_square(0)
        with pytest.raises(ValueError):
            sig.generator_square(5)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Signature(-1, 0, 0)

    def test_str(self):
        assert str(Signature(1, 3)) == "(1,3,0)"


def small_fractions():
    return st.fractions(min_value=-4, max_value=4, max_denominator=4)


def multivectors(sig):
    dim = 1 << sig.n
    return st.builds(
        lambda vals: Multivector(sig, dict(enumerate(vals))),
        st.lists(small_fractions(), min_size=dim, max_size=dim),
    )


HYP_SIG = Signature(1, 1, 1)


@st.composite
def inverse_cases(draw):
    """Dense, sparse, or zero-divisor d * (1 +- u) with u^2 = +1, n <= 5, s > 0 included."""
    n = draw(st.integers(0, 5))
    p = draw(st.integers(0, n))
    q = draw(st.integers(0, n - p))
    sig = Signature(p, q, n - p - q)
    dim = 1 << n
    values = draw(st.lists(small_fractions(), min_size=dim, max_size=dim))
    kind = draw(st.sampled_from(["dense", "sparse", "zero divisor"]))
    if kind == "sparse":
        keep = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
        values = [v if k else 0 for v, k in zip(values, keep)]
    x = Multivector(sig, dict(enumerate(values)))
    units = [m for m in range(1, dim) if blade_mul(m, m, sig)[0] == 1]
    if kind == "zero divisor" and units:
        u = Multivector.basis_blade(sig, draw(st.sampled_from(units)))
        x = geometric_product(x, 1 + u if draw(st.booleans()) else 1 - u)
    return x


@st.composite
def degenerate_inverse_cases(draw):
    """A unit, a zero divisor or a radical element of Cl(p,q,s), s >= 1, n <= 5.

    The radical J is spanned by the blades with a null generator.  A unit is
    a + nu with a dense integer part a free of null generators (almost
    always invertible in Cl(p,q)) and nu in J; a zero divisor is such an
    element times 1 +- u with u^2 = +1; a radical element lies in J.
    """
    n = draw(st.integers(1, 5))
    s = draw(st.integers(1, n))
    p = draw(st.integers(0, n - s))
    sig = Signature(p, n - s - p, s)
    regular = 1 << (n - s)
    values = draw(st.lists(small_fractions(), min_size=1 << n, max_size=1 << n))
    a = {m: draw(st.integers(-3, 3)) for m in range(regular)}
    kind = draw(st.sampled_from(["unit", "zero divisor", "radical"]))
    x = Multivector(sig, {m: v for m, v in enumerate(values) if m >= regular})
    if kind == "radical":
        return x
    x = add(x, Multivector(sig, a))
    units = [m for m in range(1, regular) if blade_mul(m, m, sig)[0] == 1]
    if kind == "zero divisor" and units:
        u = Multivector.basis_blade(sig, draw(st.sampled_from(units)))
        x = geometric_product(x, 1 + u if draw(st.booleans()) else 1 - u)
    return x


@st.composite
def product_cases(draw):
    """Two operands of one Cl(p,q,s), n <= 6: empty, scalar, one term, sparse or dense."""
    n = draw(st.integers(0, 6))
    p = draw(st.integers(0, n))
    q = draw(st.integers(0, n - p))
    sig = Signature(p, q, n - p - q)
    fractions = st.fractions(min_value=-40, max_value=40, max_denominator=30)

    def operand():
        kind = draw(st.sampled_from(["empty", "scalar", "one term", "sparse", "dense"]))
        if kind == "empty":
            return Multivector.zero(sig)
        if kind == "scalar":
            return Multivector.scalar(sig, draw(fractions))
        if kind == "one term":
            mask = draw(st.integers(0, (1 << n) - 1))
            return Multivector.basis_blade(sig, mask, draw(fractions))
        masks = range(1 << n)
        if kind == "sparse":
            masks = draw(st.lists(st.sampled_from(masks), max_size=6))
        return Multivector(sig, {m: draw(fractions) for m in masks})

    return operand(), operand()


# pairwise-coprime denominators: the common denominator is their product
_COPRIME = Signature(2, 1, 1)


class TestIntegerKernel:
    @settings(max_examples=150, deadline=None)
    @given(product_cases())
    @example(
        (
            Multivector(_COPRIME, {m: Fraction(m + 1, d) for m, d in enumerate([2, 3, 5, 7, 11, 13, 17, 19])}),
            Multivector(_COPRIME, {m: Fraction(1 - m, d) for m, d in zip(range(8, 16), [23, 29, 31, 37, 41, 43, 47, 53])}),
        )
    )
    def test_matches_fraction_loop(self, case):
        x, y = case
        assert geometric_product(x, y) == reference_product(x, y)
        assert geometric_product(y, x) == reference_product(y, x)

    def test_norm_is_product_with_conjugate(self):
        rng = random.Random(409)
        for sig in all_signatures(4):
            x = rand_multivector(rng, sig, density=0.7)
            assert norm(x) == reference_product(x, clifford_conjugation(x))


@st.composite
def blade_times_cases(draw):
    """A blade mask and a coefficient map of one Cl(p,q,s), n <= 6, s > 0 included.

    The map holds nonzero ints or Fractions, one kind per case, with its
    keys in drawn order, not ascending.
    """
    n = draw(st.integers(0, 6))
    p = draw(st.integers(0, n))
    q = draw(st.integers(0, n - p))
    sig = Signature(p, q, n - p - q)
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=1 << n))
    if draw(st.booleans()):
        values = st.integers(-10**30, 10**30).filter(bool)
    else:
        values = st.fractions(min_value=-40, max_value=40, max_denominator=30).filter(bool)
    return sig, draw(st.integers(0, (1 << n) - 1)), {m: draw(values) for m in masks}


def check_blade_times(sig, mask, x):
    """_blade_times against the Fraction product loop: value, key order and coefficient type."""
    image = _blade_times(mask, x, sig)
    expected = reference_product(Multivector.basis_blade(sig, mask), Multivector(sig, x))
    assert Multivector(sig, image) == expected
    assert 0 not in image.values()
    # b -> mask ^ b is one-to-one, so the surviving keys keep X's order
    assert list(image) == [mask ^ b for b in x if mask ^ b in image]
    assert all(type(image[mask ^ b]) is type(x[b]) for b in x if mask ^ b in image)


class TestBladeTimes:
    @settings(max_examples=300, deadline=None)
    @given(blade_times_cases())
    # a null generator shared with the blade drops the term
    @example((Signature(1, 1, 1), 0b101, {0b100: 3, 0b001: 5, 0b110: -7}))
    @example((Signature(1, 1, 1), 0b011, {0b111: Fraction(-1, 3), 0b010: Fraction(2, 7)}))
    def test_matches_fraction_loop(self, case):
        check_blade_times(*case)

    def test_every_blade_of_every_small_signature(self):
        rng = random.Random(1237)
        for sig in all_signatures(6):
            dim = 1 << sig.n
            order = list(range(dim))
            rng.shuffle(order)
            dense = {m: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for m in order}
            for mask in range(dim):
                check_blade_times(sig, mask, dense)


class TestBladeSquare:
    def test_every_blade_of_every_small_signature(self):
        # the square spinors reads for its blade search, traces and simplicity
        for sig in all_signatures(7):
            for mask in range(1 << sig.n):
                assert _blade_square(mask, sig) == reference_blade_product(mask, mask, sig)[0], (sig, mask)


class TestTimesBlade:
    @settings(max_examples=300, deadline=None)
    @given(blade_times_cases())
    # a null generator shared with the blade drops the term
    @example((Signature(1, 1, 1), 0b101, {0b100: 3, 0b001: 5, 0b110: -7}))
    # e123 * e3 with e3 * e3 = -1, and e12 * e123 = -e3 in Cl(2,1)
    @example((Signature(2, 1), 0b100, {0b111: 1}))
    @example((Signature(2, 1), 0b111, {0b011: 1}))
    def test_matches_product_with_the_blade(self, case):
        sig, mask, x = case
        image = _times_blade(x, mask, sig)
        assert image == _product(x, {mask: 1}, sig)
        # b -> b ^ mask is one-to-one, so the surviving keys keep X's order
        assert list(image) == [b ^ mask for b in x if b ^ mask in image]

    def test_every_blade_pair_of_every_small_signature(self):
        for sig in all_signatures(5):
            for b in range(1 << sig.n):
                for mask in range(1 << sig.n):
                    assert _times_blade({b: 1}, mask, sig) == _product({b: 1}, {mask: 1}, sig)


# numerators several machine words long
BIG = 2**200


@st.composite
def kernel_cases(draw):
    """(sig, X, Y, mask): two int maps and a blade of one Cl(p,q,s), n <= 7 and s in {0, 1, 2}.

    Each map is empty, one term, sparse or dense (every blade), with its keys
    in drawn order; its values are small, 0 or up to 200 bits long.
    """
    n = draw(st.integers(0, 7))
    s = draw(st.integers(0, min(n, 2)))
    p = draw(st.integers(0, n - s))
    sig = Signature(p, n - s - p, s)
    values = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG))

    def operand():
        kind = draw(st.sampled_from(["empty", "one term", "sparse", "dense"]))
        if kind == "empty":
            return {}
        if kind == "one term":
            return {draw(st.integers(0, (1 << n) - 1)): draw(values)}
        if kind == "sparse":
            masks = draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=8))
        else:
            masks = draw(st.permutations(range(1 << n)))
        return {m: draw(values) for m in masks}

    return sig, operand(), operand(), draw(st.integers(0, (1 << n) - 1))


class TestFusedKernel:
    """The fused sign reads against the sign-list forms they replaced: same ints, same key order."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    # e3 is null and both rows hold it; e2 squares to -1
    @example((Signature(1, 1, 1), {0b101: 3, 0b011: -BIG, 0: 0}, {0b110: 5, 0b100: 7, 0b001: 0}, 0b100))
    @example((Signature(0, 0, 2), {0b11: 1}, {0b11: 1, 0: 2}, 0b11))
    @example((Signature(4, 3), {}, {1: 1}, 0))
    def test_product_matches_sign_list_loop(self, case):
        sig, x, y, _ = case
        for left, right in ((x, y), (y, x)):
            expected = reference_int_product(left, right, sig)
            assert list(_product(left, right, sig).items()) == list(expected.items())

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    @example((Signature(1, 1, 1), {0b101: 3, 0b011: -BIG, 0: 0}, {}, 0b100))
    def test_blade_times_matches_sign_list_form(self, case):
        sig, x, _, mask = case
        assert list(_blade_times(mask, x, sig).items()) == list(reference_blade_times(mask, x, sig).items())


@st.composite
def sandwich_cases(draw):
    """(sig, X, v): an int map and a blade of one Cl(p,q,s), n <= 7 and s <= 2.

    v is 0, a generator or any blade.  X is one term, a sparse or dense map
    with small or 200-bit values, or a zero divisor d * (1 +- u) with d
    dense and u a blade with u^2 = 1 and conjugate(u) = -u, so that
    N(X) = d * (1 - u^2) * conjugate(d) = 0 cancels term by term.
    """
    n = draw(st.integers(0, 7))
    s = draw(st.integers(0, min(n, 2)))
    p = draw(st.integers(0, n - s))
    sig = Signature(p, n - s - p, s)
    dim = 1 << n
    v = draw(st.one_of(st.just(0), st.sampled_from([1 << i for i in range(n)] or [0]), st.integers(0, dim - 1)))
    values = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG)).filter(bool)
    units = [u for u in range(dim) if u.bit_count() % 4 in (1, 2) and _blade_square(u, sig) == 1]
    kind = draw(st.sampled_from(["one term", "sparse", "dense", "zero divisor"]))
    if kind == "zero divisor" and units:
        d = Multivector(sig, {m: draw(st.integers(-9, 9)) for m in range(dim)})
        u = Multivector.basis_blade(sig, draw(st.sampled_from(units)), draw(st.sampled_from([1, -1])))
        return sig, geometric_product(d, 1 + u)._ints, v
    if kind == "one term":
        masks = [draw(st.integers(0, dim - 1))]
    elif kind == "sparse":
        masks = draw(st.lists(st.integers(0, dim - 1), unique=True, min_size=min(2, dim), max_size=12))
    else:
        masks = draw(st.permutations(range(dim)))
    return sig, {m: draw(values) for m in masks}, v


class TestSandwich:
    """_sandwich(X, v) against X * e_v * conjugate(X) in reference_product, which shares no sign code with it."""

    @settings(max_examples=100, deadline=None)
    @given(sandwich_cases())
    # zero divisors d * (1 + u), N = 0: u = e1 in Cl(1,0) and Cl(2,0,1), u = e12 in Cl(1,1)
    @example((Signature(1, 0), {0: 1, 0b1: 1}, 0))
    @example((Signature(2, 0, 1), {1: 1, 0: 1, 3: -2, 2: 2, 5: -1, 4: 1, 7: 1, 6: 1}, 0))
    @example((Signature(1, 1), {3: -2, 0: -2, 2: 3, 1: 3}, 0))
    @example((Signature(3, 3), {0b011001: -2, 0b100110: 1}, 0b1))  # odd, n = 6
    @example((Signature(2, 1, 2), {0: 1, 0b10000: 3, 0b11001: -2}, 0b10000))  # v null
    def test_matches_reference(self, case):
        sig, x, v = case
        value = Multivector(sig, x)
        expected = reference_product(
            reference_product(value, Multivector.basis_blade(sig, v)), clifford_conjugation(value)
        )
        assert Multivector._scaled(sig, _sandwich(x, v, sig), 1) == expected


class TestAlgebraLaws:
    @settings(max_examples=40, deadline=None)
    @given(multivectors(HYP_SIG), multivectors(HYP_SIG), multivectors(HYP_SIG))
    def test_associative_and_distributive(self, x, y, z):
        assert geometric_product(geometric_product(x, y), z) == geometric_product(
            x, geometric_product(y, z)
        )
        assert geometric_product(x, add(y, z)) == add(
            geometric_product(x, y), geometric_product(x, z)
        )

    @settings(max_examples=40, deadline=None)
    @given(multivectors(HYP_SIG))
    def test_unital(self, x):
        one = Multivector.one(HYP_SIG)
        assert geometric_product(one, x) == x
        assert geometric_product(x, one) == x

    @settings(max_examples=40, deadline=None)
    @given(multivectors(HYP_SIG), small_fractions())
    def test_scalar_mul_compatible(self, x, c):
        assert scalar_mul(c, x) == geometric_product(Multivector.scalar(HYP_SIG, c), x)

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            geometric_product(Multivector.one(Signature(1, 0)), Multivector.one(Signature(0, 1)))

    def test_operator_sugar(self):
        sig = Signature(2, 0)
        e1 = Multivector.generator(sig, 1)
        assert 2 * e1 - e1 == e1
        assert (e1 + 1) * (e1 - 1) == Multivector.zero(sig)
        assert e1 / 2 + e1 / 2 == e1
        assert e1**3 == e1
        assert e1**0 == 1
        with pytest.raises(ValueError):
            e1 ** (-1)

    def test_power_matches_repeated_product(self):
        sig = Signature(1, 1, 1)
        x = Multivector(sig, {0: Fraction(1, 2), 0b001: 1, 0b011: -2, 0b110: Fraction(1, 3)})
        expected = Multivector.one(sig)
        for k in range(12):
            assert x**k == expected
            expected = geometric_product(expected, x)

    def test_power_coefficient_budget(self):
        x = Multivector(Signature(0, 1), {0: 1, 1: 1})
        with pytest.raises(CoefficientTooLarge):
            x**30000
        with pytest.raises(CoefficientTooLarge):
            x ** (10**9)
        assert Multivector.generator(Signature(0, 1), 1) ** (10**9) == 1


class TestInvolutions:
    def test_unary_identities_exhaustive_blades(self):
        for sig in all_signatures(5):
            for mask in range(1 << sig.n):
                b = Multivector.basis_blade(sig, mask)
                assert grade_involution(grade_involution(b)) == b
                assert reversion(reversion(b)) == b
                assert clifford_conjugation(b) == grade_involution(reversion(b))
                assert clifford_conjugation(b) == reversion(grade_involution(b))
                k = mask.bit_count()
                expected = -b if k * (k - 1) // 2 % 2 else b
                assert reversion(b) == expected

    def test_reversion_antiautomorphism_exhaustive_small(self):
        for sig in all_signatures(3):
            dim = 1 << sig.n
            for a in range(dim):
                for b in range(dim):
                    x = Multivector.basis_blade(sig, a)
                    y = Multivector.basis_blade(sig, b)
                    assert reversion(geometric_product(x, y)) == geometric_product(
                        reversion(y), reversion(x)
                    )

    @settings(max_examples=40, deadline=None)
    @given(multivectors(Signature(2, 1)), multivectors(Signature(2, 1)))
    def test_reversion_antiautomorphism_random(self, x, y):
        assert reversion(geometric_product(x, y)) == geometric_product(reversion(y), reversion(x))

    def test_grade_involution_automorphism(self):
        rng = random.Random(7)
        sig = Signature(1, 2)
        for _ in range(50):
            x, y = rand_multivector(rng, sig), rand_multivector(rng, sig)
            assert grade_involution(geometric_product(x, y)) == geometric_product(
                grade_involution(x), grade_involution(y)
            )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            involution(Multivector.one(Signature(1, 0)), "transpose")


class TestGradeStructure:
    def test_projections_partition(self):
        rng = random.Random(11)
        for sig in [Signature(2, 1), Signature(1, 1, 1), Signature(0, 3)]:
            x = rand_multivector(rng, sig, density=0.9)
            total = Multivector.zero(sig)
            for k in range(sig.n + 1):
                total = add(total, grade_projection(x, k))
            assert total == x
            assert add(even_part(x), odd_part(x)) == x
            assert set(x.grades()) <= set(range(sig.n + 1))

    def test_projection_range_checked(self):
        with pytest.raises(ValueError):
            grade_projection(Multivector.one(Signature(1, 0)), 2)


class TestVectors:
    def test_embed_extract_roundtrip(self):
        rng = random.Random(13)
        sig = Signature(2, 1, 1)
        coords = rand_vector(rng, 4)
        v = embed_vector(coords, sig)
        assert extract_vector(v) == coords
        assert v.grades() in ((), (1,))

    def test_embed_square_is_quadratic_value(self):
        # embed(v)^2 = Phi(v) for the standard diagonal form
        rng = random.Random(17)
        for sig in [Signature(2, 0), Signature(1, 1), Signature(1, 1, 1)]:
            for _ in range(25):
                coords = rand_vector(rng, sig.n)
                v = embed_vector(coords, sig)
                phi = sum(
                    sig.generator_square(i + 1) * coords[i] * coords[i] for i in range(sig.n)
                )
                assert geometric_product(v, v) == Multivector.scalar(sig, phi)

    def test_clifford_relation_polarized(self):
        rng = random.Random(19)
        sig = Signature(1, 2)
        for _ in range(25):
            u_coords, v_coords = rand_vector(rng, 3), rand_vector(rng, 3)
            u, v = embed_vector(u_coords, sig), embed_vector(v_coords, sig)
            anticommutator = add(geometric_product(u, v), geometric_product(v, u))
            phi = sum(
                sig.generator_square(i + 1) * u_coords[i] * v_coords[i] for i in range(sig.n)
            )
            assert anticommutator == Multivector.scalar(sig, 2 * phi)

    def test_extract_rejects_nonvector(self):
        sig = Signature(2, 0)
        with pytest.raises(NotAVector):
            extract_vector(Multivector.one(sig))

    def test_embed_dimension_checked(self):
        from cliffalg import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            embed_vector([1, 2], Signature(3, 0))


class TestInverse:
    def test_known_inverses(self):
        s02 = Signature(0, 2)
        e12 = Multivector.basis_blade(s02, 0b11)
        assert inverse(e12) == -e12
        s002 = Signature(0, 0, 2)
        x = Multivector(s002, {0: 1, 0b11: 1})
        assert inverse(x) == Multivector(s002, {0: 1, 0b11: -1})

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            inverse(Multivector.generator(Signature(0, 0, 1), 1))
        with pytest.raises(NotInvertible):
            inverse(Multivector.zero(Signature(1, 0)))
        sig = Signature(1, 0)
        with pytest.raises(NotInvertible):
            inverse(Multivector(sig, {0: 1, 1: 1}))  # (1+e1)(1-e1) = 0

    def test_random_inverses_two_sided(self):
        rng = random.Random(23)
        found = 0
        for sig in [Signature(2, 0), Signature(1, 1, 1), Signature(0, 3)]:
            one = Multivector.one(sig)
            while found % 15 or not found:
                x = rand_multivector(rng, sig, density=0.7)
                try:
                    y = inverse(x)
                except NotInvertible:
                    continue
                assert geometric_product(x, y) == one
                assert geometric_product(y, x) == one
                found += 1

    @settings(max_examples=80, deadline=None)
    @given(inverse_cases())
    def test_matches_dense_solve(self, x):
        expected = dense_inverse(x)
        try:
            y = inverse(x)
        except NotInvertible:
            y = None
        assert y == expected

    @settings(max_examples=80, deadline=None)
    @given(degenerate_inverse_cases())
    def test_radical_split_matches_dense_solve(self, x):
        expected = dense_inverse(x)
        try:
            y = inverse(x)
        except NotInvertible:
            y = None
        assert y == expected

    def test_dense_element_of_cl44(self):
        sig = Signature(4, 4)
        x = rand_multivector(random.Random(31), sig, density=1.0)
        y = inverse(x)
        one = Multivector.one(sig)
        assert geometric_product(x, y) == one
        assert geometric_product(y, x) == one

    def test_norm_of_vector(self):
        rng = random.Random(29)
        sig = Signature(1, 2)
        for _ in range(20):
            coords = rand_vector(rng, 3)
            v = embed_vector(coords, sig)
            phi = sum(
                sig.generator_square(i + 1) * coords[i] * coords[i] for i in range(sig.n)
            )
            assert norm(v) == Multivector.scalar(sig, -phi)


@st.composite
def exact_value_cases(draw):
    """Two Fraction maps, a nonzero rational, a grade and an exponent of one Cl(p,q,s), n <= 5.

    The maps may hold zeros and share denominators, so the constructors have
    something to drop and a gcd to divide out.
    """
    n = draw(st.integers(0, 5))
    p = draw(st.integers(0, n))
    q = draw(st.integers(0, n - p))
    sig = Signature(p, q, n - p - q)
    fractions = st.fractions(min_value=-40, max_value=40, max_denominator=30)

    def coefficients():
        masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=1 << n))
        return {m: draw(fractions) for m in masks}

    c = draw(fractions.filter(bool))
    return sig, coefficients(), coefficients(), c, draw(st.integers(0, n)), draw(st.integers(0, 3))


def assert_exact_value(x, expected: dict):
    """x holds the least scale over nonzero int numerators, and its terms are the Fraction map expected."""
    assert x._scale > 0 and type(x._scale) is int
    assert all(type(v) is int and v for v in x._ints.values())
    assert math.gcd(x._scale, *x._ints.values()) == 1
    assert x.terms() == tuple(sorted((m, v) for m, v in expected.items() if v))


def assert_same_fields(x, y):
    assert (x.sig, x._scale, x._ints) == (y.sig, y._scale, y._ints)
    assert x == y and hash(x) == hash(y)


def fraction_sum(x: dict, y: dict, sign=1) -> dict:
    out = dict(x)
    for m, v in y.items():
        out[m] = out.get(m, 0) + sign * v
    return out


class TestExactValue:
    @settings(max_examples=150, deadline=None)
    @given(exact_value_cases())
    @example((Signature(1, 0), {0: Fraction(1, 2), 1: Fraction(1, 2)}, {1: Fraction(-1, 2)}, Fraction(2), 1, 2))
    @example((Signature(0, 1, 1), {0b10: Fraction(3, 4)}, {}, Fraction(-4, 3), 2, 0))
    def test_every_route_is_canonical(self, case):
        sig, xs, ys, c, k, e = case
        x, y = Multivector(sig, xs), Multivector(sig, ys)
        assert_exact_value(x, xs)
        assert_exact_value(Multivector.scalar(sig, c), {0: c})
        mask = max(xs, default=0)
        assert_exact_value(Multivector.basis_blade(sig, mask, c), {mask: c})
        assert_exact_value(x + y, fraction_sum(xs, ys))
        assert_exact_value(x - y, fraction_sum(xs, ys, -1))
        assert_exact_value(scalar_mul(c, x), {m: c * v for m, v in xs.items()})
        assert_exact_value(x / c, {m: v / c for m, v in xs.items()})
        assert_exact_value(x * y, dict(reference_product(x, y).terms()))
        power = Multivector.one(sig)
        for _ in range(e):
            power = reference_product(power, x)
        assert_exact_value(x**e, dict(power.terms()))
        for kind, negated in (("grade", (1, 3)), ("reverse", (2, 3)), ("conjugate", (1, 2))):
            expected = {m: -v if m.bit_count() % 4 in negated else v for m, v in xs.items()}
            assert_exact_value(involution(x, kind), expected)
        assert_exact_value(grade_projection(x, k), {m: v for m, v in xs.items() if m.bit_count() == k})
        assert_exact_value(even_part(x), {m: v for m, v in xs.items() if m.bit_count() % 2 == 0})
        assert_exact_value(odd_part(x), {m: v for m, v in xs.items() if m.bit_count() % 2 == 1})
        try:
            x_inverse = inverse(x)
        except NotInvertible:
            pass
        else:
            assert_exact_value(x_inverse, dict(x_inverse.terms()))
            assert reference_product(x, x_inverse).terms() == ((0, Fraction(1)),)
        assert_exact_value(parse(pretty_print(x), sig), xs)

    @settings(max_examples=100, deadline=None)
    @given(exact_value_cases())
    def test_equal_values_have_equal_fields(self, case):
        sig, xs, ys, c, _, _ = case
        x, y = Multivector(sig, xs), Multivector(sig, ys)
        assert_same_fields(x + y - y, x)
        assert_same_fields(x + y, y + x)
        assert_same_fields(scalar_mul(c, x) / c, x)
        assert_same_fields(x * Multivector.one(sig), x)
        assert_same_fields(parse(pretty_print(x), sig), x)

    def test_unreduced_fraction_and_scalar(self):
        sig = Signature(2, 0)
        assert_same_fields(Multivector(sig, {0: Fraction(2, 4)}), Multivector.scalar(sig, Fraction(1, 2)))
        # 1/2 + 1/2: the sum's scale 2 divides out
        half = Multivector.scalar(sig, Fraction(1, 2))
        assert_same_fields(half + half, Multivector.one(sig))
        assert_same_fields(Multivector(sig, {1: 0}), Multivector.zero(sig))
        assert Multivector.zero(sig)._scale == 1


# small scales make running sums cancel; distinct primes make the common scale grow
SUM_SCALES = (1, 2, 3, 4, 6, 5, 7, 11, 13, 2**61 - 1, 2**89 - 1)


@st.composite
def sum_parts(draw):
    """(signature, parts) for _sum: up to 8 (int map, scale) parts of one Cl(p,q,s), n <= 4, s > 0 included.

    The maps hold no zeros and may be empty; their numerators are small and
    not reduced against their scales, so blades cancel and come back.
    """
    n = draw(st.integers(0, 4))
    p = draw(st.integers(0, n))
    q = draw(st.integers(0, n - p))
    sig = Signature(p, q, n - p - q)
    ints = st.dictionaries(st.integers(0, (1 << n) - 1), st.integers(-3, 3).filter(bool), max_size=4)
    return sig, draw(st.lists(st.tuples(ints, st.sampled_from(SUM_SCALES)), max_size=8))


class TestSharedSum:
    @settings(max_examples=300, deadline=None)
    @given(sum_parts())
    # e1 cancels and comes back, so it is stored after e2
    @example((Signature(2, 0), [({1: 1, 2: 1}, 1), ({1: -1}, 1), ({1: 1}, 1)]))
    @example((Signature(1, 0, 1), [({}, 3), ({0: 1, 2: -2}, 2), ({}, 1), ({2: 1}, 1), ({3: 5}, 7)]))
    @example((Signature(2, 2), [({0: 1}, 2), ({1: 1}, 3), ({2: 1}, 5), ({3: 1}, 7), ({0: -1}, 2), ({0: 1}, 11)]))
    @example((Signature(1, 1), []))
    def test_matches_fold_of_two_term_sums(self, case):
        sig, parts = case
        terms = [Multivector._scaled(sig, ints, scale) for ints, scale in parts]
        expected = functools.reduce(reference_add, terms, Multivector.zero(sig))
        total = _sum(sig, parts)
        assert (total.sig, total._scale, list(total._ints.items())) == (
            expected.sig,
            expected._scale,
            list(expected._ints.items()),
        )

    def test_cancelled_blade_is_stored_last(self):
        sig = Signature(2, 0)
        total = _sum(sig, [({1: 1, 2: 1}, 1), ({1: -1}, 1), ({1: 3}, 2)])
        assert list(total._ints.items()) == [(2, 2), (1, 3)] and total._scale == 2

    def test_add_is_the_shared_sum(self, monkeypatch):
        calls = []

        def counted(sig, parts):
            calls.append(len(parts))
            return _sum(sig, parts)

        monkeypatch.setattr(core_algebra, "_sum", counted)
        sig = Signature(1, 1)
        x = Multivector(sig, {0: Fraction(1, 2), 3: 1})
        assert x + x - x == x
        assert calls == [2, 2]


class TestMultivectorType:
    def test_equality_and_scalar_promotion(self):
        sig = Signature(1, 1)
        assert Multivector.scalar(sig, Fraction(3, 2)) == Fraction(3, 2)
        assert Multivector.zero(sig) == 0
        assert Multivector.one(sig) == 1
        assert Multivector.one(sig) != Multivector.one(Signature(2, 0))
        assert hash(Multivector.one(sig)) == hash(Multivector.scalar(sig, 1))

    # a value equal to a number hashes as that number, so sets and dicts agree with ==
    def test_scalar_hashes_as_its_int(self):
        x = Multivector.scalar(Signature(1, 1), 3)
        assert x == 3 and hash(x) == hash(3)
        assert 3 in {x} and x in {3}

    def test_zero_hashes_as_zero(self):
        x = Multivector.zero(Signature(2, 0, 1))
        assert x == 0 and hash(x) == hash(0)
        assert 0 in {x} and x in {Fraction(0)}

    def test_scalar_hashes_as_its_fraction(self):
        x = Multivector.scalar(Signature(0, 2), Fraction(-5, 6))
        assert x == Fraction(-5, 6) and hash(x) == hash(Fraction(-5, 6))
        assert Fraction(-5, 6) in {x} and x in {Fraction(-5, 6)}

    def test_immutable(self):
        x = Multivector.one(Signature(1, 0))
        with pytest.raises(AttributeError):
            x.sig = Signature(0, 1)

    @pytest.mark.parametrize(
        "x",
        [
            Multivector.scalar(Signature(1, 1), Fraction(-5, 6)),
            Multivector(Signature(2, 1, 1), {0: Fraction(1, 3), 0b0110: Fraction(-7, 4), 0b1111: 2}),
        ],
        ids=["scalar", "fractional"],
    )
    def test_copy_and_pickle_round_trip(self, x):
        for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert clone == x and hash(clone) == hash(x)
            assert (clone.sig, clone._ints, clone._scale) == (x.sig, x._ints, x._scale)

    def test_validation(self):
        with pytest.raises(ValueError):
            Multivector(Signature(1, 0), {5: 1})

    @pytest.mark.parametrize(
        "build",
        [
            lambda sig: Multivector(sig, {0: 0.1}),
            lambda sig: Multivector(sig, {0: "1/2"}),
            lambda sig: Multivector.scalar(sig, 0.5),
            lambda sig: Multivector.basis_blade(sig, 0b01, 0.5),
            lambda sig: embed_vector([0.5, 1], sig),
            lambda sig: scalar_mul(0.5, Multivector.one(sig)),
            lambda sig: Multivector.one(sig) / 0.5,
        ],
    )
    def test_inexact_coefficients_rejected(self, build):
        with pytest.raises(TypeError):
            build(Signature(2, 0))

    def test_zero_pruning_and_terms_sorted(self):
        sig = Signature(2, 0)
        x = Multivector(sig, {0b10: Fraction(0), 0b01: 2, 0: 1})
        assert x.terms() == ((0, Fraction(1)), (1, Fraction(2)))
        assert x.coefficient(0b10) == 0
        assert not x.is_zero()
        assert Multivector(sig, {}).is_zero()

    def test_repr_uses_pretty_form(self):
        sig = Signature(0, 2)
        assert "e12" in repr(Multivector.basis_blade(sig, 0b11))

    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ({0: 2**8192}, "<1 term(s) in Cl(2,0,0) past the print budget: numerators up to 8193 bits over a 1-bit scale>"),
            # str() of this numerator passes the int-to-text digit limit
            ({0b01: 2**20000, 0b11: -1}, "<2 term(s) in Cl(2,0,0) past the print budget: numerators up to 20001 bits over a 1-bit scale>"),
            ({0b01: Fraction(1, 2**8192 + 1), 0b10: 3}, "<2 term(s) in Cl(2,0,0) past the print budget: numerators up to 8194 bits over a 8193-bit scale>"),
        ],
        ids=["2^8192", "2^20000", "8193-bit scale"],
    )
    def test_repr_past_the_budget_shows_sizes(self, coeffs, text):
        x = Multivector(Signature(2, 0), coeffs)
        with pytest.raises(CoefficientTooLarge):
            pretty_print(x)
        assert repr(x) == text

    @pytest.mark.parametrize(
        "operation",
        [lambda x: x + "a", lambda x: x - object(), lambda x: x * object(), lambda x: "a" * x],
        ids=["add", "sub", "mul", "rmul"],
    )
    def test_foreign_operands_raise_type_error(self, operation):
        with pytest.raises(TypeError):
            operation(Multivector.generator(Signature(2, 0), 1))

    def test_foreign_operand_is_unequal(self):
        assert (Multivector.one(Signature(2, 0)) == "a") is False

    def test_subtraction_adds_the_negation(self, monkeypatch):
        sig = Signature(2, 1)
        x = Multivector(sig, {0: Fraction(1, 2), 0b011: -1, 0b101: 3})
        y = Multivector(sig, {0b101: 3, 0b010: Fraction(2, 3), 0: Fraction(-5, 6)})
        cases = [(x, y, add(x, -y)), (y, x, add(y, -x)), (x, 3, add(x, -Multivector.scalar(sig, 3)))]

        def refused(*args):
            raise AssertionError("x - y called scalar_mul")

        monkeypatch.setattr(core_algebra, "scalar_mul", refused)
        for left, right, expected in cases:
            difference = left - right
            assert (difference._scale, list(difference._ints.items())) == (
                expected._scale,
                list(expected._ints.items()),
            )

    def test_int_factor_on_either_side(self):
        sig = Signature(2, 0)
        x = Multivector(sig, {0: Fraction(1, 2), 0b11: -1})
        assert_same_fields(x * 3, Multivector(sig, {0: Fraction(3, 2), 0b11: -3}))
        assert_same_fields(3 * x, x * 3)

    @pytest.mark.parametrize("index", [0, 3])
    def test_generator_index_checked(self, index):
        with pytest.raises(ValueError, match=f"generator index {index} out of range 1..2"):
            Multivector.generator(Signature(1, 1), index)
