"""Clifford group membership, twisted adjoint action, norms, Pin/Spin
membership, and lifting isometries to group elements."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cliffalg import _linalg, core_algebra, groups, quadratic_space
from cliffalg import (
    BilinearForm,
    DegenerateForm,
    DimensionMismatch,
    GroupElement,
    LiftResult,
    Multivector,
    NotAnIsometry,
    NotInGroup,
    NotInvertible,
    NotStable,
    Signature,
    SignatureMismatch,
    blade_mul,
    blade_name,
    cartan_dieudonne_factor,
    clifford_conjugation,
    embed_vector,
    geometric_product,
    grade_involution,
    in_clifford_group,
    in_pin,
    in_spin,
    lift_isometry,
    norm,
    norm_scalar,
    quadratic_value,
    reflection_matrix,
    twisted_adjoint_apply,
    twisted_adjoint_matrix,
)
from cliffalg.groups import membership
from support import (
    all_signatures,
    count_products,
    fraction_cartan_dieudonne_factor,
    fraction_lift_isometry,
    mat_eq,
    mat_vec,
    rand_anisotropic_vector,
    rand_isometry,
    rand_vector,
    reference_evaluate_form,
    reference_mat_mul,
    reference_membership,
    reference_product,
    reference_reflection_matrix,
    reference_twisted_adjoint,
)

REGULAR_SIGS = [Signature(2, 0), Signature(0, 2), Signature(1, 1), Signature(3, 0), Signature(1, 3)]


def rand_group_element(rng, sig, factors):
    """Product of random anisotropic vectors: a Clifford group element."""
    form = BilinearForm.from_signature(sig)
    x = Multivector.one(sig)
    for _ in range(factors):
        x = geometric_product(x, embed_vector(rand_anisotropic_vector(rng, form), sig))
    return x


class TestTwistedAdjoint:
    def test_vector_acts_as_its_reflection(self):
        rng = random.Random(211)
        for sig in REGULAR_SIGS:
            form = BilinearForm.from_signature(sig)
            for _ in range(10):
                w = rand_anisotropic_vector(rng, form)
                x = embed_vector(w, sig)
                rows = reflection_matrix(form, w).rows()
                for _ in range(5):
                    v = rand_vector(rng, sig.n)
                    assert twisted_adjoint_apply(x, v) == mat_vec(
                        rows, _linalg.to_vector(v)
                    )

    def test_identity_element(self):
        sig = Signature(2, 1)
        one = Multivector.one(sig)
        assert twisted_adjoint_matrix(one).rows() == _linalg.identity(3)

    def test_rotation_matrix_oracle(self):
        sig = Signature(0, 2)
        x = Multivector(sig, {0: Fraction(3, 5), 0b11: Fraction(4, 5)})
        expected = [
            [Fraction(-7, 25), Fraction(-24, 25)],
            [Fraction(24, 25), Fraction(-7, 25)],
        ]
        assert twisted_adjoint_matrix(x).rows() == expected

    def test_homomorphism(self):
        rng = random.Random(223)
        for sig in [Signature(2, 0), Signature(1, 1), Signature(0, 3)]:
            for _ in range(10):
                x = rand_group_element(rng, sig, rng.randint(1, 3))
                y = rand_group_element(rng, sig, rng.randint(1, 3))
                lhs = twisted_adjoint_matrix(geometric_product(x, y)).rows()
                rhs = _linalg.mat_mul(
                    twisted_adjoint_matrix(x).rows(), twisted_adjoint_matrix(y).rows()
                )
                assert mat_eq(lhs, rhs)

    def test_scaling_invariance(self):
        rng = random.Random(227)
        sig = Signature(1, 2)
        x = rand_group_element(rng, sig, 2)
        assert twisted_adjoint_matrix(x) == twisted_adjoint_matrix(
            Fraction(5, 3) * x
        )
        assert twisted_adjoint_matrix(x) == twisted_adjoint_matrix(-x)

    def test_degenerate_generator_in_kernel(self):
        # 1 + e12 with both generators degenerate: invertible, acts as identity
        sig = Signature(0, 0, 2)
        x = Multivector(sig, {0: 1, 0b11: 1})
        assert twisted_adjoint_matrix(x).rows() == _linalg.identity(2)
        assert x != Multivector.one(sig)

    def test_degenerate_generator_shear(self):
        # with e1^2 = 1 and e2^2 = 0 the same element acts as a shear
        sig = Signature(1, 0, 1)
        x = Multivector(sig, {0: 1, 0b11: 1})
        rows = twisted_adjoint_matrix(x).rows()
        assert rows == [[Fraction(1), Fraction(0)], [Fraction(-2), Fraction(1)]]

    def test_unstable_element(self):
        sig = Signature(2, 0)
        x = Multivector(sig, {0: 1, 0b01: 1, 0b11: 1})  # 1 + e1 + e12
        with pytest.raises((NotStable, NotInvertible)):
            twisted_adjoint_apply(x, [1, 0])


class TestCliffordGroup:
    def test_vectors_and_products(self):
        rng = random.Random(229)
        for sig in REGULAR_SIGS:
            for factors in (1, 2, 3):
                assert in_clifford_group(rand_group_element(rng, sig, factors))

    def test_non_invertible(self):
        sig = Signature(1, 0)
        assert not in_clifford_group(Multivector(sig, {0: 1, 1: 1}))
        assert not in_clifford_group(Multivector.zero(sig))
        assert not in_clifford_group(Multivector.generator(Signature(0, 0, 1), 1))

    def test_unstable_mixed_grade(self):
        sig = Signature(2, 0)
        x = Multivector(sig, {0: 1, 0b01: 1, 0b11: 1})
        try:
            stable = in_clifford_group(x)
        except NotInvertible:
            stable = False
        assert not stable

    def test_degenerate_unit(self):
        # in Cl(1,0,1) the element 1 + e12 is in the group
        sig = Signature(1, 0, 1)
        assert in_clifford_group(Multivector(sig, {0: 1, 0b11: 1}))

    def test_group_element_wrapper(self):
        sig = Signature(0, 2)
        g = GroupElement.from_multivector(Multivector.generator(sig, 1))
        assert geometric_product(g.x, g.inv) == Multivector.one(sig)
        assert g.n_value == 1
        with pytest.raises(NotInvertible):
            GroupElement.from_multivector(Multivector.zero(sig))

    def test_group_element_forms_norm_once(self, monkeypatch):
        sig = Signature(2, 0)
        x = Multivector(sig, {0b01: 3, 0b10: 4})
        calls = count_products(monkeypatch)
        g = GroupElement.from_multivector(x)
        assert calls == [1]
        monkeypatch.undo()
        assert g.n_value == -25  # conjugate(v) = -v
        assert geometric_product(x, g.inv) == Multivector.one(sig)

    def test_group_element_rejects_zero_divisors(self):
        # 1 + e1 in Cl(1,0) has N = 0; 1 + e123 in Cl(0,3) has N = 2 + 2*e123
        # and (1 + e123)(1 - e123) = 0
        with pytest.raises(NotInvertible):
            GroupElement.from_multivector(Multivector(Signature(1, 0), {0: 1, 1: 1}))
        with pytest.raises(NotInvertible):
            GroupElement.from_multivector(Multivector(Signature(0, 3), {0: 1, 0b111: 1}))
        # in Cl(3,0) 1 + e123 is invertible, but N = 2*e123 is not a scalar
        with pytest.raises(NotInGroup):
            GroupElement.from_multivector(Multivector(Signature(3, 0), {0: 1, 0b111: 1}))


def small_fractions():
    return st.fractions(min_value=-3, max_value=3, max_denominator=3)


def count_norms(monkeypatch):
    """A one-element list counting the calls to norm from groups and core_algebra."""
    calls = [0]
    norm = core_algebra.norm

    def counted_norm(x):
        calls[0] += 1
        return norm(x)

    monkeypatch.setattr(core_algebra, "norm", counted_norm)
    monkeypatch.setattr(groups, "norm", counted_norm)
    return calls


def quotient(x: Multivector) -> Multivector:
    """pi(x) in Cl(p,q): the blades of x free of null generators."""
    sig = x.sig
    limit = 1 << (sig.p + sig.q)
    return Multivector(Signature(sig.p, sig.q), {mask: value for mask, value in x.terms() if mask < limit})


@st.composite
def quotient_outside_cases(draw):
    """Elements of Cl(p,q,s) with s > 0, p+q > 0 and n <= 5 whose quotient pi(x) is outside Gamma(p,q).

    Forms: a dense element with every coefficient nonzero, so pi(x) has
    blades of both parities; a sum of an even and an odd blade free of null
    generators; and d * (1 +- u) with d the even part of a dense element
    and u != 1 a blade free of null generators with u^2 = 1, so pi(x) is a
    zero divisor, of one parity when u is even.  The last two add up to
    three blades that hold a null generator.  Each has N = 0, or an N whose
    part free of null generators is not a nonzero scalar, or mixed parity
    there.
    """
    sig = draw(st.sampled_from([s for s in all_signatures(5) if s.s and s.p + s.q]))
    dim, limit = 1 << sig.n, 1 << (sig.p + sig.q)
    form = draw(st.sampled_from(["dense", "mixed parity", "zero divisor"]))
    units = [m for m in range(1, limit) if blade_mul(m, m, sig)[0] == 1]
    dense = Multivector(sig, dict(enumerate(draw(st.lists(small_fractions().filter(bool), min_size=dim, max_size=dim)))))
    masks = draw(st.lists(st.sampled_from(range(limit, dim)), max_size=3, unique=True))
    values = draw(st.lists(small_fractions().filter(bool), min_size=len(masks), max_size=len(masks)))
    radical = Multivector(sig, dict(zip(masks, values)))
    if form == "mixed parity":
        even = draw(st.sampled_from([m for m in range(limit) if m.bit_count() % 2 == 0]))
        odd = draw(st.sampled_from([m for m in range(limit) if m.bit_count() % 2]))
        c, d = draw(st.lists(small_fractions().filter(bool), min_size=2, max_size=2))
        return Multivector(sig, {even: c, odd: d}) + radical
    if form == "zero divisor" and units:
        # for u of grade 2 mod 4, N(pi(x)) = 0 while the radical part keeps N nonzero
        u = Multivector.basis_blade(sig, draw(st.sampled_from(units)), draw(st.sampled_from([1, -1])))
        even = Multivector(sig, {mask: value for mask, value in dense.terms() if mask.bit_count() % 2 == 0})
        return geometric_product(even, Multivector.one(sig) + u) + radical
    return dense


@st.composite
def membership_cases(draw):
    """Elements of every Cl(p,q,s) with n <= 5, degenerate ones included.

    Kinds: a versor (product of up to three random vectors), a null vector,
    a zero divisor x * (1 +- u) with u^2 = 1, a dense element, a versor
    times 1 + c*m, and a degenerate element whose quotient by the null
    generators is outside the group (quotient_outside_cases).  For the
    versor times 1 + c*m, s > 0 and m is a product of at least min(s, 3)
    null generators; from three of them on N is not a scalar, yet the
    element is often in the group.
    """
    kind = draw(st.sampled_from(["versor", "null vector", "zero divisor", "unipotent", "dense", "quotient outside"]))
    if kind == "quotient outside":
        return draw(quotient_outside_cases())
    sigs = all_signatures(5)
    if kind == "unipotent":
        sigs = [s for s in sigs if s.s]
    elif kind == "null vector":
        sigs = [s for s in sigs if s.s or (s.p and s.q)]
    sig = draw(st.sampled_from(sigs))
    n, dim = sig.n, 1 << sig.n
    one = Multivector.one(sig)
    if kind == "null vector":
        # c times the sum of the null generators, or c * (e_1 + e_(p+1))
        pick = range(sig.p + sig.q, n) if sig.s else (0, sig.p)
        c = draw(small_fractions().filter(bool))
        return Multivector(sig, {1 << i: c for i in pick})
    if kind == "dense":
        values = draw(st.lists(small_fractions(), min_size=dim, max_size=dim))
        return Multivector(sig, dict(enumerate(values)))
    x = one
    for _ in range(draw(st.integers(0, 3))):
        coords = draw(st.lists(small_fractions(), min_size=n, max_size=n))
        x = geometric_product(x, embed_vector(coords, sig))
    if kind == "zero divisor":
        units = [m for m in range(1, dim) if blade_mul(m, m, sig)[0] == 1]
        if units:
            u = Multivector.basis_blade(sig, draw(st.sampled_from(units)))
            x = geometric_product(x, one + u if draw(st.booleans()) else one - u)
    elif kind == "unipotent":
        null = range(sig.p + sig.q, n)
        chosen = draw(st.lists(st.sampled_from(null), min_size=min(sig.s, 3), unique=True))
        m = sum(1 << i for i in chosen)
        x = geometric_product(x, one + Multivector.basis_blade(sig, m, draw(small_fractions())))
    return x


DEGENERATE_SIGS = tuple(s for s in all_signatures(6) if 1 <= s.s <= 2 and s.n >= 2)

# nonzero scalar norm N, yet outside the group: 1 + e1 in Cl(0,1) sends e1 to
# the scalar 1, and 1 + e123456 sends e1 to a vector plus a 5-vector
SCALAR_NORM_OUTSIDE = [
    Multivector(Signature(0, 1), {0: 1, 0b1: 1}),  # N = 2
    Multivector(Signature(6, 0), {0: 1, 0b111111: 1}),  # N = 2
    Multivector(Signature(0, 6), {0: 1, 0b111111: 1}),  # N = 2
    Multivector(Signature(2, 2, 2), {0: 1, 0b111111: 1}),  # N = 1
]


@st.composite
def homogeneous_scalar_norm_cases(draw, sigs=tuple(s for s in all_signatures(6, degenerate=False) if s.n >= 2)):
    """Sums of 2-4 distinct blades of one parity, coefficients +-1 and +-2, in one of sigs (s = 0 and n <= 6).

    Filtered on a nonzero scalar N.  At n <= 5 membership decides these from
    N and the parity alone; at n = 6 they still reach the twisted images, and
    some are outside the group (-2*e145 + e236 in Cl(3,3)).  When s > 0,
    those that pass the quotient rule reach the images at any n.
    """
    sig = draw(st.sampled_from(sigs))
    parity = draw(st.integers(0, 1))
    blades = [m for m in range(1 << sig.n) if m.bit_count() % 2 == parity]
    chosen = draw(st.lists(st.sampled_from(blades), min_size=2, max_size=4, unique=True))
    coefficients = st.sampled_from([1, -1, 2, -2])
    values = draw(st.lists(coefficients, min_size=len(chosen), max_size=len(chosen)))
    return Multivector(sig, dict(zip(chosen, values)))


def has_nonzero_scalar_norm(x: Multivector) -> bool:
    value = norm(x)
    return value.is_scalar() and bool(value.scalar_part())


class TestMembership:
    @settings(max_examples=100, deadline=None)
    @given(membership_cases())
    @example(Multivector(Signature(0, 0, 3), {0: 1, 0b111: -1}))
    @example(SCALAR_NORM_OUTSIDE[0])
    @example(SCALAR_NORM_OUTSIDE[1])
    @example(SCALAR_NORM_OUTSIDE[2])
    @example(SCALAR_NORM_OUTSIDE[3])
    @example(Multivector(Signature(0, 0, 1), {0: 1, 0b1: 1}))  # 1 + e1: mixed parity, N = 1, a member
    @example(  # (-2*e145 + e236)*(1 + e7): mixed parity, N = -3, outside
        Multivector(Signature(3, 3, 1), {0b011001: -2, 0b100110: 1, 0b1011001: -2, 0b1100110: 1})
    )
    def test_matches_reference(self, x):
        facts = membership(x)
        expected = reference_membership(x)
        assert (facts.in_clifford_group, facts.in_pin, facts.in_spin, facts.n_value) == expected

    @settings(max_examples=250, deadline=None)
    @given(
        st.one_of(homogeneous_scalar_norm_cases(), homogeneous_scalar_norm_cases(DEGENERATE_SIGS)).filter(
            has_nonzero_scalar_norm
        )
    )
    @example(Multivector(Signature(3, 3), {0b011001: -2, 0b100110: 1}))  # -2*e145 + e236, N = -3
    @example(Multivector(Signature(0, 0, 3), {0: 1, 0b111: -1}))  # 1 - e123, mixed parity
    @example(Multivector(Signature(3, 3, 1), {0b011001: -2, 0b100110: 1, 0b1011001: -2, 0b1100110: 1}))
    def test_parity_rule_matches_reference(self, x):
        # N and the parity decide at n <= 5 when s = 0; the images decide at
        # n = 6, for 1 - e123, and for every one-parity candidate with s > 0
        # that passes the quotient rule
        facts = membership(x)
        expected = reference_membership(x)
        assert (facts.in_clifford_group, facts.in_pin, facts.in_spin, facts.n_value) == expected

    def test_degenerate_member_with_non_scalar_norm(self):
        # 1 - e123 is in the group of Cl(0,0,3) though its norm 1 - 2*e123 is not a scalar
        x = Multivector(Signature(0, 0, 3), {0: 1, 0b111: -1})
        facts = membership(x)
        assert facts.in_clifford_group and facts.n_value is None

    def test_degenerate_path_forms_each_norm_once(self, monkeypatch):
        # N of 1 - e123 only: the inverse takes the N of its part 1 in
        # Cl(0,0) from the blades of that N free of null generators
        calls = count_norms(monkeypatch)
        x = Multivector(Signature(0, 0, 3), {0: 1, 0b111: -1})
        assert membership(x).in_clifford_group
        assert calls == [1]
        calls[0] = 0
        with pytest.raises(NotInGroup):
            GroupElement.from_multivector(x)
        assert calls == [1]

    def test_mixed_parity_scalar_norm_forms_one_product_per_image(self, monkeypatch):
        # N, then one image per generator: the inverse conjugate(x) / N forms no product
        x = Multivector(Signature(0, 0, 1), {0: 1, 0b1: 1})
        calls = count_products(monkeypatch)
        facts = membership(x)
        monkeypatch.undo()
        assert calls == [1 + x.sig.n]
        assert (facts.in_clifford_group, facts.n_value) == (True, 1)

    @settings(max_examples=100, deadline=None)
    @given(quotient_outside_cases())
    @example(Multivector(Signature(1, 1, 1), {0: 1, 0b011: 1, 0b111: 1}))  # N = 2*e123, pi(x) = 1 + e12 has N = 0
    def test_quotient_outside_forms_norm_only(self, x):
        # pi(Gamma(p,q,s)) lies in Gamma(p,q): the N already formed rules x
        # out, with no inverse and no twisted image
        with pytest.MonkeyPatch.context() as patch:
            calls = count_products(patch)
            facts = membership(x)
        assert calls == [1]
        assert not facts.in_clifford_group
        assert (facts.in_clifford_group, facts.in_pin, facts.in_spin, facts.n_value) == reference_membership(x)

    def test_quotient_inside_yet_outside_the_group(self, monkeypatch):
        # pi(x) = -2*e145 + e236 has N = -3 and one parity, so the rule
        # passes; x is outside, as pi(x) is in Cl(3,3), and the images decide:
        # N, then the image of e1, which leaves V
        sig = Signature(3, 3, 1)
        x = geometric_product(Multivector(sig, {0b011001: -2, 0b100110: 1}), Multivector(sig, {0: 1, 1 << 6: 1}))
        calls = count_products(monkeypatch)
        facts = membership(x)
        monkeypatch.undo()
        assert calls == [2]
        assert (facts.in_clifford_group, facts.n_value) == (False, -3)
        assert (facts.in_clifford_group, facts.in_pin, facts.in_spin, facts.n_value) == reference_membership(x)


def vector_product(sig: Signature, *rows) -> Multivector:
    """The product of the vectors with the given coordinates, in order."""
    x = Multivector.one(sig)
    for row in rows:
        x = geometric_product(x, embed_vector(row, sig))
    return x


@st.composite
def one_parity_versors(draw, sigs):
    """Products of 3-5 vectors with integer coordinates -2..2 and a nonzero square, in one of sigs: even or odd members."""
    sig = draw(st.sampled_from(sigs))
    squares = [sig.generator_square(i) for i in range(1, sig.n + 1)]
    vectors = st.lists(st.integers(-2, 2), min_size=sig.n, max_size=sig.n).filter(
        lambda coords: sum(c * c * g for c, g in zip(coords, squares))
    )
    return vector_product(sig, *[draw(vectors) for _ in range(draw(st.integers(3, 5)))])


SIGS_2_7 = [s for s in all_signatures(7) if s.n >= 2 and s.s <= 2]
SIGS_6 = [s for s in SIGS_2_7 if s.n == 6]


# n = 7: an even and an odd member, each a product of anisotropic vectors,
# and an even and an odd non-member with a scalar norm, regular and with a
# null generator
N7_CASES = [
    vector_product(Signature(4, 3), [1, 0, 0, 0, 2, 0, 1], [0, 1, 1, 0, 0, -1, 0], [0, 0, 0, 1, 0, 0, 3], [2, -1, 0, 0, 0, 1, 0]),
    vector_product(Signature(4, 3), [1, 0, 0, 0, 2, 0, 1], [0, 1, 1, 0, 0, -1, 0], [0, 0, 0, 1, 0, 0, 2]),
    Multivector(Signature(4, 3), {0b0111111: -1, 0b1000100: -2}),  # -e123456 - 2*e37, N = -3
    Multivector(Signature(4, 3), {0b1001001: -2, 0b1110110: 2}),  # -2*e147 + 2*e23567, N = 8
    vector_product(Signature(4, 2, 1), [1, 0, 0, 0, 2, 0, 1], [0, 1, 1, 0, 0, -1, 0], [0, 0, 0, 1, 0, 0, 3], [2, -1, 0, 0, 0, 1, 0]),
    vector_product(Signature(4, 2, 1), [1, 0, 0, 0, 2, 0, 1], [0, 1, 1, 0, 0, -1, 0], [0, 0, 0, 1, 0, 0, -1]),
    Multivector(Signature(4, 2, 1), {0b0000011: 2, 0b1000111: 2, 0b1101100: -2}),  # 2*e12 + 2*e1237 - 2*e3467, N = 4
    Multivector(Signature(4, 2, 1), {0b0100011: -2, 0b1001100: -1}),  # -2*e126 - e347, N = 4
]


class TestImagesOfOneParity:
    """An even or odd x: its images come from core_algebra._sandwich, and decide membership when N is a nonzero scalar."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(one_parity_versors(SIGS_2_7), homogeneous_scalar_norm_cases(SIGS_2_7)))
    @example(Multivector(Signature(3, 3), {0b011001: -2, 0b100110: 1}))  # odd
    @example(Multivector(Signature(1, 0), {0: 2}))
    def test_images_match_reference(self, x):
        # X * e_i * conjugate(X) = eps * X^ * e_i * conjugate(X), X^ = eps*X, against two reference products
        sig = x.sig
        eps = -1 if next(iter(x._ints)).bit_count() & 1 else 1
        x_hat, x_conj = grade_involution(x), clifford_conjugation(x)
        for i in range(1, sig.n + 1):
            image = core_algebra._sandwich(x._ints, 1 << (i - 1), sig)
            expected = eps * reference_product(reference_product(x_hat, Multivector.generator(sig, i)), x_conj)
            assert Multivector._scaled(sig, image, x._scale * x._scale) == expected

    @settings(max_examples=8, deadline=None)
    @given(one_parity_versors(SIGS_6))
    def test_members_at_n6_match_reference(self, x):
        facts = membership(x)
        assert facts.in_clifford_group
        assert (facts.in_clifford_group, facts.in_pin, facts.in_spin, facts.n_value) == reference_membership(x)

    @pytest.mark.parametrize("k", range(len(N7_CASES)))
    def test_n7_matches_reference(self, k):
        x = N7_CASES[k]
        facts = membership(x)
        assert facts.n_value and len({mask.bit_count() & 1 for mask in x._ints}) == 1
        assert facts.in_clifford_group == (k % 4 < 2)
        assert (facts.in_clifford_group, facts.in_pin, facts.in_spin, facts.n_value) == reference_membership(x)


class TestQuotient:
    """pi: Cl(p,q,s) -> Cl(p,q), each null generator sent to 0, is an algebra map that keeps the norm."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_algebra_map_keeps_norm(self, data):
        sig = data.draw(st.sampled_from([s for s in all_signatures(6) if 1 <= s.s <= 3]))
        blades = st.lists(st.sampled_from(range(1 << sig.n)), max_size=12, unique=True)

        def element():
            masks = data.draw(blades)
            values = data.draw(st.lists(small_fractions(), min_size=len(masks), max_size=len(masks)))
            return Multivector(sig, dict(zip(masks, values)))

        x, y = element(), element()
        assert quotient(reference_product(x, y)) == reference_product(quotient(x), quotient(y))
        expected = reference_product(quotient(x), clifford_conjugation(quotient(x)))
        assert quotient(reference_product(x, clifford_conjugation(x))) == expected
        assert quotient(norm(x)) == expected


class TestTwistedAdjointMatrix:
    @settings(max_examples=150, deadline=None)
    @given(membership_cases())
    @example(Multivector(Signature(2, 0), {0: 1, 0b01: 1, 0b11: 1}))  # 1 + e1 + e12
    @example(SCALAR_NORM_OUTSIDE[0])
    @example(SCALAR_NORM_OUTSIDE[1])
    @example(SCALAR_NORM_OUTSIDE[3])
    @example(Multivector(Signature(0, 0, 3), {0: 1, 0b111: -1}))
    def test_matches_reference(self, x):
        # the matrix, or the same error, as the Fraction oracle; NotStable
        # names a component of grade other than 1 in the first image leaving V
        n = x.sig.n
        images = reference_twisted_adjoint(x)
        if images is None:
            with pytest.raises(NotInvertible):
                twisted_adjoint_matrix(x)
            return
        unstable = next((image for image in images if image.grades() not in ((), (1,))), None)
        if unstable is not None:
            with pytest.raises(NotStable) as info:
                twisted_adjoint_matrix(x)
            assert str(info.value) in {
                "twisted adjoint leaves the vector space: "
                f"component {blade_name(mask, n)} has grade {mask.bit_count()}"
                for mask, _ in unstable.terms()
                if mask.bit_count() != 1
            }
            return
        expected = [[image.coefficient(1 << r) for image in images] for r in range(n)]
        assert twisted_adjoint_matrix(x).rows() == expected


class TestNorm:
    def test_vector_norm_is_minus_phi(self):
        rng = random.Random(233)
        for sig in REGULAR_SIGS + [Signature(1, 1, 1)]:
            form = BilinearForm.from_signature(sig)
            for _ in range(10):
                v = rand_vector(rng, sig.n)
                assert norm_scalar(embed_vector(v, sig)) == -quadratic_value(form, v)

    def test_multiplicative_on_group(self):
        rng = random.Random(239)
        for sig in [Signature(2, 0), Signature(1, 1), Signature(0, 3)]:
            for _ in range(10):
                x = rand_group_element(rng, sig, 2)
                y = rand_group_element(rng, sig, 1)
                assert norm_scalar(geometric_product(x, y)) == norm_scalar(x) * norm_scalar(y)

    def test_invariant_under_grade_involution(self):
        rng = random.Random(241)
        for sig in [Signature(2, 0), Signature(0, 3)]:
            for _ in range(10):
                x = rand_group_element(rng, sig, rng.randint(1, 3))
                assert norm_scalar(grade_involution(x)) == norm_scalar(x)

    def test_non_scalar_norm_rejected(self):
        sig = Signature(3, 0)
        x = Multivector(sig, {0b001: 1, 0b110: 1})  # e1 + e23
        assert geometric_product(x, clifford_conjugation(x)).is_scalar() is False
        with pytest.raises(NotInGroup):
            norm_scalar(x)


class TestPinSpin:
    def test_pin_negative_definite_plane(self):
        # Pin(2) in Cl(0,2): the eight unit elements form the dicyclic picture
        sig = Signature(0, 2)
        e1 = Multivector.generator(sig, 1)
        e2 = Multivector.generator(sig, 2)
        e12 = geometric_product(e1, e2)
        one = Multivector.one(sig)
        for x in (one, -one, e1, -e1, e2, -e2, e12, -e12):
            assert in_pin(x)
        assert in_spin(one) and in_spin(e12)
        assert not in_spin(e1)

    def test_pin_rejects_unnormalized(self):
        sig = Signature(0, 2)
        assert not in_pin(2 * Multivector.one(sig))
        assert not in_pin(Multivector.zero(sig))
        # norm -4, in the group but not normalizable over the rationals
        assert in_clifford_group(2 * Multivector.generator(sig, 1))
        assert not in_pin(2 * Multivector.generator(sig, 1))

    def test_rational_point_on_spin_circle(self):
        sig = Signature(0, 2)
        x = Multivector(sig, {0: Fraction(3, 5), 0b11: Fraction(4, 5)})
        assert in_spin(x)
        assert in_pin(x)
        assert norm_scalar(x) == 1

    def test_indefinite_norm_minus_one(self):
        # e1 in Cl(1,0) has N(e1) = -1 and belongs to Pin(1,0)
        sig = Signature(1, 0)
        e1 = Multivector.generator(sig, 1)
        assert norm_scalar(e1) == -1
        assert in_pin(e1)
        assert not in_spin(e1)

    def test_pin_one_cyclic_of_order_four(self):
        # Pin(1) in Cl(0,1) = {1, -1, e1, -e1} with e1 of order 4
        sig = Signature(0, 1)
        one = Multivector.one(sig)
        e1 = Multivector.generator(sig, 1)
        members = [one, -one, e1, -e1]
        assert all(in_pin(x) for x in members)
        orders = []
        for x in members:
            power, order = x, 1
            while power != one:
                power, order = geometric_product(power, x), order + 1
            orders.append(order)
        assert sorted(orders) == [1, 2, 4, 4]

    def test_pin_one_zero_is_klein_four(self):
        # Pin(1,0) in Cl(1,0) = {1, -1, e1, -e1}, every non-identity of order 2
        sig = Signature(1, 0)
        one = Multivector.one(sig)
        e1 = Multivector.generator(sig, 1)
        members = [one, -one, e1, -e1]
        assert all(in_pin(x) for x in members)
        orders = []
        for x in members:
            power, order = x, 1
            while power != one:
                power, order = geometric_product(power, x), order + 1
            orders.append(order)
        assert sorted(orders) == [1, 2, 2, 2]

    def test_negative_definite_pin_matches_kernel_of_norm(self):
        # for (0,n) every product of unit generators has N = +1 exactly
        rng = random.Random(251)
        for n in (1, 2, 3):
            sig = Signature(0, n)
            for _ in range(10):
                x = Multivector.one(sig)
                for _ in range(rng.randint(1, 4)):
                    x = geometric_product(x, Multivector.generator(sig, rng.randint(1, n)))
                assert norm_scalar(x) == 1
                assert in_pin(x)

    def test_signature_argument_validated(self):
        x = Multivector.one(Signature(0, 2))
        assert in_pin(x, Signature(0, 2))
        assert in_spin(x, Signature(0, 2))
        with pytest.raises(SignatureMismatch):
            in_pin(x, Signature(2, 0))
        with pytest.raises(SignatureMismatch):
            in_spin(x, Signature(2, 0))


@st.composite
def rational_reflection_products(draw):
    """(sig, M): a regular signature with n <= 6 and a product of 0..2n reflections through axes a/b.

    The matrices are formed in Fractions by reference_reflection_matrix; an
    isotropic axis is skipped, so M may hold fewer reflections than drawn.
    """
    sig = draw(st.sampled_from(all_signatures(6, degenerate=False)))
    form = BilinearForm.from_signature(sig)
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
    m = _linalg.identity(sig.n)
    for w in draw(st.lists(st.lists(entry, min_size=sig.n, max_size=sig.n), max_size=2 * sig.n)):
        reflection = reference_reflection_matrix(form, w)
        if reflection is not None:
            m = reference_mat_mul(m, reflection)
    return sig, m


# a reflection of the Euclidean plane with N = -4/5, not a rational square
NON_SQUARE_NORM = (Signature(2, 0), [[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]])


class TestLift:
    @settings(max_examples=120, deadline=None)
    @given(rational_reflection_products())
    @example(NON_SQUARE_NORM)
    @example((Signature(1, 1), [[Fraction(5, 3), Fraction(4, 3)], [Fraction(-4, 3), Fraction(-5, 3)]]))
    @example((Signature(0, 3), [[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    def test_matches_fraction_path(self, case):
        sig, m = case
        form = BilinearForm.from_signature(sig)
        vectors = fraction_cartan_dieudonne_factor(form, m)
        assert cartan_dieudonne_factor(form, m) == vectors
        assert cartan_dieudonne_factor(form, _linalg.ScaledMatrix.of(m)) == vectors
        axes = quadratic_space._cartan_dieudonne_axes(form, _linalg.ScaledMatrix.of(m))
        assert [[Fraction(x, scale) for x in w] for w, scale, _ in axes] == vectors
        for (w, scale, q), v in zip(axes, vectors):
            assert scale > 0 and Fraction(q, scale * scale) == reference_evaluate_form(form, v, v)
        element, n_value, count, needs_normalization = fraction_lift_isometry(sig, m)
        for given_m in (m, _linalg.ScaledMatrix.of(m)):
            result = lift_isometry(sig, given_m)
            assert (result.element._ints, result.element._scale) == (element._ints, element._scale)
            assert result.n_value == n_value
            assert result.reflection_count == count == len(vectors)
            assert result.needs_normalization is needs_normalization

    def test_non_square_norm_left_unscaled(self):
        sig, m = NON_SQUARE_NORM
        result = lift_isometry(sig, m)
        assert result.needs_normalization
        assert result.n_value == Fraction(-4, 5)
        assert twisted_adjoint_matrix(result.element).rows() == m

    @pytest.mark.parametrize(
        "sig, m, n_value",
        [
            # |N| = 4/5: a square numerator over a non-square denominator
            (*NON_SQUARE_NORM, Fraction(-4, 5)),
            # |N| = 8/25: a non-square numerator over a square denominator
            (Signature(0, 2), [[Fraction(24, 25), Fraction(7, 25)], [Fraction(-7, 25), Fraction(24, 25)]], Fraction(8, 25)),
        ],
        ids=["square-over-non-square", "non-square-over-square"],
    )
    def test_half_square_norm_left_unscaled(self, sig, m, n_value):
        result = lift_isometry(sig, m)
        assert result.n_value == n_value
        assert result.needs_normalization is fraction_lift_isometry(sig, m)[3] is True
        assert twisted_adjoint_matrix(result.element).rows() == m
        assert groups._rational_sqrt(abs(n_value)) is None
        assert groups._rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)

    def test_identity_lift(self):
        result = lift_isometry(Signature(2, 0), _linalg.identity(2))
        assert result.element == Multivector.one(Signature(2, 0))
        assert result.reflection_count == 0
        assert result.n_value == 1
        assert not result.needs_normalization

    def test_reflection_lift_is_vector(self):
        sig = Signature(2, 0)
        form = BilinearForm.from_signature(sig)
        m = reflection_matrix(form, [1, 0])
        result = lift_isometry(sig, m)
        assert result.reflection_count == 1
        assert result.element.grades() == (1,)
        assert twisted_adjoint_matrix(result.element).rows() == m.rows()
        assert result.n_value in (1, -1)

    def test_rotation_lift_oracle(self):
        sig = Signature(0, 2)
        m = [
            [Fraction(-7, 25), Fraction(-24, 25)],
            [Fraction(24, 25), Fraction(-7, 25)],
        ]
        result = lift_isometry(sig, m)
        expected = Multivector(sig, {0: Fraction(3, 5), 0b11: Fraction(4, 5)})
        assert result.element in (expected, -expected)
        assert result.n_value == 1
        assert not result.needs_normalization
        assert result.reflection_count == 2
        assert in_spin(result.element)

    def test_random_lifts_reproduce_isometry(self):
        rng = random.Random(257)
        for sig in REGULAR_SIGS:
            form = BilinearForm.from_signature(sig)
            for count in range(0, 2 * sig.n + 1, 2):
                m = rand_isometry(rng, form, count)
                result = lift_isometry(sig, m)
                assert result.reflection_count <= 2 * sig.n
                assert twisted_adjoint_matrix(result.element).rows() == m
                # rotation (det +1) lifts land in the even subalgebra
                if _linalg.determinant(m) > 0:
                    assert result.element.grades() == () or all(
                        g % 2 == 0 for g in result.element.grades()
                    )

    def test_needs_normalization_case(self):
        # reflecting through (1,1) in the Euclidean plane: N = -2, |N| not a square
        sig = Signature(2, 0)
        form = BilinearForm.from_signature(sig)
        m = reflection_matrix(form, [1, 1])
        result = lift_isometry(sig, m)
        assert result.needs_normalization
        assert result.n_value == -2
        assert twisted_adjoint_matrix(result.element).rows() == m.rows()
        approx = result.approx_normalized()
        assert approx
        assert all(abs(v) < 1.0 for v in approx.values())

    def test_projective_freedom(self):
        # both signs of a lift induce the same isometry
        sig = Signature(2, 0)
        result = lift_isometry(sig, [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]])
        assert twisted_adjoint_matrix(result.element) == twisted_adjoint_matrix(
            -result.element
        )

    def test_degenerate_signature_rejected(self):
        with pytest.raises(DegenerateForm):
            lift_isometry(Signature(1, 0, 1), _linalg.identity(2))

    def test_non_isometry_rejected(self):
        with pytest.raises(NotAnIsometry):
            lift_isometry(Signature(2, 0), [[2, 0], [0, 1]])

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionMismatch):
            lift_isometry(Signature(2, 0), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_float_entries_rejected(self):
        with pytest.raises(TypeError):
            lift_isometry(Signature(2, 0), [[1.0, 0], [0, 1]])


class TestKernelOfTwistedAdjoint:
    def test_scalars_only_in_regular_small_cases(self):
        # sparse sweep: elements with coefficients in {-1,0,1} on Cl(2,0) and Cl(1,1)
        for sig in [Signature(2, 0), Signature(1, 1)]:
            identity = _linalg.identity(2)
            for coeffs in itertools.product((-1, 0, 1), repeat=4):
                x = Multivector(sig, dict(enumerate(coeffs)))
                try:
                    m = twisted_adjoint_matrix(x)
                except (NotInvertible, NotStable):
                    continue
                if mat_eq(m.rows(), identity):
                    assert x.is_scalar()

    def test_degenerate_kernel_is_larger(self):
        # with a radical present, non-scalar kernel elements exist
        sig = Signature(0, 0, 2)
        x = Multivector(sig, {0: 1, 0b11: 1})
        assert not x.is_scalar()
        assert mat_eq(twisted_adjoint_matrix(x).rows(), _linalg.identity(2))
