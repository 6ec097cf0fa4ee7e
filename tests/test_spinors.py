"""Spinor machinery: idempotent counting and search, minimal left ideals,
Peirce decomposition, division ring classification, centers, simplicity,
faithful ideals, matrix representations, and intertwiners."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cliffalg import _linalg, cli, spinors
from cliffalg import (
    CommutingBladeSet,
    DegenerateForm,
    DimensionCapExceeded,
    IdealBasis,
    IdempotentSet,
    Multivector,
    NoSolution,
    NotIdempotent,
    NotInvertible,
    NotSimple,
    Signature,
    SignatureMismatch,
    UnexpectedDimension,
    add,
    algebra_center,
    build_idempotent_set,
    division_ring_info,
    faithful_ideal,
    find_commuting_blades,
    geometric_product,
    idempotent_count_exponent,
    interbasis_element,
    inverse,
    is_simple,
    left_ideal_basis,
    left_ideal_dimension,
    peirce_dimension,
    radon_hurwitz,
    regular_rep_matrix,
    representation_intertwiner,
    scalar_mul,
)
from cliffalg.spinors import _admissible, _blade_image_span, _product_form
from support import (
    all_signatures,
    count_certificates,
    count_products,
    full_blade_image_span,
    mat_add,
    mat_eq,
    mat_scale,
    pairwise_orthogonal,
    rand_multivector,
    rank,
    reference_center,
    reference_commuting_blades,
    reference_division_ring,
    reference_idempotents,
    reference_interbasis,
    reference_pivots_hold,
    reference_product,
    reference_rep_matrix,
    reference_rows_stable,
)

REGULAR_SIGS_4 = [s for s in all_signatures(4, degenerate=False)]
REGULAR_SIGS_5 = [s for s in all_signatures(5, degenerate=False)]


def canonical_idempotents(sig):
    return build_idempotent_set(find_commuting_blades(sig)).idems


def pair_idempotents(sig):
    """The canonical idempotents; on a degenerate signature those of its regular part."""
    if not sig.s:
        return canonical_idempotents(sig)
    return [Multivector(sig, dict(f.terms())) for f in canonical_idempotents(Signature(sig.p, sig.q))]


def sandwich_rank(f, g):
    """Independent rank computation for dim f*A*g by explicit row reduction."""
    sig = f.sig
    dim = 1 << sig.n
    rows = []
    for b in range(dim):
        x = geometric_product(geometric_product(f, Multivector.basis_blade(sig, b)), g)
        rows.append([x.coefficient(m) for m in range(dim)])
    return rank(rows)


class TestCounting:
    def test_radon_hurwitz_base_values(self):
        assert [radon_hurwitz(j) for j in range(16)] == [
            0, 1, 2, 2, 3, 3, 3, 3, 4, 5, 6, 6, 7, 7, 7, 7,
        ]

    def test_radon_hurwitz_recursion_both_directions(self):
        for j in range(-24, 24):
            assert radon_hurwitz(j + 8) == radon_hurwitz(j) + 4

    def test_exponent_table(self):
        expected = {
            (0, 0): 0,
            (1, 0): 1,
            (0, 1): 0,
            (2, 0): 1,
            (0, 2): 0,
            (1, 1): 1,
            (3, 0): 1,
            (0, 3): 1,
            (1, 3): 1,
            (3, 1): 2,
            (2, 2): 2,
            (8, 0): 4,
            (4, 4): 4,
        }
        for (p, q), k in expected.items():
            assert idempotent_count_exponent(Signature(p, q)) == k, (p, q)

    def test_exponent_nonnegative_sweep(self):
        for sig in all_signatures(8, degenerate=False):
            assert idempotent_count_exponent(sig) >= 0

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateForm):
            idempotent_count_exponent(Signature(1, 0, 1))
        with pytest.raises(DegenerateForm):
            find_commuting_blades(Signature(0, 0, 1))


@st.composite
def scan_orders(draw):
    """A regular signature with n <= 7 and its nonzero blade masks in a random order."""
    n = draw(st.integers(0, 7))
    p = draw(st.integers(0, n))
    return Signature(p, n - p), draw(st.permutations(range(1, 1 << n)))


class TestBladeSearch:
    def test_frozen_small_results(self):
        assert find_commuting_blades(Signature(0, 2)).blades == ()
        assert find_commuting_blades(Signature(2, 0)).blades == (0b01,)
        assert find_commuting_blades(Signature(0, 3)).blades == (0b111,)
        assert find_commuting_blades(Signature(1, 3)).blades == (0b0001,)

    def test_eight_dimensional_euclidean(self):
        result = find_commuting_blades(Signature(8, 0))
        assert result.blades == (1, 30, 102, 170)

    def test_past_the_default_cap_refused(self):
        with pytest.raises(DimensionCapExceeded):
            find_commuting_blades(Signature(6, 5))

    def test_lexicographically_smallest(self):
        # brute force over all valid sets of the right size, compare minimum
        for sig in [Signature(2, 0), Signature(1, 1), Signature(3, 0), Signature(2, 2)]:
            k = idempotent_count_exponent(sig)
            found = find_commuting_blades(sig).blades
            candidates = []
            for masks in itertools.combinations(range(1, 1 << sig.n), k):
                try:
                    CommutingBladeSet(sig, masks)
                except ValueError:
                    continue
                candidates.append(masks)
            assert found == min(candidates)

    def test_validation_rejects_wrong_square(self):
        with pytest.raises(ValueError):
            CommutingBladeSet(Signature(0, 2), (0b01,))

    def test_validation_rejects_noncommuting(self):
        with pytest.raises(ValueError):
            CommutingBladeSet(Signature(2, 0), (0b01, 0b10))

    def test_validation_rejects_dependent(self):
        with pytest.raises(ValueError):
            CommutingBladeSet(Signature(2, 0), (0b01, 0b01))
        # e1 * e23 = e123: a dependency through a sub-product of size 2
        with pytest.raises(ValueError, match="independent"):
            CommutingBladeSet(Signature(2, 2), (0b0001, 0b0110, 0b0111))

    def test_validation_rejects_out_of_range_masks(self):
        sig = Signature(2, 0)
        for mask in (-1, 1 << sig.n):
            with pytest.raises(ValueError, match="out of range"):
                CommutingBladeSet(sig, (mask,))

    def test_search_count_matches_exponent(self):
        for sig in REGULAR_SIGS_5:
            assert len(find_commuting_blades(sig).blades) == idempotent_count_exponent(sig)

    def test_pass_matches_depth_first_search(self):
        # the ascending pass never backtracks, so it takes the choices of a
        # depth-first search in ascending order
        for sig in all_signatures(10, degenerate=False):
            assert find_commuting_blades(sig).blades == reference_commuting_blades(sig), sig

    @settings(max_examples=200, deadline=None)
    @given(scan_orders())
    def test_every_maximal_greedy_set_has_k_blades(self, case):
        # the lemma behind the pass: a set of j < k admissible blades always
        # extends, so a greedy scan in any order ends with exactly k
        sig, order = case
        chosen: list[int] = []
        for mask in order:
            if _admissible(mask, chosen, sig) is None:
                chosen.append(mask)
        assert len(chosen) == idempotent_count_exponent(sig)
        CommutingBladeSet(sig, tuple(chosen))


@st.composite
def conjugated_sets(draw):
    """A canonical idempotent set, n <= 5, conjugated by a random unit: u * f_i * u^-1.

    u is dense with small integer coefficients, or 1 + c*m for a blade m.
    """
    n = draw(st.integers(0, 5))
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    blades = find_commuting_blades(sig)
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(-2, 2), min_size=1 << n, max_size=1 << n))
        u = Multivector(sig, dict(enumerate(values)))
    else:
        m = draw(st.integers(0, (1 << n) - 1))
        u = add(Multivector.one(sig), Multivector.basis_blade(sig, m, draw(st.integers(1, 2))))
    try:
        u_inv = inverse(u)
    except NotInvertible:
        u, u_inv = Multivector.one(sig), Multivector.one(sig)
    idems = build_idempotent_set(blades).idems
    return tuple(geometric_product(geometric_product(u, f), u_inv) for f in idems), blades


class TestIdempotentSets:
    def test_invariants_sweep(self):
        # the validating constructor re-proves idempotency, orthogonality, sum
        for sig in REGULAR_SIGS_5:
            idems = canonical_idempotents(sig)
            assert len(idems) == 1 << idempotent_count_exponent(sig)

    def test_three_dimensional_negative_definite(self):
        f_plus, f_minus = canonical_idempotents(Signature(0, 3))
        half = Fraction(1, 2)
        assert f_plus == Multivector(Signature(0, 3), {0: half, 0b111: half})
        assert f_minus == Multivector(Signature(0, 3), {0: half, 0b111: -half})

    def test_validation_rejects_non_idempotent(self):
        sig = Signature(2, 0)
        blades = find_commuting_blades(sig)
        one = Multivector.one(sig)
        with pytest.raises(ValueError):
            IdempotentSet((one, one), blades)

    def test_matches_product_fold(self):
        # each member in sign order, against one geometric product per factor
        for sig in all_signatures(8, degenerate=False):
            blades = find_commuting_blades(sig)
            assert list(spinors._idempotents(blades)) == reference_idempotents(blades)

    def test_member_count_must_be_two_to_the_k(self):
        # 1 alone, and the sums f1 + f2 and f5 + ... + f8 beside f3 and f4:
        # idempotent and summing to 1, but not primitive
        sig = Signature(3, 3)
        blades = find_commuting_blades(sig)
        with pytest.raises(ValueError, match="expected 8 nonzero members"):
            IdempotentSet((Multivector.one(sig),), blades)
        f = canonical_idempotents(sig)
        merged = (f[0] + f[1], f[2], f[3], f[4] + f[5] + f[6] + f[7])
        with pytest.raises(ValueError, match="expected 8 nonzero members"):
            IdempotentSet(merged, blades)

    def test_zero_member_rejected(self):
        sig = Signature(3, 3)
        padded = (Multivector.one(sig),) + (Multivector.zero(sig),) * 7
        with pytest.raises(ValueError, match="expected 8 nonzero members"):
            IdempotentSet(padded, find_commuting_blades(sig))

    def test_short_blade_set_rejected(self):
        # (1 +- u)/2 over one of the three blades of Cl(3,3): 2^1 members that
        # are idempotent and sum to 1, but span ideals of dimension 32, not 8
        sig = Signature(3, 3)
        short = CommutingBladeSet(sig, find_commuting_blades(sig).blades[:1])
        with pytest.raises(ValueError, match="maximal"):
            IdempotentSet(tuple(reference_idempotents(short)), short)

    def test_eight_dimensional_euclidean_set(self):
        idems = canonical_idempotents(Signature(8, 0))
        assert len(idems) == 16

    def test_canonical_sets_pairwise_orthogonal(self):
        # the constructor checks only idempotency and the sum; orthogonality follows
        for sig in all_signatures(6, degenerate=False):
            assert pairwise_orthogonal(canonical_idempotents(sig))

    @settings(max_examples=40, deadline=None)
    @given(conjugated_sets())
    def test_conjugated_sets_pairwise_orthogonal(self, case):
        idems, blades = case
        idset = IdempotentSet(idems, blades)  # passes both checks
        assert pairwise_orthogonal(idset.idems)

    def test_non_orthogonal_pair_rejected(self):
        sig = Signature(2, 0)
        half = Fraction(1, 2)
        f = Multivector(sig, {0: half, 0b01: half})
        g = Multivector(sig, {0: half, 0b10: half})
        assert not pairwise_orthogonal((f, g))
        with pytest.raises(ValueError, match="sum"):
            IdempotentSet((f, g), find_commuting_blades(sig))


class TestIdeals:
    def test_basis_element_not_fixed_by_generator_rejected(self):
        # (1 - f) * f = 0, so 1 - f is no element of A * f
        f = canonical_idempotents(Signature(2, 0))[0]
        ideal = left_ideal_basis(f)
        basis = ideal.basis[:-1] + (add(Multivector.one(f.sig), scalar_mul(-1, f)),)
        IdealBasis(f, ideal.basis, ideal.dim, ideal.pivots)
        with pytest.raises(ValueError, match="not stabilized"):
            IdealBasis(f, basis, ideal.dim, ideal.pivots)

    @pytest.mark.parametrize("pq", [(2, 0), (1, 3), (3, 1)])
    def test_basis_missing_an_element_rejected(self, pq):
        # what is left passes b * f = b, the pivot test and the rebuild of f,
        # but no longer spans A * f, whose dimension is the trace rank
        f = canonical_idempotents(Signature(*pq))[0]
        ideal = left_ideal_basis(f)
        basis, pivots = ideal.basis[:-1], ideal.pivots[:-1]
        for dim in (ideal.dim, ideal.dim - 1):
            with pytest.raises(ValueError, match="rank"):
                IdealBasis(f, basis, dim, pivots)

    def test_permuted_pivots_rejected(self):
        f = canonical_idempotents(Signature(1, 3))[0]
        ideal = left_ideal_basis(f)
        for pivots in (ideal.pivots[::-1], ideal.pivots[1:] + ideal.pivots[:1]):
            with pytest.raises(ValueError, match="pivot"):
                IdealBasis(f, ideal.basis, ideal.dim, pivots)
        with pytest.raises(ValueError, match="pivot"):
            IdealBasis(f, ideal.basis, ideal.dim, ideal.pivots[:-1])

    def test_non_idempotent_generator_rejected(self):
        # g = 2 - f fixes every b in A * f (b * g = 2b - b * f = b), but g * g
        # = 4 - 3f != g, and g is no element of the span
        for sig in [Signature(2, 0), Signature(1, 3)]:
            f = canonical_idempotents(sig)[0]
            ideal = left_ideal_basis(f)
            g = add(scalar_mul(2, Multivector.one(sig)), -f)
            assert geometric_product(g, g) != g
            assert all(geometric_product(b, g) == b for b in ideal.basis)
            with pytest.raises(ValueError, match="generator is not in the span"):
                IdealBasis(g, ideal.basis, ideal.dim, ideal.pivots)

    def test_basis_from_another_signature_rejected(self):
        # the basis of A * f for f = (1 + e1)/2 in Cl(1,0), relabelled as Cl(1,1) elements
        f = Multivector(Signature(1, 0), {0: Fraction(1, 2), 1: Fraction(1, 2)})
        ideal = left_ideal_basis(f)
        basis = tuple(Multivector(Signature(1, 1), dict(b.terms())) for b in ideal.basis)
        with pytest.raises(SignatureMismatch):
            IdealBasis(f, basis, ideal.dim, ideal.pivots)

    def test_whole_algebra_from_one(self):
        sig = Signature(0, 2)
        ideal = left_ideal_basis(Multivector.one(sig))
        assert ideal.dim == 4
        assert left_ideal_dimension(Multivector.one(sig)) == 4

    def test_dimension_formula_sweep(self):
        # every canonical primitive idempotent spans an ideal of dim 2^(n-k)
        for sig in REGULAR_SIGS_5:
            k = idempotent_count_exponent(sig)
            for f in canonical_idempotents(sig):
                assert left_ideal_dimension(f) == 1 << (sig.n - k)

    def test_trace_matches_row_reduction(self):
        for sig in REGULAR_SIGS_4:
            for f in canonical_idempotents(sig):
                ideal = left_ideal_basis(f)
                assert ideal.dim == left_ideal_dimension(f)
                assert len(ideal.basis) == ideal.dim

    def test_trace_shortcut_in_high_dimension(self):
        # n = 8: the trace needs no row reduction at all
        idems = canonical_idempotents(Signature(8, 0))
        assert [left_ideal_dimension(f) for f in idems] == [16] * 16
        assert sum(left_ideal_dimension(f) for f in idems) == 256

    @pytest.mark.parametrize("pq", [(4, 4), (1, 7), (8, 0)])
    def test_row_reduction_in_high_dimension(self, pq):
        sig = Signature(*pq)
        f = canonical_idempotents(sig)[0]
        ideal = left_ideal_basis(f)
        assert ideal.dim == 1 << (sig.n - idempotent_count_exponent(sig))
        assert ideal.dim == left_ideal_dimension(f)

    def test_ideal_closed_under_left_multiplication(self):
        rng = random.Random(307)
        for sig in [Signature(2, 0), Signature(0, 3), Signature(1, 2)]:
            f = canonical_idempotents(sig)[0]
            ideal = left_ideal_basis(f)
            for _ in range(10):
                x = rand_multivector(rng, sig, density=0.6)
                for b in ideal.basis:
                    image = geometric_product(x, b)
                    assert geometric_product(image, f) == image

    def test_non_idempotent_rejected(self):
        sig = Signature(2, 0)
        with pytest.raises(NotIdempotent):
            left_ideal_basis(Multivector.generator(sig, 1))
        with pytest.raises(NotIdempotent):
            left_ideal_dimension(2 * Multivector.one(sig))


SPAN_KINDS = ["idempotent", "f+g", "one", "sparse conjugate", "dense conjugate"]


@st.composite
def span_elements(draw):
    """(sig, f, x, kind) on a regular signature with n <= 6; f and x idempotent.

    f is a canonical idempotent.  x is one too, a sum f + g of two of them
    (g alone when f = g, since 2f is not idempotent), 1 (one blade per
    block), or an idempotent conjugated by an invertible a: a = 1 + c*m for
    a blade m widens the blocks past the support span of f, and a dense
    integer a gives one block with small coefficients.
    """
    n = draw(st.integers(0, 6))
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    one = Multivector.one(sig)
    idems = canonical_idempotents(sig)
    f = draw(st.sampled_from(idems))
    g = draw(st.sampled_from(idems))
    kind = draw(st.sampled_from(SPAN_KINDS))
    m = draw(st.integers(0, (1 << n) - 1))
    a = add(one, Multivector.basis_blade(sig, m, draw(st.integers(1, 2))))
    if kind == "dense conjugate":
        values = draw(st.lists(st.integers(-2, 2), min_size=1 << n, max_size=1 << n))
        a = Multivector(sig, dict(enumerate(values)))
    if kind == "idempotent":
        x = g
    elif kind == "f+g":
        x = g if f == g else add(f, g)
    elif kind == "one":
        x = one
    else:
        try:
            x = geometric_product(geometric_product(a, g), inverse(a))
        except NotInvertible:
            x = g
    return sig, f, x, kind


@st.composite
def span_cases(draw):
    """Idempotent (left, right) with left = 1, left = right = x, left = f (see
    span_elements), or two distinct canonical idempotents of one set."""
    sig, f, x, kind = draw(span_elements())
    form = draw(st.sampled_from(["left", "double", "sandwich", "pair"]))
    if form == "pair":
        idems = canonical_idempotents(sig)
        assume(len(idems) > 1)
        return f, draw(st.sampled_from([g for g in idems if g != f]))
    if form == "double" and kind == "dense conjugate":
        form = "left"  # x*b*x for a dense x costs 4^n term pairs per blade
    if form == "left":
        return Multivector.one(sig), x
    if form == "double":
        return x, x
    return f, x


def interleaving_case():
    """(1, x) with x = a*g*a^-1 on Cl(0,4), g the first canonical idempotent
    and a = 1 + 2*e4.  The pivots of the blocks of A*x interleave, so the
    block rows must be merged by pivot mask."""
    sig = Signature(0, 4)
    a = add(Multivector.one(sig), Multivector.basis_blade(sig, 0b1000, 2))
    g = canonical_idempotents(sig)[0]
    return Multivector.one(sig), geometric_product(geometric_product(a, g), inverse(a))


def dense_conjugate_case():
    """(1, x) with x = a*g*a^-1 on Cl(3,3), g the first canonical idempotent
    and a a dense integer element: one dense 64-blade block of rank 8.  A
    span that fed each reduction's scaled rows into the next, one image at
    a time, would let the scale compound and not finish."""
    sig = Signature(3, 3)
    a = Multivector(sig, {m: m % 5 - 2 or 1 for m in range(1 << sig.n)})
    g = canonical_idempotents(sig)[0]
    return Multivector.one(sig), geometric_product(geometric_product(a, g), inverse(a))


class TestBladeImageSpan:
    @settings(max_examples=50, deadline=None)
    @given(span_cases())
    @example(interleaving_case())
    @example(dense_conjugate_case())
    @example(tuple(canonical_idempotents(Signature(0, 3))))  # across the two components: empty
    @example(tuple(canonical_idempotents(Signature(2, 2))[::3]))  # two signs flipped
    def test_coset_blocks_match_full_reduction(self, case):
        left, right = case
        expected = full_blade_image_span(
            left.sig, lambda b: geometric_product(geometric_product(left, b), right)
        )
        assert _blade_image_span(left, right, _product_form(left), _product_form(right)) == expected


class TestRankPath:
    """left_ideal_basis and division_ring_info reduce each block only up to
    the rank its trace gives; the result must equal the full reduction."""

    @settings(max_examples=60, deadline=None)
    @given(span_elements())
    def test_left_ideal_matches_full_reduction(self, case):
        sig, _, x, _ = case
        ideal = left_ideal_basis(x)
        expected = full_blade_image_span(sig, lambda b: geometric_product(b, x))
        assert (ideal.basis, ideal.pivots) == expected
        assert ideal.dim == left_ideal_dimension(x)

    @settings(max_examples=60, deadline=None)
    @given(span_elements())
    def test_division_ring_matches_full_reduction(self, case):
        sig, _, x, _ = case
        expected, _ = full_blade_image_span(
            sig, lambda b: geometric_product(geometric_product(x, b), x)
        )
        try:
            info = division_ring_info(x)
        except UnexpectedDimension:
            # only a non-primitive x, whose ideal is not minimal, may be refused
            minimal = 1 << (sig.n - idempotent_count_exponent(sig))
            assert left_ideal_dimension(x) > minimal
            return
        assert info.basis == expected


@st.composite
def canonical_cases(draw):
    """A canonical idempotent of a regular Cl(p,q) with n <= 6, or 1."""
    n = draw(st.integers(0, 6))
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    return draw(st.sampled_from([*canonical_idempotents(sig), Multivector.one(sig)]))


def factor_product(sig, form):
    """prod_v (1 + sigma_v e_v)/2 over a _product_form result, by geometric products."""
    one = Multivector.one(sig)
    out = one
    for v, sigma in form.items():
        out = geometric_product(out, (one + Multivector.basis_blade(sig, v, sigma)) / 2)
    return out


def is_idempotent(x):
    return reference_product(x, x) == x


class TestProductForm:
    """The certificate f = prod_v (1 + sigma_v e_v)/2 and the spans and checks built on it."""

    def test_canonical_idempotents_certified(self):
        for sig in all_signatures(6, degenerate=False):
            k = idempotent_count_exponent(sig)
            for f in canonical_idempotents(sig):
                form = _product_form(f)
                assert len(form) == k
                assert factor_product(sig, form) == f

    def test_split_faithful_generator_certified(self):
        # f and g differ in the sign of one blade, so f + g is the product
        # over the other k - 1 blades
        for sig in all_signatures(8, degenerate=False):
            if not is_simple(sig):
                generator = faithful_ideal(sig).generator
                form = _product_form(generator)
                assert len(form) == idempotent_count_exponent(sig) - 1
                assert factor_product(sig, form) == generator

    def test_degenerate_signature_not_certified(self):
        f = Multivector(Signature(1, 0, 1), {0: Fraction(1, 2), 0b1: Fraction(1, 2)})
        assert is_idempotent(f) and _product_form(f) is None
        assert division_ring_info(f).kind == "R"

    @settings(max_examples=60, deadline=None)
    @given(canonical_cases())
    @example(Multivector.one(Signature(0, 0)))
    @example(Multivector.one(Signature(1, 2)))
    # f*A*f = R with k = 3 and H with k = 2 at n = 6, and C at n = 5
    @example(canonical_idempotents(Signature(3, 3))[-1])
    @example(canonical_idempotents(Signature(0, 6))[2])
    @example(canonical_idempotents(Signature(6, 0))[1])
    @example(canonical_idempotents(Signature(4, 1))[0])
    def test_certified_spans_match_full_reduction(self, f):
        assert _product_form(f) is not None
        sig = f.sig
        ideal = left_ideal_basis(f)
        expected = full_blade_image_span(sig, lambda b: geometric_product(b, f))
        assert (ideal.basis, ideal.pivots) == expected
        expected = full_blade_image_span(sig, lambda b: geometric_product(geometric_product(f, b), f))
        form = _product_form(f)
        assert _blade_image_span(f, f, form, form) == expected
        if f != 1:
            assert division_ring_info(f).basis == expected[0]

    @settings(max_examples=80, deadline=None)
    @given(span_elements())
    def test_certificate_is_sound(self, case):
        # whatever passes is the product of its factors; every kind still
        # spans its full reduction (TestRankPath), on whichever path it takes
        sig, _, x, _ = case
        form = _product_form(x)
        if form is not None:
            assert factor_product(sig, form) == x

    @settings(max_examples=60, deadline=None)
    @given(canonical_cases(), st.data())
    def test_one_sign_flipped(self, f, data):
        # flipping one sign of a product of k >= 2 factors leaves no
        # character, and with k = 1 it may give the other idempotent: the
        # certificate must pass exactly the idempotents
        mask = data.draw(st.sampled_from(sorted(f._ints)))
        flipped = {m: -c if m == mask else c for m, c in f._ints.items()}
        x = Multivector._scaled(f.sig, flipped, f._scale)
        assert (_product_form(x) is not None) == is_idempotent(x)
        if not is_idempotent(x):
            with pytest.raises(NotIdempotent):
                left_ideal_basis(x)

    def test_twice_an_idempotent_rejected(self):
        for sig in all_signatures(5, degenerate=False):
            f = canonical_idempotents(sig)[0]
            assert _product_form(2 * f) is None
            with pytest.raises(NotIdempotent):
                left_ideal_basis(2 * f)
            idems = canonical_idempotents(sig)
            with pytest.raises(ValueError, match="not idempotent"):
                IdempotentSet((2 * f, *idems[1:]), find_commuting_blades(sig))

    @settings(max_examples=40, deadline=None)
    @given(canonical_cases(), st.data())
    def test_support_not_a_subspace(self, f, data):
        # one term dropped: the scale stays 2^k over 2^k - 1 masks that
        # still span S
        assume(len(f._ints) >= 4)
        mask = data.draw(st.sampled_from(sorted(f._ints)[1:]))
        x = Multivector._scaled(f.sig, {m: c for m, c in f._ints.items() if m != mask}, f._scale)
        assert x._scale == f._scale
        assert _product_form(x) is None and not is_idempotent(x)
        with pytest.raises(NotIdempotent):
            left_ideal_basis(x)

    @pytest.mark.parametrize(
        "x",
        [
            # (1 + e1)(1 + e2)/4: e1 * F = F, but e1 and e2 anticommute
            Multivector(Signature(2, 0), {m: Fraction(1, 4) for m in range(4)}),
            # (1 + e1)/2 with e1 * e1 = -1
            Multivector(Signature(0, 1), {0: Fraction(1, 2), 1: Fraction(1, 2)}),
        ],
        ids=["anticommuting", "negative-square"],
    )
    def test_relations_that_fail(self, x):
        assert _product_form(x) is None and not is_idempotent(x)
        with pytest.raises(NotIdempotent):
            left_ideal_basis(x)

    @settings(max_examples=40, deadline=None)
    @given(canonical_cases(), st.data())
    def test_basis_element_with_one_term_negated(self, f, data):
        # off its pivots, a negated term keeps the pivot test and the rebuild
        # of f's pivot values; only b * e_v = sigma_v b sees it
        ideal = left_ideal_basis(f)
        i = data.draw(st.integers(0, ideal.dim - 1))
        b = ideal.basis[i]
        off_pivot = sorted(set(b._ints) - set(ideal.pivots))
        assume(off_pivot)
        mask = data.draw(st.sampled_from(off_pivot))
        negated = Multivector._scaled(f.sig, {m: -c if m == mask else c for m, c in b._ints.items()}, b._scale)
        basis = ideal.basis[:i] + (negated,) + ideal.basis[i + 1 :]
        with pytest.raises(ValueError, match="not stabilized"):
            IdealBasis(f, basis, ideal.dim, ideal.pivots)


class TestPeirce:
    def test_matches_explicit_rank(self):
        for sig in REGULAR_SIGS_4:
            idems = canonical_idempotents(sig)
            for f in idems:
                for g in idems:
                    assert peirce_dimension(f, g) == sandwich_rank(f, g)

    def test_full_decomposition_sums(self):
        for sig in REGULAR_SIGS_5:
            idems = canonical_idempotents(sig)
            total = sum(peirce_dimension(f, g) for f in idems for g in idems)
            assert total == 1 << sig.n
            for f in idems:
                row = sum(peirce_dimension(f, g) for g in idems)
                assert row == left_ideal_dimension(f)

    def test_high_dimension_row(self):
        idems = canonical_idempotents(Signature(8, 0))
        f = idems[0]
        assert sum(peirce_dimension(f, g) for g in idems) == 16

    def test_cross_component_is_zero(self):
        f_plus, f_minus = canonical_idempotents(Signature(0, 3))
        assert peirce_dimension(f_plus, f_minus) == 0
        assert peirce_dimension(f_minus, f_plus) == 0
        assert peirce_dimension(f_plus, f_plus) == 4

    def test_errors(self):
        f = Multivector.one(Signature(2, 0))
        g = Multivector.one(Signature(0, 2))
        with pytest.raises(SignatureMismatch):
            peirce_dimension(f, g)
        with pytest.raises(NotIdempotent):
            peirce_dimension(2 * f, f)
        one = Multivector.one(Signature(1, 0, 1))
        with pytest.raises(DegenerateForm):
            peirce_dimension(one, one)


@st.composite
def degenerate_idempotents(draw):
    """An idempotent of Cl(p,q,s) with s >= 1 and n <= 5.

    A canonical Cl(p,q) idempotent f, embedded in Cl(p,q,s), a sum f + g of
    two of them (g alone when f = g), or f conjugated by a = 1 + c*m for a
    blade m, which may contain a null generator.
    """
    n = draw(st.integers(1, 5))
    s = draw(st.integers(1, n))
    p = draw(st.integers(0, n - s))
    regular = Signature(p, n - s - p)
    sig = Signature(regular.p, regular.q, s)
    idems = [Multivector(sig, dict(f.terms())) for f in canonical_idempotents(regular)]
    f = draw(st.sampled_from(idems))
    g = draw(st.sampled_from(idems))
    kind = draw(st.sampled_from(["idempotent", "f+g", "conjugate"]))
    if kind == "f+g":
        return g if f == g else add(f, g)
    if kind == "conjugate":
        m = draw(st.integers(0, (1 << n) - 1))
        a = add(Multivector.one(sig), Multivector.basis_blade(sig, m, draw(st.integers(1, 2))))
        try:
            return geometric_product(geometric_product(a, f), inverse(a))
        except NotInvertible:
            return f
    return f


def expected_kind(sig):
    mod = (sig.p - sig.q) % 8
    if mod in (0, 1, 2):
        return "R"
    if mod in (3, 7):
        return "C"
    return "H"


class TestDivisionRing:
    def test_kind_table_sweep(self):
        for sig in REGULAR_SIGS_5:
            idems = canonical_idempotents(sig)
            kinds = set()
            for f in idems:
                info = division_ring_info(f)
                kinds.add(info.kind)
                assert info.dim == {"R": 1, "C": 2, "H": 4}[info.kind]
                assert len(info.basis) == info.dim
            assert kinds == {expected_kind(sig)}, sig

    def test_quaternions_whole_algebra(self):
        info = division_ring_info(Multivector.one(Signature(0, 2)))
        assert info.kind == "H"
        assert info.dim == 4

    def test_complex_center_example(self):
        f = canonical_idempotents(Signature(3, 0))[0]
        info = division_ring_info(f)
        assert info.kind == "C"
        assert info.dim == 2
        # the basis element off the line of f squares to a negative multiple of f
        w = next(u for u in info.basis if u != scalar_mul(u.scalar_part() / f.scalar_part(), f))
        square = geometric_product(w, w)
        mu = square.scalar_part() / f.scalar_part()
        assert square == scalar_mul(mu, f)
        assert mu < 0

    def test_non_primitive_rejected(self):
        # 1 in Cl(2,0) spans all of M2(R): dimension 4, where D = R has dimension 1
        with pytest.raises(UnexpectedDimension):
            division_ring_info(Multivector.one(Signature(2, 0)))
        # 1 in Cl(1,0) = R + R: dimension 2, where D = R has dimension 1
        with pytest.raises(UnexpectedDimension):
            division_ring_info(Multivector.one(Signature(1, 0)))

    def test_non_idempotent_rejected(self):
        with pytest.raises(NotIdempotent):
            division_ring_info(Multivector.generator(Signature(2, 0), 1))

    @pytest.mark.parametrize("pq, products", [((0, 2), 5), ((3, 0), 3)])
    def test_product_count(self, monkeypatch, pq, products):
        # a canonical f is certified by relabellings and f*A*f is read off
        # its coset leaders: no product.  Without the certificate, f*f once,
        # then one product f*(b*f) for one blade per basis element
        f = canonical_idempotents(Signature(*pq))[0]
        calls = count_products(monkeypatch)
        info = division_ring_info(f)
        assert calls[0] == 0
        monkeypatch.setattr(spinors, "_product_form", lambda f: None)
        assert division_ring_info(f) == info
        assert calls[0] == products == 1 + info.dim

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            span_elements().map(lambda case: case[2]),
            degenerate_idempotents(),
        )
    )
    # (1 + e1)/2 in Cl(1,0,1) is R, (1 + e123)/2 in Cl(0,3,1) is H, and
    # 1 in Cl(0,0,1) is refused: f*A*f = Cl(0,0,1) holds the nilpotent e1
    @example(Multivector(Signature(1, 0, 1), {0: Fraction(1, 2), 0b1: Fraction(1, 2)}))
    @example(Multivector(Signature(0, 3, 1), {0: Fraction(1, 2), 0b111: Fraction(1, 2)}))
    @example(Multivector.one(Signature(0, 0, 1)))
    def test_matches_structural_classifier(self, x):
        try:
            kind = division_ring_info(x).kind
        except UnexpectedDimension:
            kind = None
        assert kind == reference_division_ring(x)


class TestCenter:
    def test_small_cases(self):
        center = algebra_center(Signature(0, 2))
        assert len(center) == 1
        assert center[0] == Multivector.one(Signature(0, 2))
        center = algebra_center(Signature(0, 3))
        assert [x.terms() for x in center] == [
            ((0, Fraction(1)),),
            ((0b111, Fraction(1)),),
        ]

    def test_dimension_parity_sweep(self):
        # the closed form against the blade-by-blade commutation loop
        for sig in all_signatures(7, degenerate=False):
            center = algebra_center(sig)
            assert len(center) == (2 if sig.n % 2 else 1)
            assert [z.terms() for z in center] == [
                ((mask, Fraction(1)),) for mask in reference_center(sig)
            ], sig

    def test_members_commute_with_everything(self):
        rng = random.Random(311)
        for sig in [Signature(3, 0), Signature(1, 2), Signature(2, 3)]:
            for z in algebra_center(sig):
                for _ in range(10):
                    x = rand_multivector(rng, sig, density=0.6)
                    assert geometric_product(z, x) == geometric_product(x, z)

    def test_noncentral_blade_excluded(self):
        # e1 commutes with e1 but not with e2, so it is not central
        center = algebra_center(Signature(2, 0))
        assert len(center) == 1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateForm):
            algebra_center(Signature(1, 0, 1))


class TestSimplicity:
    def test_matches_mod_four_rule(self):
        for sig in all_signatures(6, degenerate=False):
            assert is_simple(sig) == ((sig.p - sig.q) % 4 != 1), sig

    def test_split_center_blade_squares_to_plus_one(self):
        for sig in [Signature(1, 0), Signature(0, 3), Signature(2, 1)]:
            assert not is_simple(sig)
            z = algebra_center(sig)[1]
            assert geometric_product(z, z) == Multivector.one(sig)

    def test_simple_odd_center_blade_squares_to_minus_one(self):
        for sig in [Signature(0, 1), Signature(3, 0), Signature(1, 2)]:
            assert is_simple(sig)
            z = algebra_center(sig)[1]
            assert geometric_product(z, z) == -Multivector.one(sig)

    def test_central_idempotents_absorb_primitives(self):
        # each primitive idempotent is absorbed by exactly one central idempotent
        for sig in [Signature(1, 0), Signature(0, 3), Signature(2, 1), Signature(3, 2)]:
            z = algebra_center(sig)[1]
            one = Multivector.one(sig)
            c_plus = scalar_mul(Fraction(1, 2), add(one, z))
            c_minus = scalar_mul(Fraction(1, 2), add(one, -z))
            assert geometric_product(c_plus, c_plus) == c_plus
            assert geometric_product(c_minus, c_minus) == c_minus
            for f in canonical_idempotents(sig):
                absorbed_plus = geometric_product(f, c_plus) == f
                absorbed_minus = geometric_product(f, c_minus) == f
                assert absorbed_plus != absorbed_minus


class TestFaithfulIdeal:
    def test_simple_uses_minimal_ideal(self):
        for sig, dim in [(Signature(0, 2), 4), (Signature(2, 0), 2), (Signature(1, 3), 8)]:
            ideal = faithful_ideal(sig)
            assert ideal.dim == dim

    def test_split_doubles_the_minimal_ideal(self):
        for sig, dim in [(Signature(1, 0), 2), (Signature(0, 3), 8), (Signature(2, 1), 4)]:
            ideal = faithful_ideal(sig)
            assert ideal.dim == dim

    def test_faithfulness_on_split_algebra(self):
        # both central idempotents act nontrivially on the faithful ideal,
        # while each kills one of the single-component minimal ideals
        sig = Signature(0, 3)
        z = algebra_center(sig)[1]
        one = Multivector.one(sig)
        c_plus = scalar_mul(Fraction(1, 2), add(one, z))
        c_minus = scalar_mul(Fraction(1, 2), add(one, -z))
        ideal = faithful_ideal(sig)
        zero = [[Fraction(0)] * ideal.dim for _ in range(ideal.dim)]
        assert not mat_eq(regular_rep_matrix(c_plus, ideal), zero)
        assert not mat_eq(regular_rep_matrix(c_minus, ideal), zero)
        f_plus, f_minus = canonical_idempotents(sig)
        small = left_ideal_basis(f_plus)
        small_zero = [[Fraction(0)] * small.dim for _ in range(small.dim)]
        assert mat_eq(regular_rep_matrix(c_minus, small), small_zero)


class TestRegularRepresentation:
    def test_unital_and_multiplicative(self):
        rng = random.Random(313)
        for sig in [Signature(1, 0), Signature(0, 2), Signature(2, 0), Signature(3, 0), Signature(0, 3)]:
            ideal = faithful_ideal(sig)
            assert mat_eq(
                regular_rep_matrix(Multivector.one(sig), ideal), _linalg.identity(ideal.dim)
            )
            for _ in range(15):
                x = rand_multivector(rng, sig, density=0.6)
                y = rand_multivector(rng, sig, density=0.6)
                rep_xy = regular_rep_matrix(geometric_product(x, y), ideal)
                product = _linalg.mat_mul(
                    regular_rep_matrix(x, ideal), regular_rep_matrix(y, ideal)
                )
                assert mat_eq(rep_xy, product)

    def test_linear(self):
        rng = random.Random(317)
        sig = Signature(2, 0)
        ideal = faithful_ideal(sig)
        x = rand_multivector(rng, sig)
        y = rand_multivector(rng, sig)
        assert mat_eq(
            regular_rep_matrix(add(x, y), ideal),
            mat_add(regular_rep_matrix(x, ideal), regular_rep_matrix(y, ideal)),
        )

    def test_generator_images_satisfy_relations(self):
        # the defining relations survive into every matrix image
        for sig in [Signature(2, 0), Signature(1, 3), Signature(0, 3)]:
            ideal = faithful_ideal(sig)
            images = [
                regular_rep_matrix(Multivector.generator(sig, i), ideal)
                for i in range(1, sig.n + 1)
            ]
            identity = _linalg.identity(ideal.dim)
            for i, m in enumerate(images, start=1):
                square = _linalg.mat_mul(m, m)
                expected = mat_scale(Fraction(sig.generator_square(i)), identity)
                assert mat_eq(square, expected)
            for a in range(len(images)):
                for b in range(a + 1, len(images)):
                    ab = _linalg.mat_mul(images[a], images[b])
                    ba = _linalg.mat_mul(images[b], images[a])
                    assert mat_eq(ab, mat_scale(Fraction(-1), ba))

    def test_spacetime_gamma_matrices(self):
        sig = Signature(1, 3)
        ideal = faithful_ideal(sig)
        assert ideal.dim == 8

    def test_signature_mismatch(self):
        ideal = faithful_ideal(Signature(2, 0))
        with pytest.raises(SignatureMismatch):
            regular_rep_matrix(Multivector.one(Signature(0, 2)), ideal)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_fraction_reference(self, data):
        sig = data.draw(st.sampled_from(all_signatures(6, degenerate=False)))
        ideal = faithful_ideal(sig)
        fractions = st.fractions(min_value=-20, max_value=20, max_denominator=13)
        masks = data.draw(st.lists(st.integers(0, (1 << sig.n) - 1), max_size=1 << sig.n))
        x = Multivector(sig, {m: data.draw(fractions) for m in masks})
        assert regular_rep_matrix(x, ideal) == reference_rep_matrix(x, ideal)

    def test_faithful_means_injective_on_split(self):
        # distinct elements never collide in the matrix image
        rng = random.Random(331)
        sig = Signature(1, 0)
        ideal = faithful_ideal(sig)
        for _ in range(10):
            x = rand_multivector(rng, sig, density=0.8)
            y = rand_multivector(rng, sig, density=0.8)
            if x != y:
                assert not mat_eq(
                    regular_rep_matrix(x, ideal), regular_rep_matrix(y, ideal)
                )


REGULAR_SIGS_7 = [s for s in all_signatures(7, degenerate=False)]
SIGS_7_WITH_PAIRS = [s for s in REGULAR_SIGS_7 if idempotent_count_exponent(s)]
DEGENERATE_SIGS_WITH_PAIRS = [
    s for s in all_signatures(5) if s.s and idempotent_count_exponent(Signature(s.p, s.q))
]
# split algebras, whose faithful ideal is A * (f + g)
SPLIT_SIGS = [Signature(1, 0), Signature(2, 1), Signature(4, 3)]


def index_rep(x: Multivector, ideal):
    """R(x) as a ScaledMatrix, read through the ideal's blade index."""
    assert ideal._blade_rows is not None
    return spinors._map_matrix(ideal, ideal, x, on_left=True)


class TestBladeIndex:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(REGULAR_SIGS_7))
    @example(SPLIT_SIGS[0])
    @example(SPLIT_SIGS[1])
    @example(SPLIT_SIGS[2])
    def test_blade_images_are_signed_permutations(self, sig):
        ideal = faithful_ideal(sig)
        unit = [0] * (ideal.dim - 1) + [1]
        for b in range(1 << sig.n):
            m = index_rep(Multivector.basis_blade(sig, b), ideal)
            assert m.scale == 1
            assert all(sorted(map(abs, row)) == unit for row in m.rows)
            assert all(sorted(map(abs, column)) == unit for column in m.transpose().rows)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(REGULAR_SIGS_7), st.integers(0, 127), st.integers(0, 127))
    @example(SPLIT_SIGS[0], 1, 1)
    @example(SPLIT_SIGS[1], 5, 6)
    @example(SPLIT_SIGS[2], 77, 90)
    def test_blade_images_multiply_as_blades(self, sig, a, b):
        # R(e_a) R(e_b) = s(a,b) R(e_(a xor b)), with e_a e_b = s(a,b) e_(a xor b)
        a, b = a % (1 << sig.n), b % (1 << sig.n)
        ideal = faithful_ideal(sig)
        blade = lambda mask, c=1: Multivector.basis_blade(sig, mask, c)
        sign = geometric_product(blade(a), blade(b)).coefficient(a ^ b)
        expected = index_rep(blade(a ^ b, sign), ideal)
        assert index_rep(blade(a), ideal) @ index_rep(blade(b), ideal) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(REGULAR_SIGS_7),
        st.lists(
            st.tuples(st.integers(0, 127), st.fractions(min_value=-20, max_value=20, max_denominator=13)),
            max_size=40,
        ),
    )
    @example(SPLIT_SIGS[0], [(0, Fraction(1, 3)), (1, Fraction(-2, 5))])
    @example(SPLIT_SIGS[1], [(m, Fraction(m - 3, 7)) for m in range(8)])
    @example(SPLIT_SIGS[2], [(m, Fraction(m % 5 - 2, m % 3 + 1)) for m in range(0, 128, 3)])
    def test_matches_products_and_fraction_reference(self, sig, terms):
        x = Multivector(sig, {m % (1 << sig.n): c for m, c in terms})
        ideal = faithful_ideal(sig)
        matrix = index_rep(x, ideal)
        by_products = spinors._map_matrix_by_products(ideal, ideal, x, on_left=True)
        assert (matrix.rows, matrix.scale) == (by_products.rows, by_products.scale)
        assert matrix.fractions() == reference_rep_matrix(x, ideal)

    def test_no_index_without_a_product_form(self):
        # a conjugated idempotent is no product over the blades: its ideal
        # has no index, and left multiplication takes the products
        sig = Signature(1, 3)
        a = add(Multivector.one(sig), Multivector.basis_blade(sig, 0b1000, 2))
        f = geometric_product(geometric_product(a, canonical_idempotents(sig)[0]), inverse(a))
        ideal = left_ideal_basis(f)
        assert ideal._blade_rows is None
        x = Multivector(sig, {0: 1, 0b0011: Fraction(-2, 3), 0b1101: 5})
        assert regular_rep_matrix(x, ideal) == reference_rep_matrix(x, ideal)


class TestInterbasis:
    def test_same_idempotent(self):
        f = canonical_idempotents(Signature(2, 0))[0]
        assert interbasis_element(f, f) == (f, f)

    def test_partial_inverse_contract(self):
        for sig in [Signature(2, 0), Signature(3, 0), Signature(1, 1)]:
            f1, f2 = canonical_idempotents(sig)[:2]
            e12, e21 = interbasis_element(f1, f2)
            assert geometric_product(e12, e21) == f1
            assert geometric_product(e21, e12) == f2
            assert geometric_product(e12, e12).is_zero()
            assert geometric_product(f1, e12) == e12
            assert geometric_product(e12, f2) == e12

    def test_cross_component_not_simple(self):
        f_plus, f_minus = canonical_idempotents(Signature(0, 3))
        with pytest.raises(NotSimple):
            interbasis_element(f_plus, f_minus)

    def test_signature_mismatch(self):
        f = Multivector.one(Signature(2, 0))
        g = Multivector.one(Signature(0, 2))
        with pytest.raises(SignatureMismatch):
            interbasis_element(f, g)

    def test_coherent_family_delta_rule(self):
        # build E_ij := E_i1 * E_1j from pairwise solves against the first
        # idempotent; the family then satisfies E_ij E_lm = delta_jl E_im
        sig = Signature(2, 2)
        idems = canonical_idempotents(sig)
        assert len(idems) == 4
        count = len(idems)
        to_first = {0: (idems[0], idems[0])}
        for i in range(1, count):
            e_i1, e_1i = interbasis_element(idems[i], idems[0])
            to_first[i] = (e_i1, e_1i)
        units = {}
        for i in range(count):
            for j in range(count):
                units[i, j] = geometric_product(to_first[i][0], to_first[j][1])
        for i in range(count):
            assert units[i, i] == idems[i]
        zero = Multivector.zero(sig)
        for (i, j), (l, m) in itertools.product(units, repeat=2):
            product = geometric_product(units[i, j], units[l, m])
            if j == l:
                assert product == units[i, m]
                assert product != zero
            else:
                assert product == zero

    @pytest.mark.parametrize("sig", REGULAR_SIGS_5, ids=str)
    def test_matches_dense_system(self, sig):
        # the system keeps only the blades where a product or its target is
        # nonzero; the dropped rows read 0 = 0, so the solution is the same
        for f_i, f_j in itertools.combinations(canonical_idempotents(sig), 2):
            expected = reference_interbasis(f_i, f_j)
            if expected is None:
                with pytest.raises(NotSimple):
                    interbasis_element(f_i, f_j)
            else:
                assert interbasis_element(f_i, f_j) == expected

    def test_product_count(self, monkeypatch):
        # f_i*f_i = f_i, f_j*f_j = f_j and f_i*e_c = e_c*f_j by relabellings,
        # and E_ij, E_ji are relabellings of f_j and f_i: no product (up to 6
        # through the row reduction and the solve)
        f1, f2 = canonical_idempotents(Signature(3, 3))[:2]
        calls = count_products(monkeypatch)
        e12, e21 = interbasis_element(f1, f2)
        assert calls[0] == 0
        assert geometric_product(e12, e21) == f1 and geometric_product(e21, e12) == f2

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(SIGS_7_WITH_PAIRS + DEGENERATE_SIGS_WITH_PAIRS), st.integers(0, 127), st.integers(0, 126)
    )
    @example(Signature(2, 1), 1, 0)
    @example(Signature(4, 3), 4, 9)
    @example(Signature(0, 7), 1, 14)
    @example(Signature(2, 0), 0, 0)  # (1, f): no partial inverse
    @example(Signature(1, 0, 1), 1, 0)  # (1 + e1)/2 and (1 - e1)/2: a null leader
    def test_closed_form_matches_solve(self, sig, i, j):
        # ordered pairs of distinct elements of 1 and the canonical
        # idempotents (those of the regular part when s > 0): the leader's
        # relabellings and the fallback give what the full reduction and the
        # dense solve give, NotSimple exactly where a Peirce space is zero,
        # and NoSolution exactly where E_ij has no partial inverse
        pool = [Multivector.one(sig), *pair_idempotents(sig)]
        i %= len(pool)
        f_i, f_j = pool[i], pool[(i + 1 + j % (len(pool) - 1)) % len(pool)]
        expected = reference_interbasis(f_i, f_j)
        if expected is None:
            zero = not sandwich_rank(f_i, f_j) or not sandwich_rank(f_j, f_i)
            with pytest.raises(NotSimple if zero else NoSolution):
                interbasis_element(f_i, f_j)
        else:
            assert interbasis_element(f_i, f_j) == expected

    def test_conjugated_pair_takes_the_solve(self, monkeypatch):
        # a conjugate of a canonical pair is no product over the blades: its
        # E_ij is no relabelling of f_j, so the fallback's system is reduced
        # once.  On Cl(2,0) it is the one elimination with two columns, one
        # unknown and its right side; the spans of a conjugated pair reduce
        # one block over all four blades
        sig = Signature(2, 0)
        a = add(Multivector.one(sig), Multivector.basis_blade(sig, 0b11, 2))
        f1, f2 = (geometric_product(geometric_product(a, f), inverse(a)) for f in canonical_idempotents(sig))
        rref, widths = _linalg._integer_rref, []
        monkeypatch.setattr(_linalg, "_integer_rref", lambda m: widths.append(len(m[0])) or rref(m))
        assert interbasis_element(f1, f2) == reference_interbasis(f1, f2)
        assert widths.count(2) == 1 and widths[-1] == 2

    def test_null_leader_takes_the_solve(self):
        # on Cl(1,0,1) the first row of f_i * A * f_j is e2 + e12 = e2 * F_j,
        # and F_i * e2 = e2 * F_j, but e2 * e2 = 0: the closed form would give
        # E_ji = 0, so the solve runs and finds no partial inverse
        sig = Signature(1, 0, 1)
        half = Fraction(1, 2)
        f_i, f_j = (Multivector(sig, {0: half, 0b1: sign * half}) for sign in (1, -1))
        space, pivots = _blade_image_span(f_i, f_j, _product_form(f_i), _product_form(f_j))
        assert pivots[0] == 0b10 and space[0] == Multivector(sig, {0b10: 1, 0b11: 1})
        with pytest.raises(NoSolution):
            interbasis_element(f_i, f_j)

    def test_row_not_a_relabelling_takes_the_solve(self, monkeypatch):
        # a planted first row 2 * e_c * F_j keeps its pivot, its scale 1 and
        # F_i * e_c = e_c * F_j, but the closed form's E_ji inverts e_c * F_j,
        # not this row: only the solve gives a partial inverse of it
        f1, f2 = canonical_idempotents(Signature(2, 2))[:2]
        span = spinors._blade_image_span

        def planted(left, right, *forms):
            rows, pivots = span(left, right, *forms)
            return ((2 * rows[0], *rows[1:]), pivots) if (left, right) == (f1, f2) else (rows, pivots)

        monkeypatch.setattr(spinors, "_blade_image_span", planted)
        e12, e21 = interbasis_element(f1, f2)
        assert geometric_product(e12, e21) == f1 and geometric_product(e21, e12) == f2

    def test_one_has_no_partial_inverse(self):
        # 1 * A * f = A * f is not zero, but no E_ij there has a partial inverse
        f = canonical_idempotents(Signature(2, 0))[0]
        with pytest.raises(NoSolution):
            interbasis_element(Multivector.one(f.sig), f)

    def test_matrix_unit_family_spans_componentwise(self):
        # diagonal units recover the idempotents; off-diagonal ones are nilpotent
        sig = Signature(3, 1)
        idems = canonical_idempotents(sig)
        assert len(idems) == 4
        f1, f2 = idems[0], idems[1]
        e12, e21 = interbasis_element(f1, f2)
        assert geometric_product(e12, e12).is_zero()
        assert geometric_product(e21, e21).is_zero()


class TestIntertwiner:
    def test_conjugation_property(self):
        rng = random.Random(337)
        for sig in [Signature(2, 0), Signature(3, 0), Signature(2, 2)]:
            f1, f2 = canonical_idempotents(sig)[:2]
            result = representation_intertwiner(f1, f2)
            phi = [list(row) for row in result.matrix]
            phi_inv = [list(row) for row in result.inverse]
            assert mat_eq(
                _linalg.mat_mul(phi, phi_inv), _linalg.identity(result.target.dim)
            )
            for _ in range(10):
                a = rand_multivector(rng, sig, density=0.6)
                rep_i = regular_rep_matrix(a, result.source)
                rep_j = regular_rep_matrix(a, result.target)
                conjugated = _linalg.mat_mul(_linalg.mat_mul(phi, rep_i), phi_inv)
                assert mat_eq(rep_j, conjugated)

    def test_cross_component_rejected(self):
        f_plus, f_minus = canonical_idempotents(Signature(0, 3))
        with pytest.raises(NotSimple):
            representation_intertwiner(f_plus, f_minus)

    @pytest.mark.parametrize("which", ["E_ij", "E_ji"])
    def test_element_outside_its_ideal_rejected(self, monkeypatch, which):
        # psi * (1 - f_i) = 0 for every psi in A * f_i, so E_ij + 1 - f_i maps
        # every basis element into A * f_j and still inverts E_ji there; only
        # the membership check sees that it leaves A * f_j
        f1, f2 = canonical_idempotents(Signature(2, 2))[:2]
        e12, e21 = interbasis_element(f1, f2)
        one = Multivector.one(f1.sig)
        if which == "E_ij":
            planted = (add(e12, add(one, -f1)), e21)
        else:
            planted = (e12, add(e21, add(one, -f2)))
        monkeypatch.setattr(spinors, "interbasis_element", lambda f_i, f_j: planted)
        with pytest.raises(NoSolution, match=f"{which} leaves"):
            representation_intertwiner(f1, f2)

    def test_non_inverse_pair_rejected(self, monkeypatch):
        # 2 * E_ji still lies in A * f_i, so both membership checks pass; only
        # the identity check sees that psi -> psi * 2 E_ji inverts phi twice over
        f1, f2 = canonical_idempotents(Signature(2, 2))[:2]
        e12, e21 = interbasis_element(f1, f2)
        monkeypatch.setattr(spinors, "interbasis_element", lambda f_i, f_j: (e12, scalar_mul(2, e21)))
        with pytest.raises(NoSolution, match="intertwiner is not invertible"):
            representation_intertwiner(f1, f2)


COUNT_SIGS = [Signature(2, 2), Signature(3, 0), Signature(5, 5), Signature(2, 1)]  # the last is split


class TestCertificateCounts:
    """Each public spinor function calls _product_form once per idempotent it receives.

    left_ideal_basis passes the certificate to _blade_image_span and to the
    IdealBasis it builds, division_ring_info and interbasis_element pass
    theirs to _blade_image_span, and the CLI commands call each public
    function once.  The repeated certificates gave 4, 4, 3, 4, 12, 4 and 7.
    """

    @pytest.mark.parametrize("sig", COUNT_SIGS, ids=str)
    @pytest.mark.parametrize(
        "name, count",
        [
            ("left_ideal_basis", 1),
            ("faithful_ideal", 1),
            ("division_ring_info", 1),
            ("interbasis_element", 2),
            ("representation_intertwiner", 4),
            ("build_idempotent_set", None),  # one per member, 2^k
        ],
    )
    def test_library(self, monkeypatch, sig, name, count):
        idems = canonical_idempotents(sig)
        f = idems[0]
        g = next(h for h in idems[1:] if peirce_dimension(f, h))  # in f's simple component
        args = {
            "faithful_ideal": (sig,),
            "interbasis_element": (f, g),
            "representation_intertwiner": (f, g),
            "build_idempotent_set": (find_commuting_blades(sig),),
        }.get(name, (f,))
        calls = count_certificates(monkeypatch)
        getattr(spinors, name)(*args)
        if count is None:
            assert calls[0] == len(idems)
        else:
            assert calls[0] <= count if name == "representation_intertwiner" else calls[0] == count

    @pytest.mark.parametrize("sig", COUNT_SIGS, ids=str)
    @pytest.mark.parametrize("command", ["rep", "ideal", "ideal --faithful", "idempotents"])
    def test_cli(self, monkeypatch, capsys, sig, command):
        # ideal and ideal --faithful: the ideal, then division_ring_info, each
        # certifying once; a split faithful generator has no division ring
        expected = {
            "rep": 1,
            "ideal": 2,
            "ideal --faithful": 2 if is_simple(sig) else 1,
            "idempotents": 1 << idempotent_count_exponent(sig),
        }[command]
        argv = [*command.split(), "--sig", f"{sig.p},{sig.q}"] + (["e{1}"] if command == "rep" else [])
        calls = count_certificates(monkeypatch)
        assert cli.run(argv) == 0
        assert capsys.readouterr().err == ""
        assert calls[0] == expected


IDEAL_PLANTS = ["none", "negated term", "row doubled", "pivots swapped", "duplicated pivot", "stable, not e_p F"]


def planted_ideal(f, plant, i, j):
    """(basis, pivots) of A * f with one plant at row i, and row or term j.

    negated term: term j (mod the row's size) of row i negated; row doubled:
    row i times 2; pivots swapped: pivots i and j exchanged; duplicated
    pivot: row i and its pivot copied over row j and its pivot; stable, not
    e_p F: row j added to row i.
    """
    ideal = left_ideal_basis(f)
    basis, pivots = list(ideal.basis), list(ideal.pivots)
    b = basis[i]
    if plant == "negated term":
        mask = sorted(b._ints)[j % len(b._ints)]
        basis[i] = Multivector._scaled(f.sig, {m: -c if m == mask else c for m, c in b._ints.items()}, b._scale)
    elif plant == "row doubled":
        basis[i] = scalar_mul(2, b)
    elif plant == "pivots swapped":
        pivots[i], pivots[j] = pivots[j], pivots[i]
    elif plant == "duplicated pivot":
        basis[j], pivots[j] = b, pivots[i]
    elif plant == "stable, not e_p F":
        basis[i] = add(b, basis[j])
    return tuple(basis), tuple(pivots)


@st.composite
def ideal_plants(draw):
    """(f, plant, i, j) for planted_ideal: f a canonical idempotent of a regular
    signature with n <= 7, or its split faithful generator."""
    n = draw(st.integers(0, 7))
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    pool = list(canonical_idempotents(sig))
    if not is_simple(sig):
        pool.append(faithful_ideal(sig).generator)
    f = draw(st.sampled_from(pool))
    plant = draw(st.sampled_from(IDEAL_PLANTS))
    dim = left_ideal_dimension(f)
    i = draw(st.integers(0, dim - 1))
    if plant in ("pivots swapped", "duplicated pivot", "stable, not e_p F"):
        assume(dim > 1)
        j = draw(st.integers(0, dim - 1).filter(lambda j: j != i))
    else:
        j = draw(st.integers(0, 1 << n))
    return f, plant, i, j


class TestIdealBasisChecks:
    """IdealBasis passes a row e_p * F with one relabelling and tests the pivots
    through their set; the k relabellings and the dim^2 loop are the oracles."""

    @settings(max_examples=120, deadline=None)
    @given(ideal_plants())
    # a copied row whose pivot lies off the generator's support: the rebuild
    # of f, the rank and the blade index all pass, and only the distinctness
    # of the pivots rejects it
    @example((canonical_idempotents(Signature(3, 3))[0], "duplicated pivot", 1, 2))
    @example((faithful_ideal(Signature(2, 1)).generator, "duplicated pivot", 2, 1))
    @example((Multivector.one(Signature(0, 2)), "negated term", 1, 0))  # k = 0: -e_p is stable
    def test_checks_match_the_oracles(self, case):
        f, plant, i, j = case
        basis, pivots = planted_ideal(f, plant, i, j)
        if not reference_rows_stable(f, basis):
            expected = "basis element is not stabilized by the generator"
        elif not reference_pivots_hold(basis, pivots):
            expected = "basis is not 1 on its own pivot and 0 on the others"
        else:
            expected = None
        if plant == "none":
            assert expected is None
            assert IdealBasis(f, basis, len(basis), pivots) == left_ideal_basis(f)
        else:
            assert expected is not None
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                IdealBasis(f, basis, len(basis), pivots)
