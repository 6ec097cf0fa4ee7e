"""Acceptance gate: eleven exact criteria, one test per criterion.

Each test name carries its criterion number so `pytest -v` prints one
pass/fail line per criterion.  Everything is exact rational arithmetic with
zero tolerance; random corpora use fixed seeds.
"""

import itertools
import random
from fractions import Fraction

import pytest

from cliffalg import _linalg
from cliffalg import (
    BilinearForm,
    Multivector,
    NotInvertible,
    NotSimple,
    Signature,
    algebra_center,
    blade_mul,
    build_idempotent_set,
    cartan_dieudonne_factor,
    division_ring_info,
    embed_vector,
    faithful_ideal,
    find_commuting_blades,
    geometric_product,
    grade_involution,
    idempotent_count_exponent,
    in_pin,
    in_spin,
    interbasis_element,
    inverse,
    left_ideal_basis,
    left_ideal_dimension,
    lift_isometry,
    multiplication_table,
    norm_scalar,
    orthogonal_diagonalize,
    parse_multivector,
    peirce_dimension,
    pretty_print,
    quadratic_value,
    radon_hurwitz,
    reflection_matrix,
    regular_rep_matrix,
    representation_intertwiner,
    reversion,
    signature_of,
    twisted_adjoint_matrix,
)
from support import (
    all_signatures,
    complex_mul,
    mat2_mul,
    mat_eq,
    mat_scale,
    normalize_word,
    pair_mul,
    quaternion_mul,
    rand_anisotropic_vector,
    rand_multivector,
    rank,
    scale_tuple,
    split_mul,
    word_to_multivector,
)

REFLECTION_SIGS = [
    Signature(2, 0),
    Signature(0, 2),
    Signature(1, 1),
    Signature(3, 0),
    Signature(1, 3),
]


def flatten(item):
    if isinstance(item, tuple):
        out = []
        for part in item:
            out.extend(flatten(part))
        return out
    return [Fraction(item)]


@pytest.fixture(scope="module")
def isometry_corpus():
    """100 isometries per signature, each a product of <= n reflections."""
    rng = random.Random(20260819)
    corpus = {}
    for sig in REFLECTION_SIGS:
        form = BilinearForm.from_signature(sig)
        mats = []
        for _ in range(100):
            m = _linalg.identity(sig.n)
            for _ in range(rng.randint(0, sig.n)):
                w = rand_anisotropic_vector(rng, form)
                m = _linalg.mat_mul(m, reflection_matrix(form, w).rows())
            mats.append(m)
        corpus[sig] = mats
    return corpus


def test_criterion_01_worked_example_isomorphisms():
    i, j, k = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    hh_mul = pair_mul(quaternion_mul)

    def quaternion_pair_images():
        # generator images extended multiplicatively over ascending masks
        gens = {0b001: ((0, -1, 0, 0), i), 0b010: (j, scale_tuple(-1, j)), 0b100: (k, scale_tuple(-1, k))}
        images = {0: ((1, 0, 0, 0), (1, 0, 0, 0))}
        for mask in range(1, 8):
            low = mask & -mask
            images[mask] = gens[low] if mask == low else hh_mul(gens[low], images[mask ^ low])
        return images

    cases = [
        (
            Signature(0, 1),
            complex_mul,
            {0: (1, 0), 1: (0, 1)},
        ),
        (
            Signature(1, 0),
            split_mul,
            {0: (1, 1), 1: (1, -1)},
        ),
        (
            Signature(0, 2),
            quaternion_mul,
            {0b00: (1, 0, 0, 0), 0b01: i, 0b10: j, 0b11: k},
        ),
        (
            Signature(2, 0),
            mat2_mul,
            {
                0b00: ((1, 0), (0, 1)),
                0b01: ((0, 1), (1, 0)),
                0b10: ((1, 0), (0, -1)),
                0b11: ((0, -1), (1, 0)),
            },
        ),
        (Signature(0, 3), hh_mul, quaternion_pair_images()),
    ]
    for sig, model_mul, images in cases:
        dim = 1 << sig.n
        assert set(images) == set(range(dim))
        # the map must be a linear bijection onto the model
        assert rank([flatten(images[m]) for m in range(dim)]) == dim
        # and a unital homomorphism on every basis pair
        for a in range(dim):
            for b in range(dim):
                coef, mask = blade_mul(a, b, sig)
                assert model_mul(images[a], images[b]) == scale_tuple(coef, images[mask]), (
                    sig,
                    a,
                    b,
                )
    # frozen derived images for the three-generator split case
    images = quaternion_pair_images()
    assert images[0b011] == (scale_tuple(-1, k), scale_tuple(-1, k))
    assert images[0b101] == (j, j)
    assert images[0b110] == (i, i)
    assert images[0b111] == ((1, 0, 0, 0), (-1, 0, 0, 0))


def test_criterion_02_standard_basis_and_presentation():
    for sig in all_signatures(8):
        dim = 1 << sig.n
        zero_mask = 0
        for t in range(sig.n):
            if sig.generator_square(t + 1) == 0:
                zero_mask |= 1 << t
        table = multiplication_table(sig, cap=16)
        # exactly 2^n basis blades
        assert len(table) == dim and all(len(row) == dim for row in table)
        # blade products stay in the blade set: one signed blade or zero
        for a in range(dim):
            row = table[a]
            for b in range(dim):
                coef, mask = row[b]
                assert mask == a ^ b
                assert coef in (0, 1, -1)
                assert (coef == 0) == bool(a & b & zero_mask)
        # presentation relations on every generator pair, exhaustively
        for x in range(sig.n):
            gx = 1 << x
            assert table[gx][gx] == (Fraction(sig.generator_square(x + 1)), 0)
            for y in range(x + 1, sig.n):
                gy = 1 << y
                cxy, mxy = table[gx][gy]
                cyx, myx = table[gy][gx]
                assert mxy == myx == gx | gy
                assert cxy == 1 and cyx == -1


def test_criterion_03_involution_suite():
    # unary laws exhaustively on blades for n <= 5
    for sig in all_signatures(5):
        for mask in range(1 << sig.n):
            b = Multivector.basis_blade(sig, mask)
            gi = grade_involution(b)
            rev = reversion(b)
            assert grade_involution(gi) == b
            assert reversion(rev) == b
            conj = parse_multivector(f"conj({pretty_print(b)})", sig)
            assert conj == grade_involution(rev) == reversion(gi)
    # antiautomorphism law exhaustively on blade pairs for n <= 5
    for sig in all_signatures(5):
        dim = 1 << sig.n
        for a in range(dim):
            x = Multivector.basis_blade(sig, a)
            rx = reversion(x)
            for b in range(dim):
                y = Multivector.basis_blade(sig, b)
                assert reversion(geometric_product(x, y)) == geometric_product(reversion(y), rx)
    # plus 200 random products
    rng = random.Random(303)
    sigs = [Signature(2, 1), Signature(1, 1, 1), Signature(0, 3), Signature(2, 2)]
    for trial in range(200):
        sig = sigs[trial % len(sigs)]
        x = rand_multivector(rng, sig, density=0.6)
        y = rand_multivector(rng, sig, density=0.6)
        xy = geometric_product(x, y)
        assert reversion(xy) == geometric_product(reversion(y), reversion(x))
        assert grade_involution(xy) == geometric_product(grade_involution(x), grade_involution(y))
        assert grade_involution(grade_involution(xy)) == xy


def test_criterion_04_twisted_adjoint_is_reflection():
    rng = random.Random(404)
    checked = 0
    for sig in REFLECTION_SIGS:
        form = BilinearForm.from_signature(sig)
        for _ in range(20):
            w = rand_anisotropic_vector(rng, form)
            x = embed_vector(w, sig)
            assert twisted_adjoint_matrix(x).rows() == reflection_matrix(form, w).rows()
            checked += 1
    assert checked == 100


def test_criterion_05_kernel_facts():
    rng = random.Random(505)
    # rho_x = rho_{-x} on vectors and on random group elements
    for sig in REFLECTION_SIGS:
        form = BilinearForm.from_signature(sig)
        for _ in range(10):
            x = embed_vector(rand_anisotropic_vector(rng, form), sig)
            for _ in range(rng.randint(0, 2)):
                x = geometric_product(x, embed_vector(rand_anisotropic_vector(rng, form), sig))
            assert twisted_adjoint_matrix(x) == twisted_adjoint_matrix(-x)
    # the degenerate counterexample: x = 1 + e1*e2 in Cl(0,0,2)
    sig = Signature(0, 0, 2)
    x = parse_multivector("1+e1*e2", sig)
    assert not x.is_scalar()
    assert inverse(x) == parse_multivector("1-e12", sig)
    assert twisted_adjoint_matrix(x).rows() == _linalg.identity(2)
    assert twisted_adjoint_matrix(-x).rows() == _linalg.identity(2)


def test_criterion_06_cartan_dieudonne(isometry_corpus):
    at_most_n = 0
    total = 0
    for sig, mats in isometry_corpus.items():
        form = BilinearForm.from_signature(sig)
        for m in mats:
            vectors = cartan_dieudonne_factor(form, m)
            assert len(vectors) <= 2 * sig.n
            recomposed = _linalg.identity(sig.n)
            for w in vectors:
                assert quadratic_value(form, w) != 0
                recomposed = _linalg.mat_mul(recomposed, reflection_matrix(form, w).rows())
            assert mat_eq(recomposed, m)
            total += 1
            if len(vectors) <= sig.n:
                at_most_n += 1
    assert total == 500
    fraction = Fraction(at_most_n, total)
    print(f"\nfactorizations with <= n reflections: {at_most_n}/{total} = {float(fraction):.3f}")
    assert 0 < fraction <= 1


def test_criterion_07_pin_spin_lifting(isometry_corpus):
    for sig, mats in isometry_corpus.items():
        for m in mats:
            lift = lift_isometry(sig, m)
            assert twisted_adjoint_matrix(lift.element).rows() == m
            if _linalg.determinant(m) > 0:
                assert all(g % 2 == 0 for g in lift.element.grades())
            if not lift.needs_normalization:
                assert lift.n_value in (1, -1)
                assert in_pin(lift.element)
    # Pin(1) in Cl(0,1): the four elements, closure, and the Z4 order profile
    sig = Signature(0, 1)
    one = Multivector.one(sig)
    e1 = Multivector.generator(sig, 1)
    pin1 = [one, -one, e1, -e1]
    assert all(in_pin(x) for x in pin1)
    for x in pin1:
        for y in pin1:
            assert geometric_product(x, y) in pin1
    orders = {1: 0, 2: 0, 4: 0}
    for x in pin1:
        power, order = x, 1
        while power != one:
            power, order = geometric_product(power, x), order + 1
        orders[order] += 1
    assert orders == {1: 1, 2: 1, 4: 2}
    # rational Spin(2) points from Pythagorean triples: doubled-angle rotations
    sig = Signature(0, 2)
    for a_int, b_int, c_int in [(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29)]:
        a, b = Fraction(a_int, c_int), Fraction(b_int, c_int)
        x = Multivector(sig, {0: a, 0b11: b})
        assert norm_scalar(x) == 1
        assert in_spin(x)
        expected = [[a * a - b * b, -2 * a * b], [2 * a * b, a * a - b * b]]
        assert twisted_adjoint_matrix(x).rows() == expected
        lifted = lift_isometry(sig, expected)
        assert lifted.element in (x, -x)
    assert twisted_adjoint_matrix(
        Multivector(sig, {0: Fraction(3, 5), 0b11: Fraction(4, 5)})
    ).rows() == [
        [Fraction(-7, 25), Fraction(-24, 25)],
        [Fraction(24, 25), Fraction(-7, 25)],
    ]


def test_criterion_08_idempotent_structure():
    for sig in all_signatures(8, degenerate=False):
        k = idempotent_count_exponent(sig)
        assert k == sig.q - radon_hurwitz(sig.q - sig.p)
        blades = find_commuting_blades(sig, cap=16)
        idset = build_idempotent_set(blades)  # validates f*f = f, orthogonality, sum = 1
        idems = idset.idems
        assert len(idems) == 1 << k
        total = Multivector.zero(sig)
        for f in idems:
            total = total + f
        assert total == Multivector.one(sig)
        if sig.n <= 6:
            for x, f in enumerate(idems):
                assert geometric_product(f, f) == f
                for g in idems[x + 1 :]:
                    assert geometric_product(f, g).is_zero()
                    assert geometric_product(g, f).is_zero()
        # every minimal ideal has dimension 2^(n-k)
        for f in idems:
            assert left_ideal_dimension(f) == 1 << (sig.n - k)
        if sig.n <= 3:
            for f in idems:
                assert left_ideal_basis(f).dim == 1 << (sig.n - k)
        # division-ring dimension in {1,2,4}, uniform across the set
        ring_dims = {peirce_dimension(f, f) for f in idems}
        assert len(ring_dims) == 1
        ring_dim = ring_dims.pop()
        assert ring_dim in (1, 2, 4)
        if sig.n <= 5:
            kinds = {division_ring_info(f).kind for f in idems}
            assert kinds == {{1: "R", 2: "C", 4: "H"}[ring_dim]}
        # center dimension in {1,2}; the double algebras all have dimension 2
        center = algebra_center(sig)
        assert len(center) in (1, 2)
        assert len(center) == (2 if sig.n % 2 else 1)
        double = (sig.p - sig.q) % 4 == 1
        if double:
            assert len(center) == 2
            z = center[1]
            assert geometric_product(z, z) == Multivector.one(sig)
    # cross-checks against the split examples: quaternion pair and split reals
    sig = Signature(0, 3)
    f_plus, f_minus = build_idempotent_set(find_commuting_blades(sig)).idems
    assert division_ring_info(f_plus).kind == "H"
    assert division_ring_info(f_minus).kind == "H"
    assert peirce_dimension(f_plus, f_minus) == 0
    assert faithful_ideal(sig).dim == 8
    sig = Signature(1, 0)
    g_plus, g_minus = build_idempotent_set(find_commuting_blades(sig)).idems
    assert division_ring_info(g_plus).kind == "R"
    assert division_ring_info(g_minus).kind == "R"
    assert faithful_ideal(sig).dim == 2


def test_criterion_09_representation_suite():
    rng = random.Random(909)
    rep_sigs = [
        Signature(1, 0),
        Signature(0, 2),
        Signature(2, 0),
        Signature(3, 0),
        Signature(0, 3),
        Signature(1, 3),
    ]
    for sig in rep_sigs:
        ideal = faithful_ideal(sig)
        assert mat_eq(
            regular_rep_matrix(Multivector.one(sig), ideal), _linalg.identity(ideal.dim)
        )
        for _ in range(50):
            x = rand_multivector(rng, sig, density=0.5)
            y = rand_multivector(rng, sig, density=0.5)
            lhs = regular_rep_matrix(geometric_product(x, y), ideal)
            rhs = _linalg.mat_mul(regular_rep_matrix(x, ideal), regular_rep_matrix(y, ideal))
            assert mat_eq(lhs, rhs)
    # spacetime generators on the faithful ideal: 8x8 exact gamma matrices
    sig = Signature(1, 3)
    ideal = faithful_ideal(sig)
    assert ideal.dim == 8
    gammas = [
        regular_rep_matrix(Multivector.generator(sig, t), ideal) for t in range(1, 5)
    ]
    identity = _linalg.identity(8)
    assert mat_eq(_linalg.mat_mul(gammas[0], gammas[0]), identity)
    for t in (1, 2, 3):
        assert mat_eq(
            _linalg.mat_mul(gammas[t], gammas[t]), mat_scale(Fraction(-1), identity)
        )
    for a in range(4):
        for b in range(a + 1, 4):
            ab = _linalg.mat_mul(gammas[a], gammas[b])
            ba = _linalg.mat_mul(gammas[b], gammas[a])
            assert mat_eq(ab, mat_scale(Fraction(-1), ba))
    # representation equivalence through interbasis elements
    for sig in [Signature(2, 0), Signature(3, 0)]:
        f1, f2 = build_idempotent_set(find_commuting_blades(sig)).idems
        eq = representation_intertwiner(f1, f2)
        phi = [list(row) for row in eq.matrix]
        phi_inv = [list(row) for row in eq.inverse]
        for _ in range(10):
            a = rand_multivector(rng, sig, density=0.6)
            conjugated = _linalg.mat_mul(
                _linalg.mat_mul(phi, regular_rep_matrix(a, eq.source)), phi_inv
            )
            assert mat_eq(regular_rep_matrix(a, eq.target), conjugated)
    # the split quaternion pair: components are genuinely inequivalent
    sig = Signature(0, 3)
    f_plus, f_minus = build_idempotent_set(find_commuting_blades(sig)).idems
    with pytest.raises(NotSimple):
        interbasis_element(f_plus, f_minus)
    z = algebra_center(sig)[1]
    half = Fraction(1, 2)
    c_minus = half * (Multivector.one(sig) - z)
    plus_ideal = left_ideal_basis(f_plus)
    minus_ideal = left_ideal_basis(f_minus)
    zero4 = [[Fraction(0)] * 4 for _ in range(4)]
    assert mat_eq(regular_rep_matrix(c_minus, plus_ideal), zero4)
    assert not mat_eq(regular_rep_matrix(c_minus, minus_ideal), zero4)
    # non-simple algebras: single-ideal representation has a kernel, the
    # faithful ideal's does not (matrix images of the blades stay independent)
    for sig in [Signature(1, 0), Signature(0, 3), Signature(2, 1)]:
        dim = 1 << sig.n
        full = faithful_ideal(sig)
        rows = []
        for mask in range(dim):
            matrix = regular_rep_matrix(Multivector.basis_blade(sig, mask), full)
            rows.append([entry for row in matrix for entry in row])
        assert rank(rows) == dim
        single = left_ideal_basis(build_idempotent_set(find_commuting_blades(sig)).idems[0])
        rows = []
        for mask in range(dim):
            matrix = regular_rep_matrix(Multivector.basis_blade(sig, mask), single)
            rows.append([entry for row in matrix for entry in row])
        assert rank(rows) < dim


def test_criterion_10_exact_diagonalization():
    rng = random.Random(1010)
    for trial in range(200):
        n = trial % 6 + 1
        rows = [[Fraction(0)] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                value = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                rows[a][b] = rows[b][a] = value
        form = BilinearForm.from_rows(rows)
        outcome = orthogonal_diagonalize(form)
        basis = outcome.basis_rows()
        assert _linalg.determinant(basis) != 0
        lhs = _linalg.mat_mul(_linalg.mat_mul(_linalg.transpose(basis), form.rows()), basis)
        diagonal = [
            [outcome.diag[a] if a == b else Fraction(0) for b in range(n)] for a in range(n)
        ]
        assert mat_eq(lhs, diagonal)
        # Sylvester: the signature is invariant under random congruence
        for _ in range(10):
            while True:
                t = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
                if _linalg.determinant(t) != 0:
                    break
            moved = _linalg.mat_mul(_linalg.mat_mul(_linalg.transpose(t), form.rows()), t)
            assert signature_of(BilinearForm.from_rows(moved)) == outcome.signature


def test_criterion_11_parser_round_trip_and_quotient():
    rng = random.Random(1111)
    for sig in all_signatures(6):
        for _ in range(100):
            x = rand_multivector(rng, sig, density=0.3)
            assert parse_multivector(pretty_print(x), sig) == x
    # quotient soundness: every generator word of length <= 5 for n <= 3
    # evaluates to the value computed by the independent rewriting oracle
    for sig in all_signatures(3):
        if sig.n == 0:
            continue
        alphabet = range(1, sig.n + 1)
        for length in range(1, 6):
            for word in itertools.product(alphabet, repeat=length):
                text = "e" + "".join(str(t) for t in word)
                value = parse_multivector(text, sig)
                sign, reduced = normalize_word(list(word), sig)
                expected = Multivector.basis_blade(
                    sig, sum(1 << (t - 1) for t in reduced), sign
                )
                assert value == expected, (sig, word)
                assert value == word_to_multivector(word, sig)
