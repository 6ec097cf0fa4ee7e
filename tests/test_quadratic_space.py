"""Quadratic forms: diagonalization, classification, reflections, the
constructive isometry factorization, and the shared text formats."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cliffalg import _linalg, quadratic_space
from cliffalg import (
    BilinearForm,
    DegenerateForm,
    DimensionMismatch,
    IsometryMatrix,
    IsotropicVector,
    NotAnIsometry,
    ParseError,
    Signature,
    ZeroVector,
    cartan_dieudonne_factor,
    classify_vector,
    det_sign,
    evaluate_form,
    format_matrix,
    format_rational,
    format_vector,
    is_degenerate,
    is_isometry,
    orthogonal_diagonalize,
    parse_matrix,
    parse_rational,
    parse_vector,
    quadratic_value,
    reflection_matrix,
    signature_of,
)
from cliffalg.core_algebra import MAX_LITERAL_DIGITS
from cliffalg.quadratic_space import parse_scaled_matrix, parse_scaled_vector
from support import (
    mat_eq,
    mat_vec,
    rand_anisotropic_vector,
    rand_fraction,
    rand_isometry,
    rand_vector,
    reference_cartan_dieudonne,
    reference_evaluate_form,
    reference_is_isometry,
    reference_parse_matrix,
    reference_parse_rational,
    reference_parse_vector,
    reference_reflection_matrix,
)


@st.composite
def symmetric_rows(draw):
    """A symmetric Fraction matrix with n <= 5, dense and with denominators."""
    n = draw(st.integers(0, 5))
    entries = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entries)
    return rows


@st.composite
def forms_and_vectors(draw):
    """A form of symmetric_rows and two vectors of length n."""
    rows = draw(symmetric_rows())
    vector = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30), min_size=len(rows), max_size=len(rows))
    return BilinearForm.from_rows(rows), draw(vector), draw(vector)


def rand_symmetric(rng, n, span=4):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            value = Fraction(rng.randint(-span, span))
            rows[i][j] = rows[j][i] = value
    return rows


@st.composite
def forms(draw, regular=True):
    """A form with 1 <= n <= 5, diagonal or not; with regular=False it may be degenerate."""
    n = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    if draw(st.booleans()):
        diagonal_entry = entry.filter(bool) if regular else entry
        return BilinearForm.diagonal(draw(st.lists(diagonal_entry, min_size=n, max_size=n)))
    upper = iter(draw(st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(next(upper), draw(st.sampled_from([1, 1, 2, 3])))
    form = BilinearForm.from_rows(rows)
    if regular:
        assume(signature_of(form)[2] == 0)
    return form


@st.composite
def regular_isometries(draw):
    """(form, M): a regular form with n <= 5, diagonal or not, and a product of reflections."""
    form = draw(forms())
    n = form.n
    entry = st.integers(-3, 3)
    m = _linalg.identity(n)
    for w in draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=2 * n)):
        if quadratic_value(form, w) != 0:
            m = _linalg.mat_mul(m, reflection_matrix(form, w).rows())
    return form, m


@st.composite
def isometry_candidates(draw):
    """(form, M) on a form that may be degenerate: a product of reflections, the
    same with one entry changed, or, on a diagonal form, the same with its
    radical columns zeroed, which keeps M^T B M = B but makes M singular."""
    form = draw(forms(regular=False))
    n = form.n
    m = _linalg.identity(n)
    for w in draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=n)):
        if quadratic_value(form, w) != 0:
            m = _linalg.mat_mul(m, reflection_matrix(form, w).rows())
    change = draw(st.sampled_from(["none", "entry", "radical"]))
    if change == "entry":
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[r][c] += draw(st.sampled_from([-1, 1, Fraction(1, 2), Fraction(-2, 3)]))
    elif change == "radical" and all(form.mat[i][j] == 0 for i in range(n) for j in range(n) if i != j):
        m = [[x if form.mat[c][c] else Fraction(0) for c, x in enumerate(row)] for row in m]
    return form, m


# M v_1 - v_1 = (-1, 0, 1) is isotropic for the first basis vector v_1 = e_1 of
# this non-diagonal form, so the factorization takes the pair branch there
ISOTROPIC_PAIR_CASE = (
    BilinearForm.from_rows([[-1, 1, -1], [1, 0, 0], [-1, 0, -1]]),
    [[0, Fraction(1, 2), -1], [0, 1, 0], [1, Fraction(-3, 2), 2]],
)


def congruence_holds(form, result):
    p = result.basis_rows()
    lhs = _linalg.mat_mul(_linalg.mat_mul(_linalg.transpose(p), form.rows()), p)
    d = [
        [result.diag[i] if i == j else Fraction(0) for j in range(form.n)]
        for i in range(form.n)
    ]
    return mat_eq(lhs, d)


class TestBilinearForm:
    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            BilinearForm.from_rows([[0, 1], [0, 0]])

    def test_square_required(self):
        with pytest.raises(DimensionMismatch):
            BilinearForm.from_rows([[1, 0]])

    def test_from_signature(self):
        form = BilinearForm.from_signature(Signature(1, 2, 1))
        assert form.rows() == [
            [1, 0, 0, 0],
            [0, -1, 0, 0],
            [0, 0, -1, 0],
            [0, 0, 0, 0],
        ]

    def test_evaluate(self):
        form = BilinearForm.from_rows([[0, 1], [1, 0]])
        assert evaluate_form(form, [1, 0], [0, 1]) == 1
        assert quadratic_value(form, [1, 1]) == 2
        with pytest.raises(DimensionMismatch):
            evaluate_form(form, [1], [0, 1])

    def test_integer_numerators_held(self):
        form = BilinearForm.from_rows([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 6)]])
        assert (form._ints, form._scale) == (((2, 3), (3, -1)), 6)
        assert form == BilinearForm.from_rows(form.rows())
        assert hash(form) == hash(BilinearForm.from_rows(form.rows()))

    def test_signature_form_from_fraction_rows(self):
        squares = [1, 1, -1, 0]
        rows = [[Fraction(d) if i == j else Fraction(0) for j in range(4)] for i, d in enumerate(squares)]
        form = BilinearForm.from_signature(Signature(2, 1, 1))
        assert BilinearForm.from_rows(rows) == form
        assert hash(BilinearForm.from_rows(rows)) == hash(form)
        # the same value written over 3 is held over 1
        tripled = BilinearForm(tuple(tuple(3 * x for x in row) for row in form._ints), 3)
        assert (tripled._ints, tripled._scale) == (form._ints, 1)
        assert tripled == form and hash(tripled) == hash(form)

    @settings(max_examples=80, deadline=None)
    @given(symmetric_rows())
    def test_rows_and_mat_match_fraction_oracle(self, rows):
        form = BilinearForm.from_rows(rows)
        assert form.rows() == rows
        assert form.mat == tuple(map(tuple, rows))
        assert form.n == len(rows)
        # held over the least scale, the lcm of the reduced denominators, whatever scale it was written over
        assert form._scale == math.lcm(*(x.denominator for row in rows for x in row))
        doubled = BilinearForm(tuple(tuple(2 * x for x in row) for row in form._ints), 2 * form._scale)
        assert (doubled._ints, doubled._scale) == (form._ints, form._scale)

    @settings(max_examples=80, deadline=None)
    @given(forms_and_vectors())
    def test_evaluate_matches_fraction_formula(self, case):
        form, u, v = case
        assert evaluate_form(form, u, v) == reference_evaluate_form(form, u, v)
        assert quadratic_value(form, u) == reference_evaluate_form(form, u, u)
        with pytest.raises(DimensionMismatch):
            evaluate_form(form, u + [1], v)
        with pytest.raises(DimensionMismatch):
            quadratic_value(form, v + [Fraction(1, 3)])


class TestClassify:
    def test_minkowski(self):
        form = BilinearForm.from_signature(Signature(1, 1))
        assert classify_vector(form, [2, 1]) == "timelike"
        assert classify_vector(form, [1, 2]) == "spacelike"
        assert classify_vector(form, [1, 1]) == "lightlike"
        assert classify_vector(form, [1, -1]) == "lightlike"

    def test_zero_vector_rejected(self):
        form = BilinearForm.from_signature(Signature(1, 1))
        with pytest.raises(ZeroVector):
            classify_vector(form, [0, 0])


class TestDiagonalize:
    def test_random_congruence_exact(self):
        rng = random.Random(101)
        for n in range(1, 6):
            for _ in range(40):
                form = BilinearForm.from_rows(rand_symmetric(rng, n))
                result = orthogonal_diagonalize(form)
                assert congruence_holds(form, result)
                p, q, s = result.signature
                assert p + q + s == n
                assert sum(1 for d in result.diag if d > 0) == p
                assert sum(1 for d in result.diag if d < 0) == q
                assert result.diag.count(Fraction(0)) == s
                assert _linalg.determinant(result.basis_rows()) != 0

    def test_zero_pivot_rescue(self):
        # hyperbolic plane: both diagonal entries are zero
        form = BilinearForm.from_rows([[0, 1], [1, 0]])
        result = orthogonal_diagonalize(form)
        assert congruence_holds(form, result)
        assert result.signature == (1, 1, 0)

    def test_zero_pivot_swap_branch(self):
        form = BilinearForm.from_rows([[0, 1, 0], [1, 1, 0], [0, 0, 3]])
        result = orthogonal_diagonalize(form)
        assert congruence_holds(form, result)
        assert result.signature[2] == 0

    def test_deterministic(self):
        form = BilinearForm.from_rows([[0, 1], [1, 0]])
        assert orthogonal_diagonalize(form) == orthogonal_diagonalize(form)

    def test_signature_is_congruence_invariant(self):
        rng = random.Random(103)
        for _ in range(25):
            n = rng.randint(1, 4)
            form = BilinearForm.from_rows(rand_symmetric(rng, n))
            while True:
                t = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
                if _linalg.determinant(t) != 0:
                    break
            moved = _linalg.mat_mul(_linalg.mat_mul(_linalg.transpose(t), form.rows()), t)
            assert signature_of(BilinearForm.from_rows(moved)) == signature_of(form)

    def test_is_degenerate(self):
        assert is_degenerate(BilinearForm.from_signature(Signature(1, 0, 1)))
        assert not is_degenerate(BilinearForm.from_signature(Signature(1, 1)))
        assert is_degenerate(BilinearForm.from_rows([[1, 1], [1, 1]]))


class TestReflection:
    def test_euclidean_axis_example(self):
        form = BilinearForm.diagonal([1, 1])
        m = reflection_matrix(form, [1, 0])
        assert m.rows() == [[-1, 0], [0, 1]]

    def test_core_properties_random(self):
        rng = random.Random(107)
        for diag in ([1, 1], [1, -1], [1, 1, 1], [-1, -1, 3], [2, -3, 5, 7]):
            form = BilinearForm.diagonal(diag)
            for _ in range(15):
                x = rand_anisotropic_vector(rng, form)
                m = reflection_matrix(form, x)
                rows = m.rows()
                # negates the axis
                assert mat_vec(rows, _linalg.to_vector(x)) == [
                    -c for c in _linalg.to_vector(x)
                ]
                # involutive isometry of determinant -1
                assert mat_eq(_linalg.mat_mul(rows, rows), _linalg.identity(form.n))
                assert is_isometry(form, rows)
                assert det_sign(m) == -1
                # depends only on the line through x
                scaled = [Fraction(-7, 3) * c for c in _linalg.to_vector(x)]
                assert reflection_matrix(form, scaled).rows() == rows

    def test_equal_lines_give_equal_values(self):
        form = BilinearForm.diagonal([1, -1, Fraction(1, 2)])
        w = [1, 2, 1]
        a, b = reflection_matrix(form, w), reflection_matrix(form, [3 * x for x in w])
        # 3w has q nine times larger, so its integer rows are brought down to the same least scale
        assert (a._ints, a._scale) == (b._ints, b._scale)
        assert a == b and hash(a) == hash(b)

    def test_fixes_orthogonal_complement(self):
        form = BilinearForm.diagonal([1, 1, 1])
        rows = reflection_matrix(form, [1, 1, 0]).rows()
        for u in ([1, -1, 0], [0, 0, 1]):
            assert mat_vec(rows, _linalg.to_vector(u)) == _linalg.to_vector(u)

    @settings(max_examples=150, deadline=None)
    @given(forms(), st.data())
    def test_matches_fraction_formula(self, form, data):
        entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
        x = data.draw(st.lists(entry, min_size=form.n, max_size=form.n))
        expected = reference_reflection_matrix(form, x)
        if expected is None:
            with pytest.raises(IsotropicVector):
                reflection_matrix(form, x)
        else:
            assert reflection_matrix(form, x).rows() == expected

    def test_isotropic_axis_rejected(self):
        form = BilinearForm.from_signature(Signature(1, 1))
        with pytest.raises(IsotropicVector):
            reflection_matrix(form, [1, 1])
        with pytest.raises(IsotropicVector):
            reflection_matrix(BilinearForm.from_signature(Signature(1, 0, 1)), [0, 1])

    def test_dimension_checked(self):
        form = BilinearForm.diagonal([1, 1])
        with pytest.raises(DimensionMismatch):
            reflection_matrix(form, [1, 0, 0])


class TestIsometryChecks:
    def test_is_isometry(self):
        form = BilinearForm.diagonal([1, 1])
        assert is_isometry(form, _linalg.identity(2))
        assert is_isometry(form, [[0, -1], [1, 0]])
        assert not is_isometry(form, [[2, 0], [0, 1]])
        assert not is_isometry(form, [[1, 0]])

    def test_wrong_shape_is_false(self):
        form = BilinearForm.from_signature(Signature(2, 0))
        assert not is_isometry(form, [[1, 0], [0]])
        assert not is_isometry(form, [[1, 0, 0], [0, 1, 0]])

    def test_singular_matrix_on_degenerate_form(self):
        # M^T B M = B holds; only the determinant rules M out
        form = BilinearForm.diagonal([1, 0])
        m = [[1, 0], [0, 0]]
        assert mat_eq(_linalg.mat_mul(_linalg.mat_mul(_linalg.transpose(m), form.rows()), m), form.rows())
        assert not is_isometry(form, m)

    @settings(max_examples=200, deadline=None)
    @given(isometry_candidates())
    @example((BilinearForm.diagonal([Fraction(1, 2), -3]), [[1, 0], [0, -1]]))
    def test_matches_fraction_check(self, case):
        form, m = case
        assert is_isometry(form, m) == reference_is_isometry(form, m)

    def test_certified_wrapper(self):
        form = BilinearForm.diagonal([1, 1])
        with pytest.raises(NotAnIsometry):
            IsometryMatrix.from_rows(form, [[2, 0], [0, 1]])

    def test_certified_wrapper_checks_size(self):
        form = BilinearForm.diagonal([1, -1])
        for rows in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0]], [[1, 0]]):
            with pytest.raises(DimensionMismatch, match="^isometry matrix size does not match the form$"):
                IsometryMatrix.from_rows(form, rows)
        assert IsometryMatrix.from_rows(form, [[1, 0], [0, -1]]).n == 2
        assert reflection_matrix(BilinearForm.diagonal([1, 1, 1]), [1, 2, 3]).n == 3

    def test_scaled_matrix_read_as_it_is(self):
        form = BilinearForm.diagonal([1, -1])
        # (5/3, 4/3; 4/3, 5/3) over scale 3, and the same value over scale 6
        assert is_isometry(form, _linalg.ScaledMatrix([[5, 4], [4, 5]], 3))
        assert is_isometry(form, _linalg.ScaledMatrix([[10, 8], [8, 10]], 6))
        assert not is_isometry(form, _linalg.ScaledMatrix([[5, 4], [4, 5]], 2))
        assert not is_isometry(form, _linalg.ScaledMatrix([[1, 0, 0], [0, 1, 0]], 1))

    def test_det_sign(self):
        assert det_sign([[0, -1], [1, 0]]) == 1
        assert det_sign([[0, 1], [1, 0]]) == -1
        with pytest.raises(ValueError):
            det_sign([[1, 1], [1, 1]])


class TestFloatsRefused:
    """A float or a string is a TypeError, never a 53-bit Fraction."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: BilinearForm.from_rows([[0.1, 0], [0, 1]]),
            lambda: BilinearForm.diagonal([1, 0.5]),
            lambda: evaluate_form(BilinearForm.diagonal([1, 1]), [0.1, 0], [1, 0]),
            lambda: quadratic_value(BilinearForm.diagonal([1, 1]), [1, 1.0]),
            lambda: format_rational(0.1),
            lambda: format_rational("1/2"),
            lambda: format_vector([1, 0.1]),
            lambda: is_isometry(BilinearForm.diagonal([1, 1]), [[1.0, 0], [0, 1]]),
            lambda: IsometryMatrix.from_rows(BilinearForm.diagonal([1, 1]), [[1.0, 0], [0, 1]]),
            lambda: reflection_matrix(BilinearForm.diagonal([1, 1]), [1.0, 0]),
        ],
        ids=[
            "from_rows",
            "diagonal",
            "evaluate_form",
            "quadratic_value",
            "format_rational",
            "format_rational-str",
            "format_vector",
            "is_isometry",
            "IsometryMatrix",
            "reflection_matrix",
        ],
    )
    def test_type_error(self, call):
        with pytest.raises(TypeError):
            call()


class TestCartanDieudonne:
    def recompose(self, form, vectors):
        m = _linalg.identity(form.n)
        for w in vectors:
            m = _linalg.mat_mul(m, reflection_matrix(form, w).rows())
        return m

    def test_identity_needs_no_reflections(self):
        form = BilinearForm.diagonal([1, 1, 1])
        assert cartan_dieudonne_factor(form, _linalg.identity(3)) == []

    def test_single_reflection_recovered(self):
        form = BilinearForm.diagonal([1, 1])
        m = reflection_matrix(form, [1, 1])
        vectors = cartan_dieudonne_factor(form, m)
        assert len(vectors) <= 2
        assert mat_eq(self.recompose(form, vectors), m.rows())

    def test_rotation_by_quarter_turn(self):
        form = BilinearForm.diagonal([1, 1])
        vectors = cartan_dieudonne_factor(form, [[0, -1], [1, 0]])
        assert len(vectors) == 2
        assert mat_eq(self.recompose(form, vectors), [[0, -1], [1, 0]])

    def test_random_isometries_diagonal_forms(self):
        rng = random.Random(109)
        for diag in ([1, 1], [1, -1], [1, 1, 1], [1, 1, -1], [2, -3, 5], [1, 1, 1, -1]):
            form = BilinearForm.diagonal(diag)
            for count in range(0, 2 * form.n + 1):
                m = rand_isometry(rng, form, count)
                vectors = cartan_dieudonne_factor(form, m)
                assert len(vectors) <= 2 * form.n
                assert mat_eq(self.recompose(form, vectors), m)
                for w in vectors:
                    assert quadratic_value(form, w) != 0

    def test_random_isometries_nondiagonal_forms(self):
        rng = random.Random(113)
        trials = 0
        while trials < 30:
            n = rng.randint(2, 4)
            form_rows = rand_symmetric(rng, n, span=3)
            form = BilinearForm.from_rows(form_rows)
            if signature_of(form)[2] > 0:
                continue
            trials += 1
            m = rand_isometry(rng, form, rng.randint(0, 2 * n))
            vectors = cartan_dieudonne_factor(form, m)
            assert len(vectors) <= 2 * n
            assert mat_eq(self.recompose(form, vectors), m)

    def test_hyperbolic_plane_isometry(self):
        # the form itself has no nonzero diagonal entry, forcing the rescue path
        form = BilinearForm.from_rows([[0, 1], [1, 0]])
        m = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1, 2)]]
        assert is_isometry(form, m)
        vectors = cartan_dieudonne_factor(form, m)
        assert len(vectors) <= 4
        assert mat_eq(self.recompose(form, vectors), m)

    @settings(max_examples=150, deadline=None)
    @given(regular_isometries())
    @example(ISOTROPIC_PAIR_CASE)
    # swapping e_2 and e_3 is s_w for w = e_3 - e_2 with Phi(w) = -2 < 0
    @example((BilinearForm.diagonal([1, -1, -1]), [[1, 0, 0], [0, 0, 1], [0, 1, 0]]))
    def test_matches_basis_change_reference(self, case):
        form, m = case
        assert cartan_dieudonne_factor(form, m) == reference_cartan_dieudonne(form, m)

    def test_isotropic_difference_takes_the_pair(self):
        form, m = ISOTROPIC_PAIR_CASE
        assert [row[0] for row in orthogonal_diagonalize(form).basis_rows()] == [1, 0, 0]
        image = [row[0] for row in m]
        assert quadratic_value(form, [image[0] - 1] + image[1:]) == 0
        # s_{C v_1 + v_1} and then s_{v_1}; C v_1 = v_1 afterwards and nothing is left
        assert cartan_dieudonne_factor(form, m) == [[1, 0, 1], [1, 0, 0]]
        assert mat_eq(self.recompose(form, [[1, 0, 1], [1, 0, 0]]), m)

    def test_degenerate_form_rejected(self):
        form = BilinearForm.from_signature(Signature(1, 0, 1))
        with pytest.raises(DegenerateForm):
            cartan_dieudonne_factor(form, _linalg.identity(2))

    def test_non_isometry_rejected(self):
        form = BilinearForm.diagonal([1, 1])
        with pytest.raises(NotAnIsometry):
            cartan_dieudonne_factor(form, [[2, 0], [0, 1]])

    @settings(max_examples=150, deadline=None)
    @given(forms(regular=False))
    @example(BilinearForm.from_rows([[1, 1], [1, 2]]))
    @example(BilinearForm.diagonal([2, 0, -3]))
    def test_orthogonal_basis_is_the_diagonalization(self, form):
        # the regular diagonal shortcut gives orthogonal_diagonalize's basis, and None exactly when s > 0
        result = orthogonal_diagonalize(form)
        basis = quadratic_space._orthogonal_basis(form)
        if result.signature[2]:
            assert basis is None
        else:
            assert basis == _linalg.ScaledMatrix.of(_linalg.transpose(result.basis_rows()))

    def test_unfinished_factorization_raises(self, monkeypatch):
        # a reflection step that reports its axis as anisotropic but leaves C as it was
        monkeypatch.setattr(quadratic_space, "_reflect_columns", lambda columns, d, g, w: (1, d))
        with pytest.raises(NotAnIsometry, match="^factorization did not terminate at the identity$"):
            cartan_dieudonne_factor(BilinearForm.diagonal([1, 1]), [[0, 1], [1, 0]])

    def test_wrong_size_rejected(self):
        # a wrong size is reported as such, after a degenerate form
        with pytest.raises(DimensionMismatch, match="^expected a 2x2 matrix$"):
            cartan_dieudonne_factor(BilinearForm.diagonal([1, 1]), _linalg.identity(3))
        with pytest.raises(DegenerateForm):
            cartan_dieudonne_factor(BilinearForm.diagonal([1, 0]), _linalg.identity(3))


class TestTextFormats:
    def test_rational_accepts(self):
        assert parse_rational("3") == 3
        assert parse_rational("-3/4") == Fraction(-3, 4)
        assert parse_rational("+2/6") == Fraction(1, 3)
        assert parse_rational(" 5 ") == 5
        # a denominator is any run of decimal digits, as eval reads it
        for text in ["1/01", "1/\u0661", "1/\uff11"]:
            assert parse_rational(text) == 1

    @pytest.mark.parametrize(
        "bad", ["0.5", "1e3", "2/0", "2/00", "2/\u0660", "2/-3", "", "a", "1/", "/2", "1 2"]
    )
    def test_rational_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    def test_vector_roundtrip(self):
        rng = random.Random(127)
        for _ in range(20):
            v = rand_vector(rng, rng.randint(1, 5))
            assert parse_vector(format_vector(v)) == v
        with pytest.raises(ParseError):
            parse_vector("")

    def test_matrix_roundtrip(self):
        rng = random.Random(131)
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
            assert parse_matrix(format_matrix(rows)) == rows

    def test_matrix_rejects_ragged(self):
        with pytest.raises(ParseError):
            parse_matrix("1,2;3")
        with pytest.raises(ParseError, match="empty matrix text"):
            parse_matrix(";;")

    @pytest.mark.parametrize("text", ["1,0;;0,1", "1,0;0,1;", ";1,0;0,1", "1,0; ;0,1"])
    def test_matrix_rejects_blank_row(self, text):
        # as parse_vector refuses "1,,2": a blank row is not skipped
        with pytest.raises(ParseError, match="empty matrix row"):
            parse_matrix(text)


def _outcome(parse, text):
    """("value", parse(text)) or ("error", the ParseError text)."""
    try:
        return "value", parse(text)
    except ParseError as exc:
        return "error", str(exc)


DECIMAL_DIGITS = "0123456789" + "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669" + "\uff10\uff11\uff15\uff19"
LONG_DIGITS = [
    "7" * MAX_LITERAL_DIGITS,
    "7" * (MAX_LITERAL_DIGITS + 1),
    "0" * (MAX_LITERAL_DIGITS + 1),
    "0" * (MAX_LITERAL_DIGITS - 1) + "3",
]
NOT_RATIONALS = ["", "1.5", "1e3", "/2", "1/", "a", "\u00bd", "\u00b2", "1 2", "2/-3", "--1", "+-1", "1/+2", "1//2", "0x10", "1_000"]


@st.composite
def rational_texts(draw):
    """An entry as a user might type it: a sign, decimal digits of any script with leading
    zeros, an optional denominator (zero ones too), surrounding whitespace; or no rational."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from(NOT_RATIONALS))

    def digits():
        if draw(st.integers(0, 19)) == 0:
            return draw(st.sampled_from(LONG_DIGITS))
        if draw(st.integers(0, 7)) == 0:
            return draw(st.sampled_from(["0", "00", "\u0660", "007", "010"]))
        return draw(st.text(st.sampled_from(DECIMAL_DIGITS), min_size=1, max_size=4).filter(lambda t: t.strip("0")))

    text = draw(st.sampled_from(["", "", "+", "-"])) + digits()
    if draw(st.booleans()):
        text += "/" + digits()
    space = st.sampled_from(["", "", " ", "\t", "\u3000", "\xa0 "])
    return draw(space) + text + draw(space)


@st.composite
def matrix_texts(draw):
    """Rows of rational_texts, now and then ragged or blank."""
    width = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 11)) == 0:
            rows.append(draw(st.sampled_from(["", " ", " , "])))
            continue
        size = width if draw(st.integers(0, 7)) else draw(st.integers(1, 5))
        rows.append(",".join(draw(st.lists(rational_texts(), min_size=size, max_size=size))))
    return ";".join(rows)


class TestIntegerReader:
    """The integer reader against the Fraction(text) reader it replaced: same values, same ParseError text."""

    @settings(max_examples=400, deadline=None)
    @given(rational_texts())
    @example("\u0663/\u0664")
    @example(" -007/0010 ")
    @example("5/0")
    @example("5/00")
    @example("-" + "9" * MAX_LITERAL_DIGITS)
    @example("1/" + "9" * (MAX_LITERAL_DIGITS + 1))
    @example("1/" + "0" * 5000)
    def test_rational_matches_fraction(self, text):
        outcome = _outcome(parse_rational, text)
        assert outcome == _outcome(reference_parse_rational, text)
        if outcome[0] == "value":
            assert outcome[1] == Fraction(text)
            assert type(outcome[1]) is Fraction

    @settings(max_examples=200, deadline=None)
    @given(st.lists(rational_texts(), min_size=1, max_size=4).map(",".join))
    @example(" , ")
    @example("\u0663,-\u0664/\u0665")
    def test_vector_matches_fraction(self, text):
        outcome = _outcome(parse_vector, text)
        assert outcome == _outcome(reference_parse_vector, text)
        scaled = _outcome(parse_scaled_vector, text)
        if outcome[0] == "error":
            assert scaled == outcome
        else:
            expected = _linalg.ScaledMatrix.of([outcome[1]])
            assert scaled == ("value", (expected.rows[0], expected.scale))

    @settings(max_examples=300, deadline=None)
    @given(matrix_texts())
    @example("\u0660,1;1,0")
    @example("3/5,4/5;4/5,-3/5")
    @example("2/4,6/8;1/3,0")
    @example("1,0;0")
    @example("1,0;;0,1")
    @example(" ; ")
    @example("1/0,0;0,1")
    @example("1/00,0;0")
    def test_matrix_matches_fraction(self, text):
        outcome = _outcome(parse_matrix, text)
        assert outcome == _outcome(reference_parse_matrix, text)
        scaled = _outcome(parse_scaled_matrix, text)
        if outcome[0] == "error":
            assert scaled == outcome
        else:
            # the least scale, as ScaledMatrix.of takes it
            expected = _linalg.ScaledMatrix.of(outcome[1])
            assert (scaled[1].rows, scaled[1].scale) == (expected.rows, expected.scale)
