"""Exact linear algebra: ScaledMatrix, the integer matrix product and the one
fraction-free elimination (rref, solve, determinant) against Fraction loops,
exact results from integer input, and floats refused."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cliffalg import DimensionMismatch, _linalg
from cliffalg._linalg import ScaledMatrix
from support import reference_determinant, reference_mat_mul, reference_rref, reference_solve


def random_matrix(rng, rows, cols, kind):
    def entry():
        value = rng.randint(-9, 9)
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return value
        return Fraction(value, rng.choice([1, 2, 3, 5, 7, 11, 12]))

    return [[entry() for _ in range(cols)] for _ in range(rows)]


class TestMatMul:
    @pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
    def test_matches_fraction_loop(self, kind):
        rng = random.Random(f"mat_mul {kind}")
        for rows, inner, cols in [(1, 1, 1), (2, 3, 4), (4, 4, 4), (5, 1, 3), (3, 6, 1)]:
            a = random_matrix(rng, rows, inner, kind)
            b = random_matrix(rng, inner, cols, kind)
            product = _linalg.mat_mul(a, b)
            assert product == reference_mat_mul(a, b)
            assert all(type(x) is Fraction for row in product for x in row)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([[0]], [[Fraction(3, 7)]]),
            ([[Fraction(-2, 3)]], [[Fraction(9, 4)]]),
            ([[0, 0], [0, 0]], [[Fraction(1, 2), 3], [4, Fraction(5, 6)]]),
            ([[Fraction(0)] * 3] * 2, [[Fraction(0)] * 2] * 3),
            ([], [[1]]),
            ([[1]], []),
        ],
    )
    def test_zero_and_single_entry(self, a, b):
        assert _linalg.mat_mul(a, b) == reference_mat_mul(a, b)

    def test_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            _linalg.mat_mul([[1, 2]], [[1, 2]])


@st.composite
def matrix_pairs(draw):
    """(A, B) of shapes r x k and k x c, 1 <= r, k, c <= 5, int or Fraction entries."""
    rows, inner, cols = (draw(st.integers(1, 5)) for _ in range(3))
    entry = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12))

    def matrix(height, width):
        row = st.lists(entry, min_size=width, max_size=width)
        return draw(st.lists(row, min_size=height, max_size=height))

    return matrix(rows, inner), matrix(inner, cols)


@st.composite
def sparse_matrix_pairs(draw):
    """(A, B) with 1 <= r, k, c <= 6, each row with its own share of zeros, so one A mixes both row forms."""
    rows, inner, cols = (draw(st.integers(1, 6)) for _ in range(3))
    entry = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12))

    def row(width):
        zeros = draw(st.integers(0, width))
        values = draw(st.lists(entry, min_size=width, max_size=width))
        return [0 if i < zeros else v for i, v in enumerate(draw(st.permutations(values)))]

    return [row(inner) for _ in range(rows)], [row(cols) for _ in range(inner)]


class Exploding(int):
    """An entry that may not be multiplied."""

    def __mul__(self, other):
        raise AssertionError("compared past the first unequal entry")

    __rmul__ = __mul__


class TestToMatrix:
    def test_ragged_rows_rejected(self):
        for rows in ([[1, 2], [3]], [[1], [2, 3]], [[], [1]]):
            with pytest.raises(DimensionMismatch, match="^ragged rows in matrix$"):
                _linalg.to_matrix(rows)
            with pytest.raises(DimensionMismatch, match="^ragged rows in matrix$"):
                ScaledMatrix.of(rows)
        assert _linalg.to_matrix([]) == []
        assert _linalg.to_matrix([[1, Fraction(1, 2)]]) == [[Fraction(1), Fraction(1, 2)]]


def cross_multiplied(m, other):
    """A / s == B / t as A t == B s entry by entry, on rows of equal length, for any two scales."""
    s, t = m.scale, other.scale
    return len(m.rows) == len(other.rows) and all(
        len(a) == len(b) and all(x * t == y * s for x, y in zip(a, b)) for a, b in zip(m.rows, other.rows)
    )


@st.composite
def scaled_matrix_pairs(draw):
    """Two ScaledMatrix values with list or tuple rows: the second is the first
    as it is, at a multiple of its scale, with one entry changed, or drawn
    afresh, so equal values, equal scales and unequal shapes all occur."""

    def matrix(rows, cols):
        entries = st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=rows, max_size=rows)
        return draw(entries), draw(st.integers(1, 4))

    def rows_of(entries):
        row = draw(st.sampled_from([list, tuple]))
        return [row(r) for r in entries]

    entries, scale = matrix(draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    how = draw(st.sampled_from(["same", "multiple", "edit", "fresh"]))
    if how == "same":
        other, other_scale = entries, scale
    elif how == "multiple":
        k = draw(st.integers(1, 3))
        other, other_scale = [[k * x for x in r] for r in entries], k * scale
    elif how == "edit" and entries and entries[0]:
        other, other_scale = [list(r) for r in entries], scale
        other[-1][-1] += draw(st.sampled_from([-1, 1]))
    else:
        other, other_scale = matrix(draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    return ScaledMatrix(rows_of(entries), scale), ScaledMatrix(rows_of(other), other_scale)


class TestScaledMatrix:
    @settings(max_examples=200, deadline=None)
    @given(matrix_pairs())
    def test_product_matches_fraction_loop(self, pair):
        a, b = pair
        product = ScaledMatrix.of(a) @ ScaledMatrix.of(b)
        expected = reference_mat_mul(a, b)
        assert product.fractions() == expected
        assert all(type(x) is Fraction for row in product.fractions() for x in row)
        assert product == ScaledMatrix.of(expected)

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrix_pairs())
    @example(([[0, 1, 0, -1], [2, 3, 4, 5]], [[1, 2], [3, 4], [5, 6], [7, 8]]))
    @example(([[0, 0, 0]], [[1], [2], [3]]))
    def test_sparse_rows_match_fraction_loop(self, pair):
        a, b = pair
        assert (ScaledMatrix.of(a) @ ScaledMatrix.of(b)).fractions() == reference_mat_mul(a, b)

    def test_sparse_row_skips_its_zero_entries(self):
        # a row with at most half of its entries nonzero never multiplies
        # the rows of B under its zeros; a denser row takes every column
        b = ScaledMatrix([[1, 2], [Exploding(3), 4], [5, 6], [Exploding(7), 8]])
        assert ScaledMatrix([[1, 0, -1, 0]]) @ b == ScaledMatrix([[-4, -4]])
        with pytest.raises(AssertionError, match="compared past"):
            ScaledMatrix([[1, 0, 2, 3]]) @ ScaledMatrix([[1], [Exploding(2)], [3], [4]])

    def test_of_takes_the_least_scale(self):
        m = ScaledMatrix.of([[Fraction(1, 2), 3], [0, Fraction(-2, 3)]])
        assert (m.rows, m.scale) == ([[3, 18], [0, -4]], 6)
        assert ScaledMatrix.of([[2, -1]]) == ScaledMatrix([[2, -1]], 1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 4).flatmap(
            lambda cols: st.lists(
                st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 36)), min_size=cols, max_size=cols), max_size=4
            )
        )
    )
    @example([[(2, 4), (6, 8)], [(1, 3), (0, 1)]])
    @example([[(0, 7)]])
    def test_of_ratios_takes_the_least_scale(self, pairs):
        # unreduced a / b pairs give what ScaledMatrix.of gives on their Fractions
        m = ScaledMatrix.of_ratios(pairs)
        expected = ScaledMatrix.of([[Fraction(a, b) for a, b in row] for row in pairs])
        assert (m.rows, m.scale) == (expected.rows, expected.scale)

    def test_equal_at_different_scales(self):
        m = ScaledMatrix([[3, 18], [0, -4]], 6)
        assert m == ScaledMatrix([[6, 36], [0, -8]], 12)
        assert m == ScaledMatrix.of(m.fractions())
        assert ScaledMatrix.identity(2) == ScaledMatrix([[7, 0], [0, 7]], 7)
        assert ScaledMatrix.identity(0) == ScaledMatrix([], 5)

    def test_unequal(self):
        m = ScaledMatrix([[3, 18], [0, -4]], 6)
        assert m != ScaledMatrix([[3, 18], [0, -5]], 6)
        assert m != ScaledMatrix([[3, 18], [0, -4]], 12)
        assert ScaledMatrix([[1]], 2) != ScaledMatrix([[1]], 3)
        assert ScaledMatrix.identity(2) != ScaledMatrix.identity(3)
        assert ScaledMatrix([[1, 0]]) != ScaledMatrix([[1]])
        assert ScaledMatrix([[1]]) != [[1]]

    def test_equality_stops_at_the_first_unequal_entry(self):
        assert ScaledMatrix([[1], [Exploding(2)]]) != ScaledMatrix([[2], [0]])
        assert ScaledMatrix([[1], [Exploding(2)]], 2) != ScaledMatrix([[1], [0]])

    @settings(max_examples=300, deadline=None)
    @given(scaled_matrix_pairs())
    @example((ScaledMatrix([[1, 0], [0, 1]]), ScaledMatrix(((1, 0), (0, 1)))))
    @example((ScaledMatrix([[1, 0]], 2), ScaledMatrix([(1, 0)], 2)))
    @example((ScaledMatrix([[1, 0]], 2), ScaledMatrix([(1,)], 2)))
    @example((ScaledMatrix([[]], 2), ScaledMatrix([], 2)))
    def test_equality_is_the_cross_multiplied_rule(self, pair):
        m, other = pair
        assert (m == other) is (other == m) is cross_multiplied(m, other)

    def test_transpose(self):
        m = ScaledMatrix([[1, 2, 3], [4, 5, 6]], 7)
        assert m.transpose() == ScaledMatrix([[1, 4], [2, 5], [3, 6]], 7)

    @pytest.mark.parametrize(
        "a, b",
        [([[1, 2]], [[3]]), ([[1, 2]], [[1, 2]]), ([[1]], []), ([[1], [2]], [[1], [2]])],
    )
    def test_shape_checked(self, a, b):
        with pytest.raises(DimensionMismatch, match="^cannot multiply"):
            ScaledMatrix(a) @ ScaledMatrix(b)


@st.composite
def square_matrices(draw):
    """An n x n matrix, n <= 7, of int, Fraction or mixed entries; some rows
    may be combinations of earlier ones, so singular and rank-deficient
    matrices come up often, and so do zero leading entries."""
    n = draw(st.integers(0, 7))
    integer = st.integers(-6, 6)
    fraction = st.builds(Fraction, integer, st.integers(1, 12))
    entry = draw(st.sampled_from([integer, fraction, st.one_of(integer, fraction)]))
    rows = []
    for _ in range(n):
        if rows and draw(st.integers(0, 3)) == 0:
            weights = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n)])
        else:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return draw(st.permutations(rows)) if rows else rows


class TestDeterminant:
    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    @example([])
    @example([[Fraction(-5, 3)]])
    @example([[0, 1], [1, 0]])
    @example([[0, 2, 1], [0, 1, 3], [4, 1, Fraction(1, 2)]])
    @example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    @example([[2, 1, 0, 0], [4, 2, 1, 0], [0, 0, 0, 3], [1, 1, 1, 1]])
    @example([[0, 0], [0, 0]])
    @example([[1, 0, 2], [0, 0, 0], [3, 0, 1]])
    @example([[-3, 1], [2, -Fraction(1, 2)]])
    def test_matches_fraction_elimination(self, m):
        det = _linalg.determinant(m)
        assert det == reference_determinant(m)
        assert type(det) is Fraction

    def test_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            _linalg.determinant([[1, 2]])
        with pytest.raises(DimensionMismatch):
            _linalg.determinant([[1, 2], [3]])


@st.composite
def matrices(draw):
    """A rows x cols matrix, both <= 7, of int, Fraction or mixed entries.

    Some rows are combinations of earlier ones (rank deficiency), some rows
    and columns are zero, and the rows come in a random order, so zero
    leading entries (pivots that need a swap) and negative pivots are
    common.  rows = 0 gives [], and cols = 0 gives rows of [].
    """
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    integer = st.integers(-6, 6)
    fraction = st.builds(Fraction, integer, st.integers(1, 12))
    entry = draw(st.sampled_from([integer, fraction, st.one_of(integer, fraction)]))
    zero_columns = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=cols))
    out = []
    for _ in range(rows):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            out.append([0] * cols)
        elif kind == 1 and out:
            weights = draw(st.lists(st.integers(-2, 2), min_size=len(out), max_size=len(out)))
            out.append([sum(w * row[j] for w, row in zip(weights, out)) for j in range(cols)])
        else:
            row = draw(st.lists(entry, min_size=cols, max_size=cols))
            out.append([0 if j in zero_columns else x for j, x in enumerate(row)])
    return draw(st.permutations(out)) if out else out


class TestRref:
    @settings(max_examples=400, deadline=None)
    @given(matrices())
    @example([])
    @example([[]])
    @example([[], []])
    @example([[0, 0], [0, 0]])
    @example([[0, 3], [2, 1]])
    @example([[-2, 4, 1], [1, -2, Fraction(1, 2)], [0, 0, -3]])
    @example([[1, 2], [2, 4], [3, 6], [0, 0]])
    @example([[0, 0, 1], [0, 0, 0], [0, 5, 0]])
    def test_matches_fraction_loop(self, m):
        # the one elimination: integer rows that are d times the RREF
        rows, pivots, d, _ = _linalg._integer_rref(ScaledMatrix.of(m).rows)
        assert all(type(x) is int for row in rows for x in row)
        assert ([[Fraction(x, d) for x in row] for row in rows], pivots) == reference_rref(m)
        reduced, pivots = _linalg.rref(m)
        assert (reduced, pivots) == reference_rref(m)
        assert all(type(x) is Fraction for row in reduced for x in row)


@st.composite
def systems(draw):
    """(A, b) for A from matrices(); b = A x for a random x, or random (often inconsistent)."""
    a = draw(matrices())
    cols = len(a[0]) if a else 0
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols))
        b = [sum(entry * y for entry, y in zip(row, x)) for row in a]
    else:
        b = draw(st.lists(st.integers(-5, 5), min_size=len(a), max_size=len(a)))
    return a, b


class TestSolve:
    @settings(max_examples=400, deadline=None)
    @given(systems())
    @example(([], []))
    @example(([[]], [0]))
    @example(([[]], [1]))
    @example(([[1, 1], [2, 2]], [1, 3]))
    @example(([[0, 0], [0, 0]], [0, 1]))
    @example(([[0, -2], [3, 1], [3, -1]], [4, 1, 5]))
    def test_matches_fraction_loop(self, case):
        a, b = case
        x = _linalg.solve(a, b)
        assert x == reference_solve(a, b)
        if x is not None:
            assert all(type(v) is Fraction for v in x)
            assert [sum(entry * v for entry, v in zip(row, x)) for row in a] == b

    def test_inconsistent_returns_none(self):
        assert _linalg.solve([[1, 2], [2, 4], [0, 0]], [1, 2, 1]) is None
        assert _linalg.solve([[]], [Fraction(1, 2)]) is None

    def test_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            _linalg.solve([[1, 2]], [1, 2])


class TestExactInput:
    """int and Fraction entries in, Fractions out: no entry may become a float."""

    def test_rref(self):
        reduced, pivots = _linalg.rref([[2, 1], [4, 3]])
        assert (reduced, pivots) == ([[1, 0], [0, 1]], [0, 1])
        reduced, pivots = _linalg.rref([[3, 1, 0], [6, 2, Fraction(1, 2)]])
        assert (reduced, pivots) == ([[1, Fraction(1, 3), 0], [0, 0, 1]], [0, 2])
        for matrix in ([[2, 1], [4, 3]], [[3, 1, 0], [6, 2, Fraction(1, 2)]]):
            assert all(type(x) is Fraction for row in _linalg.rref(matrix)[0] for x in row)

    def test_determinant(self):
        for matrix, value in [([[2, 1], [4, 3]], 2), ([[3]], 3), ([[1, 2], [2, 4]], 0), ([], 1)]:
            det = _linalg.determinant(matrix)
            assert det == value and type(det) is Fraction

    def test_solve(self):
        assert _linalg.solve([[2, 1], [4, 3]], [1, 1]) == [1, -1]
        assert _linalg.solve([[3]], [1]) == [Fraction(1, 3)]
        assert _linalg.solve([[1, 1], [2, 2]], [1, 3]) is None
        for a, b in [([[2, 1], [4, 3]], [1, 1]), ([[3]], [1]), ([[1, 1], [2, 2]], [1, 2])]:
            assert all(type(x) is Fraction for x in _linalg.solve(a, b))


class TestFloatsRefused:
    """A float or a string is a TypeError, never a 53-bit Fraction."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: _linalg.to_matrix([[0.1, 1]]),
            lambda: _linalg.to_vector([1, 0.5]),
            lambda: _linalg.rref([[0.1, 1]]),
            lambda: _linalg.determinant([[0.1]]),
            lambda: _linalg.solve([[1.0]], [1]),
            lambda: _linalg.solve([[1]], [0.1]),
            lambda: _linalg.mat_mul([[0.1]], [[1]]),
            lambda: _linalg.mat_mul([[1]], [[0.5]]),
            lambda: _linalg.rref([["1"]]),
            lambda: ScaledMatrix.of([[1, 0.5]]),
        ],
        ids=[
            "to_matrix",
            "to_vector",
            "rref",
            "determinant",
            "solve-matrix",
            "solve-rhs",
            "mat_mul-left",
            "mat_mul-right",
            "rref-str",
            "ScaledMatrix.of",
        ],
    )
    def test_type_error(self, call):
        with pytest.raises(TypeError):
            call()
