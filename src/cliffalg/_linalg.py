"""Exact linear algebra over the rationals.

Matrices are lists of rows.  Entries may be int or Fraction, and anything
else (a float, a string) is a TypeError; every result entry is a Fraction.
Every function is pure: arguments are never mutated, results are freshly
allocated.  All pivoting is lowest-index-first, so results are
deterministic.

mat_mul, rref, solve and determinant scale their input to integers over
one denominator and build one Fraction per result entry.  mat_mul runs
int dot products; rref, solve and determinant share one elimination,
_integer_rref, a fraction-free Gauss-Jordan (Bareiss 1968; Nakos, Turner
and Williams 1997) whose every division is exact, so its rows stay
integers no larger than minors of the input.  It sets all-zero rows aside
first: each step rescales every other row, and the tall, sparse systems of
the spinor layer are mostly zero rows.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .core_algebra import _rational
from .errors import DimensionMismatch

ZERO = Fraction(0)
ONE = Fraction(1)


def to_matrix(rows):
    """Copy a rows-of-entries iterable into a rectangular Fraction matrix."""
    out = [[_rational(entry) for entry in row] for row in rows]
    if out:
        width = len(out[0])
        if any(len(row) != width for row in out):
            raise DimensionMismatch("ragged rows in matrix")
    return out


def to_vector(entries):
    return [_rational(entry) for entry in entries]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def _integer_matrix(m):
    """(M, scale) with integer entries M and m = M / scale, scale the least."""
    scale = math.lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in m], scale


def mat_mul(a, b):
    """Product of two int or Fraction matrices, with Fraction entries.

    Each factor is scaled to integers over one denominator, so every dot
    product runs in int arithmetic and each entry is one Fraction.
    """
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise DimensionMismatch(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    a_int, a_scale = _integer_matrix(to_matrix(a))
    b_int, b_scale = _integer_matrix(to_matrix(b))
    scale = a_scale * b_scale
    return [[Fraction(x, scale) for x in row] for row in _integer_product(a_int, b_int)]


def _integer_product(a, b):
    """Product of two int matrices of matching shape, in int arithmetic."""
    bt = transpose(b)
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def _scaled_identity(n, scale):
    """scale times the n x n identity, as an int matrix."""
    return [[scale if i == j else 0 for j in range(n)] for i in range(n)]


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def determinant(m):
    """Exact determinant: one Fraction, sign * d / scale**n for m = M / scale at full rank."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionMismatch("determinant needs a square matrix")
    work, scale = _integer_matrix(to_matrix(m))
    _, pivots, d, sign = _integer_rref(work)
    return Fraction(sign * d, scale**n) if len(pivots) == n else ZERO


def _integer_rref(m):
    """(rows, pivot_columns, d, sign) with rows = d * RREF(m) for an int matrix m.

    The one elimination behind rref, solve, determinant and the isometry
    check.  Pivots are lowest-index-first and a row swap flips sign.  Every
    row but the pivot row becomes (pivot * x - lead * y) // previous, an
    exact division (Sylvester's identity: each entry is then a minor of m),
    so all pivots end equal to d and for a full-rank square m, det m =
    sign * d.  Zero rows are set aside and returned last; d is 1 when there
    is no pivot.
    """
    width = len(m[0]) if m else 0
    work = [list(row) for row in m if any(row)]
    zero_rows = [[0] * width for _ in range(len(m) - len(work))]
    rows = len(work)
    pivots = []
    sign = previous = 1
    for c in range(width):
        r = len(pivots)
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if work[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            sign = -sign
        top = work[r]
        pivot = top[c]
        for i, row in enumerate(work):
            if i != r:
                lead = row[c]
                work[i] = [(pivot * x - lead * y) // previous for x, y in zip(row, top)]
        pivots.append(c)
        previous = pivot
    return work + zero_rows, pivots, previous, sign


def rref(m):
    """Reduced row echelon form.

    Returns (reduced, pivot_columns).  Zero rows are kept at the bottom.
    """
    work, _ = _integer_matrix(to_matrix(m))
    rows, pivots, d, _ = _integer_rref(work)
    return [[Fraction(x, d) if x else ZERO for x in row] for row in rows], pivots


def solve(a, b):
    """One exact solution of A x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    if len(a) != len(b):
        raise DimensionMismatch("matrix height does not match right-hand side")
    cols = len(a[0]) if a else 0
    augmented = [list(row) + [rhs] for row, rhs in zip(a, b)]
    reduced, pivots = rref(augmented)
    if cols in pivots:
        return None
    # with free variables pinned to zero, each pivot equation reads off directly
    x = [ZERO] * cols
    for row_index, c in enumerate(pivots):
        x[c] = reduced[row_index][-1]
    return x
