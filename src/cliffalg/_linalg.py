"""Exact linear algebra over the rationals.

Matrices are lists of rows.  Entries may be int or Fraction; every result
entry is a Fraction.  Every function is pure: arguments are never mutated,
results are freshly allocated.  All pivoting is lowest-index-first, so
results are deterministic.

mat_mul and determinant scale their input to integers over one denominator
and build one Fraction per result entry: the product runs int dot products,
and the determinant is fraction-free (Bareiss) elimination, whose every
division is exact.  rref and solve stay on Fractions: the spinor commands
call them most, on matrices so small that a fraction-free rref measured
4-5% slower there.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import DimensionMismatch

ZERO = Fraction(0)
ONE = Fraction(1)


def to_matrix(rows):
    """Copy a rows-of-entries iterable into a rectangular Fraction matrix."""
    out = [[Fraction(entry) for entry in row] for row in rows]
    if out:
        width = len(out[0])
        if any(len(row) != width for row in out):
            raise DimensionMismatch("ragged rows in matrix")
    return out


def to_vector(entries):
    return [Fraction(entry) for entry in entries]


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
    a_int, a_scale = _integer_matrix(a)
    b_int, b_scale = _integer_matrix(b)
    scale = a_scale * b_scale
    return [[Fraction(x, scale) for x in row] for row in _integer_product(a_int, b_int)]


def _integer_product(a, b):
    """Product of two int matrices of matching shape, in int arithmetic."""
    bt = transpose(b)
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def mat_vec(m, v):
    if m and len(m[0]) != len(v):
        raise DimensionMismatch(f"matrix width {len(m[0])} does not match vector length {len(v)}")
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def determinant(m):
    """Exact determinant: one Fraction, det(M) / scale**n for m = M / scale."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionMismatch("determinant needs a square matrix")
    work, scale = _integer_matrix(to_matrix(m))
    return Fraction(_integer_determinant(work), scale**n)


def _integer_determinant(m):
    """Determinant of a square int matrix by Bareiss elimination; 1 when 0 x 0.

    Pivots are lowest-index-first and a row swap flips the sign.  Each update
    (pivot * x - lead * y) // previous divides exactly (Sylvester's identity:
    every entry after step k is a (k+1) x (k+1) minor of m), so all entries
    stay integers no larger than those minors and the last pivot is det m.
    """
    n = len(m)
    work = [list(row) for row in m]
    sign = 1
    previous = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign = -sign
        pivot = work[col][col]
        tail = work[col][col + 1:]
        for r in range(col + 1, n):
            row = work[r]
            lead = row[col]
            row[col + 1:] = [(pivot * x - lead * y) // previous for x, y in zip(row[col + 1:], tail)]
        previous = pivot
    return sign * previous


def rref(m):
    """Reduced row echelon form.

    Returns (reduced, pivot_columns).  Zero rows are kept at the bottom.
    """
    work = to_matrix(m)
    rows = len(work)
    cols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r][c]
        if pivot != 1:
            work[r] = [x / pivot for x in work[r]]
        for i in range(rows):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return work, pivots


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
