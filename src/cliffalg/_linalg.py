"""Exact linear algebra over the rationals.

Matrices are lists of rows.  Entries may be int or Fraction, and anything
else (a float, a string) is a TypeError; every entry of a Fraction helper's
result (identity, mat_mul, determinant, rref, solve) is a Fraction.
Every function is pure: arguments are never mutated, results are freshly
allocated.  All pivoting is lowest-index-first, so results are
deterministic.

Every matrix product and comparison runs on one exact value, ScaledMatrix:
integer rows over one positive scale, multiplied in int arithmetic and
compared by cross-multiplication, with no Fraction until fractions().
rref, solve and determinant share one elimination on its rows,
_integer_rref, a fraction-free Gauss-Jordan (Bareiss 1968; Nakos, Turner
and Williams 1997) whose every division is exact, so its rows stay
integers no larger than minors of the input.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
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


@dataclass(eq=False)
class ScaledMatrix:
    """The rational matrix rows / scale: integer rows over one scale > 0; == compares values."""

    rows: list
    scale: int = 1

    @classmethod
    def of(cls, m) -> "ScaledMatrix":
        """m over its least common denominator; entries follow to_matrix's type rules."""
        m = to_matrix(m)
        scale = math.lcm(*(x.denominator for row in m for x in row))
        return cls([[x.numerator * (scale // x.denominator) for x in row] for row in m], scale)

    @classmethod
    def of_ratios(cls, rows) -> "ScaledMatrix":
        """Rows of (a, b) int pairs, b > 0, read as a / b, over their least common denominator.

        Over S = lcm(b) the entries are A / S, brought to the least scale by
        least().  No Fraction is built.
        """
        scale = math.lcm(*(b for row in rows for _, b in row))
        return cls([[a * (scale // b) for a, b in row] for row in rows], scale).least()

    @classmethod
    def identity(cls, n) -> "ScaledMatrix":
        rows = [[0] * n for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] = 1
        return cls(rows)

    def least(self) -> "ScaledMatrix":
        """The same value over the least scale, s / gcd(s, A_1, A_2, ...); self when that is s."""
        content = math.gcd(self.scale, *itertools.chain.from_iterable(self.rows))
        if content == 1:
            return self
        return ScaledMatrix([[x // content for x in row] for row in self.rows], self.scale // content)

    def transpose(self) -> "ScaledMatrix":
        return ScaledMatrix(transpose(self.rows), self.scale)

    def __matmul__(self, other: "ScaledMatrix") -> "ScaledMatrix":
        """(A / s)(B / t) = AB / st in int arithmetic, skipping the zero entries of sparse rows of A.

        A row of A with at most half of its entries nonzero is formed as the
        sum of its nonzero entries times the matching rows of B: nnz passes
        over a row of B, each of which builds one list.  Any other row takes
        one dot product with each column of B, which builds no list, so at
        half the entries the two forms cost about the same (measured on 4x4
        to 64x64 inputs).  A dense factor thus runs as before, and a left
        factor with two nonzeros per row, such as R(e1 + e2), costs 2m^2
        products, not m^3.
        """
        a, b = self.rows, other.rows
        width = len(b[0]) if b else 0
        if a and len(a[0]) != len(b):
            raise DimensionMismatch(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{width}")
        columns = list(zip(*b))
        mul = operator.mul
        return ScaledMatrix(
            [
                [sum(map(mul, row, col)) for col in columns]
                if 0 not in row or 2 * row.count(0) < len(row)
                else _row_combination(row, b, width)
                for row in a
            ],
            self.scale * other.scale,
        )

    def __eq__(self, other) -> bool:
        """A / s == B / t read as A t == B s, stopping at the first unequal entry; A == B when s == t.

        Rows may be lists or tuples (BilinearForm._ints holds tuples), so
        equal scales compare the rows as tuples.
        """
        if not isinstance(other, ScaledMatrix):
            return NotImplemented
        s, t = self.scale, other.scale
        if s == t:
            rows = map(operator.eq, map(tuple, self.rows), map(tuple, other.rows))
            return len(self.rows) == len(other.rows) and all(rows)
        return len(self.rows) == len(other.rows) and all(
            len(a) == len(b) and all(x * t == y * s for x, y in zip(a, b))
            for a, b in zip(self.rows, other.rows)
        )

    def fractions(self) -> list[list[Fraction]]:
        return [[Fraction(x, self.scale) for x in row] for row in self.rows]


def _row_combination(row, b, width) -> list:
    """sum_k row[k] * b[k] over the nonzero row[k], as one int list of length width."""
    acc = [0] * width
    for x, b_row in zip(row, b):
        if x:
            acc = list(map(operator.add, acc, map(operator.mul, b_row, itertools.repeat(x))))
    return acc


def mat_mul(a, b):
    """Product of two int or Fraction matrices, with Fraction entries."""
    if not a or not b:
        return []
    return (ScaledMatrix.of(a) @ ScaledMatrix.of(b)).fractions()


def determinant(m):
    """Exact determinant: one Fraction, sign * d / scale**n for m = M / scale at full rank."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionMismatch("determinant needs a square matrix")
    scaled = ScaledMatrix.of(m)
    _, pivots, d, sign = _integer_rref(scaled.rows)
    return Fraction(sign * d, scaled.scale**n) if len(pivots) == n else ZERO


def _integer_rref(m):
    """(rows, pivot_columns, d, sign) with rows = d * RREF(m) for an int matrix m.

    The one elimination of the library: behind rref, solve, determinant,
    the isometry check, the spinor spans and interbasis_element's system.
    Pivots are lowest-index-first and a row swap flips sign.  Every row
    but the pivot row becomes (pivot * x - lead * y) // previous, an
    exact division (Sylvester's identity: each entry is then a minor of m),
    so all pivots end equal to d and for a full-rank square m, det m =
    sign * d.  Rows past the rank end all zero; d is 1 when there is no
    pivot.
    """
    width = len(m[0]) if m else 0
    work = [list(row) for row in m]
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
    return work, pivots, previous, sign


def rref(m):
    """Reduced row echelon form.

    Returns (reduced, pivot_columns).  Zero rows are kept at the bottom.
    """
    rows, pivots, d, _ = _integer_rref(ScaledMatrix.of(m).rows)
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
