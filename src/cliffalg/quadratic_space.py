"""Symmetric bilinear forms over the rationals.

Evaluation, vector classification, orthogonal diagonalization by symmetric
congruence, hyperplane reflections, isometry checks, and a constructive
factorization of isometries into reflections.  Everything is exact; diagonal
entries are never rescaled to +-1 (that would need square roots), only their
signs are read off.

Shared text format (also used by the CLI): matrix rows separated by ';',
entries by ',', rationals written "a/b" or "a".
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import unicodedata
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from ._linalg import ScaledMatrix
from .core_algebra import (
    MAX_LITERAL_DIGITS,
    Signature,
    _rational,
    format_ratio,
)
from .errors import (
    DegenerateForm,
    DimensionMismatch,
    IsotropicVector,
    NotAnIsometry,
    ParseError,
    ZeroVector,
)


class _IntegerRows:
    """A rational matrix held as integer rows _ints over their least positive scale _scale.

    This is how a Multivector holds its coefficients, so equal values have
    equal fields; mat and rows() are their Fractions.
    """

    def _settle(self) -> ScaledMatrix:
        """Bring the fields to tuples over the least scale; returns that value."""
        m = ScaledMatrix(self._ints, self._scale).least()
        m.rows = tuple(map(tuple, m.rows))
        object.__setattr__(self, "_ints", m.rows)
        object.__setattr__(self, "_scale", m.scale)
        return m

    @property
    def n(self) -> int:
        return len(self._ints)

    @property
    def mat(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(map(tuple, self.rows()))

    def rows(self) -> list[list[Fraction]]:
        return ScaledMatrix(self._ints, self._scale).fractions()


@dataclass(frozen=True)
class BilinearForm(_IntegerRows):
    """An n x n symmetric rational matrix B = G / g, held as its integer rows G over the least g."""

    _ints: tuple[tuple[int, ...], ...]
    _scale: int = 1

    def __post_init__(self):
        n = len(self._ints)
        if any(len(row) != n for row in self._ints):
            raise DimensionMismatch("bilinear form matrix must be square")
        g = self._settle().rows
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(i)):
            raise ValueError("bilinear form matrix must be symmetric")

    @classmethod
    def from_rows(cls, rows) -> "BilinearForm":
        try:
            g = ScaledMatrix.of(rows)
        except DimensionMismatch:  # ragged rows
            raise DimensionMismatch("bilinear form matrix must be square") from None
        return cls(g.rows, g.scale)

    @classmethod
    def diagonal(cls, entries) -> "BilinearForm":
        entries = list(entries)
        return cls.from_rows([[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)])

    @classmethod
    def from_signature(cls, sig: Signature) -> "BilinearForm":
        """Standard diagonal form: +1 (p times), -1 (q times), 0 (s times), as integers over 1."""
        squares = [1] * sig.p + [-1] * sig.q + [0] * sig.s
        return cls(tuple(tuple(d if i == j else 0 for j in range(sig.n)) for i, d in enumerate(squares)))


@dataclass(frozen=True)
class IsometryMatrix(_IntegerRows):
    """An invertible rational matrix M with M^T B M = B: integer rows over the least scale, certified on build."""

    form: BilinearForm
    _ints: tuple[tuple[int, ...], ...]
    _scale: int = 1

    def __post_init__(self):
        if not is_isometry(self.form, self._settle()):
            raise NotAnIsometry("matrix does not preserve the bilinear form")

    @classmethod
    def from_rows(cls, form: BilinearForm, rows) -> "IsometryMatrix":
        rows = [list(r) for r in rows]
        if len(rows) != form.n or any(len(r) != form.n for r in rows):
            raise DimensionMismatch("isometry matrix size does not match the form")
        m = ScaledMatrix.of(rows)
        return cls(form, m.rows, m.scale)


@dataclass(frozen=True)
class DiagonalizationResult:
    """Columns of basis are an orthogonal basis; diag holds their quadratic values."""

    basis: tuple[tuple[Fraction, ...], ...]
    diag: tuple[Fraction, ...]
    signature: tuple[int, int, int]

    def basis_rows(self) -> list[list[Fraction]]:
        return [list(row) for row in self.basis]


def _integer_phi(g, w) -> tuple[list[int], int]:
    """(G W, W^T G W) for an integer form matrix G and an integer vector W."""
    gw = [sum(map(operator.mul, row, w)) for row in g]
    return gw, sum(map(operator.mul, w, gw))


def evaluate_form(form: BilinearForm, u, v) -> Fraction:
    """u^T B v, read as U^T G V / (s^2 g) with u, v = U / s, V / s and B = G / g in integers."""
    u = _linalg.to_vector(u)
    v = _linalg.to_vector(v)
    if len(u) != form.n or len(v) != form.n:
        raise DimensionMismatch(f"expected vectors of length {form.n}")
    uv = ScaledMatrix.of([u, v])
    (u_int, v_int), s = uv.rows, uv.scale
    return Fraction(sum(map(operator.mul, u_int, _integer_phi(form._ints, v_int)[0])), s * s * form._scale)


def quadratic_value(form: BilinearForm, u) -> Fraction:
    return evaluate_form(form, u, u)


def classify_vector(form: BilinearForm, v) -> str:
    """"timelike" (Phi > 0), "spacelike" (Phi < 0), or "lightlike" (Phi = 0)."""
    return _classified(form, v)[1]


def _classified(form: BilinearForm, v) -> tuple[Fraction, str]:
    """(Phi(v), the class of v), with Phi evaluated once; ZeroVector for v = 0, before any length check."""
    v = _linalg.to_vector(v)
    if all(x == 0 for x in v):
        raise ZeroVector("cannot classify the zero vector")
    value = quadratic_value(form, v)
    return value, "timelike" if value > 0 else "spacelike" if value < 0 else "lightlike"


def orthogonal_diagonalize(form: BilinearForm) -> DiagonalizationResult:
    """Deterministic symmetric congruence elimination.

    Pivots are taken lowest index first.  A zero diagonal pivot is repaired
    using its lowest nonzero off-diagonal partner j: when entry (j,j) is
    nonzero the two basis vectors are swapped, otherwise v_i <- v_i + v_j,
    which makes the pivot 2*b(v_i, v_j) != 0.
    """
    n = form.n
    a = form.rows()
    basis = _linalg.identity(n)

    def add_column(i, j):
        # v_i <- v_i + v_j, applied to the congruence a and the basis columns
        for r in range(n):
            a[r][i] += a[r][j]
        for c in range(n):
            a[i][c] += a[j][c]
        for r in range(n):
            basis[r][i] += basis[r][j]

    def swap_columns(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            basis[r][i], basis[r][j] = basis[r][j], basis[r][i]

    for i in range(n):
        if a[i][i] == 0:
            partner = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
            if partner is None:
                continue  # row i is already clear; its vector is in the radical
            if a[partner][partner] != 0:
                swap_columns(i, partner)
            else:
                add_column(i, partner)
        pivot = a[i][i]
        for r in range(i + 1, n):
            if a[i][r] != 0:
                factor = a[i][r] / pivot
                # v_r <- v_r - factor * v_i
                for k in range(n):
                    a[k][r] -= factor * a[k][i]
                for k in range(n):
                    a[r][k] -= factor * a[i][k]
                for k in range(n):
                    basis[k][r] -= factor * basis[k][i]
    diag = [a[i][i] for i in range(n)]
    p = sum(1 for d in diag if d > 0)
    q = sum(1 for d in diag if d < 0)
    s = n - p - q
    return DiagonalizationResult(tuple(map(tuple, basis)), tuple(diag), (p, q, s))


def signature_of(form: BilinearForm) -> tuple[int, int, int]:
    return orthogonal_diagonalize(form).signature


def is_degenerate(form: BilinearForm) -> bool:
    return signature_of(form)[2] > 0


def _reflection_rows(form: BilinearForm, w) -> ScaledMatrix:
    """s_w for an integer axis W, as integer rows over |q|, q = W^T G W; not yet certified.

    With G the integer numerators of the form, entry (r, c) of s_w is
    (delta_rc q - 2 (G W)_c W_r) / q, and every row is negated when q < 0,
    so that the scale is positive.  q = 0 exactly when Phi(w) = 0, which is
    IsotropicVector.  reflection_matrix, the reflect command and the
    recomposition of factor all build their reflections here.
    """
    if len(w) != form.n:
        raise DimensionMismatch(f"expected a vector of length {form.n}")
    gw, q = _integer_phi(form._ints, w)  # gw_i is phi(e_i, w), up to a factor > 0
    if q == 0:
        raise IsotropicVector("reflection axis must be anisotropic")
    scale = abs(q)
    twice = [(2 if q > 0 else -2) * x for x in gw]
    rows = [[-w_r * x for x in twice] for w_r in w]
    for i, row in enumerate(rows):
        row[i] += scale
    return ScaledMatrix(rows, scale)


def _certified_reflection(form: BilinearForm, w) -> ScaledMatrix:
    """_reflection_rows(form, w), certified as an isometry on its integer rows (NotAnIsometry)."""
    matrix = _reflection_rows(form, w)
    if not is_isometry(form, matrix):
        raise NotAnIsometry("matrix does not preserve the bilinear form")
    return matrix


def reflection_matrix(form: BilinearForm, x) -> IsometryMatrix:
    """Hyperplane reflection s_x(u) = u - (2 phi(u,x) / Phi(x)) x.

    Requires Phi(x) != 0.  Fixes the hyperplane orthogonal to x, negates x,
    has determinant -1, and depends only on the line through x.

    The integer rows of _reflection_rows on the numerators of x are passed
    as they are, and IsometryMatrix certifies them.
    """
    (numerators,) = ScaledMatrix.of([x]).rows
    m = _reflection_rows(form, numerators)
    return IsometryMatrix(form, m.rows, m.scale)


def is_isometry(form: BilinearForm, m) -> bool:
    """Exact check M^T B M = B and M invertible; False for a matrix of the wrong shape.

    M is a ScaledMatrix, read as it is, or rows of entries, scaled once.
    The identity is compared as ScaledMatrix values, in int arithmetic.  M
    must also have full rank, which _linalg's one elimination reads off.
    That test matters on a degenerate form: there a singular M can satisfy
    the identity.
    """
    rows = m.rows if isinstance(m, ScaledMatrix) else [list(row) for row in m]
    if len(rows) != form.n or any(len(r) != form.n for r in rows):
        return False
    if not isinstance(m, ScaledMatrix):
        m = ScaledMatrix.of(rows)
    g = ScaledMatrix(form._ints, form._scale)
    return m.transpose() @ g @ m == g and len(_linalg._integer_rref(m.rows)[1]) == form.n


def det_sign(m) -> int:
    """Sign of the determinant: +1 or -1 for any invertible matrix."""
    det = _linalg.determinant(m._ints if isinstance(m, IsometryMatrix) else _linalg.to_matrix(m))
    if det == 0:
        raise ValueError("matrix is singular")
    return 1 if det > 0 else -1


def cartan_dieudonne_factor(form: BilinearForm, m) -> list[list[Fraction]]:
    """Anisotropic vectors w_1..w_k with s_{w_1} o ... o s_{w_k} = M, k <= 2n.

    The form must be regular and M an exact isometry of it, given as rows,
    an IsometryMatrix or a ScaledMatrix.  The composition is matrix-product
    order: the product of the reflection matrices taken in list order
    equals M.

    C starts at M and settles the form's own orthogonal basis v_1..v_n in
    order.  s_w with w = C v_i - v_i maps C v_i back to v_i when w is
    anisotropic; otherwise Phi(C v_i + v_i) = 4 Phi(v_i) != 0, and s_{v_i}
    after s_{C v_i + v_i} does the same job.  Each fixes every earlier v_j,
    so at most 2n reflections are emitted before C reaches the identity.

    The loop, _cartan_dieudonne_axes, runs in int arithmetic on M as one
    ScaledMatrix.  C = c / d holds integer columns c over one denominator
    d > 0, and the form is its integer numerator matrix G.  A reflection
    through an integer axis W with q = W^T G W maps each column to
    q col - 2 (col^T G W) W and d to d q (_reflect_columns); the content
    gcd(d, c) is then divided out, so d stays the least positive
    denominator instead of growing as the product of every q, and C = I
    exactly when d = 1 and c = I.  It returns each axis as integers W over
    a scale, with its q; lift_isometry and the factor command read those,
    and this function turns each into one Fraction vector.
    """
    return [[Fraction(x, scale) for x in w] for w, scale, _ in _cartan_dieudonne_axes(form, _scaled_isometry(m))]


def _orthogonal_basis(form: BilinearForm) -> ScaledMatrix | None:
    """The basis vectors of orthogonal_diagonalize(form), one per row over one scale; None when s > 0.

    A regular diagonal form, such as that of a regular signature, needs no
    elimination: orthogonal_diagonalize finds each pivot in place and
    nothing to clear, so its basis is I.  The form is regular and diagonal
    exactly when its n diagonal entries are its only nonzero ones.
    """
    g = form._ints
    n = form.n
    if all(g[i][i] for i in range(n)) and sum(map(bool, itertools.chain.from_iterable(g))) == n:
        return ScaledMatrix.identity(n)
    diagonalization = orthogonal_diagonalize(form)
    if diagonalization.signature[2] > 0:
        return None
    # one common scale for every v: scaling an axis W by k changes no reflection
    return ScaledMatrix.of(_linalg.transpose(diagonalization.basis_rows()))


def _reflect_columns(columns: list, d: int, g, w: list) -> tuple[int, int]:
    """(q, d'): s_w applied in place to C = columns / d, for an integer axis W with q = W^T G W.

    Each column maps to q col - 2 (col^T G W) W and d to d q; the content
    gcd(d, c) is then divided out, with the sign of d, so d' > 0 is the
    least denominator of the new C.  When q = 0 nothing changes and the
    result is (0, d).
    """
    gw, q = _integer_phi(g, w)
    if q == 0:
        return 0, d
    for column in columns:
        t = 2 * sum(map(operator.mul, column, gw))
        column[:] = [q * x - t * y for x, y in zip(column, w)]
    d *= q
    content = math.gcd(d, *itertools.chain.from_iterable(columns))
    if d < 0:
        content = -content
    if content != 1:
        d //= content
        for column in columns:
            column[:] = [x // content for x in column]
    return q, d


def _cartan_dieudonne_axes(form: BilinearForm, m: ScaledMatrix) -> list[tuple[list[int], int, int]]:
    """(W, scale, q) for each vector w = W / scale of cartan_dieudonne_factor, q = W^T G W.

    M is read as the ScaledMatrix it is, with no Fraction; scale > 0, and
    Phi(w) = q / (scale^2 g) for the form B = G / g.  The checks and their
    order are cartan_dieudonne_factor's.
    """
    basis = _orthogonal_basis(form)
    if basis is None:
        raise DegenerateForm("factorization requires a regular form")
    n = form.n
    if len(m.rows) != n or any(len(r) != n for r in m.rows):
        raise DimensionMismatch(f"expected a {n}x{n} matrix")
    if not is_isometry(form, m):
        raise NotAnIsometry("matrix does not preserve the bilinear form")
    g = form._ints
    columns, d = _linalg.transpose(m.rows), m.scale
    axes = []

    def reflect(w, scale) -> bool:
        """Apply s_w to C for w = W / scale; False, changing nothing, when Phi(w) = 0."""
        nonlocal d
        q, d = _reflect_columns(columns, d, g, w)
        if q:
            axes.append((w, scale, q))
        return q != 0

    for v in basis.rows:
        image = [sum(map(operator.mul, row, v)) for row in zip(*columns)]  # c v = d C v
        dv = [d * x for x in v]
        if image == dv:
            continue
        if not reflect([x - y for x, y in zip(image, dv)], d * basis.scale):
            reflect([x + y for x, y in zip(image, dv)], d * basis.scale)
            reflect(v, basis.scale)
    if ScaledMatrix(columns, d) != ScaledMatrix.identity(n):
        raise NotAnIsometry("factorization did not terminate at the identity")
    return axes


def _scaled_isometry(m) -> ScaledMatrix:
    """M given as rows, an IsometryMatrix or a ScaledMatrix, as one ScaledMatrix (to_matrix's errors)."""
    if isinstance(m, ScaledMatrix):
        return m
    return ScaledMatrix(m._ints, m._scale) if isinstance(m, IsometryMatrix) else ScaledMatrix.of(m)


# text format shared with the CLI


_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def _rational_parts(text: str) -> tuple[int, int]:
    """(a, b) for exactly "a" or "a/b" with b > 0, unreduced; b = 1 for "a".

    int() reads the digits the pattern matched: a digit is any decimal
    digit (\\d), which is what int() accepts.  The zero denominator is
    found before any int() call, and so is a part past MAX_LITERAL_DIGITS.
    """
    stripped = text.strip()
    match = _RATIONAL_RE.fullmatch(stripped)
    if not match or (match[2] is not None and not any(map(unicodedata.decimal, match[2]))):
        raise ParseError(f"bad rational {stripped!r}; expected \"a\" or \"a/b\"")
    numerator, denominator = match.groups()
    if len(numerator.lstrip("+-")) > MAX_LITERAL_DIGITS or len(denominator or "") > MAX_LITERAL_DIGITS:
        raise ParseError(f"rational has more than {MAX_LITERAL_DIGITS} digits")
    return int(numerator), int(denominator) if denominator else 1


def parse_rational(text: str) -> Fraction:
    """Exactly "a" or "a/b" with b > 0; floats and exponents are rejected."""
    return Fraction(*_rational_parts(text))


def _vector_parts(text: str) -> list[tuple[int, int]]:
    entries = text.split(",")
    if not any(e.strip() for e in entries):
        raise ParseError("empty vector text")
    return [_rational_parts(e) for e in entries]


def _matrix_parts(text: str) -> list[list[tuple[int, int]]]:
    pieces = text.split(";")
    if not any(piece.strip() for piece in pieces):
        raise ParseError("empty matrix text")
    rows = []
    for piece in pieces:
        # a blank row is refused as parse_vector refuses a blank entry
        if not piece.strip():
            raise ParseError("empty matrix row")
        rows.append(_vector_parts(piece))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("matrix rows have differing lengths")
    return rows


def parse_vector(text: str) -> list[Fraction]:
    return [Fraction(a, b) for a, b in _vector_parts(text)]


def parse_scaled_vector(text: str) -> tuple[list[int], int]:
    """parse_vector(text) as integer numerators over their least positive scale, with no Fraction."""
    m = ScaledMatrix.of_ratios([_vector_parts(text)])
    return m.rows[0], m.scale


def parse_matrix(text: str) -> list[list[Fraction]]:
    return [[Fraction(a, b) for a, b in row] for row in _matrix_parts(text)]


def parse_scaled_matrix(text: str) -> ScaledMatrix:
    """parse_matrix(text) as one ScaledMatrix over the least scale, with the same errors and no Fraction."""
    return ScaledMatrix.of_ratios(_matrix_parts(text))


def format_rational(value) -> str:
    """Exactly "a" or "a/b"; CoefficientTooLarge past MAX_COEFFICIENT_BITS (format_ratio)."""
    value = _rational(value)
    return format_ratio(value.numerator, value.denominator)


def format_vector(v) -> str:
    return ",".join(format_rational(x) for x in v)


def format_matrix(rows) -> str:
    return ";".join(format_vector(row) for row in rows)
