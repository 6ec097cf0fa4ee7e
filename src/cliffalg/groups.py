"""Clifford-Lipschitz group, twisted adjoint action, Pin/Spin membership, lifts.

The twisted adjoint of x sends a vector v to grade_involution(x) * v * x^-1.
For an anisotropic vector x it is the hyperplane reflection through x, and on
the whole group its image preserves the standard diagonal form of the
signature.  Lifting an isometry composes the reflection vectors produced by
the factorization in quadratic_space.

Lifts are projective: the twisted adjoint is unchanged under rescaling, so a
lift is rescaled onto norm +-1 only when that is possible inside the
rationals (|N| a rational square); otherwise it is returned unscaled with
needs_normalization set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from .core_algebra import (
    Multivector,
    Rational,
    Signature,
    _inverse_given_norm,
    clifford_conjugation,
    embed_vector,
    even_part,
    extract_vector,
    geometric_product,
    grade_involution,
    inverse,
    norm,
    scalar_mul,
)
from .errors import (
    DegenerateForm,
    NotAVector,
    NotInGroup,
    NotInvertible,
    NotStable,
    SignatureMismatch,
)
from .quadratic_space import (
    BilinearForm,
    IsometryMatrix,
    cartan_dieudonne_factor,
    quadratic_value,
)


@dataclass(frozen=True)
class GroupElement:
    """An invertible element with scalar norm, with its inverse cached."""

    x: Multivector
    inv: Multivector
    n_value: Rational

    @classmethod
    def from_multivector(cls, x: Multivector) -> "GroupElement":
        """NotInvertible for a non-invertible x, else NotInGroup unless N is a scalar.

        N = x * conjugate(x) is formed once; a nonzero scalar N gives
        x^-1 = conjugate(x) / N, and N = 0 makes x a zero divisor.
        """
        value = norm(x)
        if not value.is_scalar():
            _inverse_given_norm(x, value)  # NotInvertible takes precedence
            raise NotInGroup("norm is not a scalar")
        n_value = value.scalar_part()
        if not n_value:
            raise NotInvertible("element is a zero divisor")
        return cls(x, scalar_mul(1 / n_value, clifford_conjugation(x)), n_value)


@dataclass(frozen=True)
class LiftResult:
    """A product of reflection vectors whose twisted adjoint is the lifted isometry."""

    element: Multivector
    n_value: Rational
    reflection_count: int
    needs_normalization: bool

    def approx_normalized(self) -> dict:
        """Float rendering of element / sqrt(|N|), for display only."""
        scale = 1.0 / math.sqrt(abs(self.n_value))
        return {mask: float(value) * scale for mask, value in self.element.terms()}


def _twisted_image(x_hat: Multivector, x_inv: Multivector, v: Multivector) -> list[Rational]:
    image = geometric_product(geometric_product(x_hat, v), x_inv)
    try:
        return extract_vector(image)
    except NotAVector as exc:
        raise NotStable(f"twisted adjoint leaves the vector space: {exc}") from None


def _twisted_columns(x: Multivector, x_inv: Multivector) -> list[list[Rational]]:
    """rho_x(e_i) for each generator in turn; NotStable at the first that leaves V."""
    generators = [Multivector.basis_blade(x.sig, 1 << i) for i in range(x.sig.n)]
    x_hat = grade_involution(x)
    return [_twisted_image(x_hat, x_inv, e) for e in generators]


def twisted_adjoint_apply(x: Multivector, coords) -> list[Rational]:
    """grade_involution(x) * v * x^-1 as coordinates; NotStable if not grade 1."""
    return _twisted_image(grade_involution(x), inverse(x), embed_vector(coords, x.sig))


def twisted_adjoint_matrix(x: Multivector) -> IsometryMatrix:
    """Matrix with columns rho_x(e_i), certified against the standard form."""
    columns = _twisted_columns(x, inverse(x))
    return IsometryMatrix.from_rows(BilinearForm.from_signature(x.sig), zip(*columns))


def _is_stable(x: Multivector, x_inv: Multivector) -> bool:
    try:
        _twisted_columns(x, x_inv)
    except NotStable:
        return False
    return True


@dataclass(frozen=True)
class Membership:
    """Group facts of one element; n_value is None when x * conjugate(x) is not a scalar."""

    in_clifford_group: bool
    in_pin: bool
    in_spin: bool
    n_value: Rational | None


def membership(x: Multivector) -> Membership:
    """Clifford group, Pin and Spin membership from one norm.

    x is in the Clifford group iff it is invertible and its twisted adjoint
    keeps every e_i in V (v maps linearly to the image, so the basis
    suffices); in Pin iff also its norm is +1 or -1; in Spin iff also even.
    A nonzero scalar N = x * conjugate(x) gives x^-1 = conjugate(x) / N, and
    N = 0 a zero divisor.  A non-scalar N rules x out when s = 0 (Lounesto,
    2001) but not when s > 0 (1 - e123 in Cl(0,0,3)): only then does the
    inverse run, from the N already formed.
    """
    value = norm(x)
    n_value = value.scalar_part() if value.is_scalar() else None
    group = False
    if n_value:
        group = _is_stable(x, scalar_mul(1 / n_value, clifford_conjugation(x)))
    elif n_value is None and x.sig.s:
        try:
            group = _is_stable(x, _inverse_given_norm(x, value))
        except NotInvertible:
            pass
    pin = group and n_value in (1, -1)
    spin = pin and even_part(x) == x
    return Membership(group, pin, spin, n_value)


def in_clifford_group(x: Multivector) -> bool:
    """True iff x is invertible and its twisted adjoint keeps every e_i in V."""
    return membership(x).in_clifford_group


def norm_scalar(x: Multivector) -> Rational:
    """The scalar lambda with x * conjugate(x) = lambda; NotInGroup otherwise."""
    value = norm(x)
    if not value.is_scalar():
        raise NotInGroup("norm is not a scalar")
    return value.scalar_part()


def _check_expected_signature(x: Multivector, sig) -> None:
    if sig is not None and sig != x.sig:
        raise SignatureMismatch(f"element lives in Cl{x.sig}, not Cl{sig}")


def in_pin(x: Multivector, sig: Signature | None = None) -> bool:
    """Clifford group membership with norm +1 or -1.

    The optional signature is validated against the element's own; the same
    definition covers every signature, and for negative-definite forms it
    coincides with the kernel-of-N formulation (a tested property).
    """
    _check_expected_signature(x, sig)
    return membership(x).in_pin


def in_spin(x: Multivector, sig: Signature | None = None) -> bool:
    """Pin membership restricted to the even subalgebra."""
    _check_expected_signature(x, sig)
    return membership(x).in_spin


def _is_rational_square(value: Fraction) -> bool:
    if value < 0:
        return False
    num, den = value.numerator, value.denominator
    return math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den


def _rational_sqrt(value: Fraction) -> Fraction:
    return Fraction(math.isqrt(value.numerator), math.isqrt(value.denominator))


def lift_isometry(sig: Signature, m) -> LiftResult:
    """Product of reflection vectors whose twisted adjoint equals M exactly.

    The signature must be regular (s = 0) and M an exact isometry of its
    standard diagonal form.  det(M) = +1 yields an even element built from an
    even number of reflections.  The element is rescaled onto norm +-1 when
    |N| is the square of a rational; otherwise needs_normalization is set
    (the twisted adjoint is correct either way).
    """
    if sig.s > 0:
        raise DegenerateForm("lifting requires a regular signature")
    form = BilinearForm.from_signature(sig)
    rows = m.rows() if isinstance(m, IsometryMatrix) else _linalg.to_matrix(m)
    vectors = cartan_dieudonne_factor(form, rows)  # raises DimensionMismatch, NotAnIsometry
    element = Multivector.one(sig)
    n_value = Fraction(1)
    for w in vectors:
        element = geometric_product(element, embed_vector(w, sig))
        n_value *= -quadratic_value(form, w)
    needs_normalization = False
    if n_value not in (1, -1):
        if _is_rational_square(abs(n_value)):
            scale = _rational_sqrt(abs(n_value))
            element = scalar_mul(1 / scale, element)
            n_value = n_value / (scale * scale)
        else:
            needs_normalization = True
    return LiftResult(element, n_value, len(vectors), needs_normalization)
