"""Clifford-Lipschitz group, twisted adjoint action, Pin/Spin membership, lifts.

The twisted adjoint of x sends a vector v to grade_involution(x) * v * x^-1.
For an anisotropic vector x it is the hyperplane reflection through x, and on
the whole group its image preserves the standard diagonal form of the
signature.  Lifting an isometry multiplies the integer axes produced by the
factorization in quadratic_space, on their numerators.

Every stability decision and twisted adjoint matrix runs on the integer
numerators X = x._ints: grade_involution(X) * e_i is the relabelling e_i * X
(core_algebra._blade_times) negated on the blades holding e_i, and one
product with the numerators of the inverse (or with conjugate(X) when the
norm is a scalar) gives a multiple of rho_x(e_i).  twisted_adjoint_matrix
keeps those integers, and twisted_adjoint_apply builds one Fraction per
coordinate at the end.  For an even or odd X, X^ = eps*X with eps = +-1,
so the image with conjugate(X) is eps * X * e_i * conjugate(X), a sandwich
like the norm X * conjugate(X).  Conjugation reverses products, so it maps
the (a, b) term of a sandwich X * e_v * conjugate(X) onto the (b, a) one,
up to the conjugation signs of e_v and of the target blade:
core_algebra._sandwich forms each unordered pair once, and keeps it
(doubled) only where those signs agree.

Membership forms those images only where a theorem does not decide first: a
nonzero scalar norm on a regular signature puts x in the group exactly when
its blades are all even or all odd if n <= 5, and rules out mixed parity at
any n.  When s > 0, the map pi that sends each null generator to 0 is an
algebra map onto Cl(p,q) that commutes with the involutions, maps V onto
V(p,q) and keeps invertibility, so pi(x^ * v * x^-1) = pi(x)^ * pi(v) *
pi(x)^-1 puts pi(x) in Gamma(p,q) whenever x is in Gamma(p,q,s).  Then
pi(N(x)) = N(pi(x)) is a nonzero scalar and pi(x) has one parity; a
candidate that fails either is out, read off the N already formed.  The
images still run for a homogeneous x at n >= 6 and for every other
candidate when s > 0 (see membership for the proofs).

Lifts are projective: the twisted adjoint is unchanged under rescaling, so a
lift is rescaled onto norm +-1 only when that is possible inside the
rationals (|N| a rational square); otherwise it is returned unscaled with
needs_normalization set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import core_algebra
from .core_algebra import (
    Multivector,
    Rational,
    Signature,
    _blade_times,
    _inverse_given_norm,
    _involuted,
    _nonzero,
    blade_name,
    clifford_conjugation,
    embed_vector,
    grade_involution,
    inverse,
    norm,
    scalar_mul,
)
from .errors import (
    DegenerateForm,
    NotInGroup,
    NotInvertible,
    NotStable,
    SignatureMismatch,
)
from .quadratic_space import (
    BilinearForm,
    IsometryMatrix,
    _cartan_dieudonne_axes,
    _scaled_isometry,
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


def _hat_times_generator(x: dict, i: int, sig: Signature) -> dict:
    """grade_involution(X) * e_i for an integer map X, as a signed relabelling a -> a ^ e_i.

    (-1)^|a| e_a e_i = (-1)^[e_i in a] e_i e_a, so this is e_i * X with the
    sign flipped on each term whose source holds e_i, that is, whose target
    lacks it.
    """
    g = 1 << i
    return {t: c if t & g else -c for t, c in _blade_times(g, x, sig).items()}


def _twisted_images(x: dict, y: dict | None, sig: Signature):
    """X^ * e_i * Y for each generator in turn, as integer maps that may hold zeros.

    For X = s*x and Y = t*x^-1 each image is s*t*rho_x(e_i); for
    Y = conjugate(X) = s*N*x^-1 it is s*s*N*rho_x(e_i).  Every stability
    decision and matrix of the library is read from these.

    y = None stands for Y = conjugate(X) with X even or odd.  Then
    X^ = eps*X, eps = -1 for odd X, so each image is
    eps * X * e_i * conjugate(X), from core_algebra._sandwich: conjugation
    reverses products, so conjugate(e_a * e_i * conjugate(e_b)) =
    -e_b * e_i * conjugate(e_a), and the (a, b) and (b, a) terms cancel on
    the grades 0 and 3 mod 4 and are equal on the rest.  Only the unordered
    pairs landing on grades 1 and 2 mod 4 are multiplied, once each.  Every
    other Y, and a conjugate(X) of mixed parity, runs on
    core_algebra._product.
    """
    if y is None:
        odd = next(iter(x)).bit_count() & 1
        for i in range(sig.n):
            image = core_algebra._sandwich(x, 1 << i, sig)
            yield {mask: -value for mask, value in image.items()} if odd else image
        return
    for i in range(sig.n):
        yield core_algebra._product(_hat_times_generator(x, i, sig), y, sig)


def _off_vector(image: dict) -> int | None:
    """The first blade of the map with a nonzero coefficient and grade other than 1, else None."""
    return next((mask for mask, value in image.items() if value and mask.bit_count() != 1), None)


def _vector(image: dict, n: int) -> list[int]:
    """The integer coordinates of a map on the generators; NotStable names the first component outside V."""
    mask = _off_vector(image)
    if mask is not None:
        raise NotStable(
            "twisted adjoint leaves the vector space: "
            f"component {blade_name(mask, n)} has grade {mask.bit_count()}"
        )
    return [image.get(1 << i, 0) for i in range(n)]


def twisted_adjoint_apply(x: Multivector, coords) -> list[Rational]:
    """grade_involution(x) * v * x^-1 as coordinates; NotStable if not grade 1."""
    y = inverse(x)
    v = embed_vector(coords, x.sig)
    x_hat = grade_involution(x)
    # zeros dropped: they add nothing, but would set the blade order of the
    # image, whose first blade outside V is the one NotStable names
    left = _nonzero(core_algebra._product(x_hat._ints, v._ints, x.sig))
    image = core_algebra._product(left, y._ints, x.sig)
    scale = x_hat._scale * v._scale * y._scale
    return [Fraction(c, scale) for c in _vector(image, x.sig.n)]


def twisted_adjoint_matrix(x: Multivector) -> IsometryMatrix:
    """Matrix with columns rho_x(e_i), integer images over x._scale * y._scale, certified against the standard form."""
    y = inverse(x)
    columns = [_vector(image, x.sig.n) for image in _twisted_images(x._ints, y._ints, x.sig)]
    return IsometryMatrix(BilinearForm.from_signature(x.sig), list(zip(*columns)), x._scale * y._scale)


@dataclass(frozen=True)
class Membership:
    """Group facts of one element; n_value is None when x * conjugate(x) is not a scalar."""

    in_clifford_group: bool
    in_pin: bool
    in_spin: bool
    n_value: Rational | None


def membership(x: Multivector) -> Membership:
    """Clifford group, Pin and Spin membership from one norm and the parity of x.

    x is in the Clifford group iff it is invertible and its twisted adjoint
    keeps every e_i in V (v maps linearly to the image, so the basis
    suffices); in Pin iff also its norm is +1 or -1; in Spin iff also even.
    N = 0 makes x a zero divisor.  A non-scalar N rules x out when s = 0
    (Lounesto, 2001) but not when s > 0 (1 - e123 in Cl(0,0,3)): only then
    does the inverse run, from the N already formed, on its numerators, and
    only for a candidate that passes the quotient rule below.

    A nonzero scalar N = x * conjugate(x) = lambda gives x^-1 = conjugate(x) / N.
    When s = 0 the parity of the blades of x decides without an image:

    - (=>) On a regular form the twisted adjoint of a group element is an
      isometry, so by Cartan-Dieudonne it equals that of a product of
      anisotropic vectors w; ker rho is the nonzero scalars, so x is a scalar
      c times w and is even or odd, and N = c^2 * N(w) is a nonzero scalar.
      Mixed parity puts x outside, at any n.
    - (<=) Let x be even or odd, so grade_involution(x) = eps*x with
      eps = +-1.  For a vector v, y = x^ * v * conjugate(x) / lambda is odd,
      and conjugate(y) = x * (-v) * eps*conjugate(x) / lambda = -y, so y lies
      in grades 1 mod 4: grade 1 alone when n <= 4.  At n = 5 the only other
      grade is 5; the pseudoscalar I is central and
      conjugate(x) * I * x^ = eps*lambda*I, so <y*I>_0 = eps*<v*I>_0 = 0
      by cyclicity, and y is a vector.

    So for s = 0 a homogeneous x is in the group when n <= 5.  At n >= 6
    the rule fails (-2*e145 + e236 in Cl(3,3) has N = -3 and is outside),
    and for s > 0 mixed parity is no bar (1 + e1 in Cl(0,0,1)).  There, with
    X the integer numerators of x, stability is read off the integer
    products X^ * e_i * conjugate(X), a nonzero multiple of rho_x(e_i):
    eps * X * e_i * conjugate(X) from half the term pairs when x is even or
    odd (_twisted_images), a full product when its parity is mixed.

    When s > 0 the quotient by the null generators decides first.  Let
    pi: Cl(p,q,s) -> Cl(p,q) keep the blades below 1 << (p+q) and drop the
    rest.  The blades that hold a null generator span a two-sided ideal J
    with J^(s+1) = 0, and Cl(p,q) is a subalgebra complementing it, so pi
    is the quotient map onto Cl(p,q), an algebra map.  It keeps each
    remaining blade and its grade, so it commutes with the grade involution
    and with conjugation, and it maps V onto V(p,q) with pi(w) = w there.
    As J is nilpotent, x is invertible exactly when pi(x) is
    (core_algebra.inverse), and then pi(x^-1) = pi(x)^-1.

    - pi(Gamma(p,q,s)) lies in Gamma(p,q): for x in the group and w in
      V(p,q), v = x^ * w * x^-1 lies in V, so
      pi(x)^ * w * pi(x)^-1 = pi(v) lies in V(p,q).
    - By (=>) above, pi(x) then has a nonzero scalar norm and one parity,
      and pi(N(x)) = pi(x) * pi(conjugate(x)) = N(pi(x)).  So a nonzero N
      whose blades below 1 << (p+q) are not a nonzero scalar, or an x whose
      blades there mix parities, rules x out with no product and no image.
    - When the rule passes, pi(x) is invertible, so x is, and the images
      decide: with conjugate(X) when N is a nonzero scalar, else with the
      numerators of x^-1, inverted from the N already formed.  Candidates
      that pass and lie outside reach them:
      (-2*e145 + e236) * (1 + e7) in Cl(3,3,1) has N = -3, and its quotient
      is the n = 6 example above.
    """
    value = norm(x)
    n_value = value.scalar_part() if value.is_scalar() else None
    sig = x.sig
    limit = 1 << (sig.p + sig.q)
    if sig.s and value and (
        {mask for mask in value._ints if mask < limit} != {0}
        or len({mask.bit_count() & 1 for mask in x._ints if mask < limit}) != 1
    ):
        return Membership(False, False, False, n_value)  # pi(x) is outside Gamma(p,q)
    group = False
    parities = None
    images = None
    if n_value:
        parities = {mask.bit_count() & 1 for mask in x._ints}
        group = len(parities) == 1
        if group and (sig.s or sig.n > 5):
            images = _twisted_images(x._ints, None, sig)
        elif sig.s:
            images = _twisted_images(x._ints, _involuted(x._ints, "conjugate"), sig)
    elif n_value is None and sig.s:
        images = _twisted_images(x._ints, _inverse_given_norm(x, value)._ints, sig)
    if images is not None:
        group = all(_off_vector(image) is None for image in images)
    pin = group and n_value in (1, -1)
    spin = pin and parities == {0}
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


def _rational_sqrt(value: Fraction) -> Fraction | None:
    """The rational root of value >= 0, or None when value is not the square of a rational."""
    num, den = math.isqrt(value.numerator), math.isqrt(value.denominator)
    if num * num != value.numerator or den * den != value.denominator:
        return None
    return Fraction(num, den)


def lift_isometry(sig: Signature, m) -> LiftResult:
    """Product of reflection vectors whose twisted adjoint equals M exactly.

    The signature must be regular (s = 0) and M an exact isometry of its
    standard diagonal form, given as rows, an IsometryMatrix or a
    ScaledMatrix.  det(M) = +1 yields an even element built from an even
    number of reflections.  The element is rescaled onto norm +-1 when |N|
    is the square of a rational; otherwise needs_normalization is set (the
    twisted adjoint is correct either way).

    The factorization gives each axis as integers W over a scale, with
    q = W^T G W (quadratic_space._cartan_dieudonne_axes).  The element is
    the _product of the integer maps of the W, each partial product over
    the product of the scales reduced by Multivector._scaled, which keeps
    the numerators as small as geometric_product would at n = 16.  A
    vector squares to Phi(w) = q / scale^2 (the form of a signature has
    g = 1), and w * conjugate(w) = -w * w, so N = prod(-q) / prod(scale^2),
    with no Fraction until that one.
    """
    if sig.s > 0:
        raise DegenerateForm("lifting requires a regular signature")
    form = BilinearForm.from_signature(sig)
    axes = _cartan_dieudonne_axes(form, _scaled_isometry(m))  # raises DimensionMismatch, NotAnIsometry
    element = Multivector.one(sig)
    n_numerator = n_denominator = 1
    for w, w_scale, q in axes:
        vector = {1 << i: x for i, x in enumerate(w) if x}
        element = Multivector._scaled(sig, core_algebra._product(element._ints, vector, sig), element._scale * w_scale)
        n_numerator *= -q
        n_denominator *= w_scale * w_scale
    n_value = Fraction(n_numerator, n_denominator)
    needs_normalization = False
    if n_value not in (1, -1):
        root = _rational_sqrt(abs(n_value))
        if root is None:
            needs_normalization = True
        else:
            element = scalar_mul(1 / root, element)
            n_value = n_value / (root * root)
    return LiftResult(element, n_value, len(axes), needs_normalization)
