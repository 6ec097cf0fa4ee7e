"""Exact multivector arithmetic for real Clifford algebras Cl(p,q,s).

Basis blades are integer bit masks: bit i-1 set means generator e_i is a
factor, with factors always in ascending index order.  The product of two
blades lands on the XOR of their masks, with a sign from the transposition
parity of interleaving the factors times the squares of shared generators.
Every such sign comes from one kernel, _sign_masks: two masks per left
blade, read by one AND and one popcount per right blade.  _product,
_sandwich, the blade relabellings, blade_mul, multiplication_table and the
expression reader's blade words all read them.  Coefficients are exact
rationals, so every identity used downstream is decided exactly.  All
values are immutable and all operations are pure.

A Multivector holds integer numerators over one positive scale,
_ints[mask] / _scale, the least scale, so gcd(_scale, *_ints) = 1 and equal
values have equal fields: the common-denominator layout of FLINT's
fmpq_poly, and of _linalg.ScaledMatrix for matrices.  Only this module
converts between it and Fractions, in Multivector(sig, coeffs), _coeffs,
terms() and coefficient().  Every sum is _sum, one in-order pass over the
parts at their least common scale, for add and the expression readers.
Every geometric product is _product on the two integer maps, one int
product per term pair, over the product of the scales, with each pair's
sign read in the loop; groups, spinors and the CLI read _ints and _scale
and run _product themselves.  The one other product kernel is _sandwich,
X * e_v * conjugate(X) from the unordered term pairs, for the norm and
the twisted images of an even or odd element.  The cost grows with the
bit length of the scale, so an element whose denominators are many
distinct primes adds, multiplies, parses and prints slower than one
Fraction per coefficient would.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CoefficientTooLarge,
    DimensionCapExceeded,
    DimensionMismatch,
    NotAVector,
    NotInvertible,
    SignatureMismatch,
)

Rational = Fraction
Blade = int

DEFAULT_DIMENSION_CAP = 10
# Largest dimension cap the command line accepts, and the largest n whose
# blade names come from the half tables of _name_halves.
MAX_CAP = 16

# Largest numerator or denominator, in bits, that powers and rendering accept.
# It sits below CPython's 4300-digit limit on converting an int to text.
MAX_COEFFICIENT_BITS = 8192
# Longest decimal integer literal the parsers accept; 10^2457 < 2^8192.
MAX_LITERAL_DIGITS = MAX_COEFFICIENT_BITS * 3 // 10

@dataclass(frozen=True, order=True)
class Signature:
    """Counts of generators squaring to +1 (p), -1 (q), and 0 (s).

    Generator indices are 1-based and ordered: 1..p square to +1,
    p+1..p+q to -1, and p+q+1..n to 0.
    """

    p: int
    q: int
    s: int = 0

    def __post_init__(self):
        if min(self.p, self.q, self.s) < 0:
            raise ValueError("signature counts must be non-negative")

    @property
    def n(self) -> int:
        return self.p + self.q + self.s

    def generator_square(self, index: int) -> int:
        """Square of e_index as an int in {1, -1, 0}."""
        if not 1 <= index <= self.n:
            raise ValueError(f"generator index {index} out of range 1..{self.n}")
        if index <= self.p:
            return 1
        if index <= self.p + self.q:
            return -1
        return 0

    def __str__(self):
        return f"({self.p},{self.q},{self.s})"


def _negative_mask(sig: Signature) -> int:
    """Bit mask of the generators squaring to -1."""
    return ((1 << sig.q) - 1) << sig.p


def _zero_mask(sig: Signature) -> int:
    """Bit mask of the generators squaring to 0."""
    return ((1 << sig.s) - 1) << (sig.p + sig.q)


def blade_grade(mask: Blade) -> int:
    return mask.bit_count()


def blade_indices(mask: Blade) -> tuple[int, ...]:
    """Ascending 1-based generator indices of a blade mask."""
    out = []
    index = 1
    while mask:
        if mask & 1:
            out.append(index)
        mask >>= 1
        index += 1
    return tuple(out)


def blade_from_indices(indices, n: int) -> Blade:
    """Mask of a blade from distinct 1-based generator indices."""
    mask = 0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated generator index {i} in blade")
        mask |= bit
    return mask


def blade_name(mask: Blade, n: int) -> str:
    """Display name of a blade: "1", "e12", or "e{1,2}" when n > 9.

    For n <= MAX_CAP and a mask below 2^n the name joins two table entries,
    the indices of the low h = n // 2 bits and those of the rest, with ","
    between them past n = 9 when both are non-empty.
    """
    if mask == 0:
        return "1"
    if n > MAX_CAP or mask >> n:
        indices = blade_indices(mask)
        return "e" + "".join(map(str, indices)) if n <= 9 else "e{" + ",".join(map(str, indices)) + "}"
    h, low, high = _name_halves(n)
    low_name, high_name = low[mask & ((1 << h) - 1)], high[mask >> h]
    if n <= 9:
        return "e" + low_name + high_name
    if low_name and high_name:
        return "e{" + low_name + "," + high_name + "}"
    return "e{" + low_name + high_name + "}"


@functools.cache
def _name_halves(n: int) -> tuple:
    """(h, low, high): the joined indices of every mask of the low h = n // 2 bits, and of the high n - h bits.

    At most MAX_CAP entries, since n = 0 names only the scalar, each of at
    most 2 * 256 strings, built on the first name at each n.
    """
    h = n // 2
    separator = "," if n > 9 else ""

    def names(width: int, offset: int) -> tuple:
        return tuple(separator.join(str(i + offset) for i in blade_indices(m)) for m in range(1 << width))

    return h, names(h, 0), names(n - h, h)


def _rational(value) -> Rational:
    """An exact coefficient from an int or Fraction (returned as it is); anything else is a TypeError.

    A float is refused rather than silently becoming the Fraction of its
    53-bit binary value.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"coefficients must be int or Fraction, not {type(value).__name__}")


def check_ratio_bits(numerator: int, denominator: int) -> None:
    """Raise CoefficientTooLarge when a reduced numerator or denominator exceeds MAX_COEFFICIENT_BITS."""
    if max(numerator.bit_length(), denominator.bit_length()) > MAX_COEFFICIENT_BITS:
        raise CoefficientTooLarge(f"a coefficient exceeds the budget of {MAX_COEFFICIENT_BITS} bits")


def format_ratio(numerator: int, denominator: int) -> str:
    """The text "0", "a" or "a/b" of numerator / denominator > 0, reduced by one gcd.

    The budget (check_ratio_bits) applies to the reduced pair; it keeps every
    rendering far below the digit limit of str(int).
    """
    if not numerator:
        return "0"
    divisor = math.gcd(numerator, denominator)
    if divisor != 1:
        numerator //= divisor
        denominator //= divisor
    check_ratio_bits(numerator, denominator)
    return f"{numerator}/{denominator}" if denominator != 1 else str(numerator)


def check_coefficient_bits(x: "Multivector") -> None:
    """Raise CoefficientTooLarge when a coefficient exceeds MAX_COEFFICIENT_BITS."""
    # a reduced coefficient is no longer than its numerator and the scale
    if max([x._scale, *map(abs, x._ints.values())]).bit_length() > MAX_COEFFICIENT_BITS:
        for value in x._ints.values():
            divisor = math.gcd(value, x._scale)
            check_ratio_bits(value // divisor, x._scale // divisor)


def _nonzero(coeffs: dict) -> dict:
    return {mask: value for mask, value in coeffs.items() if value}


def _check_blade(mask: Blade, sig: Signature) -> None:
    if not 0 <= mask < (1 << sig.n):
        raise ValueError(f"blade mask {mask} out of range for signature {sig}")


def _reorder_parity(a: Blade) -> int:
    """Bit t is set when a has an odd number of factors above generator t+1.

    A suffix XOR of a >> 1 by doubling shifts: ceil(log2 n) steps, not n.
    """
    parity = a >> 1
    shift = 1
    while parity >> shift:
        parity ^= parity >> shift
        shift <<= 1
    return parity


def _sign_masks(a: Blade, neg_mask: int, zero_mask: int) -> tuple[int, int]:
    """(flips, null) of blade a, the one blade-sign kernel.

    e_a * e_b is 0 when b & null is set; otherwise it is e_(a^b), negated
    when (b & flips).bit_count() is odd.  Sorting the factors of b into a
    moves each one past the factors of a above it, (b &
    _reorder_parity(a)).bit_count() transpositions in all, and each shared
    generator squaring to -1 flips the sign once more; the two parities fold
    into flips.  The product is 0 exactly when a shared generator squares
    to 0.
    """
    return _reorder_parity(a) ^ (a & neg_mask), a & zero_mask


def _blade_mul_signs(a: Blade, bs, neg_mask: int, zero_mask: int) -> list[int]:
    """Signs of the blade products a * b for each b in bs, as ints in {1, -1, 0}, from _sign_masks."""
    flips, null = _sign_masks(a, neg_mask, zero_mask)
    return [0 if b & null else -1 if (b & flips).bit_count() & 1 else 1 for b in bs]


# Blade coefficients indexed by sign; index -1 is the last entry.
_SIGN_COEFFICIENTS = (Fraction(0), Fraction(1), Fraction(-1))


def blade_mul(a: Blade, b: Blade, sig: Signature) -> tuple[Rational, Blade]:
    """Product of two basis blades: (coefficient, result mask).

    The result mask is always a XOR b.  The coefficient is the transposition
    parity times the product of the squares of shared generators, hence one
    of +1, -1, or 0 (0 exactly when a shared generator squares to 0).
    """
    _check_blade(a, sig)
    _check_blade(b, sig)
    sign = _blade_mul_signs(a, (b,), _negative_mask(sig), _zero_mask(sig))[0]
    return _SIGN_COEFFICIENTS[sign], a ^ b


def _blade_square(mask: Blade, sig: Signature) -> int:
    """e_mask * e_mask as an int in {1, -1, 0}, read from the _sign_masks of mask with no range check."""
    flips, null = _sign_masks(mask, _negative_mask(sig), _zero_mask(sig))
    return 0 if mask & null else -1 if (mask & flips).bit_count() & 1 else 1


def _blade_times(mask: Blade, x: dict, sig: Signature) -> dict:
    """e_mask * X for an int or Fraction map X: blade b moves to mask ^ b with its sign, in X's order.

    The signs are read from the _sign_masks of mask, as in _product's loop
    for one row; a term drops when the blades share a null generator, and no
    term pairs are formed.
    """
    flips, null = _sign_masks(mask, _negative_mask(sig), _zero_mask(sig))
    return {mask ^ b: -c if (b & flips).bit_count() & 1 else c for b, c in x.items() if not b & null}


def _times_blade(x: dict, mask: Blade, sig: Signature) -> dict:
    """X * e_mask for an int or Fraction map X: blade b moves to b ^ mask with its sign, in X's order.

    Sorting the factors of e_mask into b moves each factor of b past the
    factors of e_mask below it, so the transposition parity is |b & lower|,
    with bit t of lower set when mask has an odd number of factors below
    generator t+1: the parity of |mask| XOR bit t of mask XOR bit t of
    _reorder_parity(mask), which counts the factors above.  So the flips of
    _sign_masks(mask), XOR mask, XOR every bit when |mask| is odd, serve
    every term; a term drops when the blades share a null generator.
    """
    flips, null = _sign_masks(mask, _negative_mask(sig), _zero_mask(sig))
    flips ^= mask ^ ((1 << sig.n) - 1 if mask.bit_count() & 1 else 0)
    return {b ^ mask: -c if (b & flips).bit_count() & 1 else c for b, c in x.items() if not b & null}


class Multivector:
    """Element of Cl(p,q,s): a sparse map from blade mask to rational.

    The value is _ints[mask] / _scale: nonzero int numerators over the least
    positive scale, so gcd(_scale, *_ints) = 1 (see the module docstring).
    Instances are immutable; arithmetic returns new values.  Equality is
    signature plus value equality, hence equality of the fields.
    """

    __slots__ = ("sig", "_ints", "_scale")

    def __init__(self, sig: Signature, coeffs=None):
        clean = {}
        limit = 1 << sig.n
        for mask, value in dict(coeffs or {}).items():
            if not 0 <= mask < limit:
                raise ValueError(f"blade mask {mask} out of range for signature {sig}")
            clean[mask] = _rational(value)
        ints, scale = _integer_scaled(_nonzero(clean))
        _set_sig(self, sig)
        _set_ints(self, ints)
        _set_scale(self, scale)

    @classmethod
    def _scaled(cls, sig: Signature, ints: dict, scale: int) -> "Multivector":
        """ints / scale for an int map and a nonzero int scale: zeros dropped, gcd divided out, scale > 0."""
        ints = _nonzero(ints)
        if scale != 1:
            divisor = math.gcd(scale, *ints.values())
            if scale < 0:
                divisor = -divisor
            if divisor != 1:
                ints = {mask: v // divisor for mask, v in ints.items()}
                scale //= divisor
        self = object.__new__(cls)
        _set_sig(self, sig)
        _set_ints(self, ints)
        _set_scale(self, scale)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through _scaled, not __setattr__
        return (Multivector._scaled, (self.sig, self._ints, self._scale))

    # constructors

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls._scaled(sig, {}, 1)

    @classmethod
    def scalar(cls, sig: Signature, value) -> "Multivector":
        return cls.basis_blade(sig, 0, value)

    @classmethod
    def one(cls, sig: Signature) -> "Multivector":
        return cls._scaled(sig, {0: 1}, 1)

    @classmethod
    def basis_blade(cls, sig: Signature, mask: Blade, coefficient=1) -> "Multivector":
        _check_blade(mask, sig)
        value = _rational(coefficient)
        return cls._scaled(sig, {mask: value.numerator}, value.denominator)

    @classmethod
    def generator(cls, sig: Signature, index: int) -> "Multivector":
        """The grade-1 generator e_index (1-based)."""
        if not 1 <= index <= sig.n:
            raise ValueError(f"generator index {index} out of range 1..{sig.n}")
        return cls._scaled(sig, {1 << (index - 1): 1}, 1)

    # inspection

    @property
    def _coeffs(self) -> dict:
        """The coefficients as a new map from mask to Fraction, in _ints order."""
        scale = self._scale
        if scale == 1:  # Fraction(v) skips the gcd
            return {mask: Fraction(v) for mask, v in self._ints.items()}
        return {mask: Fraction(v, scale) for mask, v in self._ints.items()}

    def terms(self) -> tuple[tuple[Blade, Rational], ...]:
        """Coefficients as (mask, value) pairs in ascending mask order."""
        return tuple(sorted(self._coeffs.items()))

    def coefficient(self, mask: Blade) -> Rational:
        _check_blade(mask, self.sig)
        return Fraction(self._ints.get(mask, 0), self._scale)

    def scalar_part(self) -> Rational:
        return Fraction(self._ints.get(0, 0), self._scale)

    def is_zero(self) -> bool:
        return not self._ints

    def is_scalar(self) -> bool:
        return all(mask == 0 for mask in self._ints)

    def grades(self) -> tuple[int, ...]:
        return tuple(sorted({mask.bit_count() for mask in self._ints}))

    def __eq__(self, other):
        if isinstance(other, Multivector):
            return self.sig == other.sig and (self._scale, self._ints) == (other._scale, other._ints)
        if isinstance(other, (int, Fraction)):
            return self == Multivector.scalar(self.sig, other)
        return NotImplemented

    def __hash__(self):
        # a scalar value equals its int or Fraction, so it hashes as that number
        if self.is_scalar():
            return hash(self.scalar_part())
        return hash((self.sig, self._scale, tuple(sorted(self._ints.items()))))

    def __bool__(self):
        return bool(self._ints)

    def __repr__(self):
        from .expr import pretty_print

        try:
            return f"<{pretty_print(self)} in Cl{self.sig}>"
        except CoefficientTooLarge:  # sizes only: str() of such an int may pass the digit limit
            largest = max(map(abs, self._ints.values())).bit_length()
            return (
                f"<{len(self._ints)} term(s) in Cl{self.sig} past the print budget: "
                f"numerators up to {largest} bits over a {self._scale.bit_length()}-bit scale>"
            )

    # arithmetic sugar, delegating to the module-level operations

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Multivector.scalar(self.sig, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Multivector.scalar(self.sig, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return add(self, -other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Multivector._scaled(self.sig, {m: -v for m, v in self._ints.items()}, self._scale)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return scalar_mul(other, self)
        if not isinstance(other, Multivector):
            return NotImplemented
        return geometric_product(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return scalar_mul(other, self)
        return NotImplemented

    def __truediv__(self, other):
        return scalar_mul(1 / _rational(other), self)

    def __pow__(self, exponent):
        """Repeated squaring; CoefficientTooLarge once a coefficient passes the budget."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Multivector.one(self.sig)
        square = self
        while exponent:
            if exponent & 1:
                result = geometric_product(result, square)
                check_coefficient_bits(result)
            exponent >>= 1
            if exponent:
                square = geometric_product(square, square)
                check_coefficient_bits(square)
        return result


# the slot setters: they pass the refusing __setattr__, and cost less than object.__setattr__
_set_sig, _set_ints, _set_scale = (Multivector.__dict__[name].__set__ for name in Multivector.__slots__)


def _require_same_signature(x: Multivector, y: Multivector) -> None:
    if x.sig != y.sig:
        raise SignatureMismatch(f"signatures differ: {x.sig} vs {y.sig}")


def _product(x: dict, y: dict, sig: Signature) -> dict:
    """Product of two coefficient maps; the result may hold zeros.

    Every product of the library but the sandwiches X * e_v * conjugate(X)
    of _sandwich runs here on integer maps, the _ints of its operands, one
    int product per term pair; geometric_product divides by the product of
    the two scales once.  Each row a of x takes its _sign_masks once, and
    each pair reads its sign from them in the loop: no sign list is built
    per row.
    """
    neg_mask = _negative_mask(sig)
    zero_mask = _zero_mask(sig)
    acc: dict = {}
    y_terms = y.items()
    for a, ca in x.items():
        flips, null = _sign_masks(a, neg_mask, zero_mask)
        for b, cb in y_terms:
            if b & null:
                continue
            mask = a ^ b
            term = -(ca * cb) if (b & flips).bit_count() & 1 else ca * cb
            prior = acc.get(mask)
            acc[mask] = term if prior is None else prior + term
    return acc


def _sandwich(x: dict, v: Blade, sig: Signature) -> dict:
    """X * e_v * conjugate(X) for an integer map X, from the unordered term pairs; the result may hold zeros.

    Write sigma(c) = +-1 for the conjugation sign of blade c, -1 on grades
    1 and 2 mod 4.  The pair (a, b) adds X_a * sigma(b)X_b * e_a e_v e_b,
    with e_a e_v e_b = t * e_c, c = a ^ v ^ b and t in {1, -1, 0}.
    Conjugation reverses products, so conjugate(e_a e_v e_b) =
    sigma(a)sigma(v)sigma(b) * e_b e_v e_a, and it is a bijection, so the
    (a, b) and (b, a) terms vanish together.  Otherwise e_b e_v e_a =
    sigma(a)sigma(v)sigma(b)sigma(c) * t * e_c, and the two terms add to
    (1 + sigma(v)sigma(c)) times the (a, b) one: 0 when sigma(c) differs
    from sigma(v), twice it when they agree.  So each a < b (in X's order)
    counts twice when sigma(c) = sigma(v) and not at all otherwise, and
    the diagonal a = b, landing on v, counts once: half the term pairs of
    _product, of which about half are kept.

    Row a reads its signs from the _sign_masks of a ^ v, and its left
    factor e_a e_v = +-e_(a^v) is the term X * e_v of _times_blade (absent
    when the two share a null generator, so the whole row vanishes); when
    v = 0 that factor is X_a itself.
    """
    neg_mask = _negative_mask(sig)
    zero_mask = _zero_mask(sig)
    keep = (v.bit_count() + 1) & 2  # 2 when sigma(v) = -1
    terms = list(_involuted(x, "conjugate").items())
    rows = _times_blade(x, v, sig) if v else x
    acc: dict = {}
    for i, (a, ca) in enumerate(terms):
        row = a ^ v
        left = rows.get(row)
        if left is None:
            continue
        flips, null = _sign_masks(row, neg_mask, zero_mask)
        if not a & null:
            term = -(left * ca) if (a & flips).bit_count() & 1 else left * ca
            prior = acc.get(v)
            acc[v] = term if prior is None else prior + term
        left *= 2
        for b, cb in terms[i + 1 :]:
            if b & null:
                continue
            mask = row ^ b
            if (mask.bit_count() + 1) & 2 != keep:
                continue
            term = -(left * cb) if (b & flips).bit_count() & 1 else left * cb
            prior = acc.get(mask)
            acc[mask] = term if prior is None else prior + term
    return acc


def _integer_scaled(coeffs: dict) -> tuple[dict, int]:
    """(X, scale) with integer coefficients X and coeffs = X / scale, scale the least."""
    scale = math.lcm(*[value.denominator for value in coeffs.values()])
    if scale == 1:
        return {mask: v.numerator for mask, v in coeffs.items()}, 1
    return {mask: v.numerator * (scale // v.denominator) for mask, v in coeffs.items()}, scale


def geometric_product(x: Multivector, y: Multivector) -> Multivector:
    """Bilinear extension of the blade product; associative and unital."""
    _require_same_signature(x, y)
    return Multivector._scaled(x.sig, _product(x._ints, y._ints, x.sig), x._scale * y._scale)


def _sum(sig: Signature, parts: list) -> Multivector:
    """The sum of (ints, scale) parts, int maps with no zeros over positive scales, in order.

    A blade whose running sum reaches 0 is deleted at once, so one that
    cancels and comes back is stored last, as in a chain of two-term sums.
    """
    scale = math.lcm(*[part_scale for _, part_scale in parts])
    acc: dict = {}
    for ints, part_scale in parts:
        factor = scale // part_scale
        for mask, value in ints.items():
            value *= factor
            prior = acc.get(mask)
            if prior is None:
                acc[mask] = value
            else:
                value += prior
                if value:
                    acc[mask] = value
                else:
                    del acc[mask]
    return Multivector._scaled(sig, acc, scale)


def add(x: Multivector, y: Multivector) -> Multivector:
    _require_same_signature(x, y)
    return _sum(x.sig, [(x._ints, x._scale), (y._ints, y._scale)])


def scalar_mul(c, x: Multivector) -> Multivector:
    c = _rational(c)
    ints = {mask: c.numerator * value for mask, value in x._ints.items()}
    return Multivector._scaled(x.sig, ints, c.denominator * x._scale)


def grade_projection(x: Multivector, k: int) -> Multivector:
    """Keep exactly the blades of grade k."""
    if not 0 <= k <= x.sig.n:
        raise ValueError(f"grade {k} out of range 0..{x.sig.n}")
    return Multivector._scaled(
        x.sig, {mask: value for mask, value in x._ints.items() if mask.bit_count() == k}, x._scale
    )


def even_part(x: Multivector) -> Multivector:
    return Multivector._scaled(
        x.sig, {mask: value for mask, value in x._ints.items() if mask.bit_count() % 2 == 0}, x._scale
    )


def odd_part(x: Multivector) -> Multivector:
    return Multivector._scaled(
        x.sig, {mask: value for mask, value in x._ints.items() if mask.bit_count() % 2 == 1}, x._scale
    )


# Grades mod 4 whose blades each involution negates.
_INVOLUTION_NEGATES = {"grade": (1, 3), "reverse": (2, 3), "conjugate": (1, 2)}


def involution(x: Multivector, kind: str) -> Multivector:
    """Canonical (anti)automorphisms, blade by blade.

    kind "grade": sign (-1)^k, the automorphism negating each generator.
    kind "reverse": sign (-1)^(k(k-1)/2), the antiautomorphism reversing
    products.  kind "conjugate": their composition, sign (-1)^(k(k+1)/2).
    """
    if kind not in _INVOLUTION_NEGATES:
        raise ValueError(
            f"unknown involution kind {kind!r}; expected one of {tuple(_INVOLUTION_NEGATES)}"
        )
    return Multivector._scaled(x.sig, _involuted(x._ints, kind), x._scale)


def _involuted(coeffs: dict, kind: str) -> dict:
    """involution on a coefficient map (Fractions or ints), blade by blade, order kept."""
    negated = _INVOLUTION_NEGATES[kind]
    return {m: -v if m.bit_count() % 4 in negated else v for m, v in coeffs.items()}


def grade_involution(x: Multivector) -> Multivector:
    return involution(x, "grade")


def reversion(x: Multivector) -> Multivector:
    return involution(x, "reverse")


def clifford_conjugation(x: Multivector) -> Multivector:
    return involution(x, "conjugate")


def norm(x: Multivector) -> Multivector:
    """The full product x * conjugate(x).

    A multivector in general; a nonzero scalar when x lies in the
    Clifford-Lipschitz group of a regular form.  It is _sandwich(X, 0) over
    scale^2 for X = x._ints: conjugation reverses products, so
    conjugate(e_a * conjugate(e_b)) = e_b * conjugate(e_a), and the (a, b)
    and (b, a) terms cancel on the blades that conjugation negates and are
    equal on the rest.  Only the unordered pairs landing on grades 0 and 3
    mod 4 are multiplied, once each.
    """
    return Multivector._scaled(x.sig, _sandwich(x._ints, 0, x.sig), x._scale * x._scale)


def embed_vector(coords, sig: Signature) -> Multivector:
    """Grade-1 element with the given coordinates; embed(v)^2 = Phi(v)."""
    coords = list(coords)
    if len(coords) != sig.n:
        raise DimensionMismatch(f"expected {sig.n} coordinates, got {len(coords)}")
    return Multivector(sig, {1 << i: value for i, value in enumerate(coords)})


def extract_vector(x: Multivector) -> list[Rational]:
    """Coordinates of a purely grade-1 multivector."""
    for mask in x._ints:
        if mask.bit_count() != 1:
            raise NotAVector(f"component {blade_name(mask, x.sig.n)} has grade {mask.bit_count()}")
    return [Fraction(x._ints.get(1 << i, 0), x._scale) for i in range(x.sig.n)]


def inverse(x: Multivector) -> Multivector:
    """Two-sided inverse: conjugate(x) / N when N = norm(x) is a nonzero scalar.

    Otherwise _faddeev_leverrier_inverse decides on a regular signature.
    When s > 0, write x = a + nu with a the part of x free of null
    generators and nu in the radical J spanned by the blades that contain
    one; J^(s+1) = 0.  A = Cl(p,q,s) maps onto A/J = Cl(p,q) with kernel J,
    so x is invertible exactly when a is invertible in Cl(p,q).  Newton's
    step y -> y * (2 - x * y) squares the residual 1 - x * y, which starts
    in J at y = a^-1, so s.bit_length() steps reach x * y = 1.  A right
    inverse in a finite-dimensional algebra is two-sided, so only
    _faddeev_leverrier_inverse checks its result (on both sides).
    """
    if x.is_zero():
        raise NotInvertible("zero is not invertible")
    return _inverse_given_norm(x, norm(x))


def _inverse_given_norm(x: Multivector, value: Multivector) -> Multivector:
    """inverse(x) for a nonzero x whose norm the caller already holds as value.

    When s > 0 the part a of x free of null generators is inverted from the
    part of value free of them, which is N(a): dropping the null generators
    is an algebra map that commutes with conjugation (see inverse).
    """
    if value and value.is_scalar():
        return scalar_mul(1 / value.scalar_part(), clifford_conjugation(x))
    sig = x.sig
    if not sig.s:
        return _faddeev_leverrier_inverse(x)
    regular = Signature(sig.p, sig.q)
    limit = 1 << regular.n
    a, a_norm = (
        Multivector._scaled(regular, {m: v for m, v in z._ints.items() if m < limit}, z._scale) for z in (x, value)
    )
    try:
        a_inverse = _inverse_given_norm(a, a_norm)
    except NotInvertible:
        raise NotInvertible("element has no inverse modulo the null generators") from None
    y = Multivector._scaled(sig, a_inverse._ints, a_inverse._scale)
    for _ in range(sig.s.bit_length()):
        y = geometric_product(y, 2 - geometric_product(x, y))
    return y


def _faddeev_leverrier_inverse(x: Multivector) -> Multivector:
    """Two-sided inverse on a regular signature by the Faddeev-LeVerrier recursion.

    With x = X / scale (its _ints and _scale), all the work below runs in
    int arithmetic on X; the result is divided by c_m once.  The
    recursion follows Shirokov (2021).  Cl(p,q) has a faithful matrix
    representation of size m = 2^ceil(n/2) on which the trace is m times
    the scalar part.  With M_1 = 1, each step sets U_k = X * M_k and
    c_k = -(m/k) <U_k>_0, and M_{k+1} = U_k + c_k.  Every c_k is a
    characteristic-polynomial coefficient of an integer matrix, hence an
    integer.  Cayley-Hamilton gives X^-1 = -M_m / c_m, and c_m = 0 exactly
    when x is not invertible.  Both sides are checked: x * y = y * x = 1 for
    y = -scale * M_m / c_m reads X * M_m = M_m * X = -c_m.
    """
    sig = x.sig
    scaled, scale = x._ints, x._scale
    size = 1 << ((sig.n + 1) // 2)
    m_k = {0: 1}
    for k in range(1, size + 1):
        u_k = _product(scaled, m_k, sig)
        c_k = -size * u_k.get(0, 0) // k  # exact: c_k is an integer
        if k == size:
            break
        u_k[0] = u_k.get(0, 0) + c_k
        m_k = _nonzero(u_k)
    if not c_k:
        raise NotInvertible("element has no inverse")
    if _nonzero(u_k) != {0: -c_k} or _nonzero(_product(m_k, scaled, sig)) != {0: -c_k}:
        raise NotInvertible("element has no two-sided inverse")
    return Multivector._scaled(sig, {mask: -scale * value for mask, value in m_k.items()}, c_k)


def multiplication_table(sig: Signature, cap: int = DEFAULT_DIMENSION_CAP):
    """Complete blade product table, table[a][b] = (coefficient, mask).

    Each row takes the signs of a against every b from the kernel that
    blade_mul and geometric_product use, so the reordering parity of a is
    computed once per row and each entry costs one AND and one popcount.
    """
    if sig.n > cap:
        raise DimensionCapExceeded(f"signature {sig} has n={sig.n} > cap {cap}")
    dim = 1 << sig.n
    neg_mask = _negative_mask(sig)
    zero_mask = _zero_mask(sig)
    table = []
    for a in range(dim):
        signs = _blade_mul_signs(a, range(dim), neg_mask, zero_mask)
        table.append([(_SIGN_COEFFICIENTS[sign], a ^ b) for b, sign in enumerate(signs)])
    return table
