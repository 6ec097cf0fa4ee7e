"""Idempotent calculus and algebraic spinor spaces.

A complete set of 2^k primitive orthogonal idempotents is built from k
commuting, multiplicatively independent basis blades squaring to +1, with
k = q - r(q - p) where r is the Radon-Hurwitz sequence.  Minimal left ideals
are spanned by exact row reduction of the blade images b * f, one block per
coset of the GF(2) span of the idempotent's support masks; the division
ring f * A * f fixes the coefficient ring (R, C, or H) of the spinor module;
the center decides simplicity; E_ij elements realize the equivalence of the
minimal representations inside one simple component.

Trace lemma: for idempotents l and r, x -> l * x * r is an idempotent
linear map that keeps every coset block, and over Q the rank of an
idempotent map is its trace.  The ideal A * f (l = 1, r = f), the division
ring f * A * f and the Peirce spaces f_i * A * f_j are all such images.
Their traces come from blade masks alone, block by block, so each block is
reduced only until it reaches its known rank.

Stabilizer relations: most generators are products f = prod_v (1 +
sigma_v e_v)/2 of commuting idempotents over the GF(2) echelon basis v of
f's support, among them every canonical idempotent and the split faithful
generator.  _product_form decides that by k blade relabellings, which also
proves f * f = f.  For such an f every block of A * f has rank one, with
the relabelling e_c * F as its row, b * f = b reads b * e_v = sigma_v b,
and no product is formed; any other generator takes the products above.
The rows of such an ideal split the blades, so a representation matrix is
read through one blade index (_index_read).  One coset-leader rule gives
every Peirce space l * A * f of such an f with l = 1 or l a product over
the same basis, and interbasis_element reads E_ji off E_ij by relabellings
whenever E_ij is one.  Each public function certifies each generator it
receives once (_require_idempotent returns _product_form's result) and
passes the certificate on: to _blade_image_span, which takes those of both
sides, and to the IdealBasis that left_ideal_basis builds, whose rows of
the form e_p * F then pass with one relabelling each.

Wedderburn: Cl(p,q) is one or two copies of M_m(D) for a single division
ring D, so f * A * f is a division ring exactly when its dimension is
dim D, and it is then a copy of D.  division_ring_info reads the kind off
that dimension; on a degenerate Cl(p,q,s) the same holds with D that of
the regular part Cl(p,q) (see there).

Everything else here requires a regular signature (s = 0).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction

from . import _linalg, core_algebra
from .core_algebra import (
    DEFAULT_DIMENSION_CAP,
    Multivector,
    Signature,
    _blade_square,
    _blade_times,
    _nonzero,
    _times_blade,
    add,
    blade_name,
    geometric_product,
)
from .errors import (
    DegenerateForm,
    DimensionCapExceeded,
    NoSolution,
    NotIdempotent,
    NotSimple,
    SearchFailed,
    SignatureMismatch,
    UnexpectedDimension,
)

_RADON_HURWITZ_BASE = (0, 1, 2, 2, 3, 3, 3, 3)


def radon_hurwitz(j: int) -> int:
    """The sequence 0,1,2,2,3,3,3,3 on 0..7, extended by r(j+8) = r(j) + 4.

    The same recursion applied downward defines the value for negative j.
    """
    return _RADON_HURWITZ_BASE[j % 8] + 4 * (j // 8)


def idempotent_count_exponent(sig: Signature) -> int:
    """The exponent k with 2^k primitive idempotents: k = q - r(q - p)."""
    if sig.s:
        raise DegenerateForm("idempotent structure requires a regular signature")
    k = sig.q - radon_hurwitz(sig.q - sig.p)
    assert k >= 0, f"negative idempotent exponent for {sig}"
    return k


def _reduce_mask(mask: int, basis) -> int:
    """mask reduced against a GF(2) echelon basis with distinct leading bits, highest first.

    The result has no leading bit of the basis set: 0 exactly when mask lies
    in the span, and otherwise the same value for every mask of its coset.
    """
    for v in basis:
        mask = min(mask, mask ^ v)
    return mask


def _echelon_basis(masks) -> list[int]:
    """GF(2) echelon basis of the span of masks, leading bits distinct and descending."""
    basis: list[int] = []
    for mask in masks:
        mask = _reduce_mask(mask, basis)
        if mask:
            basis.append(mask)
            basis.sort(reverse=True)
    return basis


def _anticommute(a: int, b: int) -> bool:
    """Whether blades a and b anticommute, when they share no null generator.

    Moving a past b takes |a||b| transpositions, less one pair of equal
    factors for each shared generator.
    """
    return bool((a.bit_count() * b.bit_count() - (a & b).bit_count()) & 1)


def _admissible(mask: int, chosen, sig: Signature) -> str | None:
    """None when mask may join the chosen blades, else the message of the first test it fails.

    The square is read from mask's sign masks (core_algebra._blade_square),
    with no range check and no Fraction: every caller passes a mask below
    2^n.  Once the square test has passed, mask holds no null generator, so
    _anticommute decides commutation.
    """
    if _blade_square(mask, sig) != 1:
        return "blade {} does not square to +1"
    if any(_anticommute(mask, other) for other in chosen):
        return "blade {} does not commute with the set"
    if not _reduce_mask(mask, _echelon_basis(chosen)):
        return "blades are not multiplicatively independent"
    return None


def _product_form(f: Multivector) -> dict[int, int] | None:
    """{v: sigma_v} over the GF(2) echelon basis of f's support when f = prod_v (1 + sigma_v e_v)/2, else None.

    The test, k = |basis| relabellings and no term pair: a regular
    signature, f = F / 2^k with F[0] = 1, and for each v, sigma_v = F[v] in
    {1, -1} with e_v * F = sigma_v F.  It is exact.  F != 0 and e_v * e_v *
    F = F force the scalar e_v * e_v to be 1; an anticommuting pair would
    give e_v * e_w * F = sigma_v sigma_w F = -e_v * e_w * F, so F = -F.  For
    s in the span S, e_s is +- a product of commuting e_v, so e_s * F =
    chi(s) F for a sign chi(s) fixed by the e_v and sigma_v; the coefficient
    of e_s * F on s is F[0] = 1, so F[s] = chi(s) for every s in S, which
    holds F's support.  P = prod_v (1 + sigma_v e_v) obeys the same
    relations, as e_v * (1 + sigma_v e_v) = sigma_v (1 + sigma_v e_v), and
    P[0] = 1 since the v are independent; so P = F, and f is a product of k
    commuting idempotents, an idempotent.

    Every canonical idempotent passes, and so do 1 (k = 0) and the split
    faithful generator f + g (see faithful_ideal).  A conjugated idempotent
    in general fails and any idempotent with s > 0 fails; their callers keep
    the product path.
    """
    ints = f._ints
    basis = _echelon_basis(ints)
    if f.sig.s or f._scale != 1 << len(basis) or ints.get(0) != 1:
        return None
    signs = {}
    for v in basis:
        sigma = ints.get(v)
        if sigma not in (1, -1) or _blade_times(v, ints, f.sig) != {m: sigma * c for m, c in ints.items()}:
            return None
        signs[v] = sigma
    return signs


def _is_idempotent(f: Multivector) -> bool:
    """f * f = f: by _product_form's relabellings, or by one product for any other f."""
    return _product_form(f) is not None or geometric_product(f, f) == f


@dataclass(frozen=True)
class CommutingBladeSet:
    """Commuting blades squaring to +1 with no nonempty sub-product equal to +-1."""

    sig: Signature
    blades: tuple[int, ...]

    def __post_init__(self):
        for i, mask in enumerate(self.blades):
            core_algebra._check_blade(mask, self.sig)
            failed = _admissible(mask, self.blades[:i], self.sig)
            if failed:
                raise ValueError(failed.format(blade_name(mask, self.sig.n)))


def find_commuting_blades(sig: Signature, cap: int = DEFAULT_DIMENSION_CAP) -> CommutingBladeSet:
    """k commuting independent +1-square blades, in one ascending pass, which never backtracks.

    The pass takes each mask that _admissible accepts against the blades
    taken so far, and stops at k.  Let S hold j < k of them and f = prod_{u
    in S} (1 + u)/2.  dim A*f = 2^(n-j) exceeds 2^(n-k), that of a minimal
    left ideal, so f*A*f is not a division ring.  For a blade b, f*b*f is
    f*b when b commutes with all of S and 0 otherwise, and f*b = +-f*b'
    exactly when b' is in b + span(S).  So f*A*f is a twisted group algebra
    of C(S)/span(S), C(S) the blades commuting with S, whose basis elements
    square to +-f.  Were every non-identity one of square -f, any two would
    anticommute (a commuting pair has a product of square +f); three
    independent ones cannot (the product of two commutes with the third),
    so f*A*f would be R, C or H.  Hence some b outside span(S) commutes with
    S and squares to +1.  It is never behind the scan: the tests pass on
    subsets of S, so when the scan passed b it would have taken it.  The
    pass thus reaches k with the choices of a depth-first search in
    ascending order: the lexicographically smallest set.  SearchFailed
    would contradict this argument.
    """
    if sig.s:
        raise DegenerateForm("blade search requires a regular signature")
    if sig.n > cap:
        raise DimensionCapExceeded(f"signature {sig} has n={sig.n} > cap {cap}")
    k = idempotent_count_exponent(sig)
    chosen: list[int] = []
    for mask in range(1, 1 << sig.n):
        if len(chosen) == k:
            break
        if _admissible(mask, chosen, sig) is None:
            chosen.append(mask)
    if len(chosen) < k:
        raise SearchFailed(f"no commuting blade set of size {k} in Cl{sig}")
    return CommutingBladeSet(sig, tuple(chosen))


@dataclass(frozen=True)
class IdempotentSet:
    """All 2^k products prod (1 + eps_t u_t) / 2: a complete set of primitive orthogonal idempotents.

    Checked: k = idempotent_count_exponent blades on a regular signature,
    2^k nonzero members, each idempotent, summing to 1 (one pass of
    core_algebra._sum over their integer maps).  Over Q, x -> x * f_i
    is idempotent, so its rank is its trace 2^n <f_i>_0, and the ranks add
    up to 2^n.  So A = sum A * f_i is direct, and f_j = f_j * f_j =
    sum_i f_j * f_i (each term in A * f_i) forces f_j * f_i = 0 for i != j.
    Each nonzero A * f_i holds a minimal left ideal, of dimension 2^(n-k),
    so all 2^k ranks are exactly 2^(n-k): every f_i is primitive.
    """

    idems: tuple[Multivector, ...]
    generating_blades: CommutingBladeSet

    def __post_init__(self):
        sig = self.generating_blades.sig
        k = len(self.generating_blades.blades)
        if sig.s or k != idempotent_count_exponent(sig):
            raise ValueError("generating blades are not a maximal set on a regular signature")
        if len(self.idems) != 1 << k or not all(self.idems):
            raise ValueError(f"expected {1 << k} nonzero members")
        if not all(map(_is_idempotent, self.idems)):
            raise ValueError("member is not idempotent")
        for f in self.idems:
            if f.sig != sig:
                raise SignatureMismatch(f"signatures differ: {sig} vs {f.sig}")
        if core_algebra._sum(sig, [(f._ints, f._scale) for f in self.idems]) != Multivector.one(sig):
            raise ValueError("idempotents do not sum to 1")


def _idempotents(blades: CommutingBladeSet):
    """Yield prod (1 + eps_t u_t) / 2 for every sign choice, eps = +1 before -1.

    The integer map F = prod (1 + eps_t u_t) is built by F <- F + eps u * F,
    one relabelling per factor, and divided by 2^k once.  u commutes with
    the earlier factors, so F * u = u * F; F lies in the span S of their
    masks and u * F in u + S, disjoint since u is independent: nothing cancels.
    """
    sig = blades.sig
    scale = 1 << len(blades.blades)
    for signs in itertools.product((1, -1), repeat=len(blades.blades)):
        f = {0: 1}
        for eps, mask in zip(signs, blades.blades):
            f.update({m: eps * c for m, c in _blade_times(mask, f, sig).items()})
        yield Multivector._scaled(sig, f, scale)


def build_idempotent_set(blades: CommutingBladeSet) -> IdempotentSet:
    """Expand every sign choice of prod (1 + eps * u) / 2 over the blade set."""
    return IdempotentSet(tuple(_idempotents(blades)), blades)


def _blade_image_span(
    left: Multivector, right: Multivector, left_form, right_form
) -> tuple[tuple[Multivector, ...], tuple[int, ...]]:
    """RREF basis of left * A * right and its pivot blade masks.

    left_form and right_form are the _product_form certificates of left and
    right, which the caller has already computed ({} for left = 1).

    left and right are idempotents, so x -> left * x * right is a projector
    (left * (left * x * right) * right = left * x * right), and over Q the
    rank of a projector is its trace.  The image of a blade b lies in the
    coset b + S, S the GF(2) span of the factors' support masks, so up to a
    column permutation the 2^n x 2^n matrix of blade images is block
    diagonal with one |S| x |S| block per coset; the projector keeps every
    block, so each block's rank is its own trace (_sandwich_ranks).

    Each block's images are formed one blade at a time, zero images are
    skipped, and the block is row-reduced until it reaches its rank: the
    RREF of a spanning set is that of the whole block.  Each block is
    reduced over its coset's columns in ascending mask order and the rows
    are merged by pivot mask; RREF is unique, so the result is the RREF of
    the full matrix with columns in ascending mask order.  The assertion
    catches a block that spans less than its trace; a trace too low would
    stop a block early unnoticed, so the tests check the result against the
    full reduction.

    The images are integer rows and go straight to _linalg._integer_rref,
    which returns d times the RREF.  Each reduction takes only as many new
    images as the block still lacks in rank, so no image is formed that a
    reduction after every image would not form too, and a block whose first
    images are independent is reduced once.  Before the next batch is
    appended, each kept row is divided by its content (the gcd of its
    entries): otherwise the scale d of one reduction enters the next as a
    factor of every pivot, and the entries grow with each step.  Each basis
    element is its integer row over the row's pivot entry.

    When right is a product f = F / 2^k of _product_form with signs
    sigma_v, and left is 1 or a product l over the same basis v with signs
    lambda_v, no image is formed and no block reduced.  Then S is spanned
    by the v, and for b = +-e_c * e_s with s in S, b * f = +-e_c * f, as
    e_s * F = +-F.  So every block has rank at most 1, its image e_c * F
    holds every blade of c + S with coefficient +-1 and is 1 on c, and its
    RREF row is e_c * F over scale 1, with c the coset leader, the least
    mask of c + S, which holds no leading bit of the basis.  For left = l,
    l * e_c * f = e_c * (e_c^-1 * l * e_c) * f, and conjugating a factor,
    e_c^-1 (1 + lambda_v e_v) e_c = 1 +- lambda_v e_v, flips lambda_v
    exactly when e_c and e_v anticommute.  Two products over one basis
    multiply to 0 unless their signs agree, as (1 + sigma e_v)(1 - sigma
    e_v) = 0, and to f when they do; so the block is kept exactly when e_c
    anticommutes with the e_v where lambda_v != sigma_v and commutes with
    the rest (for l = f: with every e_v).  That holds on the whole coset,
    since the e_s commute with every e_v.  The rows in ascending leader
    order are the unique RREF.
    """
    sig = left.sig
    if right_form is not None and left_form is not None and (
        not left_form or left_form.keys() == right_form.keys()
    ):
        lead = sum(1 << (v.bit_length() - 1) for v in right_form)
        leaders = [c for c in range(1 << sig.n) if not c & lead]
        if left_form:
            leaders = [
                c
                for c in leaders
                if all(_anticommute(c, v) == (left_form[v] != sigma) for v, sigma in right_form.items())
            ]
        rows = (Multivector._scaled(sig, _blade_times(c, right._ints, sig), 1) for c in leaders)
        return tuple(rows), tuple(leaders)
    span = _echelon_basis([*left._ints, *right._ints])
    cosets: dict[int, list[int]] = {}
    for b in range(1 << sig.n):
        cosets.setdefault(_reduce_mask(b, span), []).append(b)
    ranks = _sandwich_ranks(left, right, span, cosets)
    # RREF ignores a common scale, so the images are formed and reduced as
    # the integer maps L * b * R with left = L / l and right = R / r
    left_int, right_int = left._ints, right._ints

    def nonzero_images(blades):
        """Integer rows of the nonzero images L * b * R, b in blades, over the columns blades."""
        for b in blades:
            x = core_algebra._product(left_int, _blade_times(b, right_int, sig), sig)
            row = [x.get(c, 0) for c in blades]
            if any(row):
                yield row

    pivot_rows = []
    for leader, blades in cosets.items():
        target = ranks[leader]
        images = nonzero_images(blades)
        kept: list = []
        pivots: list = []
        while len(pivots) < target:
            batch = list(itertools.islice(images, target - len(pivots)))
            if not batch:
                break
            reduced, pivots, _, _ = _linalg._integer_rref([*kept, *batch])
            kept = []
            for row in reduced[: len(pivots)]:
                content = math.gcd(*row)
                kept.append([entry // content for entry in row])
        assert len(pivots) == target, "block spans less than its trace"
        pivot_rows += [
            (blades[c], Multivector._scaled(sig, dict(zip(blades, row)), row[c]))
            for row, c in zip(kept, pivots)
        ]
    pivot_rows.sort(key=lambda item: item[0])
    return tuple(b for _, b in pivot_rows), tuple(mask for mask, _ in pivot_rows)


def _trace_rank(trace: int, scale: int) -> int:
    """The rank of a projector from its trace trace / scale, which over Q is a natural number."""
    rank, rest = divmod(trace, scale)
    assert not rest and rank >= 0, f"projector trace {trace}/{scale} is not a rank"
    return rank


def _sandwich_ranks(left: Multivector, right: Multivector, span, leaders) -> dict[int, int]:
    """Trace, hence rank, of x -> left * x * right on each block b + S, keyed by b.

    m * b * m' has a term on b only for m = m', and m * b * m = tau_m
    sigma(m,b) b, with tau_m the scalar square of m and sigma(m,b) =
    (-1)^(|m||b| - |m & b|) the sign by which m and b commute (a null
    generator shared by m and b makes tau_m = 0).  So the trace on b + S is
    sum_m left_m right_m tau_m times the sum of sigma(m,.) over b + S.  As a
    function of b, sigma(m,b) is the GF(2) character (-1)^|b & c|, with
    c = m for even |m| and c the complement of m for odd |m|; its sum over
    b + S is |S| (-1)^|b & c| when it is trivial on S (|v & c| even for
    every v in span, a GF(2) basis of S) and 0 otherwise.
    """
    sig = left.sig
    full = (1 << sig.n) - 1
    scale = left._scale * right._scale
    characters = []
    for m, value in left._ints.items():
        c = full ^ m if m.bit_count() & 1 else m
        if m in right._ints and not any((v & c).bit_count() & 1 for v in span):
            square = _blade_square(m, sig)
            characters.append((c, (value * right._ints[m] * square) << len(span)))
    return {
        b: _trace_rank(sum(-w if (b & c).bit_count() & 1 else w for c, w in characters), scale)
        for b in leaders
    }


def _require_idempotent(f: Multivector) -> dict[int, int] | None:
    """f's certificate _product_form(f), the one call for f; NotIdempotent unless f * f = f.

    A certified f is idempotent; any other f is checked by one product.
    """
    form = _product_form(f)
    if form is None and geometric_product(f, f) != f:
        raise NotIdempotent("element does not satisfy f*f = f")
    return form


@dataclass(frozen=True)
class IdealBasis:
    """Row-reduced basis of the left ideal A * f generated by an idempotent f.

    The basis is also held as integer maps B_i over one common denominator
    d, b_i = B_i / d, which the checks and every coordinate read work on.

    Checked: b_i * f = b_i for every i, so each b_i lies in A * f; b_i is 1
    on pivot i and 0 on every other pivot, so the b_i are independent; f is
    the sum of its pivot values c_i times the basis; and there are as many
    b_i as dim and as 2^n <f>_0.  From the first and third, f * f =
    sum_i c_i (b_i * f) = f, so x -> x * f is a projector onto A * f, and
    over Q its rank is its trace 2^n <f>_0 (left_ideal_dimension).  The b_i
    are that many independent elements of A * f, so they span it.  A * f is
    a left ideal, so every x * b_j lies in the span, and its coordinates are
    its values at the pivots (_map_matrix).

    When f = prod_v (1 + sigma_v e_v)/2 (_product_form), b * f = b holds
    exactly when b * e_v = sigma_v b for every v, k right relabellings of b
    and no term pair: f * e_v = sigma_v f gives b * e_v = b * f * e_v =
    sigma_v b, and conversely each factor then fixes b.  Any other f, such
    as a conjugated idempotent, is checked by the product b * f.

    One relabelling per row.  With f = F / 2^k so certified, a row over
    scale 1 that equals e_p * F, p its own pivot, needs no more: the e_v
    commute with every blade of the span S of the v, and F lies in S, so
    F * e_v = e_v * F = sigma_v F and (e_p * F) * e_v = sigma_v (e_p * F).
    Every row that left_ideal_basis builds is such a row; any other row
    takes the k relabellings, so a bad row fails as before.  The
    certificate is computed here, or passed by left_ideal_basis from its
    own _product_form call on the same generator (_form).

    The pivot test reads each row's keys against the set of pivots, and
    checks that the pivots are distinct: row i is the basis scale at p_i
    and holds no other pivot.  That is the dim^2 test "row i is the scale
    at p_i and 0 at every other p_j", since the integer maps hold no zero;
    two equal pivots p_i = p_j would ask row i for the scale and for 0 there.

    Blade index.  For such an f = F / 2^k every row of a basis that passes
    these checks is e_p * F over scale 1, with p its pivot, so the rows
    split the blades: _blade_rows maps blade d to the one row j(d) that
    holds it and to its coefficient v_d = +-1 there.  Proof: A * f is the
    direct sum of the lines spanned by e_c * F, one per coset c + S of the
    span S of the v, as e_b * F = +-e_c * F for b in c + S (e_s * F = +-F
    for s in S); e_c * F holds every blade of c + S with coefficient +-1,
    and no other.  So b_i = sum_c a_ic e_c * F, and b_i at a pivot p in
    c + S is +-a_ic.  Two pivots in one coset would give two proportional
    columns of the pivot matrix, which is the identity; so each of the
    dim = 2^(n-k) cosets holds exactly one pivot, a_ic = +-1 on the coset
    of p_i and 0 elsewhere, and b_i = e_(p_i) * F, the multiple that is 1
    at p_i.  _blade_rows is None for any other generator.
    """

    generator: Multivector
    basis: tuple[Multivector, ...]
    dim: int
    pivots: tuple[int, ...]  # RREF pivot blade masks, used for coordinate reads
    _integer_basis: tuple[list[dict], int] = field(init=False, repr=False, compare=False)
    _blade_rows: tuple[list[int], list[int]] | None = field(init=False, repr=False, compare=False)
    _form: InitVar[dict[int, int] | None] = ...  # _product_form(generator), when the caller has it

    def __post_init__(self, _form):
        if any(b.sig != self.sig for b in self.basis):
            raise SignatureMismatch(f"a basis element does not lie in Cl{self.sig}")
        generator, generator_scale = self.generator._ints, self.generator._scale
        scale = math.lcm(*(b._scale for b in self.basis))
        rows = [{m: v * (scale // b._scale) for m, v in b._ints.items()} for b in self.basis]
        form = _product_form(self.generator) if _form is ... else _form
        for row, p in itertools.zip_longest(rows, self.pivots[: len(rows)]):
            if form is None:
                # b * f = b reads B * F = scale_f * B with f = F / scale_f
                fixed = {m: generator_scale * v for m, v in row.items()}
                stable = _nonzero(core_algebra._product(row, generator, self.sig)) == fixed
            elif scale == 1 and row.get(p) == 1 and row == _blade_times(p, generator, self.sig):
                stable = True  # e_p * F, see "One relabelling per row"
            else:
                stable = all(
                    _times_blade(row, v, self.sig) == {m: sigma * c for m, c in row.items()}
                    for v, sigma in form.items()
                )
            if not stable:
                raise ValueError("basis element is not stabilized by the generator")
        pivot_set = set(self.pivots)
        if len(self.pivots) != len(rows) or len(pivot_set) != len(rows) or any(
            row.get(p) != scale or len(pivot_set.intersection(row)) != 1 for row, p in zip(rows, self.pivots)
        ):
            raise ValueError("basis is not 1 on its own pivot and 0 on the others")
        object.__setattr__(self, "_integer_basis", (rows, scale))
        if not _in_span(self, generator):
            raise ValueError("generator is not in the span of the basis")
        rank = _trace_rank(generator.get(0, 0) << self.sig.n, generator_scale)
        if not len(rows) == self.dim == rank:
            raise ValueError(
                f"basis has {len(rows)} elements and dim {self.dim}, not the rank {rank} of A * f"
            )
        index = None
        if form is not None:
            row_of, sign_of = [0] * (1 << self.sig.n), [0] * (1 << self.sig.n)
            for j, row in enumerate(rows):
                for d, v in row.items():
                    row_of[d], sign_of[d] = j, v
            assert scale == 1 and sum(map(len, rows)) == len(row_of), "rows do not split the blades"
            index = (row_of, sign_of)
        object.__setattr__(self, "_blade_rows", index)

    @property
    def sig(self) -> Signature:
        return self.generator.sig


def left_ideal_basis(f: Multivector) -> IdealBasis:
    """Exact row reduction of {b * f : b a basis blade} to a canonical basis.

    Each block of blades has rank |block| <f>_0, its share of the trace
    behind left_ideal_dimension; for a canonical idempotent that is 1, and
    each block's row is a blade relabelling of f, with no product
    (_blade_image_span).
    """
    form = _require_idempotent(f)
    basis, pivots = _blade_image_span(Multivector.one(f.sig), f, {}, form)
    return IdealBasis(f, basis, len(basis), pivots, _form=form)


def left_ideal_dimension(f: Multivector) -> int:
    """dim A*f as the trace of the projector x -> x * f.

    Right multiplication by an idempotent is a projection onto the ideal, and
    the only term of b * f landing back on blade b is the scalar term of f,
    so the trace is 2^n times the scalar coefficient of f.  Agrees with
    len(left_ideal_basis(f).basis); this form stays cheap in high dimension.
    """
    _require_idempotent(f)
    return _trace_rank(f._ints.get(0, 0) << f.sig.n, f._scale)


def peirce_dimension(f: Multivector, g: Multivector) -> int:
    """dim f*A*g as the trace of the projector x -> f * x * g.

    The whole algebra is one block: the coset of 0 under the span of all
    generators.  Its trace (_sandwich_ranks) keeps only the masks whose
    character is trivial on every blade, the central blades 1 and, for odd
    n, the pseudoscalar.  Agrees with the row-reduction rank (tested).
    """
    if f.sig != g.sig:
        raise SignatureMismatch(f"signatures differ: {f.sig} vs {g.sig}")
    sig = f.sig
    if sig.s:
        raise DegenerateForm("Peirce dimensions require a regular signature")
    _require_idempotent(f)
    _require_idempotent(g)
    return _sandwich_ranks(f, g, [1 << i for i in range(sig.n)], [0])[0]


@dataclass(frozen=True)
class DivisionRingInfo:
    """Basis and kind of the division ring f * A * f for a primitive idempotent."""

    basis: tuple[Multivector, ...]
    dim: int
    kind: str  # "R", "C", or "H"


_DIVISION_RING_KINDS = {1: "R", 2: "C", 4: "H"}


def division_ring_info(f: Multivector) -> DivisionRingInfo:
    """Basis of f*A*f with its kind: dim 1 -> R, 2 -> C, 4 -> H.

    Only the blocks to which _sandwich_ranks gives a nonzero rank are
    reduced: at most four for a primitive f, and none for a product of
    _product_form, whose rows are relabellings of f.  The kind follows from that
    dimension and the signature.  Let J be the radical of A = Cl(p,q,s),
    spanned by the blades with a null generator (J = 0 when s = 0), and
    x -> x' the quotient map onto A/J = Cl(p,q).  It maps f*A*f onto
    f'*(A/J)*f' with kernel f*J*f, a nilpotent ideal of f*A*f, and f' != 0
    since f = f^(s+1) and J^(s+1) = 0.  Every simple component of Cl(p,q)
    is a matrix algebra over one division ring D, so by Wedderburn theory
    f'*(A/J)*f' is a sum of M_k(D) with sum k^2 >= 1, and 1 exactly when
    f' is primitive.  Hence dim f*A*f >= dim D, with equality exactly when
    f*J*f = 0 and f' is primitive, that is, exactly when f*A*f is a
    division ring, and then it is a copy of D.  Any other dimension is
    reported as UnexpectedDimension.
    """
    form = _require_idempotent(f)
    basis, _ = _blade_image_span(f, f, form, form)
    # a simple Cl(p,q) is M_m(D) with m = 2^k, so 2^n = m^2 dim D; a split
    # one is two copies of M_m(D) with 2^k = 2m, so 2^n = 2 m^2 dim D
    regular = Signature(f.sig.p, f.sig.q)
    k = idempotent_count_exponent(regular)
    dim = 1 << (regular.n - 2 * k + (not is_simple(regular)))
    if len(basis) != dim:
        raise UnexpectedDimension(
            f"f*A*f has dimension {len(basis)}, not {dim}: it is not a division ring"
        )
    return DivisionRingInfo(basis, dim, _DIVISION_RING_KINDS[dim])


def _central_masks(sig: Signature) -> tuple[int, ...]:
    """Masks of the central blades: 1 and, for odd n, the pseudoscalar.

    On a regular form blades m and b commute or anticommute as
    |m||b| - |m & b| is even or odd, so m commutes with every generator
    exactly when m = 0 or m is the pseudoscalar of an odd n.
    """
    if sig.s:
        raise DegenerateForm("center computation requires a regular signature")
    return (0, (1 << sig.n) - 1) if sig.n % 2 else (0,)


def algebra_center(sig: Signature) -> tuple[Multivector, ...]:
    """Canonical basis of the center: the central blades, in mask order.

    On a regular form the commutator system is diagonal in the blade basis:
    [b, e_i] is a single signed blade on mask b XOR e_i, and distinct b map
    to distinct masks, so the center is spanned by the blades that commute
    with every generator (see _central_masks).
    """
    return tuple(Multivector.basis_blade(sig, mask) for mask in _central_masks(sig))


def is_simple(sig: Signature) -> bool:
    """True when the algebra has no proper two-sided ideal.

    A center of dimension 1 always means simple.  A two-dimensional center
    is spanned by 1 and a central blade z with z*z = +-1: the algebra splits
    into two simple components exactly when z*z = +1 (then (1 +- z)/2 are
    central idempotents); z*z = -1 leaves the algebra simple.
    """
    masks = _central_masks(sig)
    return len(masks) == 1 or _blade_square(masks[1], sig) == -1


def faithful_ideal(sig: Signature, cap: int = DEFAULT_DIMENSION_CAP) -> IdealBasis:
    """A left ideal on which left multiplication is faithful.

    For a simple algebra any minimal ideal works and the first idempotent of
    the canonical set is used.  For a split algebra the ideal of f + g is
    returned, with f and g minimal idempotents absorbed by the two central
    idempotents (1 + z)/2 and (1 - z)/2, each the first in canonical order.
    z is a central blade, so h * (1 +- z)/2 = h exactly when the relabelling
    z * h is +-h.  Only the idempotents up to those are built;
    left_ideal_basis checks that its generator is idempotent, which for
    f + g forces fg + gf = 0.

    z * f = +-f for the primitive f, so z = +-prod_{t in T} u_t for a set T
    of the blades.  The first sign choices, in canonical order, with z * h
    = h and with z * h = -h differ only in the sign of u_t for the last t
    in T, so f + g = prod_{t' != t} (1 + eps_t' u_t')/2 and _product_form
    certifies it.
    """
    blades = find_commuting_blades(sig, cap)
    if is_simple(sig):
        return left_ideal_basis(next(_idempotents(blades)))
    z = _central_masks(sig)[1]
    f = next(h for h in _idempotents(blades) if _blade_times(z, h._ints, sig) == h._ints)
    g = next(h for h in _idempotents(blades) if _blade_times(z, (-h)._ints, sig) == h._ints)
    return left_ideal_basis(add(f, g))


def _in_span(ideal: IdealBasis, y: dict) -> bool:
    """Whether the integer map y lies in the span of the ideal basis.

    Basis element i is 1 on pivot i and 0 on every other pivot, so y is in
    the span exactly when its pivot values rebuild it: over the integer
    basis B_i = d * b_i that reads sum_i y[p_i] B_i = d * y.
    """
    rows, d = ideal._integer_basis
    acc: dict = {}
    for p, row in zip(ideal.pivots, rows):
        c = y.get(p, 0)
        if c:
            for mask, value in row.items():
                acc[mask] = acc.get(mask, 0) + c * value
    return _nonzero(acc) == {mask: d * value for mask, value in y.items() if value}


def _pivot_columns(images: list, pivots) -> list[list[int]]:
    """Integer matrix whose column j holds images[j] read at the pivots."""
    return [[image.get(p, 0) for image in images] for p in pivots]


def _index_read(ideal: IdealBasis, x: Multivector) -> list[list[int]]:
    """Integer matrix whose column j holds X * b_j read through the blade index, x = X / scale_x.

    b_j = e_(p_j) * F (IdealBasis), so X * b_j = (X * e_(p_j)) * F.  For
    every blade d, e_d * F and b_(j(d)) lie on the line of d's coset, and
    at d the first is 1 and the second v_d = +-1, so e_d * F = v_d
    b_(j(d)).  Column j thus holds Y[d] v_d in row j(d) for each term Y[d]
    of Y = X * e_(p_j): one right relabelling of X per column and no term
    pair.
    """
    row_of, sign_of = ideal._blade_rows
    matrix = [[0] * ideal.dim for _ in range(ideal.dim)]
    for j, p in enumerate(ideal.pivots):
        for d, c in _times_blade(x._ints, p, x.sig).items():
            matrix[row_of[d]][j] += c * sign_of[d]
    return matrix


def _map_matrix(source: IdealBasis, target: IdealBasis, x: Multivector, on_left: bool):
    """The ScaledMatrix M / s of psi -> x * psi (on_left) or psi * x.

    Left multiplication on an ideal with a blade index is read through it
    (_index_read), with s = scale_x; every other map, among them right
    multiplication and any generator that _product_form refuses, takes the
    products of _map_matrix_by_products, which give the same matrix.
    """
    if on_left and source == target and source._blade_rows is not None:
        return _linalg.ScaledMatrix(_index_read(source, x), x._scale)
    return _map_matrix_by_products(source, target, x, on_left)


def _map_matrix_by_products(source: IdealBasis, target: IdealBasis, x: Multivector, on_left: bool):
    """_map_matrix by one product per basis element.

    M maps source's basis to target's and is an integer matrix.  The
    caller guarantees that every image lies in target's span, so its
    coordinates are its values at target's pivots, and no image is rebuilt.
    With x = X / scale_x and basis_j = B_j / d, the image of basis_j is
    X * B_j / (scale_x d) (or B_j * X / (scale_x d)), formed in ints, so
    column j is X * B_j read at the pivots and s = scale_x d.
    """
    rows, scale = source._integer_basis
    if on_left:
        images = [core_algebra._product(x._ints, row, x.sig) for row in rows]
    else:
        images = [core_algebra._product(row, x._ints, x.sig) for row in rows]
    return _linalg.ScaledMatrix(_pivot_columns(images, target.pivots), x._scale * scale)


def regular_rep_matrix(x: Multivector, ideal: IdealBasis):
    """Matrix of left multiplication by x on the ideal basis (columns = images).

    Column j holds the coordinates of x * basis_j, so the map is a unital
    homomorphism: rep(x*y) = rep(x) rep(y).  IdealBasis has proved that the
    basis spans the left ideal A * f, so x * basis_j lies in it and is read
    at the pivots.
    """
    if x.sig != ideal.sig:
        raise SignatureMismatch(f"signatures differ: {x.sig} vs {ideal.sig}")
    return _map_matrix(ideal, ideal, x, on_left=True).fractions()


def interbasis_element(f_i: Multivector, f_j: Multivector):
    """(E_ij, E_ji) with E_ij * E_ji = f_i and E_ji * E_ij = f_j.

    E_ij is the first RREF basis element of f_i * A * f_j (NotSimple when
    that space is zero, which happens across central components of a split
    algebra), and E_ji its partial inverse in f_j * A * f_i.  That inverse
    is unique: if E and E' both are one, E' = f_j * E' = E * E_ij * E' =
    E * f_i = E.

    Closed form.  Let f_i = F_i / s_i and f_j = F_j / s_j over their
    integer maps, and c the pivot of E_ij.  When E_ij = e_c * F_j over
    scale 1, F_i * e_c = e_c * F_j (two relabellings) and e_c * e_c != 0,
    then E_ji = e_c^-1 * F_i / s_i^2, with e_c^-1 = +-e_c and no product.
    Idempotence gives F_i * F_i = s_i F_i and F_j * F_j = s_j F_j, and
    F_j = e_c^-1 * F_i * e_c gives F_j * F_j = s_i F_j, so s_i = s_j.  Then
    E_ij * E_ji = F_i * e_c * e_c^-1 * F_i / s_i^2 = f_i and E_ji * E_ij =
    e_c^-1 * e_c * F_j * F_j / s_j^2 = f_j.  For two products over one
    basis every row of f_i * A * f_j is such a relabelling
    (_blade_image_span), and the identity is the rule that kept its leader.
    A null e_c would give E_ji = 0: on Cl(1,0,1) the pair (1 +- e1)/2 has
    E_ij = e2 + e12 = e2 * F_j and F_i * e2 = e2 * F_j, and no partial
    inverse.  Every pair that fails a condition takes one integer system for
    E_ij * v = f_i and v * E_ij = f_j over the span of f_j * A * f_i,
    reduced by _linalg._integer_rref.
    """
    form_i, form_j = _require_idempotent(f_i), _require_idempotent(f_j)
    if f_i.sig != f_j.sig:
        raise SignatureMismatch(f"signatures differ: {f_i.sig} vs {f_j.sig}")
    if f_i == f_j:
        return f_i, f_i
    sig = f_i.sig
    space_ij, pivots = _blade_image_span(f_i, f_j, form_i, form_j)
    if not space_ij:
        raise NotSimple("f_i * A * f_j is zero; the idempotents sit in different components")
    e_ij, c = space_ij[0], pivots[0]
    e_c_f_j = _blade_times(c, f_j._ints, sig)
    square = _blade_square(c, sig)
    if (
        square
        and e_ij._scale == 1
        and e_ij._ints == e_c_f_j
        and _times_blade(f_i._ints, c, sig) == e_c_f_j
    ):
        e_c_f_i = _blade_times(c, f_i._ints, sig)
        return e_ij, Multivector._scaled(sig, {m: square * v for m, v in e_c_f_i.items()}, f_i._scale**2)
    space_ji, _ = _blade_image_span(f_j, f_i, form_j, form_i)
    if not space_ji:
        raise NotSimple("f_j * A * f_i is zero; the idempotents sit in different components")
    # e_ji = sum_w t_w w over the rows w = W / s_w of f_j * A * f_i.  With e_ij = E / s and
    # u_w = t_w s_i s_j / (s s_w), the two sides read sum_w u_w E * W = s_j F_i and
    # sum_w u_w W * E = s_i F_j: one integer equation per blade where a side is nonzero
    e_ints = e_ij._ints
    rows = []
    for scale, target, products in (
        (f_j._scale, f_i._ints, [core_algebra._product(e_ints, w._ints, sig) for w in space_ji]),
        (f_i._scale, f_j._ints, [core_algebra._product(w._ints, e_ints, sig) for w in space_ji]),
    ):
        for mask in set(target).union(*products):
            rows.append([product.get(mask, 0) for product in products] + [scale * target.get(mask, 0)])
    reduced, pivots, d, _ = _linalg._integer_rref(rows)
    if len(space_ji) in pivots:
        raise NoSolution("no partial inverse for the chosen element")
    # free u_w are 0, and row r of d * RREF ends in d u_w for w its pivot
    acc: dict = {}
    for row, column in zip(reduced, pivots):
        for mask, v in space_ji[column]._ints.items():
            acc[mask] = acc.get(mask, 0) + e_ij._scale * row[-1] * v
    e_ji = Multivector._scaled(sig, acc, f_i._scale * f_j._scale * d)
    assert geometric_product(e_ij, e_ji) == f_i and geometric_product(e_ji, e_ij) == f_j
    return e_ij, e_ji


@dataclass(frozen=True)
class RepresentationIntertwiner:
    """Invertible change of basis phi with rep_j(a) = phi rep_i(a) phi^-1."""

    source: IdealBasis
    target: IdealBasis
    matrix: tuple[tuple[Fraction, ...], ...]
    inverse: tuple[tuple[Fraction, ...], ...]


def representation_intertwiner(f_i: Multivector, f_j: Multivector) -> RepresentationIntertwiner:
    """Equivalence of the regular representations on A*f_i and A*f_j.

    phi(psi) = psi * E_ij maps A*f_i onto A*f_j and commutes with left
    multiplication; psi * E_ji inverts it.  E_ij lies in the left ideal
    A*f_j and E_ji in A*f_i (checked once), so psi * E_ij and psi * E_ji
    lie there for every psi and both matrices are read at the pivots.
    """
    e_ij, e_ji = interbasis_element(f_i, f_j)
    source = left_ideal_basis(f_i)
    target = left_ideal_basis(f_j)
    if not _in_span(target, e_ij._ints):
        raise NoSolution("E_ij leaves the target ideal")
    if not _in_span(source, e_ji._ints):
        raise NoSolution("E_ji leaves the source ideal")

    forward = _map_matrix(source, target, e_ij, on_left=False)
    backward = _map_matrix(target, source, e_ji, on_left=False)
    for product in (forward @ backward, backward @ forward):
        if product != _linalg.ScaledMatrix.identity(len(product.rows)):
            raise NoSolution("intertwiner is not invertible")
    freeze = lambda m: tuple(tuple(row) for row in m.fractions())
    return RepresentationIntertwiner(source, target, freeze(forward), freeze(backward))
