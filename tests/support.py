"""Shared test helpers: independent oracles and seeded random generators.

The word-rewriting oracle normalizes a generator word using only the two
presentation relations (adjacent swap with a sign, adjacent equal pair to a
scalar square), giving a sign/blade answer on a path fully independent of
the library's popcount-based product; reference_product takes its signs
from reference_blade_product, which counts inversions between index lists,
on another such path.  The division-algebra models (complex pairs, split
pairs, quaternion 4-tuples, 2x2 rational matrices) provide the exact
targets for the worked-example isomorphism checks.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import unicodedata
from fractions import Fraction
from typing import NamedTuple

from cliffalg import (
    BilinearForm,
    CoefficientTooLarge,
    DegenerateForm,
    DimensionMismatch,
    Multivector,
    NotAnIsometry,
    ParseError,
    Signature,
    add,
    blade_mul,
    clifford_conjugation,
    even_part,
    geometric_product,
    grade_involution,
    odd_part,
    orthogonal_diagonalize,
    quadratic_value,
    radon_hurwitz,
    reflection_matrix,
    reversion,
    scalar_mul,
)
from cliffalg import _linalg, core_algebra, expr, spinors
from cliffalg.core_algebra import (
    MAX_COEFFICIENT_BITS,
    MAX_LITERAL_DIGITS,
    _blade_mul_signs,
    _negative_mask,
    _zero_mask,
    check_coefficient_bits,
)
from cliffalg.expr import FUNCTIONS, MAX_NESTING_DEPTH


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, m):
    c = Fraction(c)
    return [[c * x for x in row] for row in m]


def mat_eq(a, b):
    """True iff the two matrices have equal rows, entry by entry."""
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def mat_vec(m, v):
    """Matrix times vector, entry by entry in whatever arithmetic the entries carry."""
    assert not m or len(m[0]) == len(v), "matrix width does not match the vector length"
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def rank(m):
    return len(reference_rref(m)[1]) if m else 0


def reference_rref(m):
    """Reduced row echelon form by Gauss-Jordan in Fraction arithmetic.

    The loop the library's rref ran before its fraction-free form: one Fraction
    division per pivot row and one Fraction product per updated entry.
    Returns (reduced, pivot_columns) with zero rows kept at the bottom.
    """
    work = _linalg.to_matrix(m)
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


def reference_solve(a, b):
    """One solution of A x = b through reference_rref, free variables 0; None if inconsistent."""
    cols = len(a[0]) if a else 0
    reduced, pivots = reference_rref([list(row) + [rhs] for row, rhs in zip(a, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row_index, c in enumerate(pivots):
        x[c] = reduced[row_index][-1]
    return x


def count_products(monkeypatch):
    """A one-element list counting the calls to both product kernels from now on.

    Every geometric product and inverse step goes through
    core_algebra._product; every norm, and each twisted image of an even or
    odd element with the conjugate, through core_algebra._sandwich.  A call
    to either counts once.
    """
    calls = [0]

    def counted(kernel):
        def counted_kernel(*args):
            calls[0] += 1
            return kernel(*args)

        return counted_kernel

    for name in ("_product", "_sandwich"):
        monkeypatch.setattr(core_algebra, name, counted(getattr(core_algebra, name)))
    return calls


def count_certificates(monkeypatch):
    """A one-element list counting the calls to spinors._product_form from now on.

    Every spinor function looks the certificate up in the module, so the
    wrapper sees each one.
    """
    calls = [0]
    product_form = spinors._product_form

    def counted_product_form(f):
        calls[0] += 1
        return product_form(f)

    monkeypatch.setattr(spinors, "_product_form", counted_product_form)
    return calls


def reference_blade_product(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """(sign, mask) of e_a * e_b from the index lists of the two blades.

    Moving each factor of b left past the larger factors of a costs one sign
    per inversion; equal indices then sit side by side and contract to the
    generator's square.  This counts inversions as perfbench/oracle.py does,
    a different algorithm from core_algebra's popcount kernel.
    """
    squares = (1,) * sig.p + (-1,) * sig.q + (0,) * sig.s
    left = [i for i in range(sig.n) if a >> i & 1]
    right = [j for j in range(sig.n) if b >> j & 1]
    sign = -1 if sum(1 for i in left for j in right if i > j) % 2 else 1
    merged = sorted(left + right)
    mask = 0
    k = 0
    while k < len(merged):
        if k + 1 < len(merged) and merged[k] == merged[k + 1]:
            sign *= squares[merged[k]]
            k += 2
        else:
            mask |= 1 << merged[k]
            k += 1
    return sign, mask


def reference_product(x: Multivector, y: Multivector) -> Multivector:
    """x * y term pair by term pair in Fraction arithmetic, each sign from reference_blade_product.

    The loop geometric_product ran before its integer kernel: one Fraction
    product and one Fraction sum per term pair.  This is the reference the
    integer kernel is tested against, and it shares no sign code with it.
    """
    sig = x.sig
    y_terms = y.terms()
    acc: dict = {}
    for a, ca in x.terms():
        for b, cb in y_terms:
            sign, mask = reference_blade_product(a, b, sig)
            if sign:
                acc[mask] = acc.get(mask, Fraction(0)) + sign * ca * cb
    return Multivector(sig, acc)


def reference_int_product(x: dict, y: dict, sig: Signature) -> dict:
    """core_algebra._product as it ran with one sign list per row of x, zeros kept.

    The kernel's fused loop reads each sign from the row's masks instead;
    both must give the same ints in the same key order.
    """
    neg_mask = _negative_mask(sig)
    zero_mask = _zero_mask(sig)
    acc: dict = {}
    y_terms = y.items()
    for a, ca in x.items():
        for (b, cb), sign in zip(y_terms, _blade_mul_signs(a, y, neg_mask, zero_mask)):
            if not sign:
                continue
            mask = a ^ b
            term = ca * cb if sign == 1 else -(ca * cb)
            prior = acc.get(mask)
            acc[mask] = term if prior is None else prior + term
    return acc


def reference_blade_times(mask: int, x: dict, sig: Signature) -> dict:
    """core_algebra._blade_times as it ran on one sign list: e_mask * X in X's order."""
    signs = _blade_mul_signs(mask, x, _negative_mask(sig), _zero_mask(sig))
    return {mask ^ b: c if sign == 1 else -c for (b, c), sign in zip(x.items(), signs) if sign}


def reference_blade_word(indices, sig: Signature) -> tuple[Fraction, int]:
    """(coefficient, mask) of a generator word as a fold of blade_mul, one letter at a time."""
    coefficient, mask = Fraction(1), 0
    for i in indices:
        sign, mask = blade_mul(mask, 1 << (i - 1), sig)
        coefficient *= sign
    return coefficient, mask


def reference_add(x: Multivector, y: Multivector) -> Multivector:
    """x + y as add formed it before the shared sum: x's numerators, then y's added in place.

    Both are brought to the least common scale; a blade that cancels stays in
    place as 0 until Multivector._scaled drops it.  Folded over a list, this
    is the chain of two-term sums that core_algebra._sum must reproduce in
    value, scale and key order.
    """
    core_algebra._require_same_signature(x, y)
    scale = math.lcm(x._scale, y._scale)
    x_factor, y_factor = scale // x._scale, scale // y._scale
    acc = {mask: value * x_factor for mask, value in x._ints.items()}
    for mask, value in y._ints.items():
        value *= y_factor
        prior = acc.get(mask)
        acc[mask] = value if prior is None else prior + value
    return Multivector._scaled(x.sig, acc, scale)


def reference_mat_mul(a, b):
    """Matrix product entry by entry in Fraction arithmetic; [] for an empty factor."""
    if not a or not b:
        return []
    return [
        [sum((Fraction(a[i][k]) * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def reference_determinant(m):
    """Determinant by Gaussian elimination in Fraction arithmetic, lowest-index pivots.

    The loop _linalg.determinant ran before its fraction-free (Bareiss) form:
    one Fraction division per row and one Fraction product per entry.
    """
    work = [[Fraction(x) for x in row] for row in m]
    n = len(work)
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        pivot = work[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = work[r][col] / pivot
            if factor:
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return det


def reference_is_isometry(form: BilinearForm, rows) -> bool:
    """M^T B M = B and det M != 0, in Fraction arithmetic; False for a wrong shape."""
    rows = [list(row) for row in rows]
    if len(rows) != form.n or any(len(r) != form.n for r in rows):
        return False
    b = form.rows()
    if reference_mat_mul(reference_mat_mul(_linalg.transpose(rows), b), rows) != b:
        return False
    return reference_determinant(rows) != 0


def reference_reflection_matrix(form: BilinearForm, x):
    """Rows of s_x, entry (r, c) = delta_rc - 2 (B x)_c x_r / Phi(x), in Fractions.

    None when Phi(x) = 0.  The formula reflection_matrix evaluated before it
    moved to integer numerators.
    """
    x = [Fraction(v) for v in x]
    bx = [sum((Fraction(b) * v for b, v in zip(row, x)), Fraction(0)) for row in form.rows()]
    qx = sum((u * v for u, v in zip(x, bx)), Fraction(0))
    if qx == 0:
        return None
    n = form.n
    return [[(1 if r == c else 0) - 2 * bx[c] * x[r] / qx for c in range(n)] for r in range(n)]


def reference_rep_matrix(x: Multivector, ideal):
    """Matrix of left multiplication by x on an RREF ideal basis, in Fractions.

    Column j holds the pivot coefficients of x * basis_j, and they must
    rebuild it (None otherwise).  This is the reference the integer form of
    spinors.regular_rep_matrix is tested against.
    """
    columns = []
    for b in ideal.basis:
        image = reference_product(x, b)
        coefficients = [image.coefficient(p) for p in ideal.pivots]
        rebuilt = Multivector.zero(x.sig)
        for c, basis_element in zip(coefficients, ideal.basis):
            rebuilt = add(rebuilt, scalar_mul(c, basis_element))
        if rebuilt != image:
            return None
        columns.append(coefficients)
    return [[column[r] for column in columns] for r in range(len(ideal.basis))]


def normalize_word(indices, sig: Signature):
    """(sign, ascending index tuple) of a generator word, by bubble rewriting.

    Uses only e_i e_j = -e_j e_i (i != j) and e_i e_i = square(e_i).
    """
    sign = Fraction(1)
    word = list(indices)
    changed = True
    while changed:
        changed = False
        k = 0
        while k + 1 < len(word):
            a, b = word[k], word[k + 1]
            if a == b:
                sign *= sig.generator_square(a)
                del word[k : k + 2]
                if sign == 0:
                    return Fraction(0), ()
                changed = True
                k = max(0, k - 1)
            elif a > b:
                word[k], word[k + 1] = b, a
                sign = -sign
                changed = True
                k += 1
            else:
                k += 1
    return sign, tuple(word)


def word_to_multivector(indices, sig: Signature) -> Multivector:
    out = Multivector.one(sig)
    for i in indices:
        out = geometric_product(out, Multivector.generator(sig, i))
    return out


# An expression tree is one of
#   ("num", numerator, denominator or None)   a non-negative rational literal
#   ("blade", indices, braced)                a written generator word
#   ("sum", first, [("+" | "-", term), ...])
#   ("product", [factor, factor, ...])
#   ("neg", tree)
#   ("pow", tree, exponent)
#   ("call", name, tree)                      name a key of expr.FUNCTIONS
# Precedence of what each kind renders to: a sum, a term, a factor, an atom.
_LEVEL = {"sum": 0, "product": 1, "neg": 2, "pow": 2, "num": 3, "blade": 3, "call": 3}


def render_expression(tree) -> str:
    """The text of an expression tree, parenthesized only where the grammar needs it."""

    def operand(child, level):
        text = render_expression(child)
        return text if _LEVEL[child[0]] >= level else f"({text})"

    kind = tree[0]
    if kind == "num":
        _, numerator, denominator = tree
        return str(numerator) if denominator is None else f"{numerator}/{denominator}"
    if kind == "blade":
        _, indices, braced = tree
        if braced:
            return "e{" + ",".join(map(str, indices)) + "}"
        return "e" + "".join(map(str, indices))
    if kind == "sum":
        _, first, rest = tree
        return operand(first, 1) + "".join(f" {op} {operand(t, 1)}" for op, t in rest)
    if kind == "product":
        return " * ".join(operand(factor, 2) for factor in tree[1])
    if kind == "neg":
        return "-" + operand(tree[1], 2)
    if kind == "pow":
        return f"{operand(tree[1], 3)}^{tree[2]}"
    _, name, argument = tree
    return f"{name}({render_expression(argument)})"


def render_parenthesized(tree) -> str:
    """The text of an expression tree as perfbench writes its expressions.

    Every operand is parenthesized, and a sum or product is a left-nested
    chain of binary operations: "((a) + (b)) - (c)", "-(a)", "(a)^3".
    """
    kind = tree[0]
    if kind in ("num", "blade"):
        return render_expression(tree)
    if kind in ("sum", "product"):
        pairs = tree[2] if kind == "sum" else [("*", factor) for factor in tree[1][1:]]
        text = render_parenthesized(tree[1] if kind == "sum" else tree[1][0])
        for op, operand in pairs:
            text = f"({text}) {op} ({render_parenthesized(operand)})"
        return text
    if kind == "neg":
        return f"-({render_parenthesized(tree[1])})"
    if kind == "pow":
        return f"({render_parenthesized(tree[1])})^{tree[2]}"
    _, name, argument = tree
    return f"{name}({render_parenthesized(argument)})"


REFERENCE_FUNCTIONS = {
    "rev": reversion,
    "gi": grade_involution,
    "conj": clifford_conjugation,
    "even": even_part,
    "odd": odd_part,
    "N": lambda x: geometric_product(x, clifford_conjugation(x)),
}


def reference_value(tree, sig: Signature) -> Multivector:
    """The value of an expression tree, folded with geometric_product, add and scalar_mul.

    No text is parsed: this is the reference the evaluating parser is
    tested against.  A blade word is the product of its generators, and a
    power the product of that many copies of its base.
    """
    kind = tree[0]
    one = Multivector.one(sig)
    if kind == "num":
        _, numerator, denominator = tree
        return scalar_mul(Fraction(numerator, denominator or 1), one)
    if kind == "blade":
        value = one
        for i in tree[1]:
            value = geometric_product(value, Multivector.generator(sig, i))
        return value
    if kind == "sum":
        _, first, rest = tree
        value = reference_value(first, sig)
        for op, term in rest:
            term_value = reference_value(term, sig)
            value = add(value, term_value if op == "+" else scalar_mul(-1, term_value))
        return value
    if kind == "product":
        value = one
        for factor in tree[1]:
            value = geometric_product(value, reference_value(factor, sig))
        return value
    if kind == "neg":
        return scalar_mul(-1, reference_value(tree[1], sig))
    if kind == "pow":
        base = reference_value(tree[1], sig)
        value = one
        for _ in range(tree[2]):
            value = geometric_product(value, base)
        return value
    _, name, argument = tree
    return REFERENCE_FUNCTIONS[name](reference_value(argument, sig))


class Token(NamedTuple):
    kind: str  # "number", "name", "symbol", "end"
    text: str
    pos: int


def reference_tokenize(text: str) -> list[Token]:
    """The tokens of text, one character at a time, as expr read them before its one-pattern scan.

    A digit is str.isdecimal, what int() reads, so "²" is no digit; a name
    is a str.isalpha character, then str.isalnum ones; whitespace is
    str.isspace.  Any other character outside "+-*/^(){}," is a ParseError
    at its position.  The list ends with an "end" token at len(text).
    """
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(Token("number", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append(Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^(){},":
            tokens.append(Token("symbol", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("end", "", len(text)))
    return tokens


class _Parser:
    """The recursive-descent evaluator parse_multivector used before its one-loop reader.

    One method per grammar rule, each computing its value as it reads; kept
    as the differential oracle for expr._evaluate (see reference_parse).
    """

    def __init__(self, tokens: list[Token], sig: Signature):
        self.tokens = tokens
        self.sig = sig
        self.index = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def at_symbol(self, text: str) -> bool:
        token = self.peek()
        return token.kind == "symbol" and token.text == text

    def expect_symbol(self, text: str) -> Token:
        if not self.at_symbol(text):
            token = self.peek()
            raise ParseError(f"expected {text!r}, found {token.text!r}", token.pos)
        return self.advance()

    def nested(self, parse, token: Token):
        """Run one nested parse, refusing to go deeper than MAX_NESTING_DEPTH."""
        if self.depth == MAX_NESTING_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_NESTING_DEPTH} levels", token.pos)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def integer(self, token: Token) -> int:
        if len(token.text) > MAX_LITERAL_DIGITS:
            raise ParseError(f"number has more than {MAX_LITERAL_DIGITS} digits", token.pos)
        return int(token.text)

    def parse_expr(self) -> Multivector:
        # one coefficient map for the whole sum: each term adds in place
        acc = dict(self.parse_term()._coeffs)
        while self.at_symbol("+") or self.at_symbol("-"):
            negate = self.advance().text == "-"
            for mask, coefficient in self.parse_term()._coeffs.items():
                if negate:
                    coefficient = -coefficient
                prior = acc.get(mask)
                total = coefficient if prior is None else prior + coefficient
                if total:
                    acc[mask] = total
                else:
                    # removed as add() removes it: a blade that cancels and
                    # comes back is stored last, as in x + y
                    del acc[mask]
        return Multivector(self.sig, acc)

    def parse_term(self) -> Multivector:
        value = self.parse_factor()
        while self.at_symbol("*"):
            self.advance()
            factor = self.parse_factor()
            # a scalar factor (0 included) rescales without the product kernel
            if value.is_scalar():
                value = scalar_mul(value.scalar_part(), factor)
            elif factor.is_scalar():
                value = scalar_mul(factor.scalar_part(), value)
            else:
                value = geometric_product(value, factor)
            check_coefficient_bits(value)
        return value

    def parse_factor(self) -> Multivector:
        if self.at_symbol("-"):
            return -self.nested(self.parse_factor, self.advance())
        value = self.parse_atom()
        if self.at_symbol("^"):
            self.advance()
            token = self.peek()
            if token.kind != "number":
                raise ParseError("exponent must be a non-negative integer", token.pos)
            self.advance()
            value = value ** self.integer(token)  # checks the budget per squaring
        return value

    def parse_atom(self) -> Multivector:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            numerator, denominator = self.integer(token), 1
            if self.at_symbol("/"):
                self.advance()
                denom = self.peek()
                if denom.kind != "number":
                    raise ParseError("expected denominator digits", denom.pos)
                self.advance()
                denominator = self.integer(denom)
                if denominator == 0:
                    raise ParseError("zero denominator", denom.pos)
            return Multivector(self.sig, {0: Fraction(numerator, denominator)})
        if token.kind == "symbol" and token.text == "(":
            value = self.nested(self.parse_expr, self.advance())
            self.expect_symbol(")")
            return value
        if token.kind == "name":
            if token.text in FUNCTIONS:
                self.advance()
                argument = self.nested(self.parse_expr, self.expect_symbol("("))
                self.expect_symbol(")")
                value = FUNCTIONS[token.text](argument)
                check_coefficient_bits(value)  # N squares coefficient sizes
                return value
            if token.text[0] == "e":
                return self.parse_blade()
            raise ParseError(f"unknown name {token.text!r}", token.pos)
        raise ParseError(f"unexpected token {token.text!r}", token.pos)

    def parse_blade(self) -> Multivector:
        token = self.advance()
        if len(token.text) > 1:
            digits = token.text[1:]
            if not digits.isdecimal():
                raise ParseError(f"unknown name {token.text!r}", token.pos)
            if self.sig.n > 9:
                raise ParseError(
                    "digit blade form is ambiguous beyond 9 generators; use e{i,j,...}",
                    token.pos,
                )
            indices = [int(d) for d in digits]
        else:
            # bare "e": braced form e{1,2,...}
            indices = []
            separator = self.expect_symbol("{")
            while separator.text != "}":
                number = self.peek()
                if number.kind != "number":
                    raise ParseError("expected generator index", number.pos)
                self.advance()
                indices.append(self.integer(number))
                separator = self.advance() if self.at_symbol(",") else self.expect_symbol("}")
        for i in indices:
            if i < 1 or i > self.sig.n:
                raise ParseError(f"generator index {i} out of range 1..{self.sig.n}", token.pos)
        # reduce the written generator word through the two presentation
        # relations alone, not the library's sign kernel; a null square makes it zero
        sign, word = normalize_word(indices, self.sig)
        return Multivector(self.sig, {sum(1 << (i - 1) for i in word): sign})


def reference_parse(text: str, sig: Signature) -> Multivector:
    """parse_multivector's general path as a recursive descent over reference_tokenize's tokens.

    It evaluates in the same order and raises the same errors at the same
    positions, with the Python stack as its frame stack.
    """
    parser = _Parser(reference_tokenize(text), sig)
    value = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected token {trailing.text!r}", trailing.pos)
    return value


def reference_blade_name(mask: int, n: int) -> str:
    """The display name of a blade read off its bits one at a time, as blade_name built it before its tables."""
    if mask == 0:
        return "1"
    indices = []
    index = 1
    while mask:
        if mask & 1:
            indices.append(str(index))
        mask >>= 1
        index += 1
    if n <= 9:
        return "e" + "".join(indices)
    return "e{" + ",".join(indices) + "}"


def reference_pretty_print(x: Multivector) -> str:
    """The canonical text of x through its Fraction coefficients, as pretty_print built it before integers.

    Every coefficient is checked against the budget first, so an element
    with one oversized coefficient raises CoefficientTooLarge whatever its
    other terms; then terms() in ascending mask order, each one rendered by
    str() of its magnitude.
    """
    terms = x.terms()
    for _, coef in terms:
        if max(coef.numerator.bit_length(), coef.denominator.bit_length()) > MAX_COEFFICIENT_BITS:
            raise CoefficientTooLarge(f"a coefficient exceeds the budget of {MAX_COEFFICIENT_BITS} bits")
    if not terms:
        return "0"
    pieces = []
    for position, (mask, coef) in enumerate(terms):
        name = reference_blade_name(mask, x.sig.n)
        magnitude = abs(coef)
        if mask == 0:
            body = str(magnitude)
        elif magnitude == 1:
            body = name
        else:
            body = f"{magnitude}*{name}"
        if position == 0:
            pieces.append(body if coef > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coef > 0 else f" - {body}")
    return "".join(pieces)


def dense_inverse(x: Multivector):
    """Two-sided inverse by solving L_x y = 1 exactly, or None when there is none.

    L_x is the 2^n x 2^n matrix of left multiplication by x on the blade
    basis.  This is the reference the in-algebra inverse is tested against.
    """
    sig = x.sig
    dim = 1 << sig.n
    columns = []
    for b in range(dim):
        col = [Fraction(0)] * dim
        for a, ca in x.terms():
            coef, mask = blade_mul(a, b, sig)
            if coef:
                col[mask] += ca * coef
        columns.append(col)
    matrix = [[columns[c][r] for c in range(dim)] for r in range(dim)]
    solution = reference_solve(matrix, [Fraction(1)] + [Fraction(0)] * (dim - 1))
    if solution is None:
        return None
    y = Multivector(sig, dict(enumerate(solution)))
    one = Multivector.one(sig)
    if geometric_product(x, y) != one or geometric_product(y, x) != one:
        return None
    return y


def reference_twisted_adjoint(x: Multivector):
    """[grade_involution(x) * e_i * x^-1 for each generator e_i], or None when x has no inverse.

    Both products run in reference_product and x^-1 is the Fraction solve of
    dense_inverse, so the images are formed outside the library's integer
    kernels.  This is the reference the twisted adjoint matrix, the lift
    check and membership are tested against.
    """
    x_inv = dense_inverse(x)
    if x_inv is None:
        return None
    x_hat = grade_involution(x)
    return [
        reference_product(reference_product(x_hat, Multivector.generator(x.sig, i)), x_inv)
        for i in range(1, x.sig.n + 1)
    ]


def reference_membership(x: Multivector):
    """(in_clifford_group, in_pin, in_spin, n_value) by the direct definitions.

    N = x * conjugate(x) in Fractions, and stability read off
    reference_twisted_adjoint.  This is the reference groups.membership is
    tested against.
    """
    value = reference_product(x, clifford_conjugation(x))
    n_value = value.scalar_part() if value.is_scalar() else None
    images = reference_twisted_adjoint(x)
    group = images is not None and all(image.grades() in ((), (1,)) for image in images)
    pin = group and n_value in (1, -1)
    spin = pin and even_part(x) == x
    return group, pin, spin, n_value


def reference_idempotents(blades) -> list[Multivector]:
    """prod (1 + eps_t u_t) / 2 for every sign choice, eps = +1 before -1, by geometric products.

    The fold spinors._idempotents ran before it built each member by blade
    relabellings: one product per factor.
    """
    sig = blades.sig
    one = Multivector.one(sig)
    out = []
    for signs in itertools.product((1, -1), repeat=len(blades.blades)):
        f = one
        for eps, mask in zip(signs, blades.blades):
            factor = add(
                scalar_mul(Fraction(1, 2), one),
                Multivector.basis_blade(sig, mask, Fraction(eps, 2)),
            )
            f = geometric_product(f, factor)
        out.append(f)
    return out


def pairwise_orthogonal(idems) -> bool:
    """True iff f * g = g * f = 0 for every pair of distinct members."""
    return all(
        geometric_product(f, g).is_zero() and geometric_product(g, f).is_zero()
        for i, f in enumerate(idems)
        for g in idems[i + 1 :]
    )


def reference_rows_stable(f: Multivector, basis) -> bool:
    """b * e_v = sigma_v b for every b in basis and every factor (1 + sigma_v e_v)/2 of f, by products.

    The k-relabelling test IdealBasis ran on every row of a certified f
    before rows of the form e_p * F passed with one relabelling; f must have
    a _product_form certificate.
    """
    form = spinors._product_form(f)
    assert form is not None
    return all(
        reference_product(b, Multivector.basis_blade(f.sig, v)) == scalar_mul(sigma, b)
        for b in basis
        for v, sigma in form.items()
    )


def reference_pivots_hold(basis, pivots) -> bool:
    """Basis element i is 1 at pivot i and 0 at every other pivot: the dim^2 test IdealBasis ran."""
    return len(pivots) == len(basis) and all(
        b.coefficient(p) == (1 if i == j else 0) for i, b in enumerate(basis) for j, p in enumerate(pivots)
    )


def reference_center(sig: Signature):
    """Masks of the blades that commute with every generator, blade by blade.

    This is the reference the closed form of spinors.algebra_center is
    tested against.
    """
    return tuple(
        mask
        for mask in range(1 << sig.n)
        if all(
            blade_mul(mask, 1 << i, sig)[0] == blade_mul(1 << i, mask, sig)[0]
            for i in range(sig.n)
        )
    )


def reference_commuting_blades(sig: Signature) -> tuple[int, ...] | None:
    """k commuting independent +1-square blades by depth-first search with backtracking.

    The search find_commuting_blades ran before its one ascending pass:
    masks in ascending order, every test through blade_mul, and
    independence read off every nonempty sub-product of the chosen masks.
    None when no set of size k exists.
    """
    k = sig.q - radon_hurwitz(sig.q - sig.p)
    chosen: list[int] = []

    def admissible(mask: int) -> bool:
        coef, out = blade_mul(mask, mask, sig)
        if out != 0 or coef != 1:
            return False
        if any(blade_mul(mask, other, sig)[0] != blade_mul(other, mask, sig)[0] for other in chosen):
            return False
        for size in range(1, len(chosen) + 1):
            for subset in itertools.combinations(chosen, size):
                product = 0
                for other in subset:
                    product ^= other
                if product == mask:
                    return False
        return True

    def extend(start: int) -> bool:
        if len(chosen) == k:
            return True
        for mask in range(start, 1 << sig.n):
            if admissible(mask):
                chosen.append(mask)
                if extend(mask + 1):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if extend(1) else None


def reference_evaluate_form(form: BilinearForm, u, v) -> Fraction:
    """u^T B v entry by entry in Fraction arithmetic, as evaluate_form read it before integers."""
    rows = form.rows()
    bv = [sum((Fraction(b) * Fraction(x) for b, x in zip(row, v)), Fraction(0)) for row in rows]
    return sum((Fraction(x) * y for x, y in zip(u, bv)), Fraction(0))


def full_blade_image_span(sig: Signature, image):
    """RREF basis of span{image(b) : b a basis blade} and its pivot masks.

    Row-reduces all 2^n images at once over all 2^n blade columns.  This is
    the reference the coset-block spinors._blade_image_span is tested against.
    """
    dim = 1 << sig.n
    images = [image(Multivector.basis_blade(sig, b)) for b in range(dim)]
    rows = [[x.coefficient(m) for m in range(dim)] for x in images]
    reduced, pivots = reference_rref(rows)
    basis = tuple(Multivector(sig, dict(enumerate(reduced[i]))) for i in range(len(pivots)))
    return basis, tuple(pivots)


def reference_interbasis(f_i: Multivector, f_j: Multivector):
    """(E_ij, E_ji) from the dense system; None when there is none.

    None when f_i * A * f_j or f_j * A * f_i is zero, and when E_ij has no
    partial inverse (the system is inconsistent).

    The solve interbasis_element ran before its sparse system: E_ij is the
    first RREF basis element of f_i * A * f_j, and E_ji solves E_ij * v = f_i
    and v * E_ij = f_j over the RREF basis of f_j * A * f_i, with one
    equation per blade on each side, 2^(n+1) rows, by reference_solve.
    """
    if f_i == f_j:
        return f_i, f_i
    sig = f_i.sig

    def sandwich(left, right):
        image = lambda b: geometric_product(geometric_product(left, b), right)
        return full_blade_image_span(sig, image)[0]

    space_ij, space_ji = sandwich(f_i, f_j), sandwich(f_j, f_i)
    if not space_ij or not space_ji:
        return None
    e_ij = space_ij[0]
    columns = [
        _coords(geometric_product(e_ij, w)) + _coords(geometric_product(w, e_ij)) for w in space_ji
    ]
    solution = reference_solve([list(row) for row in zip(*columns)], _coords(f_i) + _coords(f_j))
    if solution is None:
        return None
    e_ji = Multivector.zero(sig)
    for t, w in zip(solution, space_ji):
        e_ji = add(e_ji, scalar_mul(t, w))
    return e_ij, e_ji


def coordinates_in_basis(basis_rows, target):
    """Coefficients expressing target as a combination of basis rows, or None."""
    if not basis_rows:
        return None if any(x != 0 for x in target) else []
    return reference_solve(_linalg.transpose(basis_rows), list(target))


def _coords(x: Multivector):
    return [x.coefficient(mask) for mask in range(1 << x.sig.n)]


def _coordinates_in_span(vectors, target):
    """Coefficients of target against the given coordinate rows, or None."""
    return coordinates_in_basis([_coords(v) for v in vectors], _coords(target))


def _scalar_multiple_of(x: Multivector, base: Multivector):
    """lambda with x = lambda * base, or None."""
    coeffs = _coordinates_in_span([base], x)
    return coeffs[0] if coeffs is not None else None


def _square_decomposition(u: Multivector, f: Multivector):
    """(alpha, beta) with u*u = alpha*f + beta*u, or None outside that plane."""
    coeffs = _coordinates_in_span([f, u], geometric_product(u, u))
    return (coeffs[0], coeffs[1]) if coeffs is not None else None


def _traceless_part(u: Multivector, f: Multivector):
    if _scalar_multiple_of(u, f) is not None:
        return Multivector.zero(u.sig)
    decomposition = _square_decomposition(u, f)
    if decomposition is None:
        return None
    _, beta = decomposition
    return add(u, scalar_mul(-beta / 2, f))


def _anticommutator(x: Multivector, y: Multivector) -> Multivector:
    return add(geometric_product(x, y), geometric_product(y, x))


def _negative_square_scalar(u: Multivector, f: Multivector):
    """mu < 0 with u*u = mu*f, or None."""
    mu = _scalar_multiple_of(geometric_product(u, u), f)
    if mu is None or mu >= 0:
        return None
    return mu


def _classify_quaternionic(basis, f: Multivector) -> bool:
    """Exhibit three pairwise anticommuting units with negative square."""
    traceless = []
    for u in basis:
        w = _traceless_part(u, f)
        if w is None:
            return False
        if not w.is_zero():
            traceless.append(w)
    if not traceless:
        return False
    u1 = traceless[0]
    nu = _negative_square_scalar(u1, f)
    if nu is None:
        return False
    u2 = None
    for w in traceless[1:]:
        paired = _scalar_multiple_of(_anticommutator(u1, w), f)
        if paired is None:
            return False
        candidate = add(w, scalar_mul(-paired / (2 * nu), u1))
        if not candidate.is_zero():
            u2 = candidate
            break
    if u2 is None:
        return False
    u3 = geometric_product(u1, u2)
    units = (u1, u2, u3)
    for u in units:
        if _negative_square_scalar(u, f) is None:
            return False
    for a, b in itertools.combinations(units, 2):
        if not _anticommutator(a, b).is_zero():
            return False
    return True


def reference_division_ring(f: Multivector):
    """Kind "R", "C" or "H" of f*A*f from its element structure, or None.

    The basis comes from full_blade_image_span.  Dimension 1 is R; for C a
    traceless element must square to a negative multiple of f, and for H
    three pairwise anticommuting such units must exist.  Any other outcome
    means f*A*f is no division ring, and gives None.  f must be idempotent.
    This is the reference spinors.division_ring_info, which decides the kind
    from the dimension and the signature, is tested against.
    """
    basis, _ = full_blade_image_span(
        f.sig, lambda b: geometric_product(geometric_product(f, b), f)
    )
    dim = len(basis)
    if dim == 1:
        return "R"
    if dim == 2:
        candidate = next((u for u in basis if _scalar_multiple_of(u, f) is None), None)
        w = _traceless_part(candidate, f) if candidate is not None else None
        if w is None or w.is_zero() or _negative_square_scalar(w, f) is None:
            return None
        return "C"
    if dim == 4:
        return "H" if _classify_quaternionic(basis, f) else None
    return None


def all_signatures(max_n: int, degenerate: bool = True):
    """Every (p, q, s) with 0 <= p+q+s <= max_n (s = 0 only when degenerate=False)."""
    out = []
    for n in range(max_n + 1):
        for p in range(n + 1):
            for q in range(n - p + 1):
                s = n - p - q
                if s and not degenerate:
                    continue
                out.append(Signature(p, q, s))
    return out


def rand_fraction(rng: random.Random, span: int = 9, den: int = 5) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_multivector(rng: random.Random, sig: Signature, density: float = 0.5) -> Multivector:
    coeffs = {}
    for mask in range(1 << sig.n):
        if rng.random() < density:
            coeffs[mask] = rand_fraction(rng)
    return Multivector(sig, coeffs)


def rand_vector(rng: random.Random, n: int) -> list:
    return [rand_fraction(rng, span=5, den=3) for _ in range(n)]


def rand_anisotropic_vector(rng: random.Random, form: BilinearForm) -> list:
    while True:
        v = rand_vector(rng, form.n)
        if quadratic_value(form, v) != 0:
            return v


def rand_isometry(rng: random.Random, form: BilinearForm, reflections: int):
    """Product of the given number of random reflection matrices."""
    m = _linalg.identity(form.n)
    for _ in range(reflections):
        w = rand_anisotropic_vector(rng, form)
        m = _linalg.mat_mul(m, reflection_matrix(form, w).rows())
    return m


def reference_cartan_dieudonne(form: BilinearForm, m):
    """Reflection vectors of the isometry m of a regular form, by a basis change.

    M is conjugated into the orthogonal basis P of orthogonal_diagonalize,
    D = P^-1 M P with P^-1 from Gauss-Jordan on [P | I], and D is factored
    against the diagonal form: basis directions lowest index first, one
    reflection matrix per step, through D e_i - e_i when it is anisotropic
    and otherwise through D e_i + e_i and then e_i.  The vectors are mapped
    back through P.  This is the reference the factorization in the form's
    own basis, quadratic_space.cartan_dieudonne_factor, is tested against.
    """
    n = form.n
    diagonalization = orthogonal_diagonalize(form)
    basis = diagonalization.basis_rows()
    reduced, pivots = reference_rref([row + unit for row, unit in zip(basis, _linalg.identity(n))])
    assert pivots == list(range(n)), "congruence basis is singular"
    basis_inv = [row[n:] for row in reduced]
    current = _linalg.mat_mul(basis_inv, _linalg.mat_mul(_linalg.to_matrix(m), basis))
    diagonal = BilinearForm.diagonal(diagonalization.diag)
    vectors = []
    for i in range(n):
        image = [current[r][i] for r in range(n)]
        unit = _linalg.identity(n)[i]
        if image == unit:
            continue
        difference = [x - y for x, y in zip(image, unit)]
        if quadratic_value(diagonal, difference) != 0:
            steps = [difference]
        else:
            steps = [[x + y for x, y in zip(image, unit)], unit]
        for w in steps:
            current = _linalg.mat_mul(reflection_matrix(diagonal, w).rows(), current)
            vectors.append(mat_vec(basis, w))
    assert mat_eq(current, _linalg.identity(n)), "factorization did not reach the identity"
    return vectors


def fraction_cartan_dieudonne_factor(form: BilinearForm, m):
    """cartan_dieudonne_factor as it read M before it carried one ScaledMatrix: Fraction rows in, Fraction vectors out.

    The loop is the same integer reflection of the columns of C = c / d, but
    M arrives as Fraction rows and is scaled here, the orthogonal basis always
    comes from orthogonal_diagonalize, each axis becomes a Fraction vector
    as soon as it is found, and the isometry check is reference_is_isometry.
    Its errors, and their order, are the library's.
    """
    rows = _linalg.to_matrix(m)
    diagonalization = orthogonal_diagonalize(form)
    if diagonalization.signature[2] > 0:
        raise DegenerateForm("factorization requires a regular form")
    if len(rows) != form.n or any(len(r) != form.n for r in rows):
        raise DimensionMismatch(f"expected a {form.n}x{form.n} matrix")
    if not reference_is_isometry(form, rows):
        raise NotAnIsometry("matrix does not preserve the bilinear form")
    g = form._ints
    start = _linalg.ScaledMatrix.of(_linalg.transpose(rows))
    columns, d = start.rows, start.scale
    vectors = []

    def reflect(w, scale) -> bool:
        nonlocal d
        gw = [sum(a * b for a, b in zip(row, w)) for row in g]
        q = sum(a * b for a, b in zip(w, gw))
        if q == 0:
            return False
        vectors.append([Fraction(x, scale) for x in w])
        for column in columns:
            t = 2 * sum(a * b for a, b in zip(column, gw))
            column[:] = [q * x - t * y for x, y in zip(column, w)]
        d *= q
        content = math.gcd(d, *itertools.chain.from_iterable(columns))
        if d < 0:
            content = -content
        d //= content
        for column in columns:
            column[:] = [x // content for x in column]
        return True

    basis = _linalg.ScaledMatrix.of(_linalg.transpose(diagonalization.basis_rows()))
    for v in basis.rows:
        image = [sum(a * b for a, b in zip(row, v)) for row in zip(*columns)]
        dv = [d * x for x in v]
        if image == dv:
            continue
        if not reflect([x - y for x, y in zip(image, dv)], d * basis.scale):
            reflect([x + y for x, y in zip(image, dv)], d * basis.scale)
            reflect(v, basis.scale)
    if not mat_eq(_linalg.ScaledMatrix(columns, d).fractions(), _linalg.identity(form.n)):
        raise NotAnIsometry("factorization did not terminate at the identity")
    return vectors


def fraction_lift_isometry(sig: Signature, m):
    """(element, n_value, reflection_count, needs_normalization) of lift_isometry, the way it ran on Fractions.

    Each vector of fraction_cartan_dieudonne_factor is embedded and multiplied
    on by reference_product, and N is the product of -Phi(w) by
    reference_evaluate_form; the rescaling onto norm +-1 is the library's rule.
    """
    if sig.s > 0:
        raise DegenerateForm("lifting requires a regular signature")
    form = BilinearForm.from_signature(sig)
    vectors = fraction_cartan_dieudonne_factor(form, m)
    element = Multivector.one(sig)
    n_value = Fraction(1)
    for w in vectors:
        element = reference_product(element, Multivector(sig, {1 << i: x for i, x in enumerate(w)}))
        n_value *= -reference_evaluate_form(form, w, w)
    needs_normalization = False
    if n_value not in (1, -1):
        num, den = abs(n_value).numerator, abs(n_value).denominator
        if math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den:
            root = Fraction(math.isqrt(num), math.isqrt(den))
            element = scalar_mul(1 / root, element)
            n_value /= root * root
        else:
            needs_normalization = True
    return element, n_value, len(vectors), needs_normalization


def reference_parse_rational(text: str) -> Fraction:
    """parse_rational as it read text before its integer reader: the same checks, then Fraction(text)."""
    stripped = text.strip()
    match = re.fullmatch(r"[+-]?\d+(?:/(\d+))?", stripped)
    if not match or (match[1] is not None and not any(map(unicodedata.decimal, match[1]))):
        raise ParseError(f"bad rational {stripped!r}; expected \"a\" or \"a/b\"")
    if any(len(part.lstrip("+-")) > MAX_LITERAL_DIGITS for part in stripped.split("/")):
        raise ParseError(f"rational has more than {MAX_LITERAL_DIGITS} digits")
    return Fraction(stripped)


def reference_parse_vector(text: str) -> list:
    entries = text.split(",")
    if not any(e.strip() for e in entries):
        raise ParseError("empty vector text")
    return [reference_parse_rational(e) for e in entries]


def reference_parse_matrix(text: str) -> list:
    """parse_matrix as it read text before its integer reader, one Fraction(text) per entry."""
    pieces = text.split(";")
    if not any(piece.strip() for piece in pieces):
        raise ParseError("empty matrix text")
    rows = []
    for piece in pieces:
        if not piece.strip():
            raise ParseError("empty matrix row")
        rows.append(reference_parse_vector(piece))
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("matrix rows have differing lengths")
    return rows


# exact models for the worked-example isomorphisms


def complex_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def split_mul(a, b):
    return (a[0] * b[0], a[1] * b[1])


def quaternion_mul(a, b):
    """Hamilton product on (w, x, y, z) with i*j = k."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def pair_mul(mul):
    def product(a, b):
        return (mul(a[0], b[0]), mul(a[1], b[1]))

    return product


def mat2_mul(a, b):
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(2)) for c in range(2)) for r in range(2)
    )


def scale_tuple(value, item):
    """Scale a nested tuple structure by a rational."""
    if isinstance(item, tuple):
        return tuple(scale_tuple(value, part) for part in item)
    return value * item
