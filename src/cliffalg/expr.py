"""Parsing and printing of multivector expressions.

Grammar (whitespace between tokens is ignored):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | atom ('^' uint)?
    atom     := rational | blade | '(' expr ')' | fn '(' expr ')'
    fn       := 'rev' | 'gi' | 'conj' | 'even' | 'odd' | 'N'
    rational := uint ('/' uint)?
    blade    := 'e' digit+  |  'e' '{' uint (',' uint)* '}'

parse_multivector reads the text once and computes the value as it reads;
there is no syntax tree.  A sum accumulates its terms in one coefficient
map, so evaluating a sum of monomials takes time linear in its number of
terms, and a scalar factor rescales the other factor without the product
kernel; only a product of two non-scalars is a geometric product.  A digit
is a decimal digit (str.isdecimal, what int() reads): "²" is not one.  A
blade symbol is the word of generators exactly as written: repeated or
out-of-order indices are allowed and reduce through the algebra relations,
so "e21" evaluates to -e12 and "e11" in Cl(0,1) to -1.  The digit form is
only accepted when the algebra has at most 9 generators.  There is no
implicit multiplication and no float literal; negative numbers are formed
with the unary minus.  pretty_print emits terms in ascending blade-mask
order with canonical ascending blade names and round-trips through
parse_multivector.

Canonical text is read in one pass.  parse_multivector first tries
_monomial_sum, which matches one regular expression per term: an optional
sign, then a rational with an optional "*blade", or a blade alone, with
ASCII digits, ASCII whitespace between tokens, at most MAX_LITERAL_DIGITS
digits per literal and at most 3 per braced index; only the first term may
go without a sign, and it may not carry "+".  Any other text, a zero
denominator, an index outside 1..n or the digit form past 9 generators
make it return None, and the tokenizer and the recursive descent below
read the text instead; they are the only source of errors.  The reader
cannot raise: its literals pass the coefficient budget, and _Parser checks
no budget on a sum.  It builds the same value, in the same key order.

Limits: nesting (parentheses, function calls, unary minus) deeper than
MAX_NESTING_DEPTH and integer literals longer than MAX_LITERAL_DIGITS are
ParseErrors.  A product, power or function value, or a printed coefficient,
whose numerator or denominator passes MAX_COEFFICIENT_BITS raises
CoefficientTooLarge.

A character outside the token set is a ParseError before anything is
evaluated; otherwise the first error from the left wins, so a well-formed
prefix that passes the budget raises CoefficientTooLarge even if the text
is malformed further on ("2^9000 )"; "e1^2 )" is a ParseError).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .core_algebra import (
    _SIGN_COEFFICIENTS,
    MAX_LITERAL_DIGITS,
    Multivector,
    Signature,
    _blade_mul_signs,
    _negative_mask,
    _zero_mask,
    blade_name,
    check_coefficient_bits,
    clifford_conjugation,
    even_part,
    geometric_product,
    grade_involution,
    norm,
    odd_part,
    reversion,
    scalar_mul,
)
from .errors import ParseError

FUNCTIONS = {
    "rev": reversion,
    "gi": grade_involution,
    "conj": clifford_conjugation,
    "even": even_part,
    "odd": odd_part,
    "N": norm,
}

_SYMBOLS = set("+-*/^(){},")

# Parentheses, function calls and unary minus each nest one level.  The
# parser recurses about four frames per level, so this stays well inside
# Python's default recursion limit of 1000.
MAX_NESTING_DEPTH = 100


class Token(NamedTuple):
    kind: str  # "number", "name", "symbol", "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        # isdecimal is exactly what int() reads: "²" is no digit here
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
        if ch in _SYMBOLS:
            tokens.append(Token("symbol", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], sig: Signature):
        self.tokens = tokens
        self.sig = sig
        self.index = 0
        self.depth = 0
        self.negative_mask = _negative_mask(sig)
        self.zero_mask = _zero_mask(sig)

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
        return Multivector._raw(self.sig, acc)

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
            return Multivector._raw(self.sig, {0: Fraction(numerator, denominator)})
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
        # reduce the written generator word through the algebra relations,
        # one blade sign per letter; a null square makes the word zero
        sign, mask = 1, 0
        for i in indices:
            bit = 1 << (i - 1)
            sign *= _blade_mul_signs(mask, (bit,), self.negative_mask, self.zero_mask)[0]
            mask ^= bit
        return Multivector._raw(self.sig, {mask: _SIGN_COEFFICIENTS[sign]})


# One term of a monomial sum: a sign, then rational with an optional *blade,
# or a blade alone.  The groups are the sign, the numerator, the denominator
# and the blade after a rational or alone.
_BLADE = r"(e[0-9]+|e\{[0-9]{1,3}(?:,[0-9]{1,3})*\})"
_LITERAL = f"([0-9]{{1,{MAX_LITERAL_DIGITS}}})"
_MONOMIAL = re.compile(
    rf"\s*([+-]?)\s*(?:{_LITERAL}(?:\s*/\s*{_LITERAL})?(?:\s*\*\s*{_BLADE})?|{_BLADE})\s*",
    re.ASCII,
)


def _monomial_sum(text: str, sig: Signature) -> Multivector | None:
    """The value of a sum of rational*blade monomials, or None outside that form.

    This reads the canonical text pretty_print emits, and the sums users
    write, without tokens or one Multivector per atom; parse_multivector
    falls back to _Parser on None.  The value and the key order of its
    coefficient map are those _Parser gives: each blade word folds through
    the blade signs one letter at a time, and each term adds to the prior
    coefficient of its blade, deleting it when the sum is 0.

    The reader cannot raise, so every ParseError and CoefficientTooLarge,
    with its message and position, comes from _Parser.  It returns None on
    a leading "+", a missing sign between terms, a zero denominator, an
    index outside 1..n, the digit form with n > 9, and any text its pattern
    does not cover to the end (non-ASCII digits or spaces, "^", parentheses,
    functions, products of two blades).  A literal has at most
    MAX_LITERAL_DIGITS digits, so it is below 10^2457 < 2^8192 and passes
    the coefficient budget _Parser checks after each product; a blade sign
    is 1, -1 or 0; and _Parser does not check the budget of a sum either.
    """
    n = sig.n
    negative_mask = _negative_mask(sig)
    zero_mask = _zero_mask(sig)
    acc: dict = {}
    position, end = 0, len(text)
    while position < end:
        match = _MONOMIAL.match(text, position)
        if match is None:
            return None
        sign, numerator, denominator, word, bare = match.groups()
        # the first term may carry only "-"; every later one needs a sign
        if (sign == "+") if position == 0 else not sign:
            return None
        position = match.end()
        value = int(numerator) if numerator else 1
        if sign == "-":
            value = -value
        mask = 0
        word = word or bare
        if word:
            if word[1] == "{":
                indices = [int(i) for i in word[2:-1].split(",")]
            elif n > 9:
                return None
            else:
                indices = [int(i) for i in word[1:]]
            for i in indices:
                if i < 1 or i > n:
                    return None
                bit = 1 << (i - 1)
                value *= _blade_mul_signs(mask, (bit,), negative_mask, zero_mask)[0]
                mask ^= bit
        denominator = int(denominator) if denominator else 1
        if not denominator:
            return None
        if not value:
            continue
        coefficient = Fraction(value, denominator)
        prior = acc.get(mask)
        if prior is None:
            acc[mask] = coefficient
        else:
            total = prior + coefficient
            if total:
                acc[mask] = total
            else:
                del acc[mask]
    # empty text is _Parser's ParseError
    return Multivector._raw(sig, acc) if end else None


def parse_multivector(text: str, sig: Signature) -> Multivector:
    """Parse an expression and evaluate it to an exact multivector in Cl(sig)."""
    value = _monomial_sum(text, sig)
    if value is not None:
        return value
    parser = _Parser(_tokenize(text), sig)
    value = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected token {trailing.text!r}", trailing.pos)
    return value


# the short public name: the same function object, not a wrapper
parse = parse_multivector


def pretty_print(x: Multivector) -> str:
    """Canonical text form: ascending blade masks, exact coefficients.

    The output round-trips: parse_multivector(pretty_print(x), x.sig) == x.
    CoefficientTooLarge when a coefficient passes MAX_COEFFICIENT_BITS.
    """
    check_coefficient_bits(x)
    terms = x.terms()
    if not terms:
        return "0"
    pieces = []
    for position, (mask, coef) in enumerate(terms):
        name = blade_name(mask, x.sig.n)
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
