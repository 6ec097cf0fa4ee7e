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
there is no syntax tree.  Its values are Multivectors.  The terms of a sum
are added once, by core_algebra's accumulator _sum, so evaluating a sum of
monomials takes time linear in its number of terms, and a scalar factor
rescales the other factor without the product kernel; only a product of
two non-scalars is a geometric product.  A digit
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
make it return None, and the general reader below reads the text
instead; it is the only source of errors.  The monomial reader
cannot raise: its literals pass the coefficient budget, and the general
reader checks no budget on a sum.  It builds the same value, in the same
key order.

The general reader, _evaluate, takes the token strings from one scan,
_TOKEN.findall, and reads each token's kind off its first character; an
error scans again up to its token for the character position.  It is one
loop over the token strings with an explicit stack of frames, one per open
parenthesis or function call: the terms so far, the product so far, the
sign of the next term and the pending unary minuses.  It does the work of
the grammar above at the same tokens as a recursive descent would, so it
cannot change what is evaluated when: a product is formed, and its budget
checked, as soon as its right factor is complete; "^" applies to the atom
before the pending unary minuses; a term is complete when the next token is
not "*"; a frame closes at its ")" and adds its terms then.  A sum cannot
raise, so adding the terms at the close rather than one by one changes no
error.

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

import itertools
import re

from .core_algebra import (
    MAX_LITERAL_DIGITS,
    Multivector,
    Signature,
    _negative_mask,
    _sign_masks,
    _sum,
    _zero_mask,
    blade_name,
    check_coefficient_bits,
    clifford_conjugation,
    even_part,
    format_ratio,
    geometric_product,
    grade_involution,
    norm,
    odd_part,
    reversion,
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

# Parentheses, function calls and unary minus each nest one level.  The
# reader keeps its own stack, so this no longer guards the Python stack; it
# stays as the documented input limit (README, test_cli.py).
MAX_NESTING_DEPTH = 100

# One match per token: decimal digits, a name, a symbol or any other visible
# character.  re's Unicode classes: \d is str.isdecimal, what int() reads
# ("²" is no digit), [^\W_] is str.isalnum (\w adds "_"), and findall skips
# what \S leaves out, exactly the characters str.isspace accepts.
_TOKEN = re.compile(r"\d+|[^\W\d_][^\W_]*|[-+*/^(){},]|\S")
# a character that is not whitespace, a letter, a digit or a symbol
_OUTSIDE = re.compile(r"[^\s\w+\-*/^(){},]|_")


def _outside(text: str) -> int | None:
    r"""The position of the first character outside the token set, or None.

    A name starts with a letter (str.isalpha), but [^\W\d_] also matches
    numerals that are no letters, such as "²", "½" and "Ⅷ"; ASCII text has
    none, and other text checks the first character of each token for them.
    """
    found = _OUTSIDE.search(text)
    end = found.start() if found else len(text)
    if not text.isascii():
        for match in _TOKEN.finditer(text, 0, end):
            first = match[0][0]
            if first.isnumeric() and not first.isdecimal() and not first.isalpha():
                return match.start()
    return end if found else None


def _error(message: str, text: str, index: int) -> ParseError:
    """A ParseError at token index of text; the scan runs again to find its position, len(text) at the end."""
    match = next(itertools.islice(_TOKEN.finditer(text), index, None), None)
    return ParseError(message, len(text) if match is None else match.start())


def _integer(text: str, tokens: list[str], index: int) -> int:
    digits = tokens[index]
    if len(digits) > MAX_LITERAL_DIGITS:
        raise _error(f"number has more than {MAX_LITERAL_DIGITS} digits", text, index)
    return int(digits)


def _expected(symbol: str, text: str, tokens: list[str], index: int) -> ParseError:
    return _error(f"expected {symbol!r}, found {tokens[index]!r}", text, index)


def _blade_word(indices, negative_mask: int, zero_mask: int) -> tuple[int, int]:
    """(sign, mask) of a generator word, one blade sign per letter; a null square gives sign 0.

    Each letter reads its sign from the _sign_masks of the blade so far.
    """
    sign, mask = 1, 0
    for i in indices:
        bit = 1 << (i - 1)
        flips, null = _sign_masks(mask, negative_mask, zero_mask)
        if bit & null:
            sign = 0
        elif bit & flips:
            sign = -sign
        mask ^= bit
    return sign, mask


def _evaluate(text: str, sig: Signature) -> Multivector:
    """The value of text, read in one loop over its token strings with an explicit stack of frames.

    A character outside the token set raises before anything is evaluated.
    The empty string ends _TOKEN.findall's tokens.  The open frame is a
    parenthesis, a function call or the whole text.  It holds its terms so
    far, the product so far, the sign of the next term, the pending unary
    minuses and its opener; a "(" or "fn(" pushes it and the matching ")"
    pops it.  Values are Multivectors: a literal is Multivector._scaled of
    its numerator over its denominator, a blade its sign, and minus, "^"
    and functions are the Multivector operations.  A scalar factor
    rescales the other one; any other product is geometric_product,
    checked against the budget.  At its close a frame returns a single term
    as it is and passes several to core_algebra._sum once, which keeps
    add's key order.  The loop evaluates in the grammar's order (see the
    module docstring), so every error and every key order is the same.
    """
    bad = _outside(text)
    if bad is not None:
        raise ParseError(f"unexpected character {text[bad]!r}", bad)
    tokens = _TOKEN.findall(text)
    tokens.append("")  # the end of the text
    n = sig.n
    negative_mask = _negative_mask(sig)
    zero_mask = _zero_mask(sig)
    stack = []
    terms, product, negate, minuses, opener = [], None, False, 0, None
    depth = 0  # open frames plus pending unary minuses
    index = 0
    while True:
        # a factor starts here: unary minuses, an opener or an atom
        token = tokens[index]
        index += 1
        if token == "-":
            if depth == MAX_NESTING_DEPTH:
                raise _error(f"expression nests deeper than {MAX_NESTING_DEPTH} levels", text, index - 1)
            depth += 1
            minuses += 1
            continue
        if token == "(" or token in FUNCTIONS:
            if token != "(":
                if tokens[index] != "(":
                    raise _expected("(", text, tokens, index)
                index += 1
            if depth == MAX_NESTING_DEPTH:
                raise _error(f"expression nests deeper than {MAX_NESTING_DEPTH} levels", text, index - 1)
            depth += 1
            stack.append((terms, product, negate, minuses, opener))
            terms, product, negate, minuses, opener = [], None, False, 0, token
            continue
        if token.isdecimal():
            numerator = _integer(text, tokens, index - 1)
            denominator = 1
            if tokens[index] == "/":
                index += 2
                if not tokens[index - 1].isdecimal():
                    raise _error("expected denominator digits", text, index - 1)
                denominator = _integer(text, tokens, index - 1)
                if not denominator:
                    raise _error("zero denominator", text, index - 1)
            value = Multivector._scaled(sig, {0: numerator}, denominator)
        elif token[:1] == "e":
            name = index - 1
            if len(token) > 1:
                digits = token[1:]
                if not digits.isdecimal():
                    raise _error(f"unknown name {token!r}", text, name)
                if n > 9:
                    raise _error("digit blade form is ambiguous beyond 9 generators; use e{i,j,...}", text, name)
                indices = [int(d) for d in digits]
            else:
                # bare "e": braced form e{1,2,...}
                indices = []
                separator = tokens[index]
                if separator != "{":
                    raise _expected("{", text, tokens, index)
                index += 1
                while separator != "}":
                    if not tokens[index].isdecimal():
                        raise _error("expected generator index", text, index)
                    indices.append(_integer(text, tokens, index))
                    separator = tokens[index + 1]
                    if separator != "," and separator != "}":
                        raise _expected("}", text, tokens, index + 1)
                    index += 2
            for i in indices:
                if i < 1 or i > n:
                    raise _error(f"generator index {i} out of range 1..{n}", text, name)
            sign, mask = _blade_word(indices, negative_mask, zero_mask)
            value = Multivector._scaled(sig, {mask: sign}, 1)
        elif token.isalnum():
            raise _error(f"unknown name {token!r}", text, index - 1)
        else:
            raise _error(f"unexpected token {token!r}", text, index - 1)

        # an atom is complete: finish the factor, then every term, sum and
        # frame that the next token closes
        while True:
            if tokens[index] == "^":
                index += 2
                if not tokens[index - 1].isdecimal():
                    raise _error("exponent must be a non-negative integer", text, index - 1)
                value = value ** _integer(text, tokens, index - 1)  # checks the budget per squaring
            if minuses:
                if minuses & 1:
                    value = -value
                depth -= minuses
                minuses = 0
            if product is None:
                product = value
            else:
                # a scalar factor (0 included) rescales the other factor, in its
                # key order, without the product kernel
                if not any(value._ints):
                    product, value = value, product
                if any(product._ints):
                    product = geometric_product(product, value)
                elif product._ints:  # 0 times anything stays 0
                    c = product._ints[0]
                    product = Multivector._scaled(
                        sig, {mask: c * v for mask, v in value._ints.items()}, product._scale * value._scale
                    )
                check_coefficient_bits(product)
            token = tokens[index]
            if token == "*":
                index += 1
                break
            # the term is complete
            terms.append(-product if negate else product)
            product = None
            if token == "+" or token == "-":
                negate = token == "-"
                index += 1
                break
            # the sum is complete: it ends the text or closes the open frame
            value = terms[0] if len(terms) == 1 else _sum(sig, [(t._ints, t._scale) for t in terms])
            if opener is None:
                if token:
                    raise _error(f"unexpected token {token!r}", text, index)
                return value
            if token != ")":
                raise _expected(")", text, tokens, index)
            index += 1
            if opener != "(":
                value = FUNCTIONS[opener](value)
                check_coefficient_bits(value)  # N squares coefficient sizes
            terms, product, negate, minuses, opener = stack.pop()
            depth -= 1


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
    write, without tokens; parse_multivector falls back to _evaluate on
    None.  The value and its key order are those _evaluate gives: each
    blade word folds through the blade signs one letter at a time, and the
    nonzero terms, each a (blade: numerator) map over its denominator, go
    to core_algebra._sum once.

    The reader cannot raise, so every ParseError and CoefficientTooLarge,
    with its message and position, comes from _evaluate.  It returns None on
    a leading "+", a missing sign between terms, a zero denominator, an
    index outside 1..n, the digit form with n > 9, and any text its pattern
    does not cover to the end (non-ASCII digits or spaces, "^", parentheses,
    functions, products of two blades).  A literal has at most
    MAX_LITERAL_DIGITS digits, so it is below 10^2457 < 2^8192 and passes
    the coefficient budget _evaluate checks after each product; a blade
    sign is 1, -1 or 0; and _evaluate does not check the budget of a sum
    either.
    """
    n = sig.n
    negative_mask = _negative_mask(sig)
    zero_mask = _zero_mask(sig)
    parts = []
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
            word_sign, mask = _blade_word(indices, negative_mask, zero_mask)
            value *= word_sign
        denominator = int(denominator) if denominator else 1
        if not denominator:
            return None
        if value:
            parts.append(({mask: value}, denominator))
    # empty text is _evaluate's ParseError
    return _sum(sig, parts) if end else None


def parse_multivector(text: str, sig: Signature) -> Multivector:
    """Parse an expression and evaluate it to an exact multivector in Cl(sig)."""
    value = _monomial_sum(text, sig)
    if value is not None:
        return value
    return _evaluate(text, sig)


# the short public name: the same function object, not a wrapper
parse = parse_multivector


def pretty_print(x: Multivector) -> str:
    """Canonical text form: ascending blade masks, exact coefficients.

    The output round-trips: parse_multivector(pretty_print(x), x.sig) == x.
    Each coefficient is format_ratio of its numerator over the scale, so
    CoefficientTooLarge when a reduced one passes MAX_COEFFICIENT_BITS.
    """
    ints, scale, n = x._ints, x._scale, x.sig.n
    if not ints:
        return "0"
    pieces = []
    for mask in sorted(ints):
        value = ints[mask]
        magnitude = format_ratio(abs(value), scale)
        if mask == 0:
            body = magnitude
        elif magnitude == "1":
            body = blade_name(mask, n)
        else:
            body = f"{magnitude}*{blade_name(mask, n)}"
        if pieces:
            pieces.append(f" + {body}" if value > 0 else f" - {body}")
        else:
            pieces.append(body if value > 0 else f"-{body}")
    return "".join(pieces)
