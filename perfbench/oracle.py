"""Independent reference computations for checking cliffalg's outputs.

Nothing here imports cliffalg.  Blades are ascending tuples of 1-based
generator indices, not bit masks, and the sign of a blade product comes from
counting inversions between the two index lists before contracting equal
neighbours: a different algorithm from the library's popcount kernel.
Matrices are lists of rows of Fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def squares(p: int, q: int, s: int = 0) -> tuple[int, ...]:
    """Square of each generator e_1..e_n: +1 (p times), -1 (q times), 0 (s times)."""
    return (1,) * p + (-1,) * q + (0,) * s


def blade_product(a: tuple, b: tuple, sq: tuple) -> tuple[int, tuple]:
    """(sign, blade) of e_a * e_b.

    Moving each factor of b left past the larger factors of a costs one sign
    per inversion; equal indices then sit side by side and contract to the
    generator's square.
    """
    inversions = sum(1 for i in a for j in b if i > j)
    sign = -1 if inversions % 2 else 1
    merged = sorted(a + b)
    out = []
    k = 0
    while k < len(merged):
        if k + 1 < len(merged) and merged[k] == merged[k + 1]:
            sign *= sq[merged[k] - 1]
            k += 2
        else:
            out.append(merged[k])
            k += 1
    return sign, tuple(out)


class MV:
    """A multivector as {ascending index tuple: Fraction}, zeros never stored."""

    __slots__ = ("sq", "terms")

    def __init__(self, sq: tuple, terms=None):
        self.sq = sq
        self.terms = {b: Fraction(c) for b, c in (terms or {}).items() if c}

    @classmethod
    def scalar(cls, sq, value) -> "MV":
        return cls(sq, {(): value})

    @classmethod
    def blade(cls, sq, indices) -> "MV":
        """The product of the generators in the written order (repeats allowed)."""
        out = cls.scalar(sq, 1)
        for i in indices:
            out = out * cls(sq, {(i,): 1})
        return out

    @classmethod
    def vector(cls, sq, coords) -> "MV":
        return cls(sq, {(i + 1,): c for i, c in enumerate(coords)})

    def __add__(self, other: "MV") -> "MV":
        out = dict(self.terms)
        for b, c in other.terms.items():
            out[b] = out.get(b, ZERO) + c
        return MV(self.sq, out)

    def __sub__(self, other: "MV") -> "MV":
        return self + other.scale(-1)

    def __neg__(self) -> "MV":
        return self.scale(-1)

    def scale(self, c) -> "MV":
        c = Fraction(c)
        return MV(self.sq, {b: c * v for b, v in self.terms.items()})

    def __mul__(self, other: "MV") -> "MV":
        out: dict = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                sign, blade = blade_product(a, b, self.sq)
                if sign:
                    out[blade] = out.get(blade, ZERO) + sign * ca * cb
        return MV(self.sq, out)

    def __pow__(self, k: int) -> "MV":
        out = MV.scalar(self.sq, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, MV) and self.sq == other.sq and self.terms == other.terms

    def _signed(self, negate) -> "MV":
        return MV(self.sq, {b: (-c if negate(len(b)) else c) for b, c in self.terms.items()})

    def gi(self) -> "MV":
        return self._signed(lambda k: k % 2 == 1)

    def rev(self) -> "MV":
        return self._signed(lambda k: k % 4 in (2, 3))

    def conj(self) -> "MV":
        return self._signed(lambda k: k % 4 in (1, 2))

    def even(self) -> "MV":
        return MV(self.sq, {b: c for b, c in self.terms.items() if len(b) % 2 == 0})

    def odd(self) -> "MV":
        return MV(self.sq, {b: c for b, c in self.terms.items() if len(b) % 2 == 1})

    def norm(self) -> "MV":
        return self * self.conj()

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return all(b == () for b in self.terms)

    def scalar_part(self) -> Fraction:
        return self.terms.get((), ZERO)


FUNCTIONS = {
    "rev": MV.rev,
    "gi": MV.gi,
    "conj": MV.conj,
    "even": MV.even,
    "odd": MV.odd,
    "N": MV.norm,
}


# text rendering of inputs and reading of outputs


def rat(value) -> str:
    return str(Fraction(value))


def blade_text(indices) -> str:
    """Digit blade name as written, e.g. (2, 1) -> "e21"; the scalar blade is "1"."""
    return "e" + "".join(str(i) for i in indices) if indices else "1"


def mv_text(x: MV) -> str:
    """An expression the CLI parses back to x (ascending grade, signed terms)."""
    if x.is_zero():
        return "0"
    pieces = []
    for blade, c in sorted(x.terms.items(), key=lambda item: (len(item[0]), item[0])):
        body = rat(abs(c)) if not blade else f"{rat(abs(c))}*{blade_text(blade)}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(pieces)


_BLADE_NAME = re.compile(r"e(\d+)|e\{(\d+(?:,\d+)*)\}")


def parse_blade_name(name: str) -> tuple:
    if name == "1":
        return ()
    match = _BLADE_NAME.fullmatch(name)
    if match is None:
        raise ValueError(f"not a blade name: {name!r}")
    digits, braced = match.groups()
    indices = tuple(int(d) for d in digits) if digits else tuple(int(t) for t in braced.split(","))
    if list(indices) != sorted(set(indices)):
        raise ValueError(f"blade name not in canonical order: {name!r}")
    return indices


def read_mv(text: str, sq: tuple) -> MV:
    """Read the library's canonical printed form ("3/5 + 4/5*e12", "-e1 + e23")."""
    text = text.strip()
    if text == "0":
        return MV(sq)
    parts = re.split(r" ([+-]) ", text)
    signs = ["+"] + parts[1::2]
    bodies = parts[0::2]
    if bodies[0].startswith("-"):
        signs[0], bodies[0] = "-", bodies[0][1:]
    out: dict = {}
    for sign, body in zip(signs, bodies):
        if "*" in body:
            coefficient, name = body.split("*")
            value, blade = Fraction(coefficient), parse_blade_name(name)
        elif body.startswith("e"):
            value, blade = ONE, parse_blade_name(body)
        else:
            value, blade = Fraction(body), ()
        if blade in out or value <= 0:
            raise ValueError(f"malformed printed multivector: {text!r}")
        out[blade] = value if sign == "+" else -value
    return MV(sq, out)


# expression trees built by the benchmark: nested tuples
#   ("num", Fraction) ("blade", indices) ("neg", t) ("fn", name, t)
#   ("pow", t, k) ("+", t, u) ("-", t, u) ("*", t, u)


def expr_text(node) -> str:
    kind = node[0]
    if kind == "num":
        return rat(node[1])
    if kind == "blade":
        return blade_text(node[1])
    if kind == "neg":
        return f"-({expr_text(node[1])})"
    if kind == "fn":
        return f"{node[1]}({expr_text(node[2])})"
    if kind == "pow":
        return f"({expr_text(node[1])})^{node[2]}"
    return f"({expr_text(node[1])}) {kind} ({expr_text(node[2])})"


def expr_eval(node, sq: tuple) -> MV:
    kind = node[0]
    if kind == "num":
        return MV.scalar(sq, node[1])
    if kind == "blade":
        return MV.blade(sq, node[1])
    if kind == "neg":
        return -expr_eval(node[1], sq)
    if kind == "fn":
        return FUNCTIONS[node[1]](expr_eval(node[2], sq))
    if kind == "pow":
        return expr_eval(node[1], sq) ** node[2]
    left, right = expr_eval(node[1], sq), expr_eval(node[2], sq)
    if kind == "+":
        return left + right
    if kind == "-":
        return left - right
    return left * right


# small exact matrix helpers


def identity(n: int):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))] for i in range(len(a))]


def transpose(m):
    return [list(col) for col in zip(*m)]


def matrix_text(m) -> str:
    return ";".join(",".join(rat(x) for x in row) for row in m)


def read_matrix(rows) -> list:
    return [[Fraction(x) for x in row] for row in rows]


def rank(rows) -> int:
    """Rank by Gaussian elimination on a copy."""
    work = [list(r) for r in rows if any(r)]
    r = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c]:
                f = work[i][c] / work[r][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def quadratic(sq: tuple, v) -> Fraction:
    return sum((s * x * x for s, x in zip(sq, v)), ZERO)


def reflect(sq: tuple, w, u) -> list:
    """s_w(u) = u - 2 B(u,w)/Q(w) w for the diagonal form sq."""
    scale = 2 * sum((s * x * y for s, x, y in zip(sq, u, w)), ZERO) / quadratic(sq, w)
    return [x - scale * y for x, y in zip(u, w)]


def reflection(sq: tuple, w):
    """Matrix of s_w(u) = u - 2 B(u,w)/Q(w) w for the diagonal form sq."""
    qw = quadratic(sq, w)
    n = len(sq)
    return [[(ONE if r == c else ZERO) - 2 * sq[c] * w[c] * w[r] / qw for c in range(n)] for r in range(n)]
