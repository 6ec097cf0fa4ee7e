"""Seeded inputs for each workload, and the checks their outputs must pass.

build(workload, seed) returns one round: the list of operations the timed
loop repeats.  Each operation is a cliffalg argv plus what its check needs to
know about how the input was made.  check(ops, outputs) verifies the outputs
of one round against oracle.py, which never calls cliffalg, and returns a
list of mismatch messages.

Every workload fixes its signatures and its mix of commands, and the seed only
changes coefficients, vectors and matrices, so each seed gives a round of the
same shape and cost class.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle as orc
from oracle import MV

WORKLOADS = ("versor-groups", "generic-elements", "spinor-modules", "algebra-eval")

# the parser recurses about four frames per parenthesis, so 400 levels exceed
# Python's default recursion limit of 1000 from any starting depth
DEEP_NESTING = 400
DEEP_PER_ROUND = 2


@dataclass
class Op:
    argv: list
    kind: str
    meta: dict = field(default_factory=dict)
    ok_codes: tuple = (0,)

    @property
    def command(self) -> str:
        return self.argv[0]


class Mismatch(Exception):
    pass


def expect(condition, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def sig_text(sig) -> str:
    return ",".join(str(x) for x in sig)


def with_positional(argv: list, value: str) -> list:
    """Append a positional argument; one that starts with '-' goes after '--'."""
    return argv + (["--", value] if value.startswith("-") else [value])


def all_blades(n: int) -> list:
    return [tuple(i + 1 for i in range(n) if mask >> i & 1) for mask in range(1 << n)]


def rand_rat(rng: random.Random, span: int, den: int, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-span, span), rng.randint(1, den))
        if value or not nonzero:
            return value


def rand_anisotropic(rng: random.Random, sq: tuple, span: int) -> list:
    while True:
        v = [Fraction(rng.randint(-span, span)) for _ in sq]
        if orc.quadratic(sq, v):
            return v


def rand_reflection_product(rng: random.Random, sq: tuple, count: int):
    """s_1 s_2 ... s_count for random anisotropic integer vectors, column by column."""
    axes = [rand_anisotropic(rng, sq, 2) for _ in range(count)]
    columns = []
    for u in orc.identity(len(sq)):
        for w in reversed(axes):
            u = orc.reflect(sq, w, u)
        columns.append(u)
    return orc.transpose(columns)


def positive_square_blades(sq: tuple) -> list:
    return [b for b in all_blades(len(sq))[1:] if orc.blade_product(b, b, sq) == (1, ())]


# versor-groups: check on products of vectors, lift and factor on products of
# reflections, over every regular signature with n = 4

VERSOR_SIGS = [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]


def _unit_vector(rng: random.Random, sq: tuple) -> list:
    """e_j sent through two random reflections, so Q(w) = Q(e_j) = +-1 with rational w."""
    j = rng.randrange(len(sq))
    w = [orc.ONE if i == j else orc.ZERO for i in range(len(sq))]
    for _ in range(2):
        w = orc.reflect(sq, rand_anisotropic(rng, sq, 2), w)
    return w


def build_versor_groups(rng: random.Random) -> list:
    ops = []
    for sig in VERSOR_SIGS:
        sq = orc.squares(*sig)
        for index, k in enumerate((1, 2, 2, 3, 3, 4, 4) * 2):
            unit = index % 2 == 0
            vectors = [_unit_vector(rng, sq) if unit else rand_anisotropic(rng, sq, 3) for _ in range(k)]
            x = MV.scalar(sq, 1)
            for w in vectors:
                x = x * MV.vector(sq, w)
            argv = with_positional(["check", "--json", "--sig", sig_text(sig)], orc.mv_text(x))
            ops.append(Op(argv, "versor_check", {"sig": sig, "vectors": vectors}))
        for command, count in (("lift", 3), ("lift", 4), ("factor", 3)) * 2:
            m = rand_reflection_product(rng, sq, count)
            argv = [command, "--json", "--sig", sig_text(sig), "--matrix", orc.matrix_text(m)]
            ops.append(Op(argv, command, {"sig": sig, "matrix": m, "det": (-1) ** count}))
    return ops


def check_versor_check(op: Op, payload: dict) -> None:
    sig, vectors = op.meta["sig"], op.meta["vectors"]
    sq = orc.squares(*sig)
    x = MV.scalar(sq, 1)
    n_value = Fraction((-1) ** len(vectors))
    for w in vectors:
        x = x * MV.vector(sq, w)
        n_value *= orc.quadratic(sq, w)
    expect(x.norm() == MV.scalar(sq, n_value), "oracle: x conj(x) differs from (-1)^k prod Q(w)")
    result = payload["result"]
    expect(orc.read_mv(result["element"], sq) == x, "element differs from the input product")
    expect(result["in_clifford_group"] is True, "a product of anisotropic vectors is in the group")
    expect(result["n_value"] is not None and Fraction(result["n_value"]) == n_value, "n_value")
    pin = abs(n_value) == 1
    expect(result["in_pin"] is pin, "in_pin must hold iff |N| = 1")
    expect(result["in_spin"] is (pin and len(vectors) % 2 == 0), "in_spin must hold iff |N| = 1, k even")


def _is_rational_square(value: Fraction) -> bool:
    num, den = value.numerator, value.denominator
    return value >= 0 and math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den


def check_lift(op: Op, payload: dict) -> None:
    sig, m = op.meta["sig"], op.meta["matrix"]
    sq = orc.squares(*sig)
    n = len(sq)
    result = payload["result"]
    x = orc.read_mv(result["element"], sq)
    expect(not x.is_zero(), "lift is zero")
    for i in range(n):
        e_i = MV.vector(sq, [orc.ONE if j == i else orc.ZERO for j in range(n)])
        image = MV.vector(sq, [row[i] for row in m])
        expect(x.gi() * e_i == image * x, f"gi(x) e{i + 1} != (M e{i + 1}) x")
    count = result["reflection_count"]
    expect(count <= 2 * n, "more than 2n reflections")
    expect((-1) ** count == op.meta["det"], "reflection parity differs from det M")
    norm = x.norm()
    expect(norm.is_scalar() and Fraction(result["n_value"]) == norm.scalar_part(), "n_value")
    if result["needs_normalization"]:
        expect(not _is_rational_square(abs(norm.scalar_part())), "normalizable lift left unscaled")
    else:
        expect(abs(norm.scalar_part()) == 1, "lift not normalized")


def check_factor(op: Op, payload: dict) -> None:
    sig, m = op.meta["sig"], op.meta["matrix"]
    sq = orc.squares(*sig)
    result = payload["result"]
    vectors = [orc.read_matrix([w])[0] for w in result["vectors"]]
    expect(result["count"] == len(vectors) <= 2 * len(sq), "count")
    expect((-1) ** len(vectors) == op.meta["det"], "reflection parity differs from det M")
    product = orc.identity(len(sq))
    for w in vectors:
        expect(orc.quadratic(sq, w) != 0, "isotropic reflection vector")
        product = orc.mat_mul(product, orc.reflection(sq, w))
    expect(product == m, "reflections do not recompose to M")


# generic-elements: check on elements outside the group, n = 4, regular and
# degenerate signatures

GENERIC_SIGS = [(4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 3, 0), (0, 4, 0), (3, 0, 1), (2, 1, 1), (0, 3, 1), (2, 0, 2)]


def _dense(rng: random.Random, sq: tuple) -> MV:
    return MV(sq, {b: rand_rat(rng, 9, 5) for b in all_blades(len(sq))})


def build_generic_elements(rng: random.Random) -> list:
    ops = []
    for sig in GENERIC_SIGS:
        sq = orc.squares(*sig)
        units = positive_square_blades(sq)
        cases = [(_dense(rng, sq), None) for _ in range(4)]
        for sign in (1, -1, 1, -1):
            u = MV(sq, {rng.choice(units): 1})
            # (1 + s u)(1 - s u) = 1 - u^2 = 0, so d (1 + s u) is a zero divisor
            cases.append((_dense(rng, sq) * (MV.scalar(sq, 1) + u.scale(sign)), MV.scalar(sq, 1) - u.scale(sign)))
        for x, z in cases:
            argv = with_positional(["check", "--json", "--sig", sig_text(sig)], orc.mv_text(x))
            ops.append(Op(argv, "generic_check", {"sig": sig, "x": x, "z": z}))
    return ops


def check_generic_check(op: Op, payload: dict) -> None:
    sig, x, z = op.meta["sig"], op.meta["x"], op.meta["z"]
    sq = orc.squares(*sig)
    result = payload["result"]
    expect(orc.read_mv(result["element"], sq) == x, "element differs from the input")
    group, pin, spin = result["in_clifford_group"], result["in_pin"], result["in_spin"]
    expect(group or not pin, "in_pin without in_clifford_group")
    expect(pin or not spin, "in_spin without in_pin")
    norm = x.norm()
    if norm.is_scalar():
        expect(result["n_value"] is not None and Fraction(result["n_value"]) == norm.scalar_part(), "n_value")
    else:
        expect(result["n_value"] is None, "n_value reported for a non-scalar norm")
        if sig[2] == 0:
            expect(not group, "non-scalar norm on a regular form, yet in the group")
    if z is not None:
        expect(not z.is_zero() and (x * z).is_zero(), "oracle: z is not a zero divisor partner")
        expect(not group, "zero divisor reported in the group")
    if pin:
        expect(abs(norm.scalar_part()) == 1, "in_pin with |N| != 1")
    if spin:
        expect(x.odd().is_zero(), "in_spin for an element with odd part")


# spinor-modules: idempotents, ideals, representations and the center over
# every regular signature with n = 6

SPINOR_SIGS = [(p, 6 - p) for p in range(7)]


def radon_hurwitz(j: int) -> int:
    return (0, 1, 2, 2, 3, 3, 3, 3)[j % 8] + 4 * (j // 8)


def division_kind(p: int, q: int) -> str:
    return {0: "R", 1: "R", 2: "R", 3: "C", 4: "H", 5: "H", 6: "H", 7: "C"}[(p - q) % 8]


def pseudoscalar_square(p: int, q: int) -> int:
    n = p + q
    return (-1) ** (n * (n - 1) // 2 + q)


def _sparse(rng: random.Random, sq: tuple, terms: int) -> MV:
    blades = rng.sample(all_blades(len(sq)), terms)
    return MV(sq, {b: rand_rat(rng, 5, 3, nonzero=True) for b in blades})


def build_spinor_modules(rng: random.Random) -> list:
    ops = []
    for sig in SPINOR_SIGS:
        sq = orc.squares(*sig)
        base = ["--json", "--sig", sig_text(sig)]
        ops.append(Op(["idempotents"] + base, "idempotents", {"sig": sig}))
        ops.append(Op(["ideal"] + base, "ideal", {"sig": sig, "faithful": False}))
        ops.append(Op(["ideal"] + base + ["--faithful"], "ideal", {"sig": sig, "faithful": True}))
        x, y = _sparse(rng, sq, 3), _sparse(rng, sq, 3)
        triple = len(ops)
        for role, element in (("x", x), ("y", y), ("xy", x * y)):
            argv = with_positional(["rep"] + base, orc.mv_text(element))
            ops.append(Op(argv, "rep", {"sig": sig, "role": role, "triple": triple}))
        ops.append(Op(["center"] + base, "center", {"sig": sig}))
    return ops


def _ideal_dimension(p: int, q: int, faithful: bool) -> int:
    k = q - radon_hurwitz(q - p)
    split = (p + q) % 2 == 1 and pseudoscalar_square(p, q) == 1
    return 2 ** (p + q - k) * (2 if faithful and split else 1)


def check_idempotents(op: Op, payload: dict) -> None:
    p, q = op.meta["sig"]
    sq = orc.squares(p, q)
    k = q - radon_hurwitz(q - p)
    result = payload["result"]
    expect(result["exponent"] == k and result["count"] == 2**k == len(result["idempotents"]), "count")
    blades = [orc.parse_blade_name(name) for name in result["blades"]]
    expect(len(blades) == k, "blade count")
    for a, b in itertools.combinations_with_replacement(blades, 2):
        if a == b:
            expect(orc.blade_product(a, a, sq) == (1, ()), "generating blade does not square to 1")
        else:
            expect(orc.blade_product(a, b, sq)[0] == orc.blade_product(b, a, sq)[0], "blades do not commute")
    idems = [orc.read_mv(text, sq) for text in result["idempotents"]]
    total = MV(sq)
    for i, f in enumerate(idems):
        expect(f * f == f, f"f{i + 1} is not idempotent")
        for g in idems[i + 1 :]:
            expect((f * g).is_zero() and (g * f).is_zero(), "idempotents not orthogonal")
        total = total + f
    expect(total == MV.scalar(sq, 1), "idempotents do not sum to 1")


def check_ideal(op: Op, payload: dict) -> None:
    p, q = op.meta["sig"]
    sq = orc.squares(p, q)
    faithful = op.meta["faithful"]
    result = payload["result"]
    g = orc.read_mv(result["generator"], sq)
    expect(g * g == g, "generator is not idempotent")
    basis = [orc.read_mv(text, sq) for text in result["basis"]]
    dim = _ideal_dimension(p, q, faithful)
    expect(result["dimension"] == len(basis) == dim, f"ideal dimension, expected {dim}")
    for b in basis:
        expect(b * g == b, "basis element outside the left ideal")
    blades = sorted({blade for b in basis for blade in b.terms})
    expect(orc.rank([[b.terms.get(blade, orc.ZERO) for blade in blades] for b in basis]) == dim, "basis dependent")
    split = _ideal_dimension(p, q, True) != _ideal_dimension(p, q, False)
    if faithful and split:
        expect(result["division_ring"] is None, "division ring for a non-primitive generator")
    else:
        kind = division_kind(p, q)
        expected = {"kind": kind, "dimension": {"R": 1, "C": 2, "H": 4}[kind]}
        expect(result["division_ring"] == expected, f"division ring, expected {expected}")


def check_rep(op: Op, payload: dict) -> None:
    p, q = op.meta["sig"]
    dim = _ideal_dimension(p, q, True)
    matrix = payload["result"]["matrix"]
    expect(payload["result"]["ideal_dimension"] == dim == len(matrix), "ideal dimension")
    expect(all(len(row) == dim for row in matrix), "matrix shape")


def check_rep_triples(ops: list, payloads: list) -> list:
    errors = []
    for i, op in enumerate(ops):
        if op.kind == "rep" and op.meta["role"] == "x" and all(payloads[i + d] for d in range(3)):
            rx, ry, rxy = (orc.read_matrix(payloads[i + d]["result"]["matrix"]) for d in range(3))
            if orc.mat_mul(rx, ry) != rxy:
                errors.append(f"op {i}: R(xy) != R(x) R(y) on {op.argv}")
    return errors


def check_center(op: Op, payload: dict) -> None:
    p, q = op.meta["sig"]
    n = p + q
    result = payload["result"]
    if n % 2 == 0:
        expect(result["basis"] == ["1"] and result["simple"] is True, "even n: center is the scalars")
    else:
        expect(result["basis"] == ["1", orc.blade_text(tuple(range(1, n + 1)))], "odd n: center is 1, e1..n")
        expect(result["simple"] is (pseudoscalar_square(p, q) == -1), "simple iff I^2 = -1")
    expect(result["dimension"] == len(result["basis"]), "dimension")


# algebra-eval: short commands at small n

EVAL_SIGS = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (1, 1, 1), (2, 0, 1), (3, 1, 0), (2, 2, 0), (1, 3, 0)]
SMALL_SIGS = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (1, 1, 1), (0, 2, 1)]


def _term(rng: random.Random, blade: tuple):
    c = ("num", Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    return c if not blade else ("*", c, ("blade", blade))


def _sum(rng: random.Random, blades: list):
    node = _term(rng, blades[0])
    for blade in blades[1:]:
        node = (rng.choice("+-"), node, _term(rng, blade))
    return node


def _word(rng: random.Random, n: int) -> tuple:
    """A generator word as written: unsorted, repeats allowed."""
    return tuple(rng.randint(1, n) for _ in range(rng.randint(1, 3)))


def _expression(rng: random.Random, n: int, shape: int, size: int):
    """One of four tree shapes; size (0..2) sets factor count, power or term count."""
    blades = all_blades(n)
    if shape == 0:  # sparse product of written words
        node = _term(rng, _word(rng, n))
        for _ in range(2 + size):
            node = ("*", node, _term(rng, _word(rng, n)))
        return node if size % 2 else ("neg", node)
    if shape == 1:  # dense product
        return ("*", _sum(rng, blades), _sum(rng, blades))
    if shape == 2:  # power
        return ("pow", _sum(rng, rng.sample(blades, 3)), 3 + size)
    fns = rng.sample(["rev", "conj", "N", "gi", "even", "odd"], 3)
    parts = [("fn", fn, _sum(rng, rng.sample(blades, 4))) for fn in fns]
    return ("+", parts[0], ("*", parts[1], parts[2]))


def build_algebra_eval(rng: random.Random) -> list:
    """Every (signature, shape) pair once, so seeds change values, not the mix."""
    ops = []
    for i, (sig, shape) in enumerate(itertools.product(EVAL_SIGS, range(4))):
        tree = _expression(rng, sum(sig), shape, i % 3)
        flags = ["--json"] if i % 2 else []
        argv = with_positional(["eval"] + flags + ["--sig", sig_text(sig)], orc.expr_text(tree))
        ops.append(Op(argv, "eval", {"sig": sig, "tree": tree, "json": bool(flags)}))
    for sig in SMALL_SIGS:
        ops.append(Op(["table", "--json", "--sig", sig_text(sig)], "table", {"sig": sig}))
    for sig in EVAL_SIGS:
        v = [Fraction(0)] * sum(sig)
        while not any(v):
            v = [rand_rat(rng, 4, 3) for _ in range(sum(sig))]
        argv = with_positional(["classify", "--json", "--sig", sig_text(sig)], ",".join(map(orc.rat, v)))
        ops.append(Op(argv, "classify", {"sig": sig, "v": v}))
    for sig in EVAL_SIGS:
        v = rand_anisotropic(rng, orc.squares(*sig), 3)
        argv = ["reflect", "--json", "--sig", sig_text(sig), "--vector", ",".join(map(orc.rat, v))]
        ops.append(Op(argv, "reflect", {"sig": sig, "v": v}))
    for n in (2, 3, 4) * 4:
        d = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        while True:
            pm = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            if orc.rank(pm) == n:
                break
        diag = [[d[i] if i == j else orc.ZERO for j in range(n)] for i in range(n)]
        s = orc.mat_mul(orc.mat_mul(orc.transpose(pm), diag), pm)
        argv = ["diagonalize", "--json", "--matrix", orc.matrix_text(s)]
        ops.append(Op(argv, "diagonalize", {"matrix": s, "d": d}))
    deep = "(" * DEEP_NESTING + "1+e1" + ")" * DEEP_NESTING
    for _ in range(DEEP_PER_ROUND):
        ops.append(Op(["eval", "--sig", "2,0", deep], "deep", {}, ok_codes=(0, 2)))
    random.Random(0).shuffle(ops)  # interleave the commands the same way for every seed
    return ops


def check_eval(op: Op, payload) -> None:
    sq = orc.squares(*op.meta["sig"])
    text = payload["result"]["value"] if op.meta["json"] else payload
    expect(orc.read_mv(text, sq) == orc.expr_eval(op.meta["tree"], sq), "value differs from the oracle")


def check_deep(op: Op, payload) -> None:
    sq = orc.squares(2, 0)
    expect(orc.read_mv(payload, sq) == MV(sq, {(): 1, (1,): 1}), "value differs from 1 + e1")


def _entry_text(sign: int, blade: tuple) -> str:
    if sign == 0:
        return "0"
    name = orc.blade_text(blade)
    return name if sign == 1 else "-" + name


def check_table(op: Op, payload: dict) -> None:
    sq = orc.squares(*op.meta["sig"])
    names, entries = payload["result"]["blades"], payload["result"]["entries"]
    blades = [orc.parse_blade_name(name) for name in names]
    expect(len(blades) == 2 ** len(sq) and set(blades) == set(all_blades(len(sq))), "blade list")
    for a, row in zip(blades, entries):
        for b, entry in zip(blades, row):
            expect(entry == _entry_text(*orc.blade_product(a, b, sq)), f"entry {a} * {b}")


def check_classify(op: Op, payload: dict) -> None:
    value = orc.quadratic(orc.squares(*op.meta["sig"]), op.meta["v"])
    kind = "timelike" if value > 0 else "spacelike" if value < 0 else "lightlike"
    result = payload["result"]
    expect(Fraction(result["quadratic_value"]) == value and result["class"] == kind, "classification")


def check_reflect(op: Op, payload: dict) -> None:
    expected = orc.reflection(orc.squares(*op.meta["sig"]), op.meta["v"])
    expect(orc.read_matrix(payload["result"]["matrix"]) == expected, "reflection matrix")


def check_diagonalize(op: Op, payload: dict) -> None:
    s, d = op.meta["matrix"], op.meta["d"]
    result = payload["result"]
    basis = orc.read_matrix(result["basis"])
    diagonal = [Fraction(x) for x in result["diagonal"]]
    n = len(s)
    expect(orc.rank(basis) == n, "basis is singular")
    congruent = orc.mat_mul(orc.mat_mul(orc.transpose(basis), s), basis)
    expect(congruent == [[diagonal[i] if i == j else orc.ZERO for j in range(n)] for i in range(n)], "P^T S P")
    inertia = [sum(1 for x in d if x > 0), sum(1 for x in d if x < 0), sum(1 for x in d if x == 0)]
    expect(result["signature"] == inertia, f"signature, expected Sylvester inertia {inertia}")


BUILDERS = {
    "versor-groups": build_versor_groups,
    "generic-elements": build_generic_elements,
    "spinor-modules": build_spinor_modules,
    "algebra-eval": build_algebra_eval,
}

CHECKS = {
    "versor_check": check_versor_check,
    "lift": check_lift,
    "factor": check_factor,
    "generic_check": check_generic_check,
    "idempotents": check_idempotents,
    "ideal": check_ideal,
    "rep": check_rep,
    "center": check_center,
    "eval": check_eval,
    "deep": check_deep,
    "table": check_table,
    "classify": check_classify,
    "reflect": check_reflect,
    "diagonalize": check_diagonalize,
}


def build(workload: str, seed: int) -> list:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def _payload(op: Op, out: str):
    """The JSON object of a --json run, or the printed text of a text run."""
    if "--json" in op.argv:
        payload = json.loads(out)
        expect(payload["command"] == op.command, "command echoed wrongly")
        expect(all(payload["checks"].values()), f"self-check failed: {payload['checks']}")
        return payload
    return out.strip()


def check(ops: list, outputs: list) -> list:
    """Mismatch messages for one round; outputs[i] is (rc, stdout, stderr) or None if op i failed."""
    errors = []
    payloads = [None] * len(ops)
    for i, (op, output) in enumerate(zip(ops, outputs)):
        if output is None:
            continue
        rc, out, err = output
        try:
            if rc == 2:  # a documented rejection: message, no traceback
                expect(err.startswith("error: ") and "Traceback" not in err, "rejection without a clean message")
                continue
            payloads[i] = _payload(op, out)
            CHECKS[op.kind](op, payloads[i])
        except (Mismatch, KeyError, ValueError, TypeError) as exc:
            errors.append(f"op {i} {op.argv[:4]}: {type(exc).__name__}: {exc}")
    return errors + check_rep_triples(ops, payloads)
