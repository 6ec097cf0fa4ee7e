"""Command-line interface.

Every pipeline is drivable from here: blade tables, expression evaluation,
vector classification, diagonalization, reflections, isometry factorization,
Pin lifts, group membership, idempotents, ideals, representation matrices,
and the center.  Results go to stdout, error text to stderr.  Exit codes:
0 success, 1 domain error (degenerate form, non-isometry, non-invertible,
cap or coefficient budget exceeded, ...), 2 parse or usage error.

JSON mode emits one object with keys {command, signature, result, checks};
all rationals are rendered as exact strings "a/b".  The --approx flag adds
float renderings for display; it never changes the exact fields.  Matrices
and vectors use the shared text format: rows separated by ';', entries by
',', rationals as "a/b" or "a".
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._linalg import ScaledMatrix
from .core_algebra import (
    DEFAULT_DIMENSION_CAP,
    MAX_CAP,
    Multivector,
    Signature,
    _blade_times,
    blade_name,
    format_ratio,
    geometric_product,
    multiplication_table,
)
from .errors import (
    CliffordError,
    DimensionCapExceeded,
    DimensionMismatch,
    ParseError,
)
from .expr import parse_multivector, pretty_print
from .groups import _hat_times_generator, lift_isometry, membership
from .quadratic_space import (
    BilinearForm,
    _cartan_dieudonne_axes,
    _certified_reflection,
    _classified,
    format_rational,
    orthogonal_diagonalize,
    parse_matrix,
    parse_scaled_matrix,
    parse_scaled_vector,
    parse_vector,
)
from .spinors import (
    _idempotents,
    _map_matrix,
    algebra_center,
    build_idempotent_set,
    division_ring_info,
    faithful_ideal,
    find_commuting_blades,
    idempotent_count_exponent,
    is_simple,
    left_ideal_basis,
)


def parse_signature(text: str) -> Signature:
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) not in (2, 3):
        raise ParseError(f"signature must be \"p,q\" or \"p,q,s\", got {text!r}")
    try:
        numbers = [int(piece) for piece in parts]
    except ValueError:
        raise ParseError(f"signature entries must be integers, got {text!r}") from None
    if min(numbers) < 0:
        raise ParseError(f"signature entries must be non-negative, got {text!r}")
    if len(numbers) == 2:
        numbers.append(0)
    return Signature(*numbers)


def _vec(values) -> list:
    return [format_rational(v) for v in values]


def _mat(rows) -> list:
    return [_vec(row) for row in rows]


def _scaled_mat(matrix: ScaledMatrix) -> list:
    """_mat(matrix.fractions()) read from the integer rows, with no Fraction (format_ratio)."""
    scale = matrix.scale
    return [[format_ratio(x, scale) for x in row] for row in matrix.rows]


def _joined(matrix: list) -> str:
    """The shared matrix text of entries already rendered by _mat."""
    return ";".join(",".join(row) for row in matrix)


def _approx(convert, *args):
    """convert(*args) for an --approx field; CliffordError past the float range."""
    try:
        return convert(*args)
    except OverflowError:
        raise CliffordError("a value is outside the float range of --approx") from None


def _approx_terms(x: Multivector) -> dict:
    return {blade_name(mask, x.sig.n): _approx(float, value) for mask, value in x.terms()}


def _twisted_adjoint_matches(x: Multivector, m: ScaledMatrix) -> bool:
    """True iff the twisted adjoint of x is M, checked without inverting x.

    lift_isometry has refused s > 0 and checked that M is an isometry, so
    M = rho_y for some y in the Clifford group.  If gi(x)*e_i = (M e_i)*x for
    every i, then z = y^-1 * x has gi(z)*e_i = e_i*z for every i.  Blade by
    blade, gi(e_A)*e_i = -e_i*e_A when e_i is in A, and e_i is invertible, so
    z has no blade holding any e_i: z is a scalar, and x != 0 gives
    rho_x = rho_y = M.  In integers, with x = X / s and M the ScaledMatrix
    of integer rows over c > 0 that lift read from its text, column i of M
    is C / c and the check reads c * gi(X)*e_i = C*X.  gi(X)*e_i is a
    signed relabelling of the terms of X, and so is each e_j*X:
    C*X = sum_j C_j*(e_j*X) reads n relabellings formed once, not n sign
    lists per column.
    """
    if x.is_zero():
        return False
    sig = x.sig
    left = [_blade_times(1 << j, x._ints, sig) for j in range(sig.n)]  # left[j] = e_j * X
    for i, column in enumerate(zip(*m.rows)):
        acc = [0] * (1 << sig.n)  # C*X, dense over the blades
        for j, entry in enumerate(column):
            if entry:
                for mask, c in left[j].items():
                    acc[mask] += entry * c
        hat = _hat_times_generator(x._ints, i, sig)
        if len(acc) - acc.count(0) != len(hat) or any(acc[a] != m.scale * c for a, c in hat.items()):
            return False
    return True


def _form_from_matrix_text(text: str) -> BilinearForm:
    rows = parse_matrix(text)
    try:
        return BilinearForm.from_rows(rows)
    except (ValueError, DimensionMismatch) as exc:
        raise ParseError(str(exc)) from None


def _grid_lines(header: list, rows: list) -> list:
    table = [header] + rows
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    return ["  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)) for row in table]


# command handlers: each returns (result, checks, text_lines)


def cmd_table(args, sig: Signature):
    table = multiplication_table(sig, cap=args.cap)
    dim = 1 << sig.n
    names = [blade_name(mask, sig.n) for mask in range(dim)]
    # every coefficient is 0, 1 or -1, so its numerator indexes the entry text
    texts = [("0", name, "-" + name) for name in names]
    entries = [[texts[mask][coefficient.numerator] for coefficient, mask in row] for row in table]
    result = {"blades": names, "entries": entries}
    checks = {}
    if args.json:
        return result, checks, []  # run prints no text lines in JSON mode
    lines = _grid_lines([""] + names, [[names[a]] + entries[a] for a in range(dim)])
    return result, checks, lines


def cmd_eval(args, sig: Signature):
    x = parse_multivector(args.expression, sig)
    result = {"value": pretty_print(x)}
    lines = [result["value"]]
    if args.approx:
        result["approx"] = _approx_terms(x)
        lines.append(f"approx: {result['approx']}")
    return result, {}, lines


def cmd_classify(args, sig: Signature):
    v = parse_vector(args.vector)
    value, kind = _classified(BilinearForm.from_signature(sig), v)
    result = {"vector": _vec(v), "quadratic_value": format_rational(value), "class": kind}
    lines = [
        f"vector: {','.join(result['vector'])}",
        f"quadratic value: {result['quadratic_value']}",
        f"class: {kind}",
    ]
    if args.approx:
        result["quadratic_value_approx"] = _approx(float, value)
        lines.insert(2, f"quadratic value approx: {result['quadratic_value_approx']}")
    return result, {}, lines


def cmd_diagonalize(args, sig: Signature):
    form = _form_from_matrix_text(args.matrix)
    outcome = orthogonal_diagonalize(form)
    basis = outcome.basis_rows()
    diagonal = list(outcome.diag)
    # certify P^T B P = diag here so the report never lies
    p = ScaledMatrix.of(basis)
    d = [[diagonal[i] if i == j else 0 for j in range(form.n)] for i in range(form.n)]
    congruent = p.transpose() @ ScaledMatrix(form._ints, form._scale) @ p == ScaledMatrix.of(d)
    result = {
        "basis": _mat(basis),
        "diagonal": _vec(diagonal),
        "signature": list(outcome.signature),
    }
    checks = {"congruence": congruent}
    lines = [
        f"basis: {_joined(result['basis'])}",
        f"diagonal: {','.join(result['diagonal'])}",
        f"signature: ({outcome.signature[0]},{outcome.signature[1]},{outcome.signature[2]})",
        f"congruence check: {'pass' if congruent else 'FAIL'}",
    ]
    if args.approx:
        result["diagonal_approx"] = [_approx(float, d) for d in diagonal]
    return result, checks, lines


def cmd_reflect(args, sig: Signature):
    w, _ = parse_scaled_vector(args.vector)
    form = BilinearForm.from_signature(sig)
    matrix = _certified_reflection(form, w)
    result = {"matrix": _scaled_mat(matrix)}
    checks = {"isometry": True}  # certified on its integer rows
    lines = [f"matrix: {_joined(result['matrix'])}"]
    return result, checks, lines


def cmd_factor(args, sig: Signature):
    form = BilinearForm.from_signature(sig)
    m = parse_scaled_matrix(args.matrix)
    axes = _cartan_dieudonne_axes(form, m)
    # each reflection is certified on its integer rows, and their product must be M
    recomposed = ScaledMatrix.identity(sig.n)
    for w, _, _ in axes:
        recomposed = recomposed @ _certified_reflection(form, w)
    recomposition = recomposed == m
    vectors = [[format_ratio(x, scale) for x in w] for w, scale, _ in axes]
    result = {"vectors": vectors, "count": len(vectors)}
    checks = {"recomposition": recomposition, "count_le_2n": len(vectors) <= 2 * sig.n}
    lines = [f"count: {len(vectors)}"]
    lines += [f"w{i + 1}: {','.join(w)}" for i, w in enumerate(result["vectors"])]
    lines.append(f"recomposition check: {'pass' if recomposition else 'FAIL'}")
    return result, checks, lines


def cmd_lift(args, sig: Signature):
    m = parse_scaled_matrix(args.matrix)
    lift = lift_isometry(sig, m)
    matches = _twisted_adjoint_matches(lift.element, m)
    result = {
        "element": pretty_print(lift.element),
        "n_value": format_rational(lift.n_value),
        "reflection_count": lift.reflection_count,
        "needs_normalization": lift.needs_normalization,
    }
    checks = {"twisted_adjoint_matches": matches}
    lines = [
        f"element: {result['element']}",
        f"n_value: {result['n_value']}",
        f"reflection count: {lift.reflection_count}",
        f"needs normalization: {str(lift.needs_normalization).lower()}",
        f"twisted adjoint check: {'pass' if matches else 'FAIL'}",
    ]
    if args.approx:
        approx = {
            blade_name(mask, sig.n): value
            for mask, value in _approx(lift.approx_normalized).items()
        }
        result["approx_normalized"] = approx
        lines.append(f"approx normalized: {approx}")
    return result, checks, lines


def cmd_check(args, sig: Signature):
    x = parse_multivector(args.expression, sig)
    facts = membership(x)
    n_text = format_rational(facts.n_value) if facts.n_value is not None else None
    result = {
        "element": pretty_print(x),
        "in_clifford_group": facts.in_clifford_group,
        "in_pin": facts.in_pin,
        "in_spin": facts.in_spin,
        "n_value": n_text,
    }
    lines = [
        f"element: {result['element']}",
        f"in_clifford_group: {str(result['in_clifford_group']).lower()}",
        f"in_pin: {str(result['in_pin']).lower()}",
        f"in_spin: {str(result['in_spin']).lower()}",
        f"n_value: {n_text if n_text is not None else 'not scalar'}",
    ]
    return result, {}, lines


def cmd_idempotents(args, sig: Signature):
    blades = find_commuting_blades(sig, cap=args.cap)
    idset = build_idempotent_set(blades)
    result = {
        "exponent": idempotent_count_exponent(sig),
        "count": len(idset.idems),
        "blades": [blade_name(mask, sig.n) for mask in blades.blades],
        "idempotents": [pretty_print(f) for f in idset.idems],
    }
    # certified by IdempotentSet construction; orthogonality follows from the others
    checks = {"idempotent": True, "pairwise_orthogonal": True, "sum_to_one": True}
    lines = [
        f"exponent: {result['exponent']}",
        f"count: {result['count']}",
        f"blades: {', '.join(result['blades']) if result['blades'] else '(none)'}",
    ]
    lines += [f"f{i + 1}: {text}" for i, text in enumerate(result["idempotents"])]
    lines += [
        "idempotency check: pass",
        "orthogonality check: pass",
        "sum-to-one check: pass",
    ]
    return result, checks, lines


def cmd_ideal(args, sig: Signature):
    if args.faithful:
        ideal = faithful_ideal(sig, cap=args.cap)
    else:
        ideal = left_ideal_basis(next(_idempotents(find_commuting_blades(sig, cap=args.cap))))
    division = None
    # the faithful generator f + g of a split algebra is not primitive
    if not (args.faithful and not is_simple(sig)):
        info = division_ring_info(ideal.generator)
        division = {"dimension": info.dim, "kind": info.kind}
    result = {
        "generator": pretty_print(ideal.generator),
        "dimension": ideal.dim,
        "basis": [pretty_print(b) for b in ideal.basis],
        "division_ring": division,
    }
    checks = {"absorbs_generator": True}  # certified by IdealBasis construction
    lines = [f"generator: {result['generator']}", f"dimension: {ideal.dim}"]
    lines += [f"b{i + 1}: {text}" for i, text in enumerate(result["basis"])]
    if division is None:
        lines.append("division ring: n/a (generator is not primitive)")
    else:
        lines.append(f"division ring: {division['kind']} (dimension {division['dimension']})")
    return result, checks, lines


def cmd_rep(args, sig: Signature):
    ideal = faithful_ideal(sig, cap=args.cap)
    x = parse_multivector(args.expression, sig)
    matrix = _map_matrix(ideal, ideal, x, on_left=True)
    one = _map_matrix(ideal, ideal, Multivector.one(sig), on_left=True)
    unital = one == ScaledMatrix.identity(ideal.dim)
    # x*x comes from the kernel, so the check does not go through the path it checks
    square = _map_matrix(ideal, ideal, geometric_product(x, x), on_left=True) == matrix @ matrix
    result = {"ideal_dimension": ideal.dim, "matrix": _scaled_mat(matrix)}
    checks = {"unital": unital, "homomorphism_square": square}
    lines = [
        f"ideal dimension: {ideal.dim}",
        f"matrix: {_joined(result['matrix'])}",
        f"unital check: {'pass' if unital else 'FAIL'}",
        f"homomorphism check (x*x): {'pass' if square else 'FAIL'}",
    ]
    return result, checks, lines


def cmd_center(args, sig: Signature):
    basis = algebra_center(sig)
    simple = is_simple(sig)
    result = {
        "basis": [pretty_print(z) for z in basis],
        "dimension": len(basis),
        "simple": simple,
    }
    lines = [
        f"center basis: {', '.join(result['basis'])}",
        f"dimension: {len(basis)}",
        f"simple: {str(simple).lower()}",
    ]
    return result, {}, lines


_HANDLERS = {
    "table": cmd_table,
    "eval": cmd_eval,
    "classify": cmd_classify,
    "diagonalize": cmd_diagonalize,
    "reflect": cmd_reflect,
    "factor": cmd_factor,
    "lift": cmd_lift,
    "check": cmd_check,
    "idempotents": cmd_idempotents,
    "ideal": cmd_ideal,
    "rep": cmd_rep,
    "center": cmd_center,
}

_NEEDS_SIG = frozenset(_HANDLERS) - {"diagonalize"}


def _cap_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cap must be an integer, got {text!r}") from None
    if not 1 <= value <= MAX_CAP:
        raise argparse.ArgumentTypeError(f"cap must be between 1 and {MAX_CAP}")
    return value


def build_parser() -> tuple:
    """The top parser, and the map from each command name to its subparser."""
    parser = argparse.ArgumentParser(
        prog="cliffalg",
        description="Exact computation in real Clifford algebras Cl(p,q,s).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON object")
    common.add_argument(
        "--approx", action="store_true", help="add float renderings (display only)"
    )
    common.add_argument(
        "--cap",
        type=_cap_type,
        default=DEFAULT_DIMENSION_CAP,
        help=f"dimension cap on n (default {DEFAULT_DIMENSION_CAP}, max {MAX_CAP})",
    )
    sig_opt = argparse.ArgumentParser(add_help=False)
    sig_opt.add_argument("--sig", required=True, help='signature "p,q" or "p,q,s"')

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table", parents=[common, sig_opt], help="blade multiplication table")

    p = sub.add_parser("eval", parents=[common, sig_opt], help="evaluate an expression")
    p.add_argument("expression")

    p = sub.add_parser("classify", parents=[common, sig_opt], help="classify a vector")
    p.add_argument("vector", help='coordinates "v1,...,vn"')

    p = sub.add_parser("diagonalize", parents=[common], help="diagonalize a symmetric form")
    p.add_argument("--matrix", required=True, help='rows "a,b;c,d"')

    p = sub.add_parser("reflect", parents=[common, sig_opt], help="hyperplane reflection matrix")
    p.add_argument("--vector", required=True, help='axis coordinates "v1,...,vn"')

    p = sub.add_parser("factor", parents=[common, sig_opt], help="factor an isometry into reflections")
    p.add_argument("--matrix", required=True, help='rows "a,b;c,d"')

    p = sub.add_parser("lift", parents=[common, sig_opt], help="lift an isometry to the Pin group")
    p.add_argument("--matrix", required=True, help='rows "a,b;c,d"')

    p = sub.add_parser("check", parents=[common, sig_opt], help="group membership of an element")
    p.add_argument("expression")

    sub.add_parser("idempotents", parents=[common, sig_opt], help="primitive idempotent set")

    p = sub.add_parser("ideal", parents=[common, sig_opt], help="minimal left ideal basis")
    p.add_argument("--faithful", action="store_true", help="use the faithful ideal")

    p = sub.add_parser("rep", parents=[common, sig_opt], help="regular representation matrix")
    p.add_argument("expression")

    sub.add_parser("center", parents=[common, sig_opt], help="center basis and simplicity")

    return parser, sub.choices


# Built once: parse_args leaves the parsers unchanged and fills a new
# namespace on every call, so runs share nothing through them.
_PARSER, _COMMAND_PARSERS = build_parser()

_VALUE_OPTIONS = ("--sig", "--matrix", "--vector", "--cap")


def _merge_option_values(argv: list) -> list:
    """Turn ["--matrix", "-7/25,..."] into ["--matrix=-7/25,..."].

    argparse would otherwise mistake a leading-minus value for an option.
    Tokens after a literal "--" are positional and left untouched.
    """
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--":
            out.extend(argv[i:])
            break
        if token in _VALUE_OPTIONS and i + 1 < len(argv):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
            continue
        out.append(token)
        i += 1
    return out


def _parse(argv: list) -> argparse.Namespace:
    """_PARSER.parse_args(argv), with one parse when argv[0] names a command.

    The top parser hands every token after the command to that command's
    subparser and copies the result into its namespace, so calling the
    subparser directly gives the same namespace.  Everything else, no argv,
    an unknown command, an option before the command or tokens the
    subparser leaves over, goes through _PARSER, whose text it prints.
    """
    command_parser = _COMMAND_PARSERS.get(argv[0]) if argv else None
    if command_parser is not None:
        args, extras = command_parser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return _PARSER.parse_args(argv)


_quote = json.encoder.encode_basestring_ascii  # json.dumps's C string quoting
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_text(value, indent: str = "") -> str:
    """The text json.dumps gives with a two-space indent and sorted keys, byte
    for byte, on str-keyed payloads of str, int, float, bool, None, list,
    tuple and dict.

    CPython's C encoder runs only when no indent is asked for, so json.dumps
    with one walks the payload in pure Python.  Here every string is quoted
    by the C function json.dumps uses, each list is joined at once, None, the
    bools and the ints are rendered as json renders them, and a float is
    json.dumps of it alone, for NaN and the infinities.
    """
    if isinstance(value, str):
        return _quote(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_quote(key)}: {_json_text(item, inner)}" for key, item in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_quote(item) if isinstance(item, str) else _json_text(item, inner) for item in value]
        brackets = "[]"
    elif value is None or value is True or value is False:
        return _JSON_CONSTANTS[value]
    elif isinstance(value, int):
        return int.__repr__(value)  # as both of json's encoders render an int
    else:
        return json.dumps(value)
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def run(argv) -> int:
    try:
        args = _parse(_merge_option_values(list(argv)))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        sig = None
        if args.command in _NEEDS_SIG:
            sig = parse_signature(args.sig)
            if sig.n > args.cap:
                raise DimensionCapExceeded(
                    f"signature {sig} has n={sig.n} > cap {args.cap}"
                )
        result, checks, lines = _HANDLERS[args.command](args, sig)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CliffordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "diagonalize":
        signature_value = result["signature"]
    else:
        signature_value = [sig.p, sig.q, sig.s]
    if args.json:
        payload = {
            "command": args.command,
            "signature": signature_value,
            "result": result,
            "checks": checks,
        }
        print(_json_text(payload))
    else:
        for line in lines:
            print(line)
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed reader raises here, not at exit
    except BrokenPipeError:
        # the reader stopped early (`cliffalg table ... | head`): send what
        # Python still flushes at exit to devnull and exit 1, no traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
