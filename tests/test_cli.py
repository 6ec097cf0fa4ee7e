"""Command line interface: frozen golden outputs, exit code contract,
argument handling, and the JSON envelope."""

import contextlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from cliffalg import (
    BilinearForm,
    CoefficientTooLarge,
    LiftResult,
    Multivector,
    ParseError,
    Signature,
    UnexpectedDimension,
    _linalg,
    blade_name,
    cartan_dieudonne_factor,
    cli,
    embed_vector,
    faithful_ideal,
    format_rational,
    groups,
    lift_isometry,
    pretty_print,
    quadratic_space,
    quadratic_value,
    reflection_matrix,
    spinors,
)
from cliffalg.cli import _json_text, _merge_option_values, _parse, _read_argv, parse_signature, run
from cliffalg.groups import _twisted_adjoint_matches
from identical import ARGPARSE_ARGVS, golden_argvs, workload_argvs
from support import (
    all_signatures,
    count_products,
    reference_reflection_matrix,
    reference_rep_matrix,
    reference_twisted_adjoint,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.json"))

# three random 2400-digit integers: each parses (MAX_LITERAL_DIGITS = 2457), but a
# product of two passes MAX_COEFFICIENT_BITS and the 4300-digit limit of str(int)
_rng = random.Random("oversized results")
A, B, C = (str(_rng.randrange(10**2399, 10**2400)) for _ in range(3))


USAGE_ERRORS = [
    ["frobnicate", "--sig", "2,0"],
    ["eval", "1"],
    ["table", "--sig", "2,0", "--cap", "20"],
    ["table", "--sig", "2,0", "--cap", "0"],
    ["table", "--sig", "2,0", "--cap", "abc"],
    [],
    # a value of "--": argparse before 3.13 dropped it and handed [] to the command
    ["table", "--sig", "--"],
    ["table", "--sig=--"],
    ["table", "--sig=--", "--js"],
    ["diagonalize", "--matrix", "--"],
    ["reflect", "--sig", "2,0", "--vector", "--"],
    ["table", "--sig", "2,0", "--cap", "--"],
    ["table", "--sig", "2,0", "--cap=--", "--js"],
]


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def run_text(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cliffalg_process(argv, **popen):
    """`python -m cliffalg *argv` in a child process, importing the cliffalg under test."""
    package_root = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "cliffalg", *argv], env=env, **popen)


def parsed(parse, argv):
    """(vars of the namespace or None, exit code or None, stdout, stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, code = vars(parse(argv)), None
        except SystemExit as exc:
            namespace, code = None, exc.code
    return namespace, code, out.getvalue(), err.getvalue()


class TestGolden:
    @pytest.mark.parametrize(
        "path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES]
    )
    def test_frozen_output(self, capsys, path):
        case = json.loads(path.read_text())
        payload = run_json(capsys, case["argv"])
        assert payload == case["expected"]
        # every self-check the command reports must have passed
        assert all(payload["checks"].values())
        assert set(payload) == {"command", "signature", "result", "checks"}

    def test_corpus_covers_every_command(self):
        commands = {json.loads(p.read_text())["argv"][0] for p in GOLDEN_FILES}
        assert commands == {
            "table",
            "eval",
            "classify",
            "diagonalize",
            "reflect",
            "factor",
            "lift",
            "check",
            "idempotents",
            "ideal",
            "rep",
            "center",
        }


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--sig", "2,0", "e3"],
            ["eval", "--sig", "2,0", "e1 e2"],
            ["eval", "--sig", "2,0", "1.5"],
            ["eval", "--sig", "bad", "1"],
            ["eval", "--sig", "1", "1"],
            ["eval", "--sig", "-1,0", "1"],
            ["classify", "--sig", "1,1", "1,x"],
            ["diagonalize", "--matrix", "0,1;1"],
            ["diagonalize", "--matrix", "0,1;2,0"],
            ["diagonalize", "--matrix", "1,2;3,4;5,6"],
            ["lift", "--sig", "2,0", "--matrix", "0.5,0;0,1"],
            # superscript digits pass str.isdigit but not int()
            ["eval", "--sig", "2,0", "--", "2^²"],
            ["eval", "--sig", "2,0", "--", "1/²"],
            ["check", "--sig", "2,0", "--", "e²"],
            # a blank matrix row is refused, not skipped
            ["diagonalize", "--matrix", "1,0;;0,1"],
            ["diagonalize", "--matrix", "1,0;0,1;"],
        ],
    )
    def test_malformed_input_exits_2(self, capsys, argv):
        code, out, err = run_text(capsys, argv)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", "--sig", "1,0,1", "--matrix", "1,0;0,1"],
            ["lift", "--sig", "2,0", "--matrix", "2,0;0,1"],
            ["classify", "--sig", "1,1", "0,0"],
            ["idempotents", "--sig", "1,0,1"],
            ["center", "--sig", "0,0,2"],
            ["eval", "--sig", "6,5", "1"],
            ["reflect", "--sig", "1,1", "--vector", "1,1"],
        ],
    )
    def test_domain_errors_exit_1(self, capsys, argv):
        code, out, err = run_text(capsys, argv)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("command", ["factor", "lift"])
    def test_wrong_matrix_size_reported(self, capsys, command):
        argv = [command, "--sig", "2,0", "--matrix", "1,0,0;0,1,0;0,0,1"]
        assert run_text(capsys, argv) == (1, "", "error: expected a 2x2 matrix\n")

    @pytest.mark.parametrize("argv", USAGE_ERRORS)
    def test_usage_errors_exit_2(self, capsys, argv):
        code, out, err = run_text(capsys, argv)
        assert code == 2
        assert "error:" in err

    def test_deep_nesting_rejected_cleanly(self, capsys):
        deep = "(" * 400 + "1+e1" + ")" * 400
        code, out, err = run_text(capsys, ["eval", "--sig", "2,0", deep])
        assert code == 2
        assert err.startswith("error: ") and "nests deeper" in err

    @pytest.mark.parametrize("opener", ["(", "rev(", "-"])
    def test_nesting_limit_is_exact(self, capsys, opener):
        # MAX_NESTING_DEPTH = 100 levels evaluate; the 101st opener is refused
        closer = ")" if opener.endswith("(") else ""
        for levels, expected in ((100, 0), (101, 2)):
            text = opener * levels + "e12" + closer * levels
            code, out, err = run_text(capsys, ["eval", "--sig", "2,0", "--", text])
            assert code == expected
            if expected:
                assert err.startswith("error: ") and "nests deeper" in err
                assert "Traceback" not in err
            else:
                assert out == "e12\n"

    def test_long_flat_sum_evaluates(self, capsys):
        code, out, err = run_text(capsys, ["eval", "--sig", "2,0", "+".join(["1"] * 1500)])
        assert code == 0
        assert out == "1500\n"

    @pytest.mark.parametrize("exponent", [30000, 10**9])
    def test_oversized_power_exits_1_quickly(self, capsys, exponent):
        start = time.perf_counter()
        code, out, err = run_text(capsys, ["eval", "--sig", "0,1", f"(1+e1)^{exponent}"])
        assert time.perf_counter() - start < 2
        assert code == 1
        assert err.startswith("error: ") and "bits" in err

    @pytest.mark.parametrize("command", ["eval", "classify"])
    def test_oversized_literal_exits_2(self, capsys, command):
        code, out, err = run_text(capsys, [command, "--sig", "1,0", "1" * 5000])
        assert code == 2
        assert err.startswith("error: ") and "digits" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--sig", "1,1", f"{A},{B}"],
            ["classify", "--sig", "2,0", f"{'9' * 2400},{'7' * 2400}"],
            ["reflect", "--sig", "2,0", "--vector", f"{A},{B}"],
            ["diagonalize", "--matrix", f"{A},{B};{B},{C}"],
            ["rep", "--sig", "2,0", "--", f"1/{A} + 1/{B}*e1"],
        ],
        ids=["classify-1,1", "classify-2,0", "reflect", "diagonalize", "rep"],
    )
    def test_oversized_result_exits_1(self, capsys, argv):
        code, out, err = run_text(capsys, argv)
        assert code == 1
        assert err.startswith("error: ") and "bits" in err
        assert "Traceback" not in err

    def test_oversized_braced_index_exits_2(self, capsys):
        code, out, err = run_text(capsys, ["eval", "--sig", "2,0", "e{" + "1" * 5000 + "}"])
        assert code == 2
        assert err.startswith("error: ") and "digits" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--approx", "--sig", "1,0", "1" + "0" * 400],
            ["eval", "--approx", "--sig", "1,0", "1" + "0" * 400],
            ["diagonalize", "--approx", "--matrix", "1" + "0" * 400],
        ],
        ids=["classify", "eval", "diagonalize"],
    )
    def test_approx_past_float_range_exits_1(self, capsys, argv):
        code, out, err = run_text(capsys, argv)
        assert code == 1
        assert err.startswith("error: ") and "float range" in err
        assert "Traceback" not in err

    def test_closed_stdout_exits_1_without_traceback(self):
        # as in `cliffalg table --sig 4,4 | head -c 50`: the table is far
        # larger than a pipe buffer, so the reader closes while it is written
        read_end, write_end = os.pipe()
        process = cliffalg_process(["table", "--sig", "4,4"], stdout=write_end, stderr=subprocess.PIPE)
        os.close(write_end)
        assert os.read(read_end, 50)
        os.close(read_end)
        _, err = process.communicate(timeout=60)
        assert process.returncode == 1
        assert b"Traceback" not in err

    def test_success_exits_0(self, capsys):
        code, out, err = run_text(capsys, ["eval", "--sig", "2,0", "1+e1"])
        assert code == 0
        assert err == ""


def count_membership_products(monkeypatch):
    """Calls to core_algebra._product inside each groups.membership call of cli.run.

    Returns a list that gets one count per membership call; the products made
    while parsing the element are not counted.
    """
    total = count_products(monkeypatch)
    counts = []
    membership = cli.membership

    def counted_membership(x):
        start = total[0]
        facts = membership(x)
        counts.append(total[0] - start)
        return facts

    monkeypatch.setattr(cli, "membership", counted_membership)
    return counts


class TestCheck:
    @pytest.mark.parametrize(
        "sig, element", [("0,2", "3/5+4/5*e12"), ("2,0", "3/5*e1+4/5*e2")]
    )
    def test_inverts_once(self, capsys, monkeypatch, sig, element):
        # one product forms N = x * conjugate(x); on a regular form with
        # n <= 5 a nonzero scalar N and the parity of x decide, with no image
        counts = count_membership_products(monkeypatch)
        payload = run_json(capsys, ["check", "--sig", sig, "--json", element])
        assert counts == [1]
        assert payload["result"]["in_pin"] is True

    @pytest.mark.parametrize(
        "sig, element", [("3,3", "3/5*e14+4/5*e24"), ("2,0,1", "3/5*e1+4/5*e2+e3")]
    )
    def test_images_at_n6_and_when_degenerate(self, capsys, monkeypatch, sig, element):
        # at n >= 6, or when s > 0, each generator's twisted image takes one
        # product after N, since gi(x) * e_i is a relabelling of the terms of x
        counts = count_membership_products(monkeypatch)
        payload = run_json(capsys, ["check", "--sig", sig, "--json", element])
        assert counts == [1 + parse_signature(sig).n]
        assert payload["result"]["in_pin"] is True

    @pytest.mark.parametrize(
        "sig, element",
        [
            ("2,0", "1+e1"),
            ("3,0", "1+e1+e23"),
            ("1,3", "1+e2+e134"),
            ("0,6", "1+e1"),
            ("2,1,1", "1+e1+e23"),
            ("2,0,2", "e1+e2+e3+e12"),
        ],
    )
    def test_non_group_element_forms_norm_only(self, capsys, monkeypatch, sig, element):
        # on a regular form N that is zero or not a scalar rules x out, and so
        # does mixed parity at any n (N = 2 for 1 + e1 in Cl(0,6)); when s > 0
        # so does a quotient by the null generators outside Gamma(p,q), here
        # of mixed parity, with no inverse and no image
        counts = count_membership_products(monkeypatch)
        payload = run_json(capsys, ["check", "--sig", sig, "--json", element])
        assert counts == [1]
        assert payload["result"]["in_clifford_group"] is False

    def test_dense_element_of_cl55(self, capsys, monkeypatch):
        rng = random.Random(55)
        terms = [f"{rng.choice([-3, -2, -1, 1, 2, 3])}*{blade_name(m, 10)}" for m in range(1024)]
        counts = count_membership_products(monkeypatch)
        payload = run_json(capsys, ["check", "--sig", "5,5", "--json", "--", "+".join(terms)])
        assert counts == [1]
        assert payload["result"]["in_clifford_group"] is False
        assert payload["result"]["n_value"] is None


class TestDimensionCap:
    def test_default_cap_allows_ten(self, capsys):
        payload = run_json(capsys, ["eval", "--sig", "5,5", "--json", "e{1,10}"])
        assert payload["result"]["value"] == "e{1,10}"

    def test_default_cap_blocks_eleven(self, capsys):
        code, out, err = run_text(capsys, ["eval", "--sig", "6,5", "1"])
        assert code == 1
        assert "cap" in err

    def test_raised_cap_allows_more(self, capsys):
        payload = run_json(capsys, ["eval", "--sig", "6,5", "--cap", "11", "--json", "1"])
        assert payload["result"]["value"] == "1"

    def test_rep_at_default_cap(self, capsys):
        payload = run_json(capsys, ["rep", "--sig", "5,5", "--json", "e{1}+e{2}"])
        matrix = payload["result"]["matrix"]
        assert payload["result"]["ideal_dimension"] == 32
        assert len(matrix) == 32 and all(len(row) == 32 for row in matrix)
        assert payload["checks"] == {"homomorphism_square": True, "unital": True}

    def test_rep_at_default_cap_forms_one_product(self, capsys, monkeypatch):
        # R(x), R(1) and R(x*x) are read through the ideal's blade index;
        # the one product is x*x, which the square check needs from the
        # kernel (97 products when each column was a product)
        calls = count_products(monkeypatch)
        payload = run_json(capsys, ["rep", "--sig", "5,5", "--json", "1 + 2*e{1,2} - 3*e{3,4,5}"])
        assert calls[0] == 1
        assert payload["checks"] == {"homomorphism_square": True, "unital": True}

    def test_ideal_at_default_cap_reduces_to_rank(self, capsys, monkeypatch):
        # f is built from its five blade factors by relabellings, and the
        # same relabellings certify it as a product of commuting idempotents:
        # f*f = f, the 32 ideal rows e_c*f, the 32 checks b*f = b and the
        # row of f*A*f = R need no product; forming and reducing every
        # image took 3111 products, and one image per block 67
        calls = count_products(monkeypatch)
        payload = run_json(capsys, ["ideal", "--sig", "5,5", "--json"])
        assert calls[0] == 0
        assert payload["result"]["dimension"] == 32
        assert payload["result"]["division_ring"] == {"dimension": 1, "kind": "R"}

    def test_raised_cap_reaches_faithful_ideal(self, capsys):
        payload = run_json(capsys, ["rep", "--sig", "6,5", "--cap", "11", "--json", "e{1}"])
        assert payload["result"]["ideal_dimension"] == 64

    def test_lowered_cap_blocks(self, capsys):
        code, out, err = run_text(capsys, ["table", "--sig", "4,0", "--cap", "3"])
        assert code == 1
        code, out, err = run_text(capsys, ["table", "--sig", "4,0", "--cap", "4"])
        assert code == 0


class TestArgumentHandling:
    def test_leading_dash_option_value(self, capsys):
        # a matrix value starting with "-" must not be read as an option
        payload = run_json(
            capsys,
            ["lift", "--sig", "0,2", "--json", "--matrix", "-7/25,-24/25;24/25,-7/25"],
        )
        assert payload["result"]["element"] == "3/5 + 4/5*e12"

    def test_equals_form(self, capsys):
        payload = run_json(
            capsys,
            ["lift", "--sig", "0,2", "--json", "--matrix=-7/25,-24/25;24/25,-7/25"],
        )
        assert payload["result"]["element"] == "3/5 + 4/5*e12"

    def test_double_dash_guards_positional(self, capsys):
        payload = run_json(capsys, ["eval", "--sig", "0,2", "--json", "--", "-e12"])
        assert payload["result"]["value"] == "-e12"

    def test_back_to_back_runs_share_no_state(self, capsys):
        # one parser serves every run; flags and --cap must not carry over
        faithful = run_text(capsys, ["ideal", "--sig", "0,3", "--faithful"])
        plain = run_text(capsys, ["ideal", "--sig", "0,3"])
        assert faithful[0] == plain[0] == 0
        assert faithful[1] != plain[1]
        assert plain == run_text(capsys, ["ideal", "--sig", "0,3"])
        assert run_text(capsys, ["center", "--sig", "6,5", "--cap", "11"])[0] == 0
        code, _, err = run_text(capsys, ["center", "--sig", "6,5"])
        assert code == 1 and "cap 10" in err

    def test_merge_helper(self):
        merged = _merge_option_values(["--sig", "0,2", "--matrix", "-1,0;0,1", "x"])
        assert merged == ["--sig=0,2", "--matrix=-1,0;0,1", "x"]
        # untouched after the positional separator
        merged = _merge_option_values(["--sig", "0,2", "--", "--matrix", "-1"])
        assert merged == ["--sig=0,2", "--", "--matrix", "-1"]

    def test_parse_signature(self):
        assert parse_signature("2,0") == Signature(2, 0)
        assert parse_signature(" 1 , 2 , 3 ") == Signature(1, 2, 3)
        for bad in ("2", "1,2,3,4", "a,b", "-1,0", "1.5,0"):
            with pytest.raises(ParseError):
                parse_signature(bad)


# argv tokens for the dispatch test: commands, options of every kind, values, "--",
# and tokens the reader refuses: negative numbers, "-", "", --flag= and a bad --cap
ARGV_TOKENS = sorted(cli._COMMAND_PARSERS) + [
    "frobnicate", "--json", "--js", "--approx", "--ap", "--cap", "--cap=3", "--cap=99", "--sig", "--sig=2,0", "--sig=",
    "--faithful", "--faith", "--matrix", "--vector", "--", "-h", "--help", "-x", "--bogus",
    "2,0", "1,0;0,1", "e1", "-e1", "3", "abc",
    "-1", "-", "", "--json=", "--cap=0", "--cap=abc", "--matrix=-1,0;0,1", "a=b",
]


class TestDispatch:
    """run reads argv with _read_argv, or else through _PARSER, and must act as _PARSER.parse_args."""

    @pytest.mark.parametrize("argv", USAGE_ERRORS + [list(argv) for argv in ARGPARSE_ARGVS])
    def test_matches_top_parser(self, argv):
        merged = _merge_option_values(argv)
        assert parsed(_parse, merged) == parsed(cli._PARSER.parse_args, merged)

    @pytest.mark.parametrize("argv", USAGE_ERRORS + [list(argv) for argv in ARGPARSE_ARGVS])
    def test_run_prints_what_the_top_parser_prints(self, capsys, argv):
        namespace, code, out, err = parsed(cli._PARSER.parse_args, _merge_option_values(argv))
        if namespace is None:
            assert run_text(capsys, argv) == (0 if code in (0, None) else code, out, err)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(ARGV_TOKENS), st.lists(st.sampled_from(ARGV_TOKENS), max_size=6))
    @example("eval", ["--sig", "2,0", "e1", "--", "e1"])
    @example("ideal", ["--faith", "--sig=2,0", "--json"])
    @example("table", ["--sig", "--"])
    @example("table", ["--sig", "--", "--js"])
    @example("table", ["--cap", "--", "--sig=2,0"])
    @example("eval", ["--sig=2,0", "--", "--"])
    @example("table", ["--sig"])
    def test_generated_argvs_match_top_parser(self, first, rest):
        merged = _merge_option_values([first, *rest])
        namespace, *printed = parsed(cli._PARSER.parse_args, merged)
        # argparse before 3.13 drops a value of "--" and stores []; cli._Value stores "--" as 3.13 does
        assert not any(isinstance(value, list) for value in (namespace or {}).values())
        assert parsed(_parse, merged) == (namespace, *printed)

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--sig", "2,0", "-1"],
            ["eval", "--sig", "2,0", ""],
            ["eval", "--sig", "2,0", "-"],
            ["table", "--json=", "--sig", "2,0"],
            ["table", "--js", "--sig", "2,0"],
            ["table", "--sig", "2,0", "--cap", "0"],
            ["eval", "--sig", "2,0", "e1", "e2"],
            ["eval", "--sig", "2,0", "--", "e1", "--"],
            ["eval", "--sig", "2,0"],
            ["eval", "--sig", "2,0", "e1", "--sig"],
            ["table", "--sig"],
            ["rep", "--faithful", "--sig", "2,0", "e1"],
            ["--json", "eval", "--sig", "2,0", "e1"],
            ["frobnicate"],
            [],
        ],
    )
    def test_reader_refuses(self, argv):
        assert _read_argv(_merge_option_values(argv)) is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--approx", "--approx", "--sig", "2,0", "e1"],
            ["eval", "--sig", "2,0", "--sig", "3,0", "e3"],
            ["lift", "--matrix", "-1,0;0,1", "--json", "--sig=0,2", "--cap=4"],
            ["eval", "e1", "--sig", "2,0"],
            ["eval", "--sig", "2,0", "--", "-e1"],
            ["eval", "--sig", "2,0", "a=b"],
            ["table", "--sig", "--"],
        ],
    )
    def test_reader_reads(self, argv):
        merged = _merge_option_values(argv)
        assert vars(_read_argv(merged)) == vars(cli._PARSER.parse_args(merged))

    def test_reader_reads_every_benchmark_and_golden_argv(self):
        # so the benchmark times the reader, not the argparse fallback
        argvs = workload_argvs() + golden_argvs()
        assert len(argvs) > 900
        for argv in argvs:
            merged = _merge_option_values(argv)
            read = _read_argv(merged)
            assert read is not None, argv
            assert vars(read) == vars(cli._PARSER.parse_args(merged)), argv


_json_strings = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00", "\x1f\x7f", "\u2028", "é", "\U0001d11e", "a\"b\\c\n"]),
)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(1 << 200), max_value=1 << 200),
    st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324]),
    _json_strings,
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_json_strings, children, max_size=4),
    ),
    max_leaves=30,
)


class TestJsonText:
    @settings(max_examples=400, deadline=None)
    @given(_json_values)
    @example({"a": [], "b": {}, "c": ()})
    @example({"result": {"entries": [["1", "-e1"], ["e1", "1"]]}, "signature": [1, 0, 0]})
    def test_matches_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES])
    def test_golden_payloads(self, path):
        expected = json.loads(path.read_text())["expected"]
        assert _json_text(expected) == json.dumps(expected, indent=2, sort_keys=True)


class TestMain:
    """cli.main through __main__.py, in a child process."""

    def test_success_exits_0(self):
        process = cliffalg_process(["eval", "--sig", "2,0", "e1"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = process.communicate(timeout=60)
        assert (process.returncode, out, err) == (0, b"e1\n", b"")

    def test_usage_error_exits_2(self):
        process = cliffalg_process(["eval", "--sig", "2,0"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = process.communicate(timeout=60)
        assert process.returncode == 2
        assert out == b"" and b"required" in err and b"Traceback" not in err

    def test_reader_closing_after_one_line_exits_1(self):
        # as in `cliffalg table --sig 5,5 | head -n 1`
        process = cliffalg_process(["table", "--sig", "5,5"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert process.stdout.readline().endswith(b"\n")
        process.stdout.close()
        err = process.stderr.read()
        assert process.wait(timeout=60) == 1
        assert b"Traceback" not in err


class TestTextMode:
    def test_eval_prints_value(self, capsys):
        code, out, err = run_text(capsys, ["eval", "--sig", "0,2", "e1*e2*e1*e2"])
        assert code == 0
        assert out.strip() == "-1"

    def test_table_grid(self, capsys):
        code, out, err = run_text(capsys, ["table", "--sig", "0,1"])
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].split() == ["1", "1", "e1"]
        assert lines[2].split() == ["e1", "e1", "-1"]

    def test_lift_reports_pass(self, capsys):
        code, out, err = run_text(
            capsys, ["lift", "--sig", "0,2", "--matrix=-7/25,-24/25;24/25,-7/25"]
        )
        assert code == 0
        assert "twisted adjoint check: pass" in out
        assert "element: 3/5 + 4/5*e12" in out

    def test_factor_lists_vectors(self, capsys):
        code, out, err = run_text(capsys, ["factor", "--sig", "2,0", "--matrix", "0,-1;1,0"])
        assert code == 0
        assert "count: 2" in out
        assert "recomposition check: pass" in out

    def test_idempotents_report(self, capsys):
        code, out, err = run_text(capsys, ["idempotents", "--sig", "0,3"])
        assert "f1: 1/2 + 1/2*e123" in out
        assert "sum-to-one check: pass" in out

    def test_ideal_text(self, capsys):
        code, out, err = run_text(capsys, ["ideal", "--sig", "0,2"])
        assert code == 0
        assert "dimension: 4" in out
        assert "division ring: H (dimension 4)" in out

    def test_ideal_division_ring_from_signature(self, capsys, monkeypatch):
        # the faithful ideal of a simple algebra is minimal and names its
        # division ring; that of a split algebra is not, and its f*A*f is
        # never built
        code, out, _ = run_text(capsys, ["ideal", "--sig", "0,2", "--faithful"])
        assert code == 0 and "division ring: H (dimension 4)" in out
        calls = []
        monkeypatch.setattr(cli, "division_ring_info", calls.append)
        code, out, _ = run_text(capsys, ["ideal", "--sig", "0,3", "--faithful"])
        assert code == 0 and "division ring: n/a (generator is not primitive)" in out and not calls

        # a primitive generator whose f*A*f has the wrong dimension is an error, not n/a
        def wrong_dimension(f):
            raise UnexpectedDimension("f*A*f has dimension 2, not 4: it is not a division ring")

        monkeypatch.setattr(cli, "division_ring_info", wrong_dimension)
        code, out, err = run_text(capsys, ["ideal", "--sig", "0,2"])
        assert code == 1 and not out and "not a division ring" in err

    def test_center_text(self, capsys):
        code, out, err = run_text(capsys, ["center", "--sig", "1,0"])
        assert "center basis: 1, e1" in out
        assert "simple: false" in out


class TestApprox:
    def test_eval_approx_is_additive(self, capsys):
        exact = run_json(capsys, ["eval", "--sig", "0,2", "--json", "1/3+e1"])
        approx = run_json(capsys, ["eval", "--sig", "0,2", "--json", "--approx", "1/3+e1"])
        assert exact["result"]["value"] == approx["result"]["value"] == "1/3 + e1"
        assert approx["result"]["approx"] == {"1": pytest.approx(1 / 3), "e1": 1.0}
        assert "approx" not in exact["result"]

    def test_lift_approx_normalized(self, capsys):
        # reflection through (1,1): N = -2, so the display scale is 1/sqrt(2)
        payload = run_json(
            capsys, ["lift", "--sig", "2,0", "--json", "--approx", "--matrix", "0,1;1,0"]
        )
        assert payload["result"]["needs_normalization"] is True
        approx = payload["result"]["approx_normalized"]
        length = math.sqrt(sum(v * v for v in approx.values()))
        assert length == pytest.approx(1.0)

    def test_classify_approx(self, capsys):
        payload = run_json(
            capsys, ["classify", "--sig", "1,1", "--json", "--approx", "3,1"]
        )
        assert payload["result"]["quadratic_value"] == "8"
        assert payload["result"]["quadratic_value_approx"] == 8.0

    def test_classify_evaluates_the_form_once(self, capsys, monkeypatch):
        calls = []
        evaluate = quadratic_space.evaluate_form
        monkeypatch.setattr(quadratic_space, "evaluate_form", lambda *args: calls.append(args) or evaluate(*args))
        payload = run_json(capsys, ["classify", "--sig", "1,1", "--json", "3,1"])
        assert (payload["result"]["quadratic_value"], payload["result"]["class"]) == ("8", "timelike")
        assert len(calls) == 1


class TestJsonEnvelope:
    def test_sorted_and_stable(self, capsys):
        code = run(["center", "--sig", "3,0", "--json"])
        first = capsys.readouterr().out
        code = run(["center", "--sig", "3,0", "--json"])
        second = capsys.readouterr().out
        assert code == 0
        assert first == second
        payload = json.loads(first)
        assert first == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_signature_normalized_to_three_entries(self, capsys):
        payload = run_json(capsys, ["eval", "--sig", "2,0", "--json", "1"])
        assert payload["signature"] == [2, 0, 0]

    def test_table_json_builds_no_text_grid(self, capsys, monkeypatch):
        def no_grid(header, rows):
            raise AssertionError("text grid built in JSON mode")

        monkeypatch.setattr(cli, "_grid_lines", no_grid)
        payload = run_json(capsys, ["table", "--sig", "2,1", "--json"])
        assert len(payload["result"]["entries"]) == 8

    def test_diagonalize_reports_computed_signature(self, capsys):
        payload = run_json(capsys, ["diagonalize", "--json", "--matrix", "1,1;1,1"])
        assert payload["signature"] == [1, 0, 1]
        assert payload["result"]["signature"] == [1, 0, 1]


def reference_matches(x: Multivector, m) -> bool:
    """The twisted adjoint of x, formed through its inverse in the Fraction oracle, is m."""
    images = reference_twisted_adjoint(x)
    return images is not None and all(
        image == embed_vector(column, x.sig) for image, column in zip(images, zip(*m))
    )


@st.composite
def regular_lifts(draw):
    """(M, x): a product of reflections on a regular Cl(p,q), n <= 5, and its lift."""
    n = draw(st.integers(1, 5))
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    form = BilinearForm.from_signature(sig)
    m = _linalg.identity(n)
    for w in draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=2 * n)):
        if quadratic_value(form, w) != 0:
            m = _linalg.mat_mul(m, reflection_matrix(form, w).rows())
    return m, lift_isometry(sig, m).element


class TestLiftCheck:
    LIFT = ["lift", "--sig", "2,1", "--json", "--matrix", "0,1,0;1,0,0;0,0,-1"]

    def run_tampered(self, capsys, monkeypatch, tamper):
        def tampered_lift(sig, m):
            lift = lift_isometry(sig, m)
            return LiftResult(tamper(lift.element), lift.n_value, lift.reflection_count, False)

        monkeypatch.setattr(cli, "lift_isometry", tampered_lift)
        return run_json(capsys, self.LIFT)["checks"]["twisted_adjoint_matches"]

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda x: x * Multivector.generator(x.sig, 1),
            lambda x: x + 1,
            lambda x: Multivector.zero(x.sig),
        ],
        ids=["times-e1", "plus-one", "zero"],
    )
    def test_wrong_element_fails(self, capsys, monkeypatch, tamper):
        assert self.run_tampered(capsys, monkeypatch, tamper) is False

    def test_rescaled_element_passes(self, capsys, monkeypatch):
        assert self.run_tampered(capsys, monkeypatch, lambda x: 2 * x) is True

    def test_forms_no_inverse(self, capsys, monkeypatch):
        def no_inverse(x):
            raise AssertionError("lift check formed an inverse")

        monkeypatch.setattr(groups, "inverse", no_inverse)
        assert run_json(capsys, self.LIFT)["checks"]["twisted_adjoint_matches"] is True

    @settings(max_examples=150, deadline=None)
    @given(regular_lifts(), st.integers(0, 31), st.fractions(-3, 3, max_denominator=3))
    def test_agrees_with_twisted_adjoint_matrix(self, case, mask, weight):
        m, x = case
        scaled = _linalg.ScaledMatrix.of(m)
        assert _twisted_adjoint_matches(x, scaled) is True
        assert reference_matches(x, m) is True
        blade = Multivector.basis_blade(x.sig, mask % (1 << x.sig.n), weight)
        for tampered in (x + blade, x * blade, blade * x, weight * x):
            assert _twisted_adjoint_matches(tampered, scaled) == reference_matches(tampered, m)


BUDGET_EDGE = 1 << 8191  # 8192 bits: the largest numerator or denominator format_rational renders


@st.composite
def scaled_matrices(draw):
    """Integer rows over a scale, with zeros, negatives, unreduced scales and entries at the bit budget."""
    scale = draw(st.sampled_from([1, 2, 6, 12, 35, BUDGET_EDGE - 1, BUDGET_EDGE + 1, 2 * BUDGET_EDGE]))
    entry = st.one_of(
        st.just(0),
        st.integers(-40, 40),
        st.integers(-40, 40).map(lambda k: k * scale),
        st.sampled_from([BUDGET_EDGE, -BUDGET_EDGE, 2 * BUDGET_EDGE, 2 * BUDGET_EDGE - 1, -(2 * BUDGET_EDGE)]),
    )
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    return _linalg.ScaledMatrix(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)), scale)


class TestScaledRendering:
    @settings(max_examples=300, deadline=None)
    @given(scaled_matrices())
    @example(_linalg.ScaledMatrix([[0, -3, 4, 6]], 6))
    @example(_linalg.ScaledMatrix([[2 * BUDGET_EDGE - 1]], 1))
    @example(_linalg.ScaledMatrix([[2 * BUDGET_EDGE]], 1))
    @example(_linalg.ScaledMatrix([[2 * BUDGET_EDGE]], 2))
    @example(_linalg.ScaledMatrix([[1]], 2 * BUDGET_EDGE - 1))
    @example(_linalg.ScaledMatrix([[1]], 2 * BUDGET_EDGE))
    def test_matches_format_rational(self, matrix):
        # the integer renderer against format_rational over fractions(), the
        # CoefficientTooLarge of an entry past 8192 bits included
        try:
            expected = [[format_rational(v) for v in row] for row in matrix.fractions()]
        except CoefficientTooLarge:
            with pytest.raises(CoefficientTooLarge):
                cli._scaled_mat(matrix)
        else:
            assert cli._scaled_mat(matrix) == expected


class TestReflectAndFactor:
    """reflect and factor read the text into integers, and certify and render from them."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([sig for sig in all_signatures(4) if sig.n]), st.data())
    def test_reflect_matches_fraction_formula(self, sig, data):
        entry = st.fractions(min_value=-4, max_value=4, max_denominator=5)
        v = data.draw(st.lists(entry, min_size=sig.n, max_size=sig.n))
        text = ",".join(format_rational(x) for x in v)
        code, out, err = TestRepCheck.run(["reflect", "--json", "--sig", f"{sig.p},{sig.q},{sig.s}", "--vector=" + text])
        expected = reference_reflection_matrix(BilinearForm.from_signature(sig), v)
        if expected is None:
            assert (code, err) == (1, "error: reflection axis must be anisotropic\n")
        else:
            assert code == 0, err
            assert json.loads(out)["result"]["matrix"] == [[format_rational(x) for x in row] for row in expected]

    @settings(max_examples=60, deadline=None)
    @given(regular_lifts())
    def test_factor_prints_the_library_vectors(self, case):
        m, x = case
        sig = x.sig
        text = ";".join(",".join(format_rational(e) for e in row) for row in m)
        code, out, err = TestRepCheck.run(["factor", "--json", "--sig", f"{sig.p},{sig.q}", "--matrix=" + text])
        assert code == 0, err
        payload = json.loads(out)
        vectors = cartan_dieudonne_factor(BilinearForm.from_signature(sig), m)
        assert payload["result"]["vectors"] == [[format_rational(e) for e in w] for w in vectors]
        assert payload["checks"] == {"recomposition": True, "count_le_2n": True}

    FACTOR = ["factor", "--json", "--sig", "2,1", "--matrix", "0,1,0;1,0,0;0,0,-1"]

    def test_uncertified_reflection_is_refused(self, capsys, monkeypatch):
        # a reflection built at twice its scale is no isometry: both commands exit 1
        build = quadratic_space._reflection_rows
        monkeypatch.setattr(
            quadratic_space, "_reflection_rows", lambda form, w: _linalg.ScaledMatrix(build(form, w).rows, 2 * build(form, w).scale)
        )
        for argv in (self.FACTOR, ["reflect", "--sig", "2,1", "--vector", "1,2,0"]):
            code, out, err = run_text(capsys, argv)
            assert (code, out, err) == (1, "", "error: matrix does not preserve the bilinear form\n")

    def test_wrong_reflection_fails_recomposition(self, capsys, monkeypatch):
        # the identity is an isometry, so it passes the certificate, but the product is then I, not M
        assert run_json(capsys, self.FACTOR)["checks"]["recomposition"] is True
        monkeypatch.setattr(quadratic_space, "_reflection_rows", lambda form, w: _linalg.ScaledMatrix.identity(form.n))
        assert run_json(capsys, self.FACTOR)["checks"]["recomposition"] is False


class TestRepCheck:
    ARGV = ["rep", "--sig", "2,1", "--json", "1+2*e1+3*e2+5*e3+7*e12"]

    def test_planted_pivot_read_fault_fails(self, capsys, monkeypatch):
        # the square check forms x*x in the product kernel and compares
        # R(x*x) with R(x) R(x), so a read of the blade index that negates
        # one column shows
        assert run_json(capsys, self.ARGV)["checks"] == {"homomorphism_square": True, "unital": True}
        read = spinors._index_read
        monkeypatch.setattr(
            spinors,
            "_index_read",
            lambda ideal, x: [[-row[0], *row[1:]] for row in read(ideal, x)],
        )
        checks = run_json(capsys, self.ARGV)["checks"]
        assert checks == {"homomorphism_square": False, "unital": False}

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matrix_matches_fraction_reference(self, data):
        sig = data.draw(st.sampled_from(all_signatures(5, degenerate=False)))
        fractions = st.fractions(min_value=-20, max_value=20, max_denominator=13)
        masks = data.draw(st.lists(st.integers(0, (1 << sig.n) - 1), max_size=1 << sig.n))
        x = Multivector(sig, {m: data.draw(fractions) for m in masks})
        argv = ["rep", "--sig", f"{sig.p},{sig.q}", "--json", "--", pretty_print(x)]
        code, out, err = self.run(argv)
        assert code == 0, err
        payload = json.loads(out)
        expected = reference_rep_matrix(x, faithful_ideal(sig))
        assert payload["result"]["matrix"] == [[format_rational(v) for v in row] for row in expected]
        assert payload["checks"] == {"homomorphism_square": True, "unital": True}

    @staticmethod
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        return code, out.getvalue(), err.getvalue()
