"""Byte-identity of the command line across revisions, on one fixed corpus of argvs.

    python3 tests/identical.py                    # one line per argv, this tree
    python3 tests/identical.py --against HEAD~1   # the argvs whose line differs at HEAD~1

Standard library only; pytest does not collect this file.  The corpus, each
argv in text, --json, --approx and --json --approx:
  - every argv of the four benchmark workloads at seeds 1-3, as
    perfbench/workloads.build makes them;
  - idempotents, ideal, ideal --faithful, rep e1 and center on every regular
    signature with n <= 6;
  - table, and eval of a dense element, of its square and of its norm
    N(...), on every signature with n <= 4;
  - blade names on both sides of n = 9 and up to n = 16: idempotents and
    eval at n = 9, 10 and 16;
  - check of a dense Cl(4,4,1) element and of (-2*e145 + e236)*(1 + e7) in
    Cl(3,3,1): a quotient by the null generator outside the group, and one
    inside Gamma(3,3)'s norm and parity rule that the images rule out;
  - check of the even and odd members and non-members of CHECK_TEXTS, at
    n = 6 and 7, which the twisted images decide;
  - the nesting limit (100 and 101 levels) and the coefficient budget
    (2^8191, 2^8192, an 8192-bit and an 8193-bit scale);
  - the argvs of the golden files in tests/golden.
Then the reader edge cases of READER_TEXTS, in text and --json mode only,
and the argparse paths of cli.run, each exactly as written: help, usage
errors, abbreviated and repeated options, "--", an unknown command, an
option before the command and a trailing extra argument.

Each argv runs through cli.run in one process, as perfbench/run.py runs it,
and gives one line: the sha256 of the argv (as JSON), the exit code (or the
name of an exception that escaped cli.run), and the sha256 of stdout and of
stderr.  The corpus is always built from this tree, so both sides of a
comparison run the same argvs.

--against REV extracts REV's src/ with `git archive` into a temporary
directory, which leaves no worktree behind in the repository, and runs the
corpus on it and on this tree, each in a fresh interpreter.  It prints every
argv whose line differs, with both lines, and exits 1 if any does.  This
compares two live runs and stores no expected output; perfbench/oracle.py
and the golden tests still check what the output says.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (command and options, positionals) of the spinor commands
SPINOR_COMMANDS = (
    (["idempotents"], []),
    (["ideal"], []),
    (["ideal", "--faithful"], []),
    (["rep"], ["e1"]),
    (["center"], []),
)


MODES = ([], ["--json"], ["--approx"], ["--json", "--approx"])
# run as written, not in every mode: what cli.run hands to argparse
ARGPARSE_ARGVS = (
    [],
    ["--help"],
    ["-h"],
    ["eval", "--help"],
    ["eval", "--sig", "2,0", "-h", "e1"],
    ["eval", "--js", "--sig", "2,0", "e1"],
    ["ideal", "--faith", "--sig", "0,3"],
    ["ideal", "--f", "--sig", "0,3"],
    ["eval", "--sig", "2,0", "--sig", "3,0", "e3"],
    ["eval", "--sig=", "e1"],
    ["eval", "--sig=2,0", "e1"],
    ["eval", "--sig", "2,0", "--", "-e1"],
    ["eval", "--", "--sig", "2,0"],
    ["eval", "--sig", "2,0", "--", "e1", "--"],
    ["frobnicate", "--sig", "2,0"],
    ["--json", "eval", "--sig", "2,0", "e1"],
    ["--sig", "2,0", "eval", "e1"],
    ["--", "eval", "--sig", "2,0", "e1"],
    ["eval", "--sig", "2,0", "e1", "e2"],
    ["center", "--sig", "2,0", "extra"],
    ["center", "--sig", "2,0", "--bogus"],
    ["eval", "--sig", "2,0"],
    ["eval", "e1"],
    ["diagonalize", "--sig", "2,0", "--matrix", "1,0;0,1"],
    ["table", "--sig", "2,0", "--cap", "20"],
    ["table", "--sig", "2,0", "--cap", "abc"],
    ["table", "--sig", "2,0", "--cap"],
    ["-x"],
    ["eval", "--sig", "2,0", "-x", "e1"],
    ["--version"],
)

# (signature, check text): an even and an odd member, each a product of
# anisotropic vectors, and an even and an odd non-member with a scalar norm,
# at n = 6 and 7, regular and with a null generator
CHECK_TEXTS = (
    ("3,3", "(e1 + 2*e4)*(e2 + e3 - e5)*(e3 + 2*e6)*(2*e1 - e2 + e6)"),
    ("3,3", "(e1 + 2*e4)*(e2 + e3 - e5)*(e3 + 2*e6)"),
    ("3,3", "-e1245 - 2*e36"),
    ("3,3", "-2*e145 + e236"),
    ("4,3", "(e1 + 2*e5 + e7)*(e2 + e3 - e6)*(e4 + 3*e7)*(2*e1 - e2 + e6)"),
    ("4,3", "(e1 + 2*e5 + e7)*(e2 + e3 - e6)*(e4 + 2*e7)"),
    ("4,3", "-e123456 - 2*e37"),
    ("4,3", "-2*e147 + 2*e23567"),
    ("4,2,1", "(e1 + 2*e5 + e7)*(e2 + e3 - e6)*(e4 + 3*e7)*(2*e1 - e2 + e6)"),
    ("4,2,1", "(e1 + 2*e5 + e7)*(e2 + e3 - e6)*(e4 - e7)"),
    ("4,2,1", "2*e12 + 2*e1237 - 2*e3467"),
    ("4,2,1", "-2*e126 - e347"),
)

# (signature, eval text) through the general reader: each of its ParseError
# messages once, Unicode digits and whitespace, "_", numerals that are no
# digits, non-ASCII names and a trailing "\x1c", which is whitespace
READER_TEXTS = (
    ("2,0", "1 + $"),
    ("2,0", "1" * 2458),
    ("2,0", "rev 1"),
    ("2,0", "e 1"),
    ("2,0", "e{1 2}"),
    ("2,0", "(e1"),
    ("2,0", "-" * 101 + "e1"),
    ("2,0", "1/e1"),
    ("2,0", "1/0"),
    ("2,0", "foo"),
    ("10,0", "e1 + 1/2"),
    ("2,0", "e{}"),
    ("2,0", "e3"),
    ("2,0", "e1)"),
    ("2,0", "e1^-1"),
    ("2,0", "٣*e1 - e١٢"),
    ("2,0", "e{١,2} + ٣/٤"),
    ("2,0", "1\u3000+\u00a0e1\u2028"),
    ("2,0", "e1 + 1\x1c"),
    ("2,0", "e1_2"),
    ("2,0", "1²"),
    ("2,0", "e²"),
    ("2,0", "e1 + ½"),
    ("2,0", "Ⅷ*e1"),
    ("2,0", "é1 + e1"),
    ("2,0", "(1 + αβ"),
)


def _in_every_mode(argv: list) -> list:
    """argv in each of MODES; options end where "--" starts the positionals."""
    end = argv.index("--") if "--" in argv else len(argv)
    options = [token for token in argv[:end] if token not in ("--json", "--approx")]
    rest = argv[end:]
    return [options + mode + rest for mode in MODES]


def _name(mask: int, n: int) -> str:
    indices = [str(i + 1) for i in range(n) if mask >> i & 1]
    return "e" + "".join(indices) if n <= 9 else "e{" + ",".join(indices) + "}"


def _element(masks, n: int) -> str:
    """A sum of the blades of masks with coefficients -3..3 and halves, none zero."""
    terms = []
    for k, mask in enumerate(masks):
        coefficient = f"{k % 7 - 3 or 5}/{1 + k % 2}"
        terms.append(coefficient if mask == 0 else f"{coefficient}*{_name(mask, n)}")
    return " + ".join(terms)


def _signatures(n: int) -> list:
    return [f"{p},{q},{n - p - q}" for p in range(n + 1) for q in range(n - p + 1)]


def corpus() -> list:
    """The argvs, in a fixed order, each once."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    bases = []
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            bases += [op.argv for op in workloads.build(workload, seed)]
    for n in range(7):
        for p in range(n + 1):
            for command, positionals in SPINOR_COMMANDS:
                bases.append([*command, "--sig", f"{p},{n - p}", *positionals])
    for n in range(5):
        for sig in _signatures(n):
            dense = _element(range(1 << n), n)
            bases += [
                ["table", "--sig", sig],
                ["eval", "--sig", sig, "--", dense],
                ["eval", "--sig", sig, "--", f"({dense})^2"],
                ["eval", "--sig", sig, "--", f"N({dense})"],
            ]
    for sig in ("5,4", "4,4,1", "5,5", "6,4"):
        n = sum(map(int, sig.split(",")))
        bases += [
            ["idempotents", "--sig", sig],
            ["eval", "--sig", sig, "--", _element(range(1 << n), n)],
            ["eval", "--sig", sig, "--", f"(1 + {_name(1 | 1 << (n - 1), n)}) * ({_element([2, 3, 1 << (n - 1)], n)})"],
        ]
    bases += [
        ["check", "--sig", "4,4,1", "--", _element(range(1 << 9), 9)],
        ["check", "--sig", "3,3,1", "--", "(-2*e145 + e236)*(1 + e7)"],
        *(["check", "--sig", sig, "--", text] for sig, text in CHECK_TEXTS),
        ["idempotents", "--cap", "16", "--sig", "8,8"],
        ["eval", "--cap", "16", "--sig", "8,8", "--", _element(range(1, 1 << 16, 331), 16)],
    ]
    for opener, closer in (("(", ")"), ("rev(", ")"), ("-", "")):
        for levels in (100, 101):
            bases.append(["eval", "--sig", "2,0", "--", opener * levels + "1+e1" + closer * levels])
    for text in ("2^8191", "-2^8191*e1", "2^8192", "2^8191*e1 + 1/2^8191", "1/2^8192", "2^4096*2^4096"):
        bases.append(["eval", "--sig", "1,0", "--", text])
    for path in sorted((ROOT / "tests" / "golden").glob("*.json")):
        bases.append(json.loads(path.read_text())["argv"])
    argvs = {}
    for argv in bases:
        for variant in _in_every_mode(argv):
            argvs.setdefault(json.dumps(variant), variant)
    for sig, text in READER_TEXTS:
        for mode in ([], ["--json"]):
            argv = ["eval", "--sig", sig, *mode, "--", text]
            argvs.setdefault(json.dumps(argv), argv)
    for argv in ARGPARSE_ARGVS:
        argvs.setdefault(json.dumps(argv), list(argv))
    return list(argvs.values())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def lines(src: Path, argvs: list) -> list:
    """One line per argv: sha256(argv) exit-code sha256(stdout) sha256(stderr), cliffalg imported from src."""
    sys.path.insert(0, str(src))
    from cliffalg import cli

    out = []
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.run(argv)
            except Exception as exc:  # a fault in the program: record it, go on
                code = type(exc).__name__
        out.append(f"{_sha(json.dumps(argv))} {code} {_sha(stdout.getvalue())} {_sha(stderr.getvalue())}")
    return out


def _run_on(src: Path) -> list:
    """The lines of a fresh interpreter running this script on src."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--src", str(src)],
        capture_output=True, text=True, check=True,
    )
    return done.stdout.splitlines()


def against(rev: str, argvs: list) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
            capture_output=True, check=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        theirs = _run_on(Path(tmp) / "src")
    ours = _run_on(ROOT / "src")
    assert len(ours) == len(theirs) == len(argvs), "the two runs read different corpora"
    differ = 0
    for argv, mine, other in zip(argvs, ours, theirs):
        if mine != other:
            differ += 1
            print(shlex.join(argv))
            print(f"  {rev}: {other}")
            print(f"  tree: {mine}")
    print(f"{differ} of {len(argvs)} argvs differ from {rev}", file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="compare with this git revision")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the cliffalg sources to run")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    argvs = corpus()
    if args.against:
        code = against(args.against, argvs)
    else:
        print("\n".join(lines(args.src, argvs)))
        code = 0
    print(f"{len(argvs)} argvs in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
