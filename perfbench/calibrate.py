"""Machine-speed reference for scaling measured times.

The machines this benchmark runs on share their cores with other tenants, and
their speed drifts by up to half for stretches of ten seconds or more, which
no statistic taken inside one run can average away.  So every operation is
bracketed by reference_ns(), a fixed pure-Python kernel (integer and Fraction
arithmetic, tuples, dict stores, one small argparse parser; no cliffalg code),
and its time is rescaled to what it would have been had the kernel taken
REFERENCE_NS:

    scaled = measured * REFERENCE_NS / (kernel time around the operation)

REFERENCE_NS is a nominal kernel time.  On the 2-vCPU x86-64 VM at 2.0 GHz
(CPython 3.11) where the figures in README.md were taken, the kernel took
0.29 ms in fast stretches and 0.59 ms in slow ones (5th and 95th percentiles
over 20 s), so scaled figures read as times on such a machine at a middling
speed.
"""

import argparse
from fractions import Fraction
from time import perf_counter_ns

REFERENCE_NS = 400_000


def _kernel() -> None:
    acc = 0
    table = {}
    for i in range(200):
        acc = (acc * 31 + i * i) % 1_000_003
        table[i & 31] = (acc, i)
    parser = argparse.ArgumentParser(prog="reference")
    parser.add_argument("--size", type=int, default=1)
    parser.add_argument("items", nargs="*")
    parser.parse_args(["--size", "3", "a", "b"])
    ratio = Fraction(0)
    for i in range(1, 28):
        ratio = ratio * Fraction(i, i + 2) + Fraction(1, i)
        table[i & 15] = (ratio, i ^ 5)


def reference_ns(rounds: int = 1) -> float:
    """Kernel time: the fastest of three runs, so one interrupt does not count,
    averaged over `rounds` such triples."""
    total = 0
    for _ in range(rounds):
        best = None
        for _ in range(3):
            start = perf_counter_ns()
            _kernel()
            elapsed = perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
        total += best
    return total / rounds
