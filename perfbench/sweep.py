"""One-off scaling sweep of the two 8^n layers, for the reference figures in README.md.

    python3 perfbench/sweep.py

Times core_algebra.inverse on one seeded dense element per n, and
spinors.left_ideal_basis on the first canonical idempotent of Cl(p,q) with
q = p or q = p + 1, each as the median of three calls, scaled to the
reference speed like every other time in this benchmark (see calibrate.py).
"""

from __future__ import annotations

import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

from calibrate import REFERENCE_NS, reference_ns

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cliffalg import Multivector, Signature, build_idempotent_set, find_commuting_blades, inverse, left_ideal_basis  # noqa: E402


def scaled_ms(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        before = reference_ns()
        start = perf_counter_ns()
        fn()
        elapsed = perf_counter_ns() - start
        times.append(elapsed * 2 * REFERENCE_NS / (before + reference_ns()) / 1e6)
    return statistics.median(times)


def main() -> None:
    rng = random.Random(0)
    print("inverse of a dense element (every blade, coefficients -9/5..9/5)")
    for n in range(2, 7):
        sig = Signature(n // 2, n - n // 2)
        x = Multivector(sig, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for m in range(1 << n)})
        print(f"  n={n} Cl{sig}: {scaled_ms(lambda: inverse(x)):10.2f} ms", flush=True)
    print("left_ideal_basis of the first canonical idempotent")
    for n in range(2, 9):
        sig = Signature(n // 2, n - n // 2)
        f = build_idempotent_set(find_commuting_blades(sig)).idems[0]
        print(f"  n={n} Cl{sig}: {scaled_ms(lambda: left_ideal_basis(f)):10.2f} ms", flush=True)


if __name__ == "__main__":
    main()
