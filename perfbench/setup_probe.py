"""Time one fresh start: import cliffalg and build a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the ns taken and the reference kernel's time before and after (see
calibrate.py).  perfbench/run.py reports the median of several such starts,
scaled to the reference speed, as setup_s.
"""

import sys
from pathlib import Path
from time import perf_counter_ns

from calibrate import reference_ns

before = reference_ns(rounds=4)
start = perf_counter_ns()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cliffalg.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
elapsed = perf_counter_ns() - start
print(elapsed, before, reference_ns(rounds=4))
