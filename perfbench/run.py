"""End-to-end benchmark of the cliffalg command line, driven through cli.run.

    python3 perfbench/run.py --workload versor-groups --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the library is imported from ./src.
One process, one caller, closed loop: each operation starts when the previous
one has returned.  The loop repeats whole rounds of the workload's seeded
operations (perfbench/workloads.py) until --seconds have passed, after one
untimed warm-up round.  Every output is then checked against
perfbench/oracle.py, and repeats of an operation must print the same bytes.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end figures; with
--trace 1 the library's public functions are wrapped (perfbench/spans.py),
the spans go to perfbench/out/, and the metrics are the per-layer figures.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter_ns

import workloads
from calibrate import REFERENCE_NS, reference_ns

ROOT = Path(__file__).resolve().parent.parent
SETUP_STARTS = 5  # before the timed loop, and as many again after it


def setup_times(workload: str, seed: int) -> list:
    """Scaled seconds of fresh interpreters importing cliffalg and building the inputs."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_STARTS):
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        elapsed_ns, before, after = (float(x) for x in done.stdout.split()[-3:])
        times.append(elapsed_ns * 2 * REFERENCE_NS / (before + after) / 1e9)
    return times


class Loop:
    """Runs operations through cli.run and keeps what the checks need."""

    def __init__(self, cli, ops: list):
        self.cli = cli
        self.ops = ops
        self.first: list = [None] * len(ops)  # (failed, rc, stdout, stderr) of the warm-up round
        self.unsteady: set = set()  # ops whose repeats printed something else
        self.latencies_ns: list = []  # scaled to the reference speed, see calibrate.py
        self.scales: list = []  # the factor applied to each timed operation
        self.raw_ns = 0
        self.commands: list = []
        self.failed = 0
        self.output_bytes = 0

    def call(self, op) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter_ns()
            try:
                rc = self.cli.run(op.argv)
            except Exception as exc:  # a fault in the program: the operation failed
                rc = type(exc).__name__
            end = perf_counter_ns()
        failed = rc not in op.ok_codes or (rc == 2 and "Traceback" in err.getvalue())
        return end - start, (failed, rc, out.getvalue(), err.getvalue())

    def warm_up(self) -> None:
        for i, op in enumerate(self.ops):
            _, self.first[i] = self.call(op)

    def timed(self, seconds: int) -> None:
        """Whole rounds until `seconds` have passed, each operation between two reference runs."""
        start = perf_counter_ns()
        before = reference_ns()
        while True:
            for i, op in enumerate(self.ops):
                elapsed, outcome = self.call(op)
                after = reference_ns()
                self.scales.append(2 * REFERENCE_NS / (before + after))
                self.latencies_ns.append(elapsed * self.scales[-1])
                self.raw_ns += elapsed
                before = after
                self.commands.append(op.command)
                self.failed += outcome[0]
                self.output_bytes += len(outcome[2])
                if outcome != self.first[i]:
                    self.unsteady.add(i)
            if perf_counter_ns() - start >= seconds * 1_000_000_000:
                return

    def errors(self) -> list:
        outputs = [None if failed else (rc, out, err) for failed, rc, out, err in self.first]
        errors = workloads.check(self.ops, outputs)
        errors += [f"op {i} {self.ops[i].argv[:4]}: output changed between repeats" for i in sorted(self.unsteady)]
        return errors


def end_to_end(loop: Loop, setup_s: float) -> dict:
    latencies_ms = [t / 1e6 for t in loop.latencies_ns]
    deciles = statistics.quantiles(latencies_ms, n=10, method="inclusive")
    return {
        "ops_per_s": (len(latencies_ms) / (sum(latencies_ms) / 1e3), "ops/s"),
        "latency_p50_ms": (deciles[4], "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cliffalg" / "__init__.py").is_file():
        print(f"error: no cliffalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # fresh starts on both sides of the timed loop, so one slow stretch of the
    # machine cannot hold all of them
    setup = [] if args.trace else setup_times(args.workload, args.seed)
    sys.path.insert(0, str(ROOT / "src"))
    from cliffalg import cli

    ops = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    loop = Loop(cli, ops)
    loop.warm_up()
    if tracer is not None:
        tracer.reset()
    # keep the benchmark's own objects out of the collections the timed operations trigger
    gc.collect()
    gc.freeze()
    loop.timed(args.seconds)
    if not args.trace:
        setup += setup_times(args.workload, args.seed)
    metrics = end_to_end(loop, statistics.median(setup) if setup else None)
    errors = loop.errors()
    for message in errors[:20]:
        print(f"mismatch: {message}", file=sys.stderr)
    summary = ", ".join(f"{k}={v:.4g}" for k, (v, _) in metrics.items() if v is not None)
    raw = len(loop.latencies_ns) / (loop.raw_ns / 1e9)
    print(f"{args.workload} seed {args.seed}: {len(loop.latencies_ns)} ops, {summary}, unscaled ops_per_s={raw:.4g}", file=sys.stderr)
    if tracer is not None:
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json.gz")
        metrics = tracer.metrics(loop.commands, loop.scales, loop.output_bytes)
    result = {
        "correct": not errors,
        "attempted": len(loop.latencies_ns),
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
