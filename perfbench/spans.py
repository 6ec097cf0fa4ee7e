"""Spans around cliffalg's public functions, for the traced run only.

install() replaces each function in TARGETS, in every cliffalg module
namespace that binds it, with a wrapper that records one span: name, request
(the index of the CLI operation), parent span, start and end in ns, a work
count and the largest coefficient bit length of the result.  Per-blade
helpers such as blade_mul are left alone: they run millions of times.  Spans
stay in memory until write() saves them; metrics() derives every per-layer
figure from them.  The untraced run never imports this module.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter_ns

FIELDS = ("name", "request", "parent", "start_ns", "end_ns", "work", "bits")
WIDTH = len(FIELDS)


def _pairs(args, result):
    return len(args[0].terms()) * len(args[1].terms())


def _cells(args, result):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


def _count(args, result):
    return len(result)


def _coefficient_bits(x) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in x.terms()), default=0)


# (module, function, work counter, record coefficient bits of the result)
TARGETS = [
    ("cli", "run", None, False),
    ("expr", "parse", None, False),
    ("expr", "pretty_print", None, False),
    ("core_algebra", "geometric_product", _pairs, True),
    ("core_algebra", "inverse", None, True),
    ("core_algebra", "multiplication_table", None, False),
    ("_linalg", "rref", _cells, False),
    ("_linalg", "solve", None, False),
    ("quadratic_space", "cartan_dieudonne_factor", _count, False),
    ("quadratic_space", "orthogonal_diagonalize", None, False),
    ("groups", "in_clifford_group", None, False),
    ("groups", "in_pin", None, False),
    ("groups", "in_spin", None, False),
    ("groups", "twisted_adjoint_matrix", None, False),
    ("groups", "lift_isometry", None, False),
    ("spinors", "find_commuting_blades", None, False),
    ("spinors", "build_idempotent_set", None, False),
    ("spinors", "left_ideal_basis", None, False),
    ("spinors", "division_ring_info", None, False),
    ("spinors", "faithful_ideal", None, False),
    ("spinors", "regular_rep_matrix", None, False),
    ("spinors", "algebra_center", None, False),
]

MEMBERSHIP = ("groups.in_clifford_group", "groups.in_pin", "groups.in_spin")

# per-layer metric: (span names whose outermost spans it sums, unit)
TIMED = {
    "expr.parse.ms": (("expr.parse",), "ms/op"),
    "expr.pretty_print.ms": (("expr.pretty_print",), "ms/op"),
    "core_algebra.geometric_product.ms": (("core_algebra.geometric_product",), "ms/op"),
    "core_algebra.inverse.ms": (("core_algebra.inverse",), "ms/op"),
    "core_algebra.multiplication_table.ms": (("core_algebra.multiplication_table",), "ms/op"),
    "linalg.rref.ms": (("_linalg.rref",), "ms/op"),
    "linalg.solve.ms": (("_linalg.solve",), "ms/op"),
    "quadratic_space.cartan_dieudonne_factor.ms": (("quadratic_space.cartan_dieudonne_factor",), "ms/op"),
    "quadratic_space.orthogonal_diagonalize.ms": (("quadratic_space.orthogonal_diagonalize",), "ms/op"),
    "groups.membership.ms": (MEMBERSHIP, "ms/op"),
    "groups.twisted_adjoint_matrix.ms": (("groups.twisted_adjoint_matrix",), "ms/op"),
    "groups.lift_isometry.ms": (("groups.lift_isometry",), "ms/op"),
    "spinors.find_commuting_blades.ms": (("spinors.find_commuting_blades",), "ms/op"),
    "spinors.build_idempotent_set.ms": (("spinors.build_idempotent_set",), "ms/op"),
    "spinors.left_ideal_basis.ms": (("spinors.left_ideal_basis",), "ms/op"),
    "spinors.division_ring_info.ms": (("spinors.division_ring_info",), "ms/op"),
    "spinors.faithful_ideal.ms": (("spinors.faithful_ideal",), "ms/op"),
    "spinors.regular_rep_matrix.ms": (("spinors.regular_rep_matrix",), "ms/op"),
    "spinors.algebra_center.ms": (("spinors.algebra_center",), "ms/op"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.stack: list[int] = []
        self.request = -1

    def reset(self) -> None:
        self.spans = array("q")
        self.request = -1

    def _wrap(self, name: str, fn, work, bits):
        name_id = len(self.names)
        self.names.append(name)
        stack = self.stack

        def traced(*args, **kwargs):
            spans = self.spans
            if not stack:
                self.request += 1
            span = len(spans) // WIDTH
            base = span * WIDTH
            spans.extend((name_id, self.request, stack[-1] if stack else -1, 0, 0, 0, 0))
            stack.append(span)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[base + 3] = start
                spans[base + 4] = end
            if work is not None:
                spans[base + 5] = work(args, result)
            if bits:
                spans[base + 6] = _coefficient_bits(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in each cliffalg module that binds it."""
        modules = [m for key, m in list(sys.modules.items()) if key == "cliffalg" or key.startswith("cliffalg.")]
        for module_name, attr, work, bits in TARGETS:
            original = getattr(sys.modules[f"cliffalg.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original, work, bits)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def records(self):
        spans = self.spans
        return [tuple(spans[i : i + WIDTH]) for i in range(0, len(spans), WIDTH)]

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": FIELDS, "names": self.names, "spans": self.records()}, fh)

    def metrics(self, commands: list, scales: list, output_bytes: int) -> dict:
        """Per-layer figures, averaged over the traced CLI operations.

        commands[r] is the subcommand of request r and scales[r] the factor
        that brings its times to the reference speed (see calibrate.py).  A
        time sums only the outermost spans of its names, so nested or
        recursive calls count once.
        """
        records = self.records()
        names = [self.names[r[0]] for r in records]
        requests = max(len(commands), 1)
        totals = {metric: 0 for metric in TIMED}
        metric_of = {}
        for metric, (span_names, _) in TIMED.items():
            for span_name in span_names:
                metric_of[span_name] = metric
        calls: dict = {}
        work: dict = {}
        child_time = [0] * len(records)
        max_bits = 0
        inverse_in_check = 0
        for i, (_, request, parent, start, end, amount, bits) in enumerate(records):
            name = names[i]
            calls[name] = calls.get(name, 0) + 1
            work[name] = work.get(name, 0) + amount
            max_bits = max(max_bits, bits)
            duration = (end - start) * scales[request]
            if parent >= 0:
                child_time[parent] += duration
            if name == "core_algebra.inverse" and commands[request] == "check":
                inverse_in_check += 1
            metric = metric_of.get(name)
            if metric is None:
                continue
            ancestor = parent
            while ancestor >= 0 and metric_of.get(names[ancestor]) != metric:
                ancestor = records[ancestor][2]
            if ancestor < 0:
                totals[metric] += duration
        cli_self = sum(
            (r[4] - r[3]) * scales[r[1]] - child_time[i] for i, r in enumerate(records) if names[i] == "cli.run"
        )
        checks = sum(1 for c in commands if c == "check")
        per_op = lambda value: value / requests
        out = {
            "cli.run.self_ms": (per_op(cli_self) / 1e6, "ms/op"),
            "cli.output_bytes": (per_op(output_bytes), "bytes/op"),
            "core_algebra.geometric_product.calls": (per_op(calls.get("core_algebra.geometric_product", 0)), "calls/op"),
            "core_algebra.geometric_product.term_pairs": (per_op(work.get("core_algebra.geometric_product", 0)), "pairs/op"),
            "core_algebra.inverse.calls": (per_op(calls.get("core_algebra.inverse", 0)), "calls/op"),
            "core_algebra.coeff_max_bits": (max_bits, "bits"),
            "linalg.rref.calls": (per_op(calls.get("_linalg.rref", 0)), "calls/op"),
            "linalg.rref.cells": (per_op(work.get("_linalg.rref", 0)), "cells/op"),
            "quadratic_space.reflections": (per_op(work.get("quadratic_space.cartan_dieudonne_factor", 0)), "count/op"),
            "groups.inverse_per_check": (inverse_in_check / checks if checks else 0, "calls/check"),
        }
        for metric, (_, unit) in TIMED.items():
            out[metric] = (per_op(totals[metric]) / 1e6, unit)
        return out
