"""Per-layer tracing installed from the benchmark's own files.

``Tracer.install`` wraps the public functions of each library module, in the
defining module and in every module that imported the name (for example
``orders.bisimulation`` and ``metric.OrderSolver``), and ``restore`` puts the
originals back. A span is (name, start, end, parent), kept in memory and
written out at the end. Hot leaf calls (``Kernel.measure``,
``Evaluator.extension``, ``Kernel`` construction) are aggregated rather than
stored one by one, and ``ensure_rate`` is only counted.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

from cml_kit import (
    cli, equivalence, formula, kernel, metric, orders, proofcheck, rational, semantics,
)
from cml_kit.harness import enumerate as enumerate_mod
from cml_kit.harness import generate, oracles, suites

# (module, attribute, span name or None for a name chosen from the call)
FUNCTIONS = (
    (formula, "parse", "formula.parse"),
    (formula, "encode_abs", "formula.encode"),
    (formula, "encode_down", "formula.encode"),
    (formula, "encode_up", "formula.encode"),
    (formula, "print_formula", "formula.print_formula"),
    (kernel, "load_kernel", "kernel.load_kernel"),
    (kernel, "disjoint_union", "kernel.disjoint_union"),
    (semantics, "eval_formula", "semantics.eval_formula"),
    (semantics, "search_model", "semantics.search_model"),
    (equivalence, "bisimulation", "equivalence.bisimulation"),
    (equivalence, "generators", None),
    (metric, "distance", "metric.distance"),
    (proofcheck, "check", "proofcheck.check"),
    (proofcheck, "translate_proof", "proofcheck.translate_proof"),
    (generate, "corpus", "harness.corpus"),
    (enumerate_mod, "enumerate_formulas", "harness.enumerate_formulas"),
    (oracles, "saturate_pairs", "harness.saturate_pairs"),
    (oracles, "transfer_plain", "harness.transfer"),
    (oracles, "transfer_essential", "harness.transfer"),
    (suites, "run_suite", None),
    (cli, "main", "cli.main"),
)
# (class, method, span name or None, aggregate only)
METHODS = (
    (kernel.Kernel, "__init__", "kernel.Kernel", True),
    (kernel.Kernel, "measure", "kernel.measure", True),
    (semantics.Evaluator, "extension", "semantics.extension", True),
    (orders.OrderSolver, "__init__", "orders.OrderSolver", False),
    (orders.OrderSolver, "family_blocks", None, False),
    (orders.OrderSolver, "plain_pairs", "orders.plain_pairs", False),
    (orders.OrderSolver, "essential_pairs", "orders.essential_pairs", False),
)
# Recursive functions whose inner calls belong to the outermost span.
FLATTEN = {"formula.encode"}

SPAN_NAMES = (
    "formula.parse", "formula.encode", "formula.print_formula",
    "kernel.Kernel", "kernel.measure", "kernel.load_kernel", "kernel.disjoint_union",
    "semantics.extension", "semantics.eval_formula", "semantics.search_model",
    "equivalence.bisimulation", "equivalence.generators", "equivalence.generators_ext",
    "orders.OrderSolver", "orders.family_blocks", "orders.family_blocks_ext",
    "orders.plain_pairs", "orders.essential_pairs",
    "metric.distance",
    "proofcheck.check", "proofcheck.translate_proof",
    "harness.corpus", "harness.enumerate_formulas", "harness.saturate_pairs",
    "harness.transfer",
    "cli.main",
)
COUNTERS = (
    "semantics.cache_hit_ratio",
    "semantics.search_model.kernels",
    "equivalence.bisimulation.rounds",
    "equivalence.bisimulation.blocks",
    "equivalence.generators.family_size",
    "equivalence.generators_ext.family_size",
    "metric.distance.probes",
    "harness.saturate_pairs.pairs",
    "harness.suites.checked",
    "rational.ensure_rate.calls",
)


def _dynamic_name(attr: str, args: tuple, kwargs: dict) -> str:
    # ``extended`` is the second positional parameter of both
    # ``generators(kernel, extended)`` and ``OrderSolver.family_blocks(self, extended)``
    if attr == "generators":
        extended = kwargs.get("extended", args[1] if len(args) > 1 else False)
        return "equivalence.generators_ext" if extended else "equivalence.generators"
    if attr == "family_blocks":
        extended = kwargs.get("extended", args[1] if len(args) > 1 else False)
        return "orders.family_blocks_ext" if extended else "orders.family_blocks"
    return f"harness.run_suite.{args[0] if args else kwargs['name']}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # stored spans, column-wise: name id, start, end, parent span index
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {c: 0 for c in COUNTERS}
        self.computes = 0
        self.plain_in_distance = 0
        # frames: [name, span index or -1, nearest stored ancestor, child time]
        self._stack: list[list] = []
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _call(self, name: str, aggregate: bool, fn, args, kwargs):
        stack = self._stack
        if name in FLATTEN and stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        parent = stack[-1] if stack else None
        anchor = (parent[1] if parent[1] >= 0 else parent[2]) if parent else -1
        index = -1
        start = perf_counter()
        if not aggregate:
            index = len(self.span_start)
            self.span_name.append(self._id(name))
            self.span_start.append(start)
            self.span_end.append(0.0)
            self.span_parent.append(anchor)
        frame = [name, index, anchor, 0.0]
        stack.append(frame)
        outermost = not self._active.get(name)
        self._active[name] = self._active.get(name, 0) + 1
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._active[name] -= 1
            elapsed = end - start
            if index >= 0:
                self.span_end[index] = end
            if parent is not None:
                parent[3] += elapsed
            self.calls[name] = self.calls.get(name, 0) + 1
            if outermost:  # inclusive time counts a recursion once
                self.total[name] = self.total.get(name, 0.0) + elapsed
            self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - frame[3]
        self._observe(name, result)
        return result

    def _observe(self, name: str, result) -> None:
        counts = self.counts
        if name == "equivalence.bisimulation":
            counts["equivalence.bisimulation.rounds"] += result.rounds
            counts["equivalence.bisimulation.blocks"] += len(result.blocks)
        elif name in ("equivalence.generators", "equivalence.generators_ext"):
            counts[name + ".family_size"] += len(result)
        elif name == "harness.saturate_pairs":
            counts["harness.saturate_pairs.pairs"] += len(result)
        elif name.startswith("harness.run_suite."):
            counts["harness.suites.checked"] += result.checked
        elif name == "kernel.Kernel" and self._active.get("semantics.search_model"):
            counts["semantics.search_model.kernels"] += 1
        elif name == "orders.plain_pairs" and self._active.get("metric.distance"):
            self.plain_in_distance += 1

    # --- installing ----------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _modules(self):
        return [m for n, m in sys.modules.items() if n == "cml_kit" or n.startswith("cml_kit.")]

    def _everywhere(self, original, wrapper) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapper)

    def install(self) -> None:
        for module, attr, name in FUNCTIONS:
            original = getattr(module, attr)
            self._everywhere(original, self._wrap(original, attr, name, False))
        for cls, attr, name, aggregate in METHODS:
            original = cls.__dict__[attr]
            self._replace(cls, attr, self._wrap(original, attr, name, aggregate))
        compute = semantics.Evaluator._compute

        def counted_compute(*args):
            self.computes += 1
            return compute(*args)

        self._replace(semantics.Evaluator, "_compute", counted_compute)
        ensure = rational.ensure_rate
        counts = self.counts

        def counted_ensure(value):
            counts["rational.ensure_rate.calls"] += 1
            return ensure(value)

        self._everywhere(ensure, counted_ensure)

    def _wrap(self, fn, attr: str, name, aggregate: bool):
        call = self._call

        def wrapper(*args, **kwargs):
            span = name or _dynamic_name(attr, args, kwargs)
            return call(span, aggregate, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        return wrapper

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- reporting -----------------------------------------------------------

    def metrics(self, suite_names) -> dict:
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.ms"] = (self.total.get(name, 0.0) * 1000, "ms")
            out[f"{name}.self_ms"] = (self.self_time.get(name, 0.0) * 1000, "ms")
        for suite in suite_names:
            name = f"harness.run_suite.{suite}"
            out[f"{name}.ms"] = (self.total.get(name, 0.0) * 1000, "ms")
            out[f"{name}.self_ms"] = (self.self_time.get(name, 0.0) * 1000, "ms")
        lookups = self.calls.get("semantics.extension", 0)
        for counter in COUNTERS:
            out[counter] = (self.counts[counter], "count")
        out["semantics.cache_hit_ratio"] = (
            (lookups - self.computes) / lookups if lookups else 0.0, "ratio")
        distances = self.calls.get("metric.distance", 0)
        out["metric.distance.probes"] = (
            self.plain_in_distance / distances if distances else 0.0, "count")
        return out

    def write_spans(self, path: str) -> int:
        """Write the stored spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps([
                    self.names[self.span_name[i]],
                    round(self.span_start[i], 9),
                    round(self.span_end[i], 9),
                    self.span_parent[i],
                ]) + "\n")
        return len(self.span_start)
