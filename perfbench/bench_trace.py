"""Traced mode: spans around the public functions of each coulombkit layer.

The tracer wraps every function in ``TRACED`` and rebinds the wrapper in each
``coulombkit`` module namespace that holds the original, so calls from one
module into another are recorded as well.  A span records its name, start,
end and parent span; spans stay in memory until the run ends.  A function's
self time is its spans' durations minus the time covered by their child
spans.  Work counts are computed from the inputs and outputs of the calls,
after the timed region.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import bench_oracles as O

TRACED = {
    "difference_ops": ["multiply", "shift_polynomial", "commutator", "specialize_hbar",
                       "poisson_from_lifts", "DifferenceOperator.from_terms"],
    "monopole": ["classical_product", "quantize", "poisson", "element_from_operator",
                 "CoulombElement.from_terms", "hilbert_series"],
    "higgs": ["invariant_hilbert", "coulomb_higgs_compare"],
    "lattices": ["smith_normal_form", "hermite_column_form", "integer_kernel", "dual_sequence"],
    "multiplicities": ["root_multiplicities", "weight_multiplicity", "weight_support", "tensor_decompose"],
    "cartan": ["in_positive_root_cone", "langlands_dual", "named_gcm"],
    "quiver": ["strata_finite", "strata_affine", "fixed_point_nonempty", "jordan_coulomb_hilbert"],
    "jsonio": ["element_to_json", "element_from_json", "operator_to_json"],
    "cli": ["validate_schema", "main"],
}
FUNCTIONS = [f"{mod}.{name}" for mod, names in TRACED.items() for name in names]
COUNTERS = [
    "difference_ops.multiply.term_pairs",
    "monopole.classical_product.term_pairs",
    "higgs.invariant_hilbert.monomials_visited",
    "higgs.invariant_hilbert.weight_zero",
    "multiplicities.weight_support.weights",
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for fn in FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.total_s"] = "s"
        units[f"{fn}.self_s"] = "s"
    for c in COUNTERS:
        units[c] = "count"
    units["higgs.invariant_hilbert.useful_ratio"] = "ratio"
    units["cli.import_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = list(FUNCTIONS)
        self.spans: list[list] = []  # [name index, start, end, parent span index or -1]
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.counters = {c: 0 for c in COUNTERS}
        self._higgs_inputs: list[tuple] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, index: int, fn):
        tracer = self
        count = self._counter(self.names[index])

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = len(tracer.spans)
            tracer.spans.append([index, time.perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1])
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[span][2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str):
        c = self.counters
        if name == "difference_ops.multiply":
            def count(args, result):
                c["difference_ops.multiply.term_pairs"] += len(args[0].terms) * len(args[1].terms)
        elif name == "monopole.classical_product":
            def count(args, result):
                c["monopole.classical_product.term_pairs"] += len(args[1].terms) * len(args[2].terms)
        elif name == "higgs.invariant_hilbert":
            def count(args, result):
                self._higgs_inputs.append((args[0].n, args[0].charges, int(2 * args[1])))
        elif name == "multiplicities.weight_support":
            def count(args, result):
                c["multiplicities.weight_support.weights"] += len(result)
        else:
            return None
        return count

    def install(self) -> None:
        modules = {mod: importlib.import_module(f"coulombkit.{mod}") for mod in TRACED}
        for index, qual in enumerate(self.names):
            mod, _, attr = qual.partition(".")
            owner = modules[mod]
            if "." in attr:  # a static method: rebind on its class
                cls_name, _, meth = attr.partition(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, staticmethod(self._wrap(index, orig.__func__)))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(index, orig)
            for name, module in list(sys.modules.items()):
                if name == "coulombkit" or name.startswith("coulombkit."):
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, key, wrapped)
                            self._restore.append((module, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # ------------------------------------------------------------ results

    def finish_counters(self) -> None:
        """Work counts that need more than the call's arguments."""
        for n, charges, top in self._higgs_inputs:
            self.counters["higgs.invariant_hilbert.monomials_visited"] += sum(
                math.comb(2 * n + t - 1, t) for t in range(top + 1))
            self.counters["higgs.invariant_hilbert.weight_zero"] += sum(O.weight_zero_counts(charges, top))
        self._higgs_inputs.clear()

    def layers(self) -> dict[str, dict[str, float]]:
        child_time = [0.0] * len(self.spans)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {fn: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for fn in FUNCTIONS}
        for (index, start, end, _), covered in zip(self.spans, child_time):
            row = out[self.names[index]]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return out

    def metrics(self, src: str) -> dict:
        self.finish_counters()
        units = metric_units()
        values: dict[str, float] = {}
        for fn, row in self.layers().items():
            for key, value in row.items():
                values[f"{fn}.{key}"] = value
        values.update(self.counters)
        visited = self.counters["higgs.invariant_hilbert.monomials_visited"]
        values["higgs.invariant_hilbert.useful_ratio"] = (
            self.counters["higgs.invariant_hilbert.weight_zero"] / visited if visited else 0.0)
        values["cli.import_s"] = cli_import_s(src)
        return {k: {"value": values[k], "unit": units[k]} for k in sorted(units)}

    def write(self, path: str, e2e: dict, untraced: dict | None, makeup: dict) -> None:
        self.finish_counters()
        layers = self.layers()
        covered = sum(row["self_s"] for row in layers.values())
        doc = {
            "traced": e2e,
            "untraced": untraced,
            "overhead_wall_s": e2e["wall_s"] - untraced["wall_s"] if untraced else None,
            "layers": layers,
            "counters": self.counters,
            "self_share_of_wall": covered / e2e["cases_wall_s"],
            "makeup": makeup,
            "spans": {"names": self.names, "rows": self.spans},
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def cli_import_s(src: str, samples: int = 3) -> float:
    """Median time to import coulombkit.cli in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import coulombkit.cli; print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)
