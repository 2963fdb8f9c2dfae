"""Closed-loop case runner, failure accounting and summary statistics.

A workload yields rounds; a round is a fixed list of cases.  Each case runs
one operation (one or a few library calls) and is timed alone; the next case
starts when the previous one returns.  Outputs are checked against the
reference computations only after the round, so checking never sits inside a
timed interval.

Times are reported at a reference speed of the interpreter.  On a shared
machine the speed of the same Python code drifts by tens of percent within
seconds and up to 1.7x within minutes, so a fixed calibration computation
that does not touch coulombkit is timed before and after every round, and
each time measured in the round is scaled by ``CAL_REF_S / calibration``.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from bench_oracles import Mismatch, ppow

# The calibration: a power of a four-variable polynomial with Fraction
# coefficients in the benchmark's own dict arithmetic (dict, tuple and
# big-number work, like the library's hot loops), and its median time on the
# reference machine (README, Calibration).
CAL_POLY = {(1, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): Fraction(-2, 3), (0, 0, 1, 0): Fraction(3),
            (0, 0, 0, 1): Fraction(5, 7), (0, 0, 0, 0): Fraction(1)}
CAL_POWER = 8
CAL_REF_S = 0.028


def calibrate(samples: int = 3) -> float:
    """Median wall time of the calibration computation."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        ppow(CAL_POLY, CAL_POWER, 4)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Case:
    """One operation: ``run`` makes the library calls and returns the output,
    ``check`` compares that output with a reference and raises ``Mismatch``."""

    op: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    case_s: list[float] = field(default_factory=list)  # measured, not scaled
    case_round: list[int] = field(default_factory=list)
    round_wall_s: list[float] = field(default_factory=list)
    round_cpu_s: list[float] = field(default_factory=list)
    round_scale: list[float] = field(default_factory=list)  # CAL_REF_S / calibration around the round
    ops: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def fail(self, op: str, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op}: {what}")


def run_rounds(rounds: int, make_round: Callable[[int], list[Case]], tally: Tally, tracer=None) -> None:
    """Run every round, each between two calibrations; the mean of the two
    gives the round's scale to the reference speed."""
    before = calibrate()
    for index in range(rounds):
        run_round(make_round(index), tally, tracer)
        after = calibrate()
        tally.round_scale.append(CAL_REF_S / ((before + after) / 2))
        before = after


def run_round(cases: list[Case], tally: Tally, tracer=None) -> None:
    """Run the cases in order, then check every output.  Garbage left by the
    previous round's checks is collected first, outside the timed cases."""
    gc.collect()
    index = len(tally.round_wall_s)
    outputs = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for case in cases:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.active = True
        try:
            out, err = case.run(), None
        except Exception as exc:  # a failing operation is counted, not fatal
            out, err = None, exc
        finally:
            if tracer is not None:
                tracer.active = False
        tally.case_s.append(time.perf_counter() - t0)
        tally.case_round.append(index)
        outputs.append((out, err))
    tally.round_wall_s.append(time.perf_counter() - wall0)
    tally.round_cpu_s.append(time.process_time() - cpu0)

    for case, (out, err) in zip(cases, outputs):
        tally.attempted += 1
        tally.ops[case.op] = tally.ops.get(case.op, 0) + 1
        if err is not None:
            tally.fail(case.op, "".join(traceback.format_exception_only(err)).strip())
            continue
        try:
            case.check(out)
        except Mismatch as exc:
            tally.mismatches += 1
            tally.fail(case.op, f"wrong output: {exc}")
        except Exception as exc:
            tally.fail(case.op, "check raised " + "".join(traceback.format_exception_only(exc)).strip())


def nearest_rank(values: list[float], pct: float) -> float:
    """The smallest value with at least pct percent of values at or below it."""
    ordered = sorted(values)
    k = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[k - 1]


def tail_percentile(n: int) -> float:
    """Highest whole percentile with at least ten of n cases beyond it."""
    for pct in range(99, 0, -1):
        if n - math.ceil(pct / 100 * n) >= 10:
            return float(pct)
    raise ValueError(f"{n} cases are too few for a tail with ten cases beyond it")


def summary(tally: Tally) -> dict[str, float]:
    """End-to-end times at the reference speed: each round's times scaled by
    the calibration around it."""
    scale = tally.round_scale
    cases = [t * scale[r] for t, r in zip(tally.case_s, tally.case_round)]
    return {
        "wall_s": sum(w * s for w, s in zip(tally.round_wall_s, scale)),
        "cpu_s": sum(c * s for c, s in zip(tally.round_cpu_s, scale)),
        "case_p50_s": statistics.median(cases),
        "case_tail_s": nearest_rank(cases, tail_percentile(len(cases))),
    }


def measured(tally: Tally) -> str:
    """The unscaled figures, for the log."""
    cal = [CAL_REF_S / s for s in tally.round_scale]
    return (f"measured wall {sum(tally.round_wall_s):.3f} s, cpu {sum(tally.round_cpu_s):.3f} s, "
            f"case p50 {statistics.median(tally.case_s):.6f} s; calibration {min(cal):.4f}..{max(cal):.4f} s "
            f"(reference {CAL_REF_S} s)")


def outcome(tally: Tally, metrics: dict) -> dict:
    """The object a run prints: case counts and metrics with their units."""
    return {"correct": tally.mismatches == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def with_units(values: dict[str, float]) -> dict:
    return {k: {"value": v, "unit": "MB" if k == "peak_rss_mb" else "s"} for k, v in sorted(values.items())}


def makeup(tally: Tally, queries: list | None = None) -> dict:
    """Share of each operation among the cases; given a log of the module
    keys that multiplicity queries asked about, also the share of queries
    about a module that an earlier query already asked about."""
    out = {"cases": tally.attempted, "ops": {op: n / tally.attempted for op, n in sorted(tally.ops.items())}}
    if queries:
        seen, hits = set(), 0
        for key in queries:
            hits += key in seen
            seen.add(key)
        out["memo_reuse_share"] = hits / len(queries)
    return out
