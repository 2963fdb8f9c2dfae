"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is imported from ``src`` in
this interpreter; only the set-up samples and, in the traced mode, the
import timings start other interpreters, one at a time.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the same case list with every listed library function
wrapped and prints the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import bench_harness as H

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = {
    "coulomb-algebra": "workload_coulomb",
    "hypertoric-duality": "workload_hypertoric",
    "km-batch": "workload_km",
}
SETUP_SAMPLES = 5


def _rounds(wl, seconds: float) -> int:
    """The case list is fixed by (seed, seconds): as many rounds as fit the
    requested time at the nominal round length, and never fewer than the
    workload's minimum."""
    return max(wl.MIN_ROUNDS, round(seconds / wl.ROUND_S))


def _setup_child(workload: str, seed: int, seconds: float) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _untraced(workload: str, seed: int) -> dict | None:
    """End-to-end values of an earlier untraced run with the same seed."""
    try:
        with open(os.path.join(OUT, f"result-{workload}-{seed}.json")) as fh:
            return {k: m["value"] for k, m in json.load(fh)["metrics"].items()}
    except (OSError, ValueError, KeyError):
        return None


def _emit(result: dict, name: str) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="measure set-up once and print it")
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "coulombkit")):
        print(f"perfbench: no library sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # set-up: from before the library import until the first case can be issued
    cal0 = H.calibrate()
    t0 = time.perf_counter()
    wl = importlib.import_module(WORKLOADS[args.workload])
    rounds = _rounds(wl, args.seconds)
    workload = wl.Workload(args.seed, rounds)
    first = workload.make_round(0)
    setup_s = time.perf_counter() - t0
    setup_s *= H.CAL_REF_S / ((cal0 + H.calibrate()) / 2)
    if args.setup_only:
        print(repr(setup_s))
        return 0

    tracer = None
    if args.trace:
        import bench_trace

        tracer = bench_trace.Tracer()
        tracer.install()
    tally = H.Tally()
    H.run_rounds(rounds, lambda index: first if index == 0 else workload.make_round(index), tally, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for err in tally.errors:
        print("perfbench: failed case:", err, file=sys.stderr)

    e2e = H.summary(tally)
    print(f"perfbench: {tally.attempted} cases, tail at p{H.tail_percentile(len(tally.case_s)):.0f}; {H.measured(tally)}",
          file=sys.stderr)
    if tracer is None:
        samples = [setup_s] + [_setup_child(args.workload, args.seed, args.seconds) for _ in range(SETUP_SAMPLES - 1)]
        e2e.update(setup_s=statistics.median(samples), peak_rss_mb=peak_rss_mb)
        _emit(H.outcome(tally, H.with_units(e2e)), f"result-{args.workload}-{args.seed}.json")
    else:
        tracer.uninstall()
        e2e["cases_wall_s"] = sum(tally.round_wall_s)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"), e2e,
                     _untraced(args.workload, args.seed), H.makeup(tally, getattr(workload, "queries", None)))
        _emit(H.outcome(tally, tracer.metrics(SRC)), f"traced-{args.workload}-{args.seed}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
