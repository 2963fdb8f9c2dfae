"""Tests of the benchmark itself: failure accounting, statistics, oracles and
the metric list in BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import bench_harness as H  # noqa: E402
import bench_oracles as O  # noqa: E402
import bench_trace  # noqa: E402


def _hypertoric_case(shape=(4, 1, 3, 15)):
    import workload_hypertoric as W

    w = W.Workload(seed=5, rounds=1)
    n, k, deg, target = shape
    rows = w._matrix(random.Random(1), n, k, deg, target)
    return W.Workload._case(rows, deg)


def test_correct_case_passes():
    tally = H.Tally()
    H.run_round([_hypertoric_case()], tally)
    assert (tally.attempted, tally.failed, tally.mismatches) == (1, 0, 0)


def test_wrong_expected_value_is_a_failure(monkeypatch):
    case = _hypertoric_case()
    real = O.koszul_table
    monkeypatch.setattr(O, "koszul_table", lambda charges, top: [x + (t == 2) for t, x in enumerate(real(charges, top))])
    tally = H.Tally()
    H.run_round([case], tally)
    assert (tally.attempted, tally.failed, tally.mismatches) == (1, 1, 1)
    assert "Koszul" in tally.errors[0]


def test_wrong_product_reference_is_a_failure(monkeypatch):
    import workload_coulomb as W

    cases = W._problem_cases(*W._sample_shape(random.Random(3), (1, 2, 1, 2, 3, 13)))
    real = O.classical_product
    monkeypatch.setattr(O, "classical_product",
                        lambda *a: {k: O.pscale(v, 2) for k, v in real(*a).items()})
    tally = H.Tally()
    H.run_round(cases, tally)
    # both products, the element pulled back from the operator and the JSON round trip
    assert tally.mismatches == 4 and tally.failed == 4


def test_exception_is_a_failure_but_not_a_wrong_output():
    def boom():
        raise ZeroDivisionError("1/0")

    tally = H.Tally()
    H.run_round([H.Case("op", boom, lambda out: None)], tally)
    assert (tally.attempted, tally.failed, tally.mismatches) == (1, 1, 0)


def test_nonzero_exit_is_a_failure():
    import workload_coulomb as W

    bad = H.Case("cli_validate", lambda: W._cli(["validate", "--schema", "quiver"], {"vertices": 2, "edges": [[0, 2]]}),
                 lambda out: None)
    tally = H.Tally()
    H.run_round([bad], tally)
    assert (tally.attempted, tally.failed, tally.mismatches) == (1, 1, 0)
    assert "exited with code 2" in tally.errors[0]


def test_tail_percentile_keeps_ten_cases_beyond():
    assert H.tail_percentile(42) == 76
    assert H.tail_percentile(100) == 90
    assert H.tail_percentile(1000) == 99
    with pytest.raises(ValueError):
        H.tail_percentile(10)
    values = [float(i) for i in range(1, 101)]
    assert H.nearest_rank(values, 90) == 90.0


def test_oracles_known_values():
    assert [O.partition_number(n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert O.weyl_dimension("A2", (1, 1)) == 8
    assert O.weyl_dimension("A4", (1, 1, 1, 1)) == 1024
    assert sorted(O.weyl_dimension("G2", f) for f in ((1, 0), (0, 1))) == [7, 14]
    assert len(O.positive_roots(O.CARTAN["B3"])) == 9
    # C^2 // C^*, the A_1 surface: 1, 0, 3, 0, 5 in half-degree steps
    assert O.koszul_table([[1], [1]], 4) == [1, 0, 3, 0, 5]


def test_benchmark_json_lists_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = bench_trace.metric_units()
    assert [m["name"] for m in spec["per_layer"]] == sorted(units)
    assert all(m["unit"] == units[m["name"]] for m in spec["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "cpu_s", "case_p50_s", "case_tail_s", "peak_rss_mb"}
    import run

    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "km-batch", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
