"""End-to-end CLI checks: exit codes, determinism, schema diagnostics."""

import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from coulombkit import cartan, cli, higgs, jsonio, monopole, multiplicities
from coulombkit.abelian import AbelianTheory
from coulombkit.cancel import CancellationToken
from coulombkit.cli import _render, main, validate_schema
from coulombkit.difference_ops import DifferenceOperator, multiply
from coulombkit.errors import Cancelled
from coulombkit.lattices import IntMatrix
from coulombkit.polynomial import Polynomial
from test_monopole import _box_scan


def run(capsys, argv, stdin_doc=None, monkeypatch=None, tmp_path=None):
    """Invoke the CLI with a JSON document supplied through a temp file."""
    if stdin_doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(stdin_doc))
        argv = argv + ["--input", str(path)]
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_km_mult(capsys, tmp_path):
    doc = {"cartan": "A2", "lambda": {"fund": [1, 1]}, "mu": {"fund": [0, 0]}}
    code, out, _ = run(capsys, ["km", "mult"], doc, tmp_path=tmp_path)
    assert code == 0
    assert json.loads(out) == {"multiplicity": 2}


def test_km_tensor(capsys, tmp_path):
    doc = {"cartan": "A2", "lambda1": {"fund": [1, 0]}, "lambda2": {"fund": [0, 1]}}
    code, out, _ = run(capsys, ["km", "tensor"], doc, tmp_path=tmp_path)
    assert code == 0
    assert json.loads(out) == {
        "components": [[{"fund": [0, 0]}, 1], [{"fund": [1, 1]}, 1]]
    }


def test_km_dual(capsys, tmp_path):
    code, out, _ = run(capsys, ["km", "dual"], {"cartan": "B2"}, tmp_path=tmp_path)
    assert code == 0
    assert json.loads(out)["cartan"]["matrix"] == [[2, -1], [-2, 2]]


def test_quiver_slice_trivial_v(capsys, tmp_path):
    doc = {"vertices": 1, "edges": [], "v": [0], "w": [2]}
    code, out, _ = run(capsys, ["quiver", "slice"], doc, tmp_path=tmp_path)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["lambda"] == parsed["mu"] == {"fund": [2]}


def test_quiver_slice_vertex_count_past_a_list_index_is_a_domain_error(capsys, tmp_path):
    # the default dimension vectors [0] * vertices once raised OverflowError out of main
    doc = {"vertices": 10**30 + 7}
    code, out, err = run(capsys, ["quiver", "slice", "--timeout", "1"], doc, tmp_path=tmp_path)
    assert (code, out) == (1, "")
    assert err == f"error: /vertices: {10**30 + 7} vertices are more than a list can index\n"


def test_quiver_strata_finite(capsys, tmp_path):
    doc = {"cartan": "A1", "lambda": {"fund": [2]}, "mu": {"fund": [0]}}
    code, out, _ = run(capsys, ["quiver", "strata"], doc, tmp_path=tmp_path)
    assert code == 0
    assert json.loads(out) == {"strata": [{"fund": [2]}, {"fund": [0]}]}


def test_quiver_strata_affine_requires_depth(capsys, tmp_path):
    doc = {"cartan": "A1~", "lambda": {"fund": [2, 0]}, "mu": {"fund": [2, 0], "delta": -1}}
    code, _, err = run(capsys, ["quiver", "strata"], doc, tmp_path=tmp_path)
    assert code == 1 and "--depth" in err


def test_quiver_satake(capsys, tmp_path):
    doc = {"cartan": "A1", "lambda": {"fund": [2]}, "mu": {"fund": [0]}}
    code, out, _ = run(capsys, ["quiver", "satake"], doc, tmp_path=tmp_path)
    assert code == 0
    assert json.loads(out) == {"nonempty": True, "dual_multiplicity": 1}


def test_abelian_ring_surface(capsys, tmp_path):
    doc = {
        "theory": {"rank": 1, "characters": [[1], [1]]},
        "a": {"rank": 1, "terms": [{"coweight": [1], "poly": [{"coeff": "1", "powers": [0]}]}]},
        "b": {"rank": 1, "terms": [{"coweight": [-1], "poly": [{"coeff": "1", "powers": [0]}]}]},
    }
    code, out, _ = run(capsys, ["abelian", "ring"], doc, tmp_path=tmp_path)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["result"] == "(w1**2)"
    assert parsed["element"]["terms"] == [
        {"coweight": [0], "poly": [{"coeff": "1", "powers": [2]}]}
    ]


def test_abelian_quantize_and_poisson(capsys, tmp_path):
    theory = {"rank": 1, "characters": [[1], [1], [1]]}
    x = {"rank": 1, "terms": [{"coweight": [1], "poly": [{"coeff": "1", "powers": [0]}]}]}
    y = {"rank": 1, "terms": [{"coweight": [-1], "poly": [{"coeff": "1", "powers": [0]}]}]}
    code, out, _ = run(
        capsys, ["abelian", "quantize"], {"theory": theory, "element": x}, tmp_path=tmp_path
    )
    assert code == 0
    assert json.loads(out)["operator"]["terms"] == [
        {"coweight": [1], "poly": [{"coeff": "1", "powers": [3, 0]}]}
    ]
    code, out, _ = run(
        capsys, ["abelian", "poisson"], {"theory": theory, "a": x, "b": y}, tmp_path=tmp_path
    )
    assert code == 0
    assert json.loads(out)["element"]["terms"] == [
        {"coweight": [0], "poly": [{"coeff": "3", "powers": [2]}]}
    ]


def test_abelian_hilbert(capsys, tmp_path):
    doc = {"rank": 1, "characters": [[1], [1]]}
    code, out, _ = run(capsys, ["abelian", "hilbert", "--max-deg", "2"], doc, tmp_path=tmp_path)
    assert code == 0
    assert json.loads(out) == {"dimensions": [["0", 1], ["1/2", 0], ["1", 3], ["3/2", 0], ["2", 5]]}


def test_hypertoric_compare_verdicts(capsys, tmp_path):
    code, out, _ = run(
        capsys, ["hypertoric", "compare", "--max-deg", "2"], [[1], [1]], tmp_path=tmp_path
    )
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_hypertoric_compare_prints_a_false_verdict_and_exits_2(capsys, tmp_path, monkeypatch):
    # a dual sequence that spans no kernel of a^T: the report is printed on one line, verdict false
    monkeypatch.setattr(higgs, "dual_sequence", lambda a: IntMatrix.from_rows([[2], [1]]))
    code, out, err = run(capsys, ["hypertoric", "compare", "--max-deg", "2"], [[1], [1]], tmp_path=tmp_path)
    assert (code, err, out.count("\n")) == (2, "", 1)
    assert json.loads(out) == {
        "coulomb": [["0", 1], ["1/2", 0], ["1", 3], ["3/2", 0], ["2", 5]],
        "equal_up_to": "2",
        "higgs": [["0", 1], ["1/2", 0], ["1", 1], ["3/2", 2], ["2", 1]],
        "verdict": False,
    }


def test_jordan_hilbert(capsys, tmp_path):
    code, out, _ = run(
        capsys, ["jordan", "hilbert", "--max-deg", "3"], {"n": 1, "ell": 2}, tmp_path=tmp_path
    )
    assert code == 0
    parsed = json.loads(out)
    assert [d for _, d in parsed["dimensions"]] == [1, 0, 3, 0, 5, 0, 7]


def run_traced(capsys, argv, stdin_doc, tmp_path):
    """``run`` under tracemalloc, followed by the peak it traced."""
    tracemalloc.start()
    try:
        return *run(capsys, argv, stdin_doc, tmp_path=tmp_path), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MAX_DEG_COMMANDS = [
    (["abelian", "hilbert"], {"rank": 1, "characters": [[1], [1]]}),
    (["hypertoric", "compare"], [[1], [1]]),
    (["jordan", "hilbert"], {"n": 1, "ell": 2}),
]


@pytest.mark.parametrize("command, doc", MAX_DEG_COMMANDS)
@pytest.mark.parametrize("max_deg", ["1e400", "4611686018427387903.5", "1e20000000"])
def test_max_deg_beyond_an_index_is_an_input_error(capsys, tmp_path, command, doc, max_deg):
    # 2 * max_deg + 1 table slots must fit sys.maxsize; the second value is
    # the first half-integer past it on a 64-bit build, and the last is refused
    # without building 10^20000000, which alone takes 8.3 MB
    code, out, err, peak = run_traced(capsys, command + ["--max-deg", max_deg], doc, tmp_path)
    assert code == 1 and out == ""
    assert err.startswith("--max-deg: too large") and peak < 2 * 2**20


@pytest.mark.parametrize("command, doc", MAX_DEG_COMMANDS)
@pytest.mark.parametrize("max_deg", ["x", "-1", "1/3", "1/0", "inf", "nan", "1e-20000000"])
def test_a_max_deg_that_is_no_half_integer_is_worded_by_the_library(capsys, tmp_path, command, doc, max_deg):
    # the flag is read once, by abelian.top_half_degree; "1/0" was worded "--max-deg: Fraction(1, 0)",
    # and 10^-20000000 is no half-integer however far its exponent runs
    code, out, err, peak = run_traced(capsys, command + [f"--max-deg={max_deg}"], doc, tmp_path)
    assert (code, out, err) == (1, "", f"--max-deg: max_deg must be a non-negative half-integer, not {max_deg}\n")
    assert peak < 2 * 2**20


@pytest.mark.parametrize("command, doc", MAX_DEG_COMMANDS)
@pytest.mark.parametrize("max_deg, value", [("0e-20000000", "0"), ("5e-1", "1/2"), ("1e2", "100")])
def test_a_max_deg_with_an_exponent_answers_like_its_value(capsys, tmp_path, command, doc, max_deg, value):
    # a zero mantissa reads as 0 whatever its exponent, and no power of ten is built for it
    code, out, err, peak = run_traced(capsys, command + ["--max-deg", max_deg], doc, tmp_path)
    assert (code, out, err) == run(capsys, command + ["--max-deg", value], doc, tmp_path=tmp_path)
    assert code == 0 and peak < 2 * 2**20


@pytest.mark.parametrize("matrix", [[[1], [1], [1]], [[1, 0], [0, 1], [1, 1], [1, -1]]], ids=["rank1", "rank2"])
@pytest.mark.parametrize("max_deg", ["7/2", "12"])
def test_hypertoric_compare_writes_its_tables_from_the_dimension_lists(capsys, tmp_path, matrix, max_deg):
    # each table is written as _table_from_dims writes the report's list, which is the
    # report's Fraction-keyed table in degree order, each degree as "n" or "n/d"
    report = higgs.coulomb_higgs_compare(IntMatrix.from_rows(matrix), max_deg)
    tables = {side: cli._table_from_dims(list(getattr(report, side).values())) for side in ("coulomb", "higgs")}
    for side, table in tables.items():
        assert table == [[jsonio.fraction_str(deg), dim] for deg, dim in sorted(getattr(report, side).items())]
    code, out, err = run(capsys, ["hypertoric", "compare", "--max-deg", max_deg], matrix, tmp_path=tmp_path)
    assert (code, err, json.loads(out)) == (0, "", {**tables, "equal_up_to": max_deg, "verdict": True})
    code, out, err = run(capsys, ["hypertoric", "compare", "--max-deg", max_deg, "--format", "table"],
                         matrix, tmp_path=tmp_path)
    rows = {side: [f"  {deg}\t{dim}" for deg, dim in table] for side, table in tables.items()}
    lines = ["coulomb:", *rows["coulomb"], f'equal_up_to: "{max_deg}"', "higgs:", *rows["higgs"], "verdict: true"]
    assert (code, err, out) == (0, "", "\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "command, doc, max_deg",
    [
        (["abelian", "hilbert"], {"rank": 1, "characters": [[1], [1]]}, "100000"),
        (["hypertoric", "compare"], [[1], [1]], "100000"),
        (["jordan", "hilbert"], {"n": 2, "ell": 1}, "300"),
        (["abelian", "hilbert"], {"rank": 1, "characters": [[2], [2]]}, "100000"),
    ],
)
def test_huge_max_deg_times_out_before_allocating(capsys, tmp_path, command, doc, max_deg):
    # degree tables grow one half-degree at a time under the token
    tracemalloc.start()
    try:
        code, out, err = run(capsys, command + ["--max-deg", max_deg, "--timeout", "0"], doc, tmp_path=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == "" and "cancelled" in err
    assert peak < 2 * 2**20


def test_jordan_hilbert_huge_n(capsys, tmp_path):
    # in degree d a multiset holds at most 2d monomials other than 1
    outs = [run(capsys, ["jordan", "hilbert", "--max-deg", "2"], {"n": n, "ell": 1}, tmp_path=tmp_path)
            for n in (4, 10**12)]
    assert outs[0] == outs[1] and outs[0][0] == 0


RANK_ZERO = {"lambda": {"fund": []}, "mu": {"fund": []}, "lambda1": {"fund": []}, "lambda2": {"fund": []}}


@pytest.mark.parametrize("cartan", [[], {"matrix": []}], ids=["list", "matrix"])
@pytest.mark.parametrize(
    "argv, want",
    [
        (["km", "mult"], {"multiplicity": 1}),
        (["km", "tensor"], {"components": [[{"fund": []}, 1]]}),
        (["km", "dual"], {"cartan": {"matrix": [], "symmetrizers": [], "tag": "finite"}}),
        (["quiver", "satake"], {"nonempty": True, "dual_multiplicity": 1}),
        (["quiver", "strata"], {"strata": [{"fund": []}]}),
    ],
    ids=["km-mult", "km-tensor", "km-dual", "quiver-satake", "quiver-strata"],
)
def test_rank_zero_cartan_datum(capsys, tmp_path, argv, want, cartan):
    # the empty diagonal of the Smith form used to end in "max() arg is an empty sequence"
    code, out, err = run(capsys, argv, {"cartan": cartan, **RANK_ZERO}, tmp_path=tmp_path)
    assert (code, err) == (0, "") and json.loads(out) == want


LEAF_FLAGS = {
    ("km", "mult"): (),
    ("km", "tensor"): (),
    ("km", "dual"): (),
    ("quiver", "slice"): (),
    ("quiver", "strata"): ("--depth",),
    ("quiver", "satake"): (),
    ("abelian", "ring"): (),
    ("abelian", "quantize"): (),
    ("abelian", "poisson"): (),
    ("abelian", "hilbert"): ("--max-deg",),
    ("hypertoric", "compare"): ("--max-deg",),
    ("jordan", "hilbert"): ("--max-deg",),
    ("validate",): ("--schema",),
}


@pytest.mark.parametrize(
    "leaf, flag",
    [(leaf, flag) for leaf, read in LEAF_FLAGS.items() for flag in ("--max-deg", "--depth", "--schema") if flag not in read],
    ids=lambda v: "-".join(v).replace("--", "") if isinstance(v, tuple) else v.lstrip("-"),
)
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, leaf, flag):
    # these flags used to be accepted by every subcommand and silently ignored
    assert main([*leaf, flag, "1", "--timeout", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {flag} 1" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["km", "mult", "--bogus"], 1),
        ([], 1),
        (["km"], 1),
        (["km", "mult", "--depth", "x"], 1),
        (["--help"], 0),
        (["km", "mult", "--help"], 0),
    ],
)
def test_usage_errors_are_malformed_input(capsys, argv, code):
    # exit 2 means a verification mismatch, so argparse's own 2 becomes 1
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and "error:" in err
    else:
        assert out.startswith("usage:") and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        [], ["km"], ["--help"], ["km", "mult", "-h"], ["km", "mult", "--bogus"], ["abelian", "ring", "x"],
        ["abelian", "ring", "--format", "xml"], ["validate"], ["validate", "--schema"],
        ["quiver", "strata", "--depth", "x"], ["jordan", "hilbert", "--max-deg", "2", "--format", "table"],
        ["validate", "--schema", "quiver", "--timeout", "5"], ["km", "mult", "--", "x"], ["km", "mult", "--"],
        ["jordan", "hilbert", "--max=2", "--time", "5"], ["validate", "-h", "--schema", "quiver"],
    ],
)
def test_a_leaf_parser_answers_as_the_whole_tree(capsys, monkeypatch, argv):
    # main reads argv that names a leaf with that leaf's parser: no leaf must answer the same bytes
    answers = []
    for leaves in (True, False):
        if not leaves:
            parser, _ = cli._build_parser()
            monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
        monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 1, "ell": 2, "vertices": 3}'))
        code = main(list(argv))
        answers.append((code, *capsys.readouterr()))
    assert answers[0] == answers[1]
    assert answers[0][0] in (0, 1, 2)


@pytest.mark.parametrize("doc", [{"n": True, "ell": 2}, {"n": 1, "ell": True}])
def test_jordan_hilbert_rejects_bools(capsys, tmp_path, doc):
    code, out, err = run(capsys, ["jordan", "hilbert", "--max-deg", "2"], doc, tmp_path=tmp_path)
    assert (code, out, err) == (1, "", "/n, /ell: must be integers\n")


def test_jordan_hilbert_negative_ell(capsys, tmp_path):
    code, out, err = run(
        capsys, ["jordan", "hilbert", "--max-deg", "2"], {"n": 1, "ell": -3}, tmp_path=tmp_path
    )
    assert (code, out, err) == (1, "", "error: ell must be positive, got -3\n")
    _, _, err = run(
        capsys, ["jordan", "hilbert", "--max-deg", "2"], {"n": 1, "ell": 0}, tmp_path=tmp_path
    )
    assert err == "error: the grading degenerates for ell = 0\n"


def test_validate_ok_and_violations(capsys, tmp_path):
    good = {"vertices": 2, "edges": [[0, 1]], "v": [1, 1], "w": [0, 0]}
    code, out, _ = run(capsys, ["validate", "--schema", "quiver"], good, tmp_path=tmp_path)
    assert code == 0 and json.loads(out) == {"diagnostics": []}

    bad = {"vertices": 2, "edges": [[0, 1]], "v": [-1, 1], "w": [0, 0]}
    code, out, _ = run(capsys, ["validate", "--schema", "quiver"], bad, tmp_path=tmp_path)
    assert code == 2
    diag = json.loads(out)["diagnostics"]
    assert len(diag) == 1 and diag[0].startswith("/v/0")

    out_of_range = {"vertices": 2, "edges": [[0, 2]]}
    diags = validate_schema(out_of_range, "quiver")
    assert diags == ["/edges/0/1: vertex index out of range"]


def test_a_theory_that_carries_names_is_refused(capsys, tmp_path):
    # nothing reads names, so the theory schema has no such property
    doc = {"rank": 1, "characters": [[1]], "names": ["q"]}
    diag = "/: Additional properties are not allowed ('names' was unexpected)"
    assert run(capsys, ["abelian", "hilbert", "--max-deg", "1"], doc, tmp_path=tmp_path) == (1, "", diag + "\n")
    code, out, _ = run(capsys, ["validate", "--schema", "theory"], doc, tmp_path=tmp_path)
    assert (code, json.loads(out)) == (2, {"diagnostics": [diag]})


def test_malformed_input_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("not json")
    code = main(["km", "mult", "--input", str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and "invalid JSON" in err

    missing = tmp_path / "missing.json"
    code = main(["km", "mult", "--input", str(missing)])
    _, err = capsys.readouterr()
    assert code == 1 and "cannot read" in err


NESTED = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize(
    "argv, text",
    [
        (["validate", "--schema", "matrix"], NESTED),
        (["km", "mult"], '{"cartan": %s, "lambda": [1, 1], "mu": [0, 0]}' % NESTED),
    ],
    ids=["validate", "km-mult"],
)
def test_json_nested_past_the_recursion_limit_is_invalid_json(capsys, tmp_path, argv, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code = main(argv + ["--input", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("invalid JSON: maximum recursion depth exceeded")


def test_json_nested_just_under_the_recursion_limit_is_an_input_error(capsys, monkeypatch):
    # the ten deepest documents that parse, answered as follows by each command
    for argv, wrap, answers in [
        # the document is worded at its root, no deeper than it was parsed, so each one that parses is answered
        (["validate", "--schema", "matrix"], "%s", {(2, "is not valid under any of the given schemas")}),
        (["hypertoric", "compare", "--max-deg", "1"], "%s", {(1, "is not valid under any of the given schemas")}),
        # the part worded sits a few calls deeper than the parser: the deepest documents that parse meet the limit
        (["km", "mult"], '{"cartan": %s, "lambda": [1, 1], "mu": [0, 0]}',
         {(1, "input nested too deeply"), (1, "is not valid under any of the given schemas")}),
    ]:
        depth, parsed, seen = sys.getrecursionlimit(), 0, set()
        while parsed < 10:
            monkeypatch.setattr("sys.stdin", io.StringIO(wrap % ("[" * depth + "]" * depth)))
            code = main(argv)
            out, err = capsys.readouterr()
            depth -= 1
            if not err.startswith("invalid JSON"):
                parsed += 1
                text = err if code == 1 else json.loads(out)["diagnostics"][0]
                seen |= {(c, a) for c, a in answers if c == code and a in text} or {(code, text[-60:])}
        assert seen == answers, argv


@pytest.mark.parametrize(
    "name", ["element.schema.json/x", "../schemas/element", "element.schema.json", "", "nope"]
)
def test_validate_takes_only_shipped_schema_names(capsys, tmp_path, name):
    # a name is not a path: these used to escape as NotADirectoryError or read ../ files
    code, out, err = run(capsys, ["validate", "--schema", name], {}, tmp_path=tmp_path)
    assert (code, out, err) == (1, "", f"unknown schema: {name!r}\n")


@pytest.mark.parametrize(
    "timeout", [["--timeout", "nan"], ["--timeout", "NaN"], ["--timeout=-nan"]], ids=["nan", "NaN", "-nan"]
)
def test_nan_timeout_is_rejected(capsys, tmp_path, timeout):
    doc = {"cartan": "A2", "lambda": {"fund": [1, 1]}, "mu": {"fund": [0, 0]}}
    code, out, err = run(capsys, ["km", "mult", *timeout], doc, tmp_path=tmp_path)
    assert (code, out, err) == (1, "", "error: timeout must be a number of seconds, not nan\n")
    code, out, _ = run(capsys, ["km", "mult", "--timeout", "inf"], doc, tmp_path=tmp_path)
    assert code == 0 and json.loads(out) == {"multiplicity": 2}


def test_timeout_exit_code(capsys, tmp_path):
    doc = {
        "cartan": "A1~",
        "lambda": {"fund": [6, 6]},
        "mu": {"fund": [6, 6], "delta": -8},
    }
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(doc))
    code = main(
        ["quiver", "strata", "--input", str(path), "--depth", "8", "--timeout", "0.0001"]
    )
    _, err = capsys.readouterr()
    assert code == 3 and "cancelled" in err


def test_timeout_zero_is_a_deadline(capsys, tmp_path):
    rank_three = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    code, _, err = run(
        capsys,
        ["hypertoric", "compare", "--max-deg", "4", "--timeout", "0"],
        rank_three,
        tmp_path=tmp_path,
    )
    assert code == 3 and "cancelled" in err


@pytest.mark.parametrize("command", ["ring", "quantize", "poisson"])
def test_abelian_products_honour_timeout(capsys, tmp_path, command):
    two_terms = {
        "rank": 1,
        "terms": [
            {"coweight": [1], "poly": [{"coeff": "1", "powers": [1]}]},
            {"coweight": [-1], "poly": [{"coeff": "1/2", "powers": [0]}]},
        ],
    }
    keys = ("element",) if command == "quantize" else ("a", "b")
    doc = {"theory": {"rank": 1, "characters": [[1], [1]]}, **{k: two_terms for k in keys}}
    code, out, err = run(capsys, ["abelian", command, "--timeout", "0"], doc, tmp_path=tmp_path)
    assert code == 3 and out == "" and "cancelled" in err
    code, _, _ = run(capsys, ["abelian", command], doc, tmp_path=tmp_path)
    assert code == 0


@pytest.mark.parametrize(
    "command, doc",
    [
        (["km", "mult"], {"cartan": "A2", "lambda": {"fund": [2, 2]}, "mu": {"fund": [0, 0]}}),
        (["km", "tensor"], {"cartan": "A2", "lambda1": {"fund": [2, 1]}, "lambda2": {"fund": [1, 1]}}),
        (["quiver", "satake"], {"cartan": "B2", "lambda": {"fund": [2, 1]}, "mu": {"fund": [0, 1]}}),
        # no loop work at all: the weight listing reads the deadline for lam itself (this exited 0)
        (["km", "tensor"], {"cartan": [], "lambda1": {"fund": []}, "lambda2": {"fund": []}}),
        # the dominant interval and the dual datum read the deadline once per call (these exited 0)
        (["quiver", "strata"], {"cartan": [], "lambda": {"fund": []}, "mu": {"fund": []}}),
        (["quiver", "satake"], {"cartan": [], "lambda": {"fund": []}, "mu": {"fund": []}}),
        (["km", "dual"], {"cartan": []}),
    ],
)
def test_km_queries_honour_timeout(capsys, tmp_path, command, doc):
    # Freudenthal tables and dual data are shared by the whole process: start from empty ones
    multiplicities._freudenthal.cache_clear()
    multiplicities._root_table.cache_clear()
    cartan.langlands_dual.cache_clear()
    code, out, err = run(capsys, command + ["--timeout", "0"], doc, tmp_path=tmp_path)
    assert code == 3 and out == "" and "cancelled" in err
    code, _, _ = run(capsys, command, doc, tmp_path=tmp_path)
    assert code == 0


def test_a_theory_refused_by_its_shape_still_reads_the_deadline(capsys, tmp_path):
    # no characters for rank 2: one deadline check comes before the refusal (this exited 1 at --timeout 0)
    doc = {"rank": 2, "characters": []}
    code, out, err = run(capsys, ["abelian", "hilbert", "--max-deg", "2", "--timeout", "0"], doc, tmp_path=tmp_path)
    assert code == 3 and out == "" and "cancelled" in err
    code, out, err = run(capsys, ["abelian", "hilbert", "--max-deg", "2"], doc, tmp_path=tmp_path)
    assert code == 1 and out == "" and "unbounded degree-0 piece" in err


def _assert_deep_affine_query_times_out_before_allocating(capsys, tmp_path, depth):
    # lam - depth delta on the A1~ basic module: the token is checked before the
    # tables grow, not after the query has allocated its whole search region
    multiplicities._freudenthal.cache_clear()
    multiplicities._root_table.cache_clear()
    doc = {"cartan": "A1~", "lambda": {"fund": [1, 0]}, "mu": {"fund": [1, 0], "delta": -depth}}
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["km", "mult", "--timeout", "0"], doc, tmp_path=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == "" and "cancelled" in err
    assert peak < 2 * 2**20


def test_km_mult_deep_affine_query_times_out_before_allocating(capsys, tmp_path):
    _assert_deep_affine_query_times_out_before_allocating(capsys, tmp_path, 500)


def test_km_mult_deeper_affine_query_times_out_before_allocating(capsys, tmp_path):
    # Peterson's lcm(1, ..., h) for every h up to 2 * 5000 would take ~9 MB:
    # they are built one layer at a time, after the token is checked
    _assert_deep_affine_query_times_out_before_allocating(capsys, tmp_path, 5000)


# a smallest-pivot Smith loop with no Hermite reduction grows the entries of this theory's
# transforms past six digits and never finishes
SMITH_GROWTH_DOC = {"rank": 4, "characters": [[0, -2, 0, 2], [2, -1, -2, 0], [-2, 2, 1, 2], [-2, 2, -1, -2],
                                              [1, 2, 0, -1], [1, -2, -1, -1], [0, 1, 0, 1], [0, -2, -2, -1]]}


def _abelian_hilbert_subprocess(*flags):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-m", "coulombkit.cli", "abelian", "hilbert", *flags],
        input=json.dumps(SMITH_GROWTH_DOC), env=env, capture_output=True, text=True, timeout=30,
    )


def test_abelian_hilbert_finishes_where_smith_entries_grew():
    start = time.monotonic()
    proc = _abelian_hilbert_subprocess("--max-deg", "2", "--timeout", "20")
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    dims = [d for _, d in json.loads(proc.stdout)["dimensions"]]
    assert dims == [1, 0, 4, 0, 10]
    assert dims == _box_scan(AbelianTheory.of(SMITH_GROWTH_DOC["rank"], SMITH_GROWTH_DOC["characters"]), 2)
    assert elapsed < 2


def test_abelian_hilbert_smith_form_honours_timeout():
    proc = _abelian_hilbert_subprocess("--max-deg", "2", "--timeout", "0")
    assert (proc.returncode, proc.stdout) == (3, "") and "cancelled" in proc.stderr


_N = 400
_TYPE_A_400 = [[2 if i == j else -(abs(i - j) == 1) for j in range(_N)] for i in range(_N)]


@pytest.mark.parametrize("command, doc, timeout, slack", [
    # validating the matrix took 2 s and its Smith pass 3.6 s, neither under the token,
    # so --timeout 0.5 once exited 0 after 6.5 s
    (["km", "mult"], {"cartan": _TYPE_A_400, "lambda": {"fund": [1] + [0] * (_N - 1)},
                      "mu": {"fund": [1] + [0] * (_N - 1)}}, 0.5, 1),
    # a slice that runs for over three times its deadline (0.64-0.84 s untimed at 20000 vertices);
    # one dense Bareiss step ran between two checks, so at --timeout 3 the 3000-vertex slice
    # exited only after 3.56 s
    (["quiver", "slice"], {"vertices": 20000, "edges": [[i, i + 1] for i in range(19999)],
                           "v": [1] * 20000, "w": [2] + [0] * 19999}, 0.15, 0.5),
    # building the 3000 x 3000 matrix and its integer conversion and axiom loop took no
    # token, so at --timeout 0.5 this exited 3 only after 2.3 s; a quiver's datum now costs its
    # edges, so the quiver grew to keep the untimed run past three times the deadline (the id
    # keeps the size the case was written for)
    (["quiver", "slice"], {"vertices": 20000, "edges": [[i, i + 1] for i in range(19999)]}, 0.15, 1),
], ids=["km-mult", "quiver-slice", "quiver-slice-3000"])
def test_timeout_covers_the_cartan_preparation(command, doc, timeout, slack):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "coulombkit.cli", *command, "--timeout", str(timeout)],
        input=json.dumps(doc), env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert (proc.returncode, proc.stdout) == (3, "") and proc.stderr.startswith("cancelled: ")
    assert elapsed < timeout + slack


@pytest.mark.parametrize("command, doc", [
    (["abelian", "hilbert"], {"rank": 1, "characters": [[1], [1], [1]]}),
    (["hypertoric", "compare"], [[1], [1], [1]]),
], ids=["abelian-hilbert", "hypertoric-compare"])
def test_timeout_reaches_inside_the_koszul_count(command, doc):
    # untimed, max-deg 100000 takes 2.5 s (abelian hilbert) and 4.4 s (hypertoric compare);
    # the count checks the deadline before each move and each output degree
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "coulombkit.cli", *command, "--max-deg", "100000", "--timeout", "0.5"],
        input=json.dumps(doc), env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("cancelled: ") and proc.stderr.count("\n") == 1
    assert elapsed < 1.5


def test_timeout_reaches_inside_the_jordan_newton_sums():
    # degree 0 alone runs sum_j j Newton steps over the 20001 rows it allocated before one
    # check, so this was still running after 40 s; rows now grow under a check each
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "coulombkit.cli", "jordan", "hilbert", "--max-deg", "20000", "--timeout", "0.5"],
        input=json.dumps({"n": 20000, "ell": 1}), env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("cancelled: ") and proc.stderr.count("\n") == 1
    assert elapsed < 1.5


@pytest.mark.parametrize(
    "doc, depth",
    [
        # A_n with lambda = k rho and mu = 0: untimed, A6 5rho takes 3.4 s and A9 2rho 7.3 s cold
        ({"cartan": "A6", "lambda": {"fund": [5] * 6}, "mu": {"fund": [0] * 6}}, None),
        ({"cartan": "A9", "lambda": {"fund": [2] * 9}, "mu": {"fund": [0] * 9}}, None),
        # Lambda_0 down to Lambda_0 - 30 delta on A1~: 138,000 (kappa, partition) pairs, 5.0 s cold
        ({"cartan": "A1~", "lambda": {"fund": [1, 0]}, "mu": {"fund": [1, 0], "delta": -30}}, 30),
    ],
    ids=["A6-5rho", "A9-2rho", "A1~-depth-30"],
)
def test_quiver_strata_meets_its_deadline(doc, depth):
    # converting 138,000 strata to JSON takes about 0.5 s, so the conversion checks the deadline too
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["quiver", "strata", "--timeout", "0.5"] + (["--depth", str(depth)] if depth else [])
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "coulombkit.cli", *argv],
        input=json.dumps(doc), env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("cancelled: ") and proc.stderr.count("\n") == 1
    assert elapsed < 1.5


@pytest.mark.parametrize(
    "command, doc",
    [
        # A6 with lambda1 = lambda2 = 2 rho: 64 s untimed
        (["km", "tensor"], lambda: {"cartan": "A6", "lambda1": {"fund": [2] * 6}, "lambda2": {"fund": [2] * 6}}),
        # the dual multiplicity of A6 2rho at mu = 0: 9.2 s untimed
        (["quiver", "satake"], lambda: {"cartan": "A6", "lambda": {"fund": [2] * 6}, "mu": {"fund": [0] * 6}}),
        # a dense indefinite 1500 x 1500 matrix, -1 off the diagonal: 12 s untimed
        (["km", "dual"], lambda: {"cartan": [[2 if i == j else -1 for j in range(1500)] for i in range(1500)]}),
        # the multiplicity of A6 2rho at mu = 0: 8.7 s untimed
        (["km", "mult"], lambda: {"cartan": "A6", "lambda": {"fund": [2] * 6}, "mu": {"fund": [0] * 6}}),
        # the multiplicity of A8 rho at mu = 0: 79 s untimed
        (["km", "mult"], lambda: {"cartan": "A8", "lambda": {"fund": [1] * 8}, "mu": {"fund": [0] * 8}}),
    ],
    ids=["km-tensor", "quiver-satake", "km-dual", "km-mult-A6", "km-mult-A8"],
)
def test_kac_moody_queries_meet_their_deadline(command, doc):
    # the document is encoded before the clock starts: the matrix is 7 MB of JSON
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    text = json.dumps(doc())
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "coulombkit.cli", *command, "--timeout", "0.5"],
        input=text, env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("cancelled: ") and proc.stderr.count("\n") == 1
    assert elapsed < 1.5


def _linear_quiver(n):
    return {"vertices": n, "edges": [[i, i + 1] for i in range(n - 1)], "v": [1] * n, "w": [2] + [0] * (n - 1)}


@pytest.mark.parametrize(
    "command, n, timeout",
    [
        # untimed: 1.0–1.1 s for the 10^5-vertex slice and 0.6–0.7 s to validate 3 * 10^5 vertices, which
        # took 2.6–3.8 s while the schema was interpreted afresh at every value and met a 0.5 s deadline
        (["quiver", "slice"], 100000, "0.5"),
        (["validate", "--schema", "quiver"], 300000, "0.1"),
    ],
    ids=["quiver-slice", "validate-quiver"],
)
def test_linear_quiver_commands_meet_their_deadline(command, n, timeout):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    text = json.dumps(_linear_quiver(n))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "coulombkit.cli", *command, "--timeout", timeout],
        input=text, env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("cancelled: ") and proc.stderr.count("\n") == 1
    assert elapsed < 1.5


def _quiver_slice_under_1_5_gb(doc):
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-m", "coulombkit.cli", "quiver", "slice"],
        input=json.dumps(doc), env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=cap_address_space,
    )


def test_running_out_of_memory_is_exit_3_without_a_traceback():
    # the default dimension vectors of 10^8 vertices, 10^8 zeros each, do not fit; a MemoryError
    # once ended in a traceback (the 10^5-vertex quiver that showed it now fits)
    proc = _quiver_slice_under_1_5_gb({"vertices": 10**8, "edges": []})
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("out of memory: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_edgeless_100000_vertex_slice_fits_and_answers():
    # a quiver's datum holds only the nonzeros counted off its edges; the dense 10^5 x 10^5
    # Cartan matrix it once built ran out of memory under this cap
    start = time.monotonic()
    proc = _quiver_slice_under_1_5_gb({"vertices": 100000, "edges": []})
    elapsed = time.monotonic() - start
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    out = json.loads(proc.stdout)
    assert out["lambda"] == out["mu"] == {"fund": [0] * 100000} and out["mu_dominant"] is True
    assert elapsed < 5


def _one_term(lam):
    return {"rank": len(lam), "terms": [{"coweight": lam, "poly": [{"coeff": "1", "powers": [0] * len(lam)}]}]}


def test_timeout_zero_still_answers_a_zero_product(capsys, tmp_path):
    # no term pair, so no deadline is checked, and printing "0" is no work
    doc = {"theory": {"rank": 1, "characters": [[1]]}, "a": {"rank": 1, "terms": []}, "b": _one_term([1])}
    code, out, _ = run(capsys, ["abelian", "ring", "--timeout", "0"], doc, tmp_path=tmp_path)
    assert code == 0 and json.loads(out)["result"] == "0"


def test_timeout_covers_printing_a_large_result():
    # one term pair whose product (w1 + ... + w12)^7 has 31,824 terms: a 10 MB result that
    # took 1.7 s to compute and print, and once exited 0 past a 0.2 s deadline
    rank = 12
    doc = {"theory": {"rank": rank, "characters": [[1] * rank]},
           "a": _one_term([7] + [0] * (rank - 1)), "b": _one_term([-14] + [0] * (rank - 1))}
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "coulombkit.cli", "abelian", "ring", "--timeout", "0.2"],
        input=json.dumps(doc), env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("cancelled: ")


def test_printing_checks_the_deadline_only_past_4096_chunks():
    expired = CancellationToken(0)
    small = {"dimensions": [[str(d), d] for d in range(100)]}
    with expired:
        assert _render(small, "json") == json.dumps(small, indent=2, sort_keys=True)
    large = {"dimensions": [[str(d), d] for d in range(2000)]}
    assert _render(large, "json") == json.dumps(large, indent=2, sort_keys=True)
    with pytest.raises(Cancelled), expired:
        _render(large, "json")


@pytest.mark.parametrize(
    "command, doc",
    [
        ("quantize", {"theory": {"rank": 1, "characters": [[1]]}, "element": _one_term([100000])}),
        # one term pair whose bracket builds (w1 + w2)^2999 one linear factor at a time
        ("poisson", {"theory": {"rank": 2, "characters": [[1, 1]]},
                     "a": _one_term([3000, 0]), "b": _one_term([-3000, 0])}),
        ("ring", {"theory": {"rank": 2, "characters": [[1, 1]]},
                  "a": _one_term([20000, 0]), "b": _one_term([-20000, 0])}),
    ],
    ids=["quantize_dressing", "poisson_shift", "ring_dressing_power"],
)
def test_abelian_timeout_reaches_inside_one_term(command, doc):
    # one term pair whose dressing has tens of thousands of linear factors: the
    # token is checked per factor and per shifted monomial, not per term pair
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "coulombkit.cli", "abelian", command, "--timeout", "1"],
        input=json.dumps(doc), env=env, capture_output=True, text=True, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (3, "") and "cancelled" in proc.stderr
    assert time.monotonic() - start < 10


def test_rank_12_ring_checks_the_deadline_in_its_last_factor_and_its_printing():
    # abelian ring --timeout 0.2 on rank 12, character (1, ..., 1), a = r^(7 e1) and b = r^(-14 e1)
    # exited 3 only after about 0.7 s: its last factor, 12,376 terms by a 12-term form, and the
    # printing of the 31,824-term result ran past the deadline unchecked
    form = monopole._linear_form(12, (1,) * 12)
    last = form**6
    result = last * form
    assert (len(last), len(result)) == (12376, 31824)
    cancelled = CancellationToken()
    cancelled.cancel()
    with cancelled:
        assert len(form * form) == 78  # 144 term pairs: a small product checks no deadline
        with pytest.raises(Cancelled):
            last * form
        with pytest.raises(Cancelled):
            str(result)


def test_ring_timeout_reaches_inside_one_large_product():
    # one term pair whose coefficients have 2025 terms each: their product ran its
    # 4.1 million term pairs unchecked, so --timeout 0.5 exited 3 only after 3 s
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    square = {"rank": 2, "terms": [{"coweight": [0, 0], "poly": [
        {"coeff": "1", "powers": [i, j]} for i in range(45) for j in range(45)]}]}
    doc = {"theory": {"rank": 2, "characters": [[1, 0]]}, "a": square, "b": square}
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "coulombkit.cli", "abelian", "ring", "--timeout", "0.5"],
        input=json.dumps(doc), env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (3, "") and proc.stderr.startswith("cancelled: ")
    assert time.monotonic() - start < 1.5


@pytest.mark.parametrize("command, doc", [
    # the support depth of a finite-type tensor product was solved past the deadline: exit 0
    (["km", "tensor"], {"cartan": "A2", "lambda1": {"fund": [0, 0]}, "lambda2": {"fund": [1, 0]}}),
    # the named datum was validated past the deadline, and the level error came first: exit 1
    (["quiver", "strata", "--depth", "2"], {"cartan": "A1~", "lambda": {"fund": [0, 0]}, "mu": {"fund": [0, 0]}}),
], ids=["km-tensor", "quiver-strata"])
def test_timeout_zero_covers_named_data_and_support_depths(capsys, tmp_path, command, doc):
    code, out, err = run(capsys, command + ["--timeout", "0"], doc, tmp_path=tmp_path)
    assert (code, out) == (3, "") and err.startswith("cancelled: ")


def _high_power_bracket(powers):
    """{r^(1, ..., 1), w^powers} on the theory with the one character (1, ..., 1):
    the shift expands each w_j^a into a + 1 terms."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    rank = len(powers)
    power = {"rank": rank, "terms": [{"coweight": [0] * rank, "poly": [{"coeff": "1", "powers": powers}]}]}
    doc = {"theory": {"rank": rank, "characters": [[1] * rank]}, "a": _one_term([1] * rank), "b": power}
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "coulombkit.cli", "abelian", "poisson", "--timeout", "0.5", "--format", "table"],
        input=json.dumps(doc), env=env, capture_output=True, text=True, timeout=120,
    )
    return proc, time.monotonic() - start


def test_one_high_power_is_cheap_to_shift():
    # the binomial row of w^12000 is a running product, not 12001 calls of comb
    proc, elapsed = _high_power_bracket([12000])
    assert elapsed < 5
    if proc.returncode == 0:  # a loaded machine may run out the half second instead
        assert proc.stdout.endswith('result: "(12000*w1**11999)*r^[1]"\n')
    else:
        assert (proc.returncode, proc.stdout) == (3, "") and "timed out" in proc.stderr


def test_high_power_brackets_print_exactly():
    # the closed-form bracket differentiates w^powers instead of shifting it
    for powers, result in [([200000], "(200000*w1**199999)*r^[1]"),
                           ([1500, 1500], "(1500*w1**1500*w2**1499 + 1500*w1**1499*w2**1500)*r^[1, 1]")]:
        proc, elapsed = _high_power_bracket(powers)
        assert proc.returncode == 0 and proc.stdout.endswith(f'result: "{result}"\n')
        assert elapsed < 5


def test_slow_bracket_of_a_high_power_finishes(capsys, tmp_path):
    # {r^3000, r^-1} once took minutes: two quantizations, two shifted products, 2999 divisions
    doc = {"theory": {"rank": 1, "characters": [[1]]}, "a": _one_term([3000]), "b": _one_term([-1])}
    code, out, _ = run(capsys, ["abelian", "poisson", "--timeout", "5"], doc, tmp_path=tmp_path)
    assert code == 0 and json.loads(out)["result"] == "(3000)*r^[2999]"


@pytest.mark.parametrize("powers", [[200000], [1500, 1500]], ids=["one_long_row", "many_choices"])
def test_one_high_power_shift_is_cancellable(powers):
    # the token is checked inside one monomial's expansion: while its binomial rows
    # are built, and while the product of two rows is summed; driven in-process,
    # because the closed-form bracket no longer shifts w^powers
    rank = len(powers)
    power = DifferenceOperator.polynomial(rank, Polynomial({(*powers, 0): 1}))
    start = time.monotonic()
    with pytest.raises(Cancelled, match="timed out"), CancellationToken(0.5):
        multiply(DifferenceOperator.shift(rank, (1,) * rank), power)
    assert time.monotonic() - start < 5


def test_km_mult_deep_weight_space(capsys, tmp_path):
    # the lowest weight of V(3000 varpi): 3000 simple roots below the highest one
    doc = {"cartan": "A1", "lambda": {"fund": [3000]}, "mu": {"fund": [-3000]}}
    code, out, _ = run(capsys, ["km", "mult"], doc, tmp_path=tmp_path)
    assert code == 0 and json.loads(out) == {"multiplicity": 1}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (["km", "mult"], {"cartan": "A1", "lambda": {"fund": [1]}, "mu": {"fund": [0, -5]}},
         "weights live on different Cartan data"),
        (["quiver", "satake"], {"cartan": "A1", "lambda": {"fund": [1]}, "mu": {"fund": [0, -5]}},
         "weights live on different Cartan data"),
        (["km", "mult"], {"cartan": "A1", "lambda": {"fund": [0, 5]}, "mu": {"fund": [0, 5]}},
         "weight length does not match Cartan matrix size"),
        (["quiver", "satake"], {"cartan": "A1", "lambda": {"fund": [0, 5]}, "mu": {"fund": [0, 5]}},
         "weight length does not match Cartan matrix size"),
        (["km", "tensor"], {"cartan": "A1", "lambda1": {"fund": [0, 5]}, "lambda2": {"fund": [1]}},
         "weights live on different Cartan data"),
        # a highest weight of the wrong length is refused before mu is compared with it
        (["km", "mult"], {"cartan": "A1", "lambda": {"fund": [0, 5]}, "mu": {"fund": [0, 5, 1]}},
         "weight length does not match Cartan matrix size"),
    ],
)
def test_wrong_length_weights_are_input_errors(capsys, tmp_path, command, doc, message):
    code, out, err = run(capsys, command, doc, tmp_path=tmp_path)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def _ring_doc(a_poly):
    one = [{"coeff": "1", "powers": [0]}]
    return {
        "theory": {"rank": 1, "characters": [[1]]},
        "a": {"rank": 1, "terms": [{"coweight": [1], "poly": a_poly}]},
        "b": {"rank": 1, "terms": [{"coweight": [-1], "poly": one}]},
    }


def test_zero_denominator_coefficient_is_rejected(capsys, tmp_path):
    doc = _ring_doc([{"coeff": "1", "powers": [1]}, {"coeff": "1/0", "powers": [0]}])
    code, out, err = run(capsys, ["abelian", "ring"], doc, tmp_path=tmp_path)
    assert code == 1 and out == ""
    assert "/terms/0/poly/1/coeff" in err


def test_coefficient_past_the_digit_limit_is_a_domain_error(capsys, tmp_path):
    # the schema's pattern admits any number of digits; Fraction() stops at the
    # interpreter's int <-> str limit (4300 digits by default)
    doc = _ring_doc([{"coeff": "7" * 5000, "powers": [0]}])
    code, out, _ = run(capsys, ["validate", "--schema", "element"], doc["a"], tmp_path=tmp_path)
    assert code == 0
    code, out, err = run(capsys, ["abelian", "ring"], doc, tmp_path=tmp_path)
    assert code == 1 and out == ""
    assert err.startswith("error: /terms/0/poly/0/coeff: ")


def test_result_past_the_digit_limit_is_a_bound_exceeded(capsys, tmp_path):
    # two 3000-digit coefficients read fine; their 6000-digit product cannot be printed
    doc = _ring_doc([{"coeff": "7" * 3000, "powers": [0]}])
    doc["b"]["terms"][0]["poly"][0]["coeff"] = "9" * 3000
    code, out, err = run(capsys, ["abelian", "ring"], doc, tmp_path=tmp_path)
    assert (code, out) == (3, "") and err.startswith("bound exceeded: ")


def test_json_integer_past_the_digit_limit_is_invalid_json(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text('{"cartan": "A1", "lambda": {"fund": [%s]}, "mu": {"fund": [0]}}' % ("1" * 5000))
    code = main(["km", "mult", "--input", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "") and err.startswith("invalid JSON: ")


def test_element_rank_past_its_coweights_is_a_dimension_error(capsys, tmp_path):
    # found by the CLI fuzz: the polynomial ring of a rank-10^30 element, one generator
    # at a time, was made before the coweight length was compared with the rank; a
    # tuple of 10^6 exponents alone would take 8 MB
    from coulombkit import monopole  # noqa: F401 (loaded before the memory is traced)

    term = {"coweight": [0, 2], "poly": [{"coeff": "1", "powers": [0, 0]}]}
    for rank in (10**6 + 7, 10**30 + 7):
        doc = {"theory": {"rank": 2}, "a": {"rank": rank, "terms": [term]}, "b": {"rank": 2, "terms": []}}
        run(capsys, ["abelian", "poisson"], doc, tmp_path=tmp_path)  # fills the schema caches
        tracemalloc.start()
        try:
            code, out, err = run(capsys, ["abelian", "poisson"], doc, tmp_path=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (1, "", f"error: /terms/0/coweight: 2 entries for rank {rank}\n")
        assert peak < 2**20


def test_powers_length_must_match_generators(capsys, tmp_path):
    doc = _ring_doc([{"coeff": "1", "powers": [0, 5, 7]}])
    code, out, err = run(capsys, ["abelian", "ring"], doc, tmp_path=tmp_path)
    assert code == 1 and out == ""
    assert "/terms/0/poly/0/powers" in err


def test_output_byte_stable(capsys, tmp_path):
    doc = {"cartan": "A2", "lambda": {"fund": [2, 2]}, "mu": {"fund": [0, 0]}}
    code1, out1, _ = run(capsys, ["km", "mult"], doc, tmp_path=tmp_path)
    code2, out2, _ = run(capsys, ["km", "mult"], doc, tmp_path=tmp_path)
    assert code1 == code2 == 0 and out1 == out2


def test_outputs_reparse_under_schema(capsys, tmp_path):
    theory = {"rank": 1, "characters": [[1]]}
    x = {"rank": 1, "terms": [{"coweight": [1], "poly": [{"coeff": "1", "powers": [0]}]}]}
    code, out, _ = run(
        capsys, ["abelian", "quantize"], {"theory": theory, "element": x}, tmp_path=tmp_path
    )
    assert code == 0
    parsed = json.loads(out)
    assert validate_schema(parsed["operator"], "operator") == []


def test_calls_in_one_process_match_fresh_processes(capsys, tmp_path, monkeypatch):
    # the parser and the parsed schemas are built once per process and reused
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal width
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    calls = [
        (["km", "mult", "--bogus"], None),
        (["km", "mult"], {"cartan": "B2", "lambda": {"fund": [2, 1]}, "mu": {"fund": [0, 1]}}),
        (["km", "mult", "--help"], None),
        (["validate", "--schema", "quiver"], {"vertices": 2, "edges": [[0, 2]]}),
    ]
    for i, (argv, doc) in enumerate(calls):
        if doc is not None:
            path = tmp_path / f"input{i}.json"
            path.write_text(json.dumps(doc))
            argv = argv + ["--input", str(path)]
        code = main(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "coulombkit.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_affine_strata_with_an_empty_interval_finish_quickly(capsys, tmp_path):
    # mu lies above every lam - |partition| c, so no size pairs a partition with a kappa; the
    # p(size) partitions of each size up to 60 were once walked all the same, for 46 s
    doc = {"cartan": "A1~", "lambda": {"fund": [1, 0]}, "mu": {"fund": [3, 0]}}
    start = time.monotonic()
    code, out, _ = run(capsys, ["quiver", "strata", "--depth", "60", "--timeout", "0.5"], doc, tmp_path=tmp_path)
    assert (code, json.loads(out)) == (0, {"strata": []})
    assert time.monotonic() - start < 1.5


def test_a_reader_closing_the_pipe_early_ends_without_a_traceback():
    # a 230 kB result: the writer fills the pipe and is still writing when the reader closes it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "coulombkit.cli", "abelian", "hilbert", "--max-deg", "3000"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdin.write(b'{"rank": 1, "characters": [[1]]}')
    proc.stdin.close()
    head = proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert (proc.wait(timeout=60), head) == (1, b'{\n  "dimensions": [\n')
    assert err == "error: the output pipe was closed before the result was written\n"
