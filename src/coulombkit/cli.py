"""Batch command-line front-end.

Reads a JSON document describing the inputs of one library operation,
validates it against the shipped schemas, runs the operation and prints a
JSON (or plain table) result.  Exit codes: 0 success, 1 malformed input
(usage errors included), 2 a verification subcommand found a mismatch,
3 bound exceeded / cancelled.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache
from importlib import resources

import jsonschema

from . import jsonio, monopole, quiver
from .abelian import hilbert_series
from .cancel import CancellationToken
from .cartan import langlands_dual
from .errors import Cancelled, CoulombKitError
from .higgs import coulomb_higgs_compare
from .multiplicities import tensor_decompose, weight_multiplicity
from .quiver import jordan_coulomb_hilbert, strata_affine, strata_finite


class InputError(Exception):
    """Malformed input; carries a list of human-readable diagnostics."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


class MismatchError(Exception):
    """A verification subcommand found a mismatch (exit code 2)."""


class BoundExceeded(Exception):
    """A result is too large to print (exit code 3)."""


_SCHEMA_SUFFIX = ".schema.json"


def _schema_names() -> set[str]:
    """The names of the shipped schemas, as ``validate --schema`` takes them."""
    files = resources.files("coulombkit.schemas").iterdir()
    return {f.name.removesuffix(_SCHEMA_SUFFIX) for f in files if f.name.endswith(_SCHEMA_SUFFIX)}


@cache
def _validator(name: str) -> jsonschema.Draft202012Validator:
    text = resources.files("coulombkit.schemas").joinpath(name + _SCHEMA_SUFFIX).read_text()
    return jsonschema.Draft202012Validator(json.loads(text))


def _pointer(path) -> str:
    return "/" + "/".join(str(p) for p in path)


def validate_schema(doc, schema_name: str, prefix: str = "") -> list[str]:
    """Schema diagnostics with JSON-pointer paths; empty means valid."""
    out = []
    for err in sorted(_validator(schema_name).iter_errors(doc), key=lambda e: list(e.absolute_path)):
        out.append(f"{prefix}{_pointer(err.absolute_path)}: {err.message}")
    if not out and schema_name == "quiver":
        n = doc["vertices"]
        for i, edge in enumerate(doc.get("edges", [])):
            for j, v in enumerate(edge):
                if v >= n:
                    out.append(f"{prefix}/edges/{i}/{j}: vertex index out of range")
        for key in ("v", "w"):
            if key in doc and len(doc[key]) != n:
                out.append(f"{prefix}/{key}: length must equal the vertex count")
    return out


def _check(doc, schema_name: str, prefix: str = "") -> None:
    diags = validate_schema(doc, schema_name, prefix)
    if diags:
        raise InputError(diags)


def _read_document(args) -> dict:
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input) as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError([f"cannot read input: {exc}"]) from exc
    try:
        doc = json.loads(text)
    # RecursionError: nested past the limit; a bare ValueError: an integer past the digit limit
    except (ValueError, RecursionError) as exc:
        raise InputError([f"invalid JSON: {exc}"]) from exc
    return doc


def _require(doc, *keys):
    if not isinstance(doc, dict):
        raise InputError(["input document must be a JSON object"])
    missing = [k for k in keys if k not in doc]
    if missing:
        raise InputError([f"/{k}: required field is missing" for k in missing])


def _get_weight(doc, key):
    _check(doc[key], "weight", f"/{key}")
    return jsonio.weight_from_json(doc[key])


def _get_gcm(doc, key="cartan"):
    _check(doc[key], "gcm", f"/{key}")
    try:
        return jsonio.gcm_from_json(doc[key])
    except CoulombKitError as exc:
        raise InputError([f"/{key}: {exc}"]) from exc


def _max_deg(args) -> Fraction:
    if args.max_deg is None:
        raise InputError(["--max-deg is required for this subcommand"])
    try:
        q = Fraction(args.max_deg)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError([f"--max-deg: {exc}"]) from exc
    if q < 0 or q.denominator > 2:
        raise InputError(["--max-deg must be a non-negative half-integer"])
    if 2 * q + 1 > sys.maxsize:
        # every degree table holds 2 * max_deg + 1 slots
        raise InputError([f"--max-deg: too large, 2 * max_deg + 1 must not exceed {sys.maxsize}"])
    return q


def _depth(args) -> int:
    if args.depth is None:
        raise InputError(["--depth is required for this subcommand"])
    if args.depth < 0:
        raise InputError(["--depth must be non-negative"])
    return args.depth


def _token(args) -> CancellationToken | None:
    return CancellationToken(args.timeout) if args.timeout is not None else None


def _table_from_dims(dims: list[int]) -> list:
    return jsonio.table_to_json(jsonio.dims_to_table(dims))


# ------------------------------------------------------------ subcommands

def _cmd_km_mult(doc, args):
    _require(doc, "cartan", "lambda", "mu")
    gcm = _get_gcm(doc)
    lam, mu = _get_weight(doc, "lambda"), _get_weight(doc, "mu")
    return {"multiplicity": weight_multiplicity(gcm, lam, mu, _token(args))}


def _cmd_km_tensor(doc, args):
    _require(doc, "cartan", "lambda1", "lambda2")
    gcm = _get_gcm(doc)
    lam1, lam2 = _get_weight(doc, "lambda1"), _get_weight(doc, "lambda2")
    comps = tensor_decompose(gcm, lam1, lam2, _token(args))
    return {
        "components": [
            [jsonio.weight_to_json(w), m]
            for w, m in sorted(comps.items(), key=lambda p: (p[0].fund, p[0].delta))
        ]
    }


def _cmd_km_dual(doc, args):
    _require(doc, "cartan")
    return {"cartan": jsonio.gcm_to_json(langlands_dual(_get_gcm(doc)))}


def _cmd_quiver_slice(doc, args):
    _check(doc, "quiver")
    q, d = jsonio.quiver_from_json(doc)
    sp = quiver.slice_params(q, d)
    return {
        "lambda": jsonio.weight_to_json(sp.lam),
        "mu": jsonio.weight_to_json(sp.mu),
        "mu_dominant": sp.mu_dominant,
    }


def _cmd_quiver_strata(doc, args):
    _require(doc, "cartan", "lambda", "mu")
    gcm = _get_gcm(doc)
    lam, mu = _get_weight(doc, "lambda"), _get_weight(doc, "mu")
    if gcm.tag == "affine":
        strata = strata_affine(gcm, lam, mu, _depth(args), _token(args))
        return {
            "strata": [
                {"kappa": jsonio.weight_to_json(k), "partition": list(p)} for k, p in strata
            ]
        }
    strata = strata_finite(gcm, lam, mu, _token(args))
    return {"strata": [jsonio.weight_to_json(k) for k in strata]}


def _cmd_quiver_satake(doc, args):
    _require(doc, "cartan", "lambda", "mu")
    gcm = _get_gcm(doc)
    lam, mu = _get_weight(doc, "lambda"), _get_weight(doc, "mu")
    mult = weight_multiplicity(langlands_dual(gcm), lam, mu, _token(args))
    # as in quiver.fixed_point_nonempty: the fixed point exists iff the dual multiplicity is nonzero
    return {"nonempty": mult > 0, "dual_multiplicity": mult}


def _theory_and_elements(doc, *keys):
    _require(doc, "theory", *keys)
    _check(doc["theory"], "theory", "/theory")
    th = jsonio.theory_from_json(doc["theory"])
    elems = []
    for k in keys:
        _check(doc[k], "element", f"/{k}")
        elems.append(jsonio.element_from_json(doc[k]))
    return th, elems


def _printed(value, key, to_json) -> dict:
    """``value`` as its printed ``"result"`` and as JSON under ``key``.  Printing
    stops with a ValueError at an integer past the interpreter's digit limit."""
    try:
        return {"result": str(value), key: to_json(value)}
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise BoundExceeded(f"a coefficient of the result has more than {limit} digits") from None


def _cmd_abelian_ring(doc, args):
    th, (a, b) = _theory_and_elements(doc, "a", "b")
    return _printed(monopole.classical_product(th, a, b, _token(args)), "element", jsonio.element_to_json)


def _cmd_abelian_quantize(doc, args):
    th, (a,) = _theory_and_elements(doc, "element")
    return _printed(monopole.quantize(th, a, _token(args)), "operator", jsonio.operator_to_json)


def _cmd_abelian_poisson(doc, args):
    th, (a, b) = _theory_and_elements(doc, "a", "b")
    return _printed(monopole.poisson(th, a, b, _token(args)), "element", jsonio.element_to_json)


def _cmd_abelian_hilbert(doc, args):
    _check(doc, "theory")
    th = jsonio.theory_from_json(doc)
    dims = hilbert_series(th, _max_deg(args), _token(args))
    return {"dimensions": _table_from_dims(dims)}


def _cmd_hypertoric_compare(doc, args):
    _check(doc, "matrix")
    a = jsonio.matrix_from_json(doc)
    report = coulomb_higgs_compare(a, _max_deg(args), _token(args))
    out = {
        "coulomb": jsonio.table_to_json(report.coulomb),
        "higgs": jsonio.table_to_json(report.higgs),
        "equal_up_to": jsonio.fraction_str(report.max_deg),
        "verdict": report.verdict,
    }
    if not report.verdict:
        raise MismatchError(json.dumps(out, sort_keys=True))
    return out


def _cmd_jordan_hilbert(doc, args):
    _require(doc, "n", "ell")
    if not (type(doc["n"]) is int and type(doc["ell"]) is int):  # JSON true is not an integer
        raise InputError(["/n, /ell: must be integers"])
    dims = jordan_coulomb_hilbert(doc["n"], doc["ell"], _max_deg(args), _token(args))
    return {"dimensions": _table_from_dims(dims)}


def _cmd_validate(doc, args):
    if args.schema is None:
        raise InputError(["--schema NAME is required for validate"])
    if args.schema not in _schema_names():
        raise InputError([f"unknown schema: {args.schema!r}"])
    diags = validate_schema(doc, args.schema)
    if diags:
        raise MismatchError(json.dumps({"diagnostics": diags}, sort_keys=True))
    return {"diagnostics": []}


# each leaf takes --input, --format and --timeout, and the flags its handler reads, by type
_COMMANDS = {
    ("km", "mult"): (_cmd_km_mult, {}),
    ("km", "tensor"): (_cmd_km_tensor, {}),
    ("km", "dual"): (_cmd_km_dual, {}),
    ("quiver", "slice"): (_cmd_quiver_slice, {}),
    ("quiver", "strata"): (_cmd_quiver_strata, {"--depth": int}),
    ("quiver", "satake"): (_cmd_quiver_satake, {}),
    ("abelian", "ring"): (_cmd_abelian_ring, {}),
    ("abelian", "quantize"): (_cmd_abelian_quantize, {}),
    ("abelian", "poisson"): (_cmd_abelian_poisson, {}),
    ("abelian", "hilbert"): (_cmd_abelian_hilbert, {"--max-deg": str}),
    ("hypertoric", "compare"): (_cmd_hypertoric_compare, {"--max-deg": str}),
    ("jordan", "hilbert"): (_cmd_jordan_hilbert, {"--max-deg": str}),
    ("validate", None): (_cmd_validate, {"--schema": str}),
}


@cache  # parse_args leaves the parser as it was, so one per process serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coulombkit",
        description="Exact Coulomb-branch, hypertoric and Kac-Moody computations.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    def leaf(sub, name, flags):
        p = sub.add_parser(name)
        p.add_argument("--input", default="-", help="input JSON path, or - for stdin")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--timeout", type=float, default=None)
        for flag, kind in flags.items():
            p.add_argument(flag, type=kind)
        return p

    for group in ("km", "quiver", "abelian", "hypertoric", "jordan"):
        g = top.add_parser(group)
        sub = g.add_subparsers(dest="command", required=True)
        for (grp, cmd), (_, flags) in _COMMANDS.items():
            if grp == group:
                leaf(sub, cmd, flags)
    leaf(top, "validate", _COMMANDS["validate", None][1]).set_defaults(command=None)
    return parser


def _render(result: dict, fmt: str) -> str:
    if fmt == "table":
        lines = []
        for key in sorted(result):
            value = result[key]
            if isinstance(value, list) and all(
                isinstance(r, list) and len(r) == 2 and isinstance(r[1], int) for r in value
            ):
                lines.append(f"{key}:")
                for deg, dim in value:
                    lines.append(f"  {deg}\t{dim}")
            else:
                lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
        return "\n".join(lines)
    return json.dumps(result, indent=2, sort_keys=True)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error: malformed input
        return 1 if exc.code else 0
    handler = _COMMANDS[(args.group, args.command)][0]
    try:
        if args.timeout is not None and math.isnan(args.timeout):  # a NaN deadline never expires
            raise InputError(["--timeout must be a number of seconds, not nan"])
        doc = _read_document(args)
        result = handler(doc, args)
    except InputError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return 1
    except MismatchError as exc:
        print(str(exc))
        return 2
    except Cancelled as exc:
        print(f"cancelled: {exc}", file=sys.stderr)
        return 3
    except BoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 3
    except CoulombKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError as exc:  # parsed just under the limit, then nested too deep to check
        print(f"input nested too deeply: {exc}", file=sys.stderr)
        return 1
    print(_render(result, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
