"""Batch command-line front-end.

Reads a JSON document describing the inputs of one library operation,
validates it against the shipped schemas, runs the operation and prints a
JSON (or plain table) result.  Exit codes: 0 success, 1 malformed input
(usage errors included), 2 a verification subcommand found a mismatch,
3 bound exceeded / cancelled.

Each shipped schema is compiled once, on first use, into closures for the
Draft 2020-12 keywords it uses; any other keyword raises.  They word each
diagnostic as jsonschema 4.26 words it, so the CLI has no runtime
dependency.  ``main`` reads argv that names a leaf with that leaf's parser
and opens the one ``--timeout`` deadline scope of the run (``cancel``): it
starts before the document is read and also covers printing the result.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import re
import sys
from fractions import Fraction
from functools import cache
from importlib import resources
from itertools import repeat

from . import jsonio, monopole, quiver
from .abelian import hilbert_series, top_half_degree
from .cancel import CancellationToken, check
from .cartan import langlands_dual
from .errors import Cancelled, CoulombKitError, DomainError
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


@cache
def _schemas() -> dict[str, dict]:
    """The shipped schemas, each parsed once, by the names ``validate --schema`` takes."""
    files = resources.files("coulombkit.schemas").iterdir()
    return {
        f.name.removesuffix(_SCHEMA_SUFFIX): json.loads(f.read_text())
        for f in files if f.name.endswith(_SCHEMA_SUFFIX)
    }


# type -> its test: Draft 2020-12 takes a float with no fractional part for an integer, and JSON true for none
_TYPES = {"object": lambda x: isinstance(x, dict), "array": lambda x: isinstance(x, list),
          "string": lambda x: isinstance(x, str),
          "integer": lambda x: isinstance(x, int) and type(x) is not bool or isinstance(x, float) and x.is_integer()}


def _leaf(passes, word):
    """A keyword that fails at most once, at the instance itself, worded by ``word(x)``."""
    return lambda x, seen: () if passes(x) else [((), lambda: word(x))]


def _members(keys, errors):
    """A keyword that holds each member ``keys(x)`` of an instance to the subschema ``errors(key)``."""
    return lambda x, seen: [((k, *p), m) for k in keys(x) for p, m in errors(k)(x[k], seen)]


def _items(errors):
    """``items`` of the subschema ``errors``, each item read once.  ``seen[0]`` counts the run's array items, and the
    deadline is met where the count passes a multiple of 4096, so a small document is checked in full."""
    def failures(x, seen):
        if not isinstance(x, list):
            return ()
        if len(x) > 4096:  # read in slices, so that a long array meets the deadline as it is read
            return [((lo + i, *p), m) for lo in range(0, len(x), 4096)
                    for (i, *p), m in failures(x[lo:lo + 4096], seen)]
        seen[0] += len(x)
        if (seen[0] - len(x)) >> 12 != seen[0] >> 12:
            check()
        found = list(map(errors, x, repeat(seen)))
        return [((i, *p), m) for i, f in enumerate(found) if f for p, m in f] if any(found) else ()
    return failures


def _one_of(subs, branches):
    # no branch's failure is worded; jsonschema names the passing ones from the second on, then the first
    return lambda x, seen: () if len(ok := [sub for sub, errors in zip(subs, branches) if not errors(x, seen)]) == 1 \
        else [((), lambda: f"{x!r} is valid under each of {', '.join(map(repr, ok[1:] + ok[:1]))}" if ok
               else f"{x!r} is not valid under any of the given schemas")]


def _extras(x, s) -> list:
    return [k for k in x if k not in s.get("properties", ())] if isinstance(x, dict) else []


# keyword -> its compiler: (keyword value, enclosing schema) -> failures(x, seen), the (path below x, message) of each
# way x fails it, where message() words it as jsonschema 4.26 does; it passes instances of other types
_KEYWORDS = {
    "type": lambda t, s: _leaf(_TYPES[t], lambda x: f"{x!r} is not of type {t!r}"),
    "properties": lambda props, s: _members(lambda x: [k for k in props if k in x] if isinstance(x, dict) else (),
                                            {k: _compile(sub) for k, sub in props.items()}.get),
    "required": lambda keys, s: lambda x, seen: [
        ((), lambda k=k: f"{k!r} is a required property") for k in keys if isinstance(x, dict) and k not in x],
    "additionalProperties": lambda sub, s: _members(lambda x: _extras(x, s), lambda k, errors=_compile(sub): errors)
    if sub is not False else _leaf(lambda x: not _extras(x, s), lambda x: (
        "Additional properties are not allowed (%s %s unexpected)"
        % (", ".join(map(repr, sorted(e := _extras(x, s), key=str))), "was" if len(e) == 1 else "were"))),
    "items": lambda sub, s: _items(_compile(sub)),
    # a bool is not a number, and NaN is not below any minimum
    "minimum": lambda n, s: _leaf(lambda x: not isinstance(x, numbers.Number) or isinstance(x, bool) or not x < n,
                                  lambda x: f"{x!r} is less than the minimum of {n!r}"),
    "minItems": lambda n, s: _leaf(lambda x: not isinstance(x, list) or len(x) >= n,
                                   lambda x: f"{x!r} {'should be non-empty' if n == 1 else 'is too short'}"),
    "maxItems": lambda n, s: _leaf(lambda x: not isinstance(x, list) or len(x) <= n,
                                   lambda x: f"{x!r} {'is expected to be empty' if n == 0 else 'is too long'}"),
    "oneOf": lambda subs, s: _one_of(subs, [_compile(sub) for sub in subs]),
    "pattern": lambda p, s: _leaf(lambda x: not isinstance(x, str) or re.search(p, x) is not None,
                                  lambda x: f"{x!r} does not match {p!r}"),
    **dict.fromkeys(("$schema", "$id", "title"), lambda v, s: lambda x, seen: ()),  # annotations
}


def _compile(schema):
    """``errors(x, seen)``: the ``(path, message)`` of each way ``x`` fails ``schema`` under Draft 2020-12, depth
    first in keyword order, where ``seen`` counts the run's array items.  Any keyword outside ``_KEYWORDS`` raises."""
    if isinstance(schema, bool):
        return _leaf(lambda x: schema, lambda x: f"False schema does not allow {x!r}")
    if not _KEYWORDS.keys() >= schema.keys():
        raise ValueError(f"unsupported schema keywords: {sorted(schema.keys() - _KEYWORDS.keys())}")
    parts = {key: _KEYWORDS[key](value, schema) for key, value in schema.items()}
    errors = lambda x, seen: [e for failures in parts.values() for e in failures(x, seen)]
    # a surely valid int, list or dict skips the keywords: each test below implies all those of its schema
    kind, keys = schema.get("type"), schema.keys()
    if kind == "integer" and keys <= {"type", "minimum"}:
        floor = schema.get("minimum", -math.inf)
        return lambda x, seen: () if type(x) is int and x >= floor else errors(x, seen)
    if kind == "array" and "items" in keys and keys <= {"type", "items", "minItems", "maxItems"}:
        lo, hi, items = schema.get("minItems", 0), schema.get("maxItems", math.inf), parts["items"]
        return lambda x, seen: items(x, seen) if type(x) is list and lo <= len(x) <= hi else errors(x, seen)
    if kind == "object" and "properties" in keys and schema.get("additionalProperties") is False \
            and keys <= {"type", "required", "additionalProperties", "properties", "$schema", "$id", "title"}:
        need, known, props = set(schema.get("required", ())), schema["properties"].keys(), parts["properties"]
        return lambda x, seen: props(x, seen) if type(x) is dict and need <= x.keys() <= known else errors(x, seen)
    return errors


_compiled = cache(lambda schema_name: _compile(_schemas()[schema_name]))  # a shipped schema, on its first use


def _pointer(path) -> str:
    return "/" + "/".join(str(p) for p in path)


def validate_schema(doc, schema_name: str, prefix: str = "") -> list[str]:
    """Schema diagnostics with JSON-pointer paths, sorted by path; empty means valid."""
    errors = sorted(_compiled(schema_name)(doc, [0]), key=lambda e: e[0])
    if errors:
        return [f"{prefix}{_pointer(path)}: {word()}" for path, word in errors]
    out = []
    if schema_name == "quiver":
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


def _get_gcm(doc):
    _check(doc["cartan"], "gcm", "/cartan")
    try:
        return jsonio.gcm_from_json(doc["cartan"])
    except Cancelled:
        raise
    except CoulombKitError as exc:
        raise InputError([f"/cartan: {exc}"]) from exc


def _max_deg(args) -> Fraction:
    if args.max_deg is None:
        raise InputError(["--max-deg is required for this subcommand"])
    try:
        return Fraction(top_half_degree(args.max_deg), 2)
    except DomainError as exc:
        raise InputError([f"--max-deg: {exc}"]) from exc


def _depth(args) -> int:
    if args.depth is None:
        raise InputError(["--depth is required for this subcommand"])
    if args.depth < 0:
        raise InputError(["--depth must be non-negative"])
    return args.depth


def _table_from_dims(dims: list[int]) -> list:
    return [[str(t // 2) if t % 2 == 0 else f"{t}/2", d] for t, d in enumerate(dims)]


# ------------------------------------------------------------ subcommands

def _gcm_and_weights(doc, *keys):
    _require(doc, "cartan", *keys)
    gcm = _get_gcm(doc)
    weights = []
    for k in keys:
        _check(doc[k], "weight", f"/{k}")
        weights.append(jsonio.weight_from_json(doc[k]))
    return gcm, weights


def _cmd_km_mult(doc, args):
    gcm, (lam, mu) = _gcm_and_weights(doc, "lambda", "mu")
    return {"multiplicity": weight_multiplicity(gcm, lam, mu)}


def _cmd_km_tensor(doc, args):
    gcm, (lam1, lam2) = _gcm_and_weights(doc, "lambda1", "lambda2")
    comps = tensor_decompose(gcm, lam1, lam2)
    return {
        "components": [
            [jsonio.weight_to_json(w), m]
            for w, m in sorted(comps.items())
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
    gcm, (lam, mu) = _gcm_and_weights(doc, "lambda", "mu")
    if gcm.tag == "affine":
        strata = strata_affine(gcm, lam, mu, _depth(args))
        kappa = cache(jsonio.weight_to_json)  # every partition of a size shares its kappa's one dict
        return {"strata": [{"kappa": kappa(k), "partition": list(p)} for k, p in _checked(strata)]}
    strata = strata_finite(gcm, lam, mu)
    return {"strata": [jsonio.weight_to_json(k) for k in _checked(strata)]}


def _checked(items):
    """``items`` with the deadline checked at every 4096th, so a long list is converted or printed under it."""
    for i, item in enumerate(items, 1):
        if i % 4096 == 0:
            check()
        yield item


def _cmd_quiver_satake(doc, args):
    gcm, (lam, mu) = _gcm_and_weights(doc, "lambda", "mu")
    mult = weight_multiplicity(langlands_dual(gcm), lam, mu)
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
    stops with a ValueError at an integer past the interpreter's digit limit.
    The deadline is checked once the result is printed, unless it is zero: a
    product with no term pair checks no deadline and answers 0 at once."""
    try:
        text = str(value)
        if value.polys:
            check()
        return {"result": text, key: to_json(value)}
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise BoundExceeded(f"a coefficient of the result has more than {limit} digits") from None


def _cmd_abelian_ring(doc, args):
    th, (a, b) = _theory_and_elements(doc, "a", "b")
    product = monopole.classical_product(th, a, b)
    return _printed(product, "element", jsonio.element_to_json)


def _cmd_abelian_quantize(doc, args):
    th, (a,) = _theory_and_elements(doc, "element")
    op = monopole.quantize(th, a)
    return _printed(op, "operator", jsonio.operator_to_json)


def _cmd_abelian_poisson(doc, args):
    th, (a, b) = _theory_and_elements(doc, "a", "b")
    bracket = monopole.poisson(th, a, b)
    return _printed(bracket, "element", jsonio.element_to_json)


def _cmd_abelian_hilbert(doc, args):
    _check(doc, "theory")
    th = jsonio.theory_from_json(doc)
    dims = hilbert_series(th, _max_deg(args))
    return {"dimensions": _table_from_dims(dims)}


def _cmd_hypertoric_compare(doc, args):
    _check(doc, "matrix")
    a = jsonio.matrix_from_json(doc)
    report = coulomb_higgs_compare(a, _max_deg(args))
    out = {
        "coulomb": _table_from_dims(list(report.coulomb.values())),
        "higgs": _table_from_dims(list(report.higgs.values())),
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
    dims = jordan_coulomb_hilbert(doc["n"], doc["ell"], _max_deg(args))
    return {"dimensions": _table_from_dims(dims)}


def _cmd_validate(doc, args):
    if args.schema is None:
        raise InputError(["--schema NAME is required for validate"])
    if args.schema not in _schemas():
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
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The whole parser, and each leaf's subparser in it by its key in ``_COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="coulombkit",
        description="Exact Coulomb-branch, hypertoric and Kac-Moody computations.",
    )
    top, groups, leaves = parser.add_subparsers(dest="group", required=True), {}, {}
    for (grp, cmd), (_, flags) in _COMMANDS.items():  # each group's leaves in turn, then validate
        if cmd is not None and grp not in groups:
            groups[grp] = top.add_parser(grp).add_subparsers(dest="command", required=True)
        p = leaves[grp, cmd] = groups[grp].add_parser(cmd) if cmd else top.add_parser(grp)
        p.set_defaults(group=grp, command=cmd)  # as the tree sets them, for a leaf that parses alone
        p.add_argument("--input", default="-", help="input JSON path, or - for stdin")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--timeout", type=float, default=None)
        for flag, kind in flags.items():
            p.add_argument(flag, type=kind)
    return parser, leaves


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
    # the bytes of json.dumps(result, indent=2, sort_keys=True), which encodes in these chunks too
    return "".join(_checked(json.JSONEncoder(indent=2, sort_keys=True).iterencode(result)))


def main(argv=None) -> int:
    parser, leaves = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    key = ("validate", None) if argv[:1] == ["validate"] else tuple(argv[:2])
    try:  # a leaf that argv names reads the rest with its own parser, and the whole tree anything else:
        args, rest = leaves[key].parse_known_args(argv[1 if key[1] is None else 2:]) if key in leaves else (None, ())
        if args is None or rest:  # the tree words help and usage errors, "unrecognized arguments" among them
            args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error: malformed input
        return 1 if exc.code else 0
    handler = _COMMANDS[(args.group, args.command)][0]
    try:
        with CancellationToken(args.timeout):
            text, code = _render(handler(_read_document(args), args), args.format), 0
    except InputError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return 1
    except MismatchError as exc:
        text, code = str(exc), 2
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
    except MemoryError:  # a resource limit, like the deadline
        print("out of memory: the input needs more memory than the process may use", file=sys.stderr)
        return 3
    try:
        print(text)
        sys.stdout.flush()  # a reader that closed the pipe early is met here, not at exit
    except BrokenPipeError:
        # as the Python docs advise for SIGPIPE: the flush at exit now writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: the output pipe was closed before the result was written", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
