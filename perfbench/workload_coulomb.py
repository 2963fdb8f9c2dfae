"""coulomb-algebra: monopole products, quantization and Poisson brackets.

Each round holds the same schedule of problem shapes (torus rank, number of
characters, total dressing degree); the seed and the round index choose the
characters, coweights and coefficients inside each shape.  Fixing the total
dressing degree per shape keeps the cost of a round nearly independent of the
seed, while every round still brings inputs that sympy's cache has not seen.
Each round ends with two in-process ``coulombkit.cli`` calls, so that the
command-line layer (argument parsing, schema validation, JSON input and
output) is measured too.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction

import sympy

import bench_oracles as O
from bench_harness import Case

from coulombkit import cli
from coulombkit import difference_ops as D
from coulombkit import jsonio as J
from coulombkit import monopole as M

ROUND_S = 1.1
MIN_ROUNDS = 3

# (rank, characters, terms in a, terms in b, total dressing degree, target
# size); the last entry is the A-type surface xy = w^ell, whose bracket
# {x, y} = ell w^(ell-1) is known in closed form.  A problem's cost follows the
# number of terms of its reference product quantize(a) quantize(b); the
# target is that number's median over the shape's candidates.
SHAPES = [
    (1, 2, 1, 2, 3, 13),
    (1, 3, 1, 2, 4, 10),
    (1, 4, 1, 1, 4, 5),
    (1, 5, 1, 2, 5, 13),
    (2, 3, 1, 2, 4, 18),
    (2, 4, 1, 2, 5, 22),
    (2, 3, 1, 1, 4, 13),
    (2, 5, 1, 1, 5, 28),
    (3, 3, 1, 2, 4, 32),
    (3, 3, 1, 1, 4, 17),
    "surface",
]
COEFFS = [Fraction(c) for c in (-3, -2, -1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-3, 2)]

CANDIDATES = 7

HBAR = sympy.Symbol("hbar")


def _gens(rank: int):
    return sympy.symbols(f"w1:{rank + 1}")


def _to_expr(poly: dict, gens) -> sympy.Expr:
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[g**e for g, e in zip(gens, expo)])
        for expo, c in poly.items()
    ])


def _poly_dict(expr, gens) -> dict:
    p = sympy.Poly(expr, *gens)
    return {e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()}


def _terms_dict(value, gens) -> dict:
    """{coweight: poly dict} of a CoulombElement or DifferenceOperator."""
    return {lam: _poly_dict(poly, gens) for lam, poly in value.terms}


def _dressing_degree(chars, lam) -> int:
    return sum(max(0, O.pairing(lam, rho)) for rho in chars)


def _random_poly(rng: random.Random, rank: int) -> dict:
    poly = {(0,) * rank: Fraction(rng.randint(1, 3))}
    for _ in range(rng.randint(1, 2)):
        j = rng.randrange(rank)
        e = tuple(1 if i == j else 0 for i in range(rank))
        poly = O.padd(poly, {e: rng.choice(COEFFS)})
    return poly


def _candidate(rng: random.Random, shape):
    """Characters, coweights and polynomials whose dressing degrees add up to
    the shape's total (by rejection), with their reference quantizations."""
    rank, nchar, na, nb, total, _ = shape
    while True:
        chars = [tuple(rng.choice((-1, 0, 0, 1, 1)) for _ in range(rank)) for _ in range(nchar)]
        if O.rank_q(chars) < rank:
            continue
        lams = set()
        while len(lams) < na + nb:
            lams.add(tuple(rng.randint(-1, 1) for _ in range(rank)))
        lams = sorted(lams)
        rng.shuffle(lams)
        la, lb = lams[:na], lams[na:]
        sums = [tuple(x + y for x, y in zip(l, m)) for l in la for m in lb]
        if sum(_dressing_degree(chars, l) for l in la + lb + sums) == total:
            a = {l: _random_poly(rng, rank) for l in la}
            b = {l: _random_poly(rng, rank) for l in lb}
            ref = {"qa": O.quantize(chars, rank, a), "qb": O.quantize(chars, rank, b)}
            ref["q"] = O.op_multiply(rank, ref["qa"], ref["qb"])
            return chars, a, b, ref


def _sample_shape(rng: random.Random, shape):
    """Of a few candidates, the one whose reference product has the number of
    terms nearest the shape's target (the first drawn among equals), so that
    every seed asks for nearly the same work."""
    if shape == "surface":
        ell = rng.randint(2, 5)
        chars = [(1,)] * ell
        return 1, chars, {(1,): {(0,): Fraction(1)}}, {(-1,): {(0,): Fraction(1)}}, ell, {}
    cands = [_candidate(rng, shape) for _ in range(CANDIDATES)]
    chars, a, b, ref = min(cands, key=lambda c: abs(sum(len(p) for p in c[3]["q"].values()) - shape[5]))
    return shape[0], chars, a, b, None, ref


def _json_terms(op: dict) -> list:
    def frac(q: Fraction) -> str:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    return [
        {"coweight": list(lam), "poly": [{"coeff": frac(c), "powers": list(e)} for e, c in sorted(poly.items())]}
        for lam, poly in sorted(op.items())
    ]


def _problem_cases(rank, chars, a, b, ell, ref) -> list[Case]:
    gens = _gens(rank)
    ogens = gens + (HBAR,)
    th = M.AbelianTheory.of(rank, chars)
    ea = M.CoulombElement.from_terms(rank, {lam: _to_expr(p, gens) for lam, p in a.items()})
    eb = M.CoulombElement.from_terms(rank, {lam: _to_expr(p, gens) for lam, p in b.items()})
    st: dict = {}
    ref = dict(ref)

    def reference(key):
        if "ab" not in ref:
            ref["ab"] = O.classical_product(chars, rank, a, b)
            ref.setdefault("qa", O.quantize(chars, rank, a))
            ref.setdefault("qb", O.quantize(chars, rank, b))
            ref.setdefault("q", O.op_multiply(rank, ref["qa"], ref["qb"]))
            ref["comm"] = O.op_sub(ref["q"], O.op_multiply(rank, ref["qb"], ref["qa"]))
        return ref[key]

    def run_ab():
        st["ab"] = M.classical_product(th, ea, eb)
        return st["ab"]

    def check_product(out):
        O.expect(_terms_dict(out, gens) == reference("ab"), "classical product differs from the reference product")

    def run_qm():
        st["A"], st["B"] = M.quantize(th, ea), M.quantize(th, eb)
        st["Q"] = D.multiply(st["A"], st["B"])
        return st["A"], st["B"], st["Q"]

    def check_qm(out):
        qa, qb, q = (_terms_dict(x, ogens) for x in out)
        O.expect(qa == reference("qa") and qb == reference("qb"), "quantize differs from the dressed shifts")
        O.expect(q == reference("q"), "multiply differs from the reference operator product")

    def check_comm(out):
        O.expect(_terms_dict(out, ogens) == reference("comm"), "commutator differs from the reference")

    def run_limit():
        st["lim"] = D.specialize_hbar(M.quantize(th, st["ab"]), 0)
        return D.specialize_hbar(st["Q"], 0), st["lim"]

    def check_limit(out):
        left, right = (_terms_dict(x, ogens) for x in out)
        O.expect(left == right, "classical limit of quantize(a)quantize(b) differs from quantize(ab)")
        O.expect(left == O.op_at_hbar_zero(reference("q"), rank), "classical limit differs from the reference")

    def check_poisson(x, y):
        def check(out):
            got = _terms_dict(out, gens)
            want = O.poisson_times_dressing(chars, rank, x, y)
            scaled = {
                nu: O.pmul(p, O.dressing(chars, nu, rank, rank, False)) for nu, p in got.items()
            }
            O.expect(scaled == want, "Poisson bracket times the dressing differs from d/dhbar of the commutator")
            if ell is not None and x is a:
                O.expect(got == {(0,): {(ell - 1,): Fraction(ell)}}, "{x, y} != ell w^(ell-1)")
        return check

    def run_poisson_ba():
        st["pba"] = M.poisson(th, eb, ea)
        return st["pba"]

    def check_poisson_antisymmetric(out):
        check_poisson(a, b)(out)
        O.expect(_terms_dict(out, gens) == {k: O.pscale(v, -1) for k, v in _terms_dict(st["pba"], gens).items()},
                 "Poisson bracket is not antisymmetric")

    def run_json():
        return J.element_from_json(J.element_to_json(st["ab"])), J.operator_to_json(st["Q"])

    def check_json(out):
        elem, op_doc = out
        O.expect(_terms_dict(elem, gens) == reference("ab"), "element JSON round trip changed the element")
        O.expect(op_doc == {"rank": rank, "terms": _json_terms(reference("q"))}, "operator JSON differs from the reference")

    return [
        Case("classical_product", run_ab, check_product),
        Case("classical_product", lambda: M.classical_product(th, eb, ea), check_product),
        Case("quantize_multiply", run_qm, check_qm),
        Case("commutator", lambda: D.commutator(st["A"], st["B"]), check_comm),
        Case("classical_limit", run_limit, check_limit),
        Case("poisson", run_poisson_ba, check_poisson(b, a)),
        Case("poisson", lambda: M.poisson(th, ea, eb), check_poisson_antisymmetric),
        Case("element_from_operator", lambda: M.element_from_operator(th, st["lim"]), check_product),
        Case("jsonio_roundtrip", run_json, check_json),
    ]


def _cli(argv: list[str], doc) -> dict:
    """One in-process CLI call with ``doc`` on stdin; returns the parsed
    stdout.  A non-zero exit raises, so the case counts as failed."""
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    if code != 0:
        raise RuntimeError(f"coulombkit.cli {' '.join(argv)} exited with code {code}: {err.getvalue().strip()[-300:]}")
    return json.loads(out.getvalue())


def _elem_doc(terms) -> dict:
    return {"rank": 1, "terms": [{"coweight": [lam], "poly": [{"coeff": "1", "powers": [e]}]} for lam, e in terms]}


def _jordan_n1(ell: int, top: int) -> list[list]:
    """Graded dimensions of xy = z^ell: the normal-form monomials x^a z^c and
    y^b z^c (b > 0) sit in doubled degrees a ell + 2c and b ell + 2c."""
    dims = [0] * (top + 1)
    for e in range(top + 1):
        for c in range(top + 1):
            if e * ell + 2 * c <= top:
                dims[e * ell + 2 * c] += 2 if e else 1
    return [[str(Fraction(t, 2)), d] for t, d in enumerate(dims)]


def _cli_cases(rng: random.Random) -> list[Case]:
    """``abelian ring`` of x = r^1 and y = r^-1 on the surface with ell
    characters of weight 1 gives xy = w^ell; ``validate`` of x finds nothing;
    ``jordan hilbert`` for n = 1 gives the graded dimensions of xy = z^ell."""
    ell = rng.randint(1, 4)
    x, y = _elem_doc([(1, 0)]), _elem_doc([(-1, 0)])
    ring = {"theory": {"rank": 1, "characters": [[1]] * ell}, "a": x, "b": y}
    jordan_deg = rng.randint(2, 4)

    def check_ring(out):
        O.expect(out.get("element") == _elem_doc([(0, ell)]), f"abelian ring: xy != w^{ell}: {out}")

    def check_validate(out):
        O.expect(out == {"diagnostics": []}, f"validate: {out}")

    def check_jordan(out):
        O.expect(out.get("dimensions") == _jordan_n1(ell, 2 * jordan_deg), f"jordan hilbert: {out}")

    return [
        Case("cli_abelian_ring", lambda: _cli(["abelian", "ring"], ring), check_ring),
        Case("cli_validate", lambda: _cli(["validate", "--schema", "element"], x), check_validate),
        Case("cli_jordan_hilbert", lambda: _cli(["jordan", "hilbert", "--max-deg", str(jordan_deg)], {"n": 1, "ell": ell}),
             check_jordan),
    ]


class Workload:
    def __init__(self, seed: int, rounds: int):
        self.seed = seed

    def make_round(self, index: int) -> list[Case]:
        rng = random.Random(self.seed * 1_000_003 + index)
        cases: list[Case] = []
        for shape in SHAPES:
            cases += _problem_cases(*_sample_shape(rng, shape))
        return cases + _cli_cases(rng)
