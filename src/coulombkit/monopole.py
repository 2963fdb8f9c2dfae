"""Abelian Coulomb branch algebras on the monopole basis.

A theory is a torus rank together with the character vectors of the matter
representation.  Elements are finite sums f_lam(w) * r^lam over coweights lam;
the lam-component is the pi_1 grading of the term.  The classical product, the
quantization into difference operators, the Poisson bracket, the cohomological
grading, the Hilbert series and the birationality witness all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import sympy
from sympy.polys.rings import PolyElement

from . import difference_ops as dops
from .cancel import CancellationToken, check
from .difference_ops import DifferenceOperator, _GradedSum, _merge, poly_ring, to_poly
from .errors import DimensionError, DomainError, LiftError
from .lattices import CharacterVector, Coweight, IntMatrix, koszul_counts, pairing, smith_normal_form


@dataclass(frozen=True)
class AbelianTheory:
    """Abelian gauge theory (T, N): torus rank and matter characters."""

    rank: int
    characters: tuple[CharacterVector, ...]
    names: tuple[str, ...] = ()

    @staticmethod
    def of(rank: int, characters, names=()) -> "AbelianTheory":
        chars = tuple(tuple(int(x) for x in c) for c in characters)
        if any(len(c) != rank for c in chars):
            raise DimensionError("character length does not match torus rank")
        return AbelianTheory(rank, chars, tuple(names))

    @staticmethod
    def a_type(ell: int) -> "AbelianTheory":
        """Rank-1 theory with ell weight-1 characters: the A_{ell-1} surface."""
        return AbelianTheory.of(1, [(1,)] * ell)


class CoulombElement(_GradedSum):
    """Finite sum of f_lam(w) * r^lam with exact rational coefficients, held
    in ``poly_ring(rank)`` with no hbar."""

    _basis = "r"
    _rank_mismatch = "elements live in different theories"

    @staticmethod
    def from_terms(rank: int, terms) -> "CoulombElement":
        def classical(p):
            p = to_poly(rank, p)
            if p.degree(poly_ring(rank).gens[-1]) > 0:
                raise DomainError("classical elements may not involve hbar")
            return p

        return CoulombElement(rank, _merge(rank, terms, classical, "theory"))

    @staticmethod
    def monopole(rank: int, lam, poly=1) -> "CoulombElement":
        """f(w) * r^lam."""
        return CoulombElement.from_terms(rank, {tuple(lam): poly})

    @staticmethod
    def polynomial(rank: int, poly) -> "CoulombElement":
        return CoulombElement.from_terms(rank, {(0,) * rank: poly})


def _linear_form(th: AbelianTheory, rho: CharacterVector) -> PolyElement:
    """<rho, w> in poly_ring(rank)."""
    R = poly_ring(th.rank)
    return sum((c * w for c, w in zip(rho, R.gens)), R.zero)


def classical_product(
    th: AbelianTheory,
    a: CoulombElement,
    b: CoulombElement,
    token: CancellationToken | None = None,
) -> CoulombElement:
    """Bilinear extension of the monopole product rule

        r^lam * r^mu = prod_i <rho_i, w>^{d_i} r^{lam+mu},
        d_i = (|<rho_i,lam>| + |<rho_i,mu>| - |<rho_i,lam+mu>|) / 2.
    """
    if th.rank != a.rank or th.rank != b.rank:
        raise DimensionError("element rank does not match theory rank")
    acc = []
    for lam, f in a.polys:
        for mu, g in b.polys:
            check(token)
            key = tuple(x + y for x, y in zip(lam, mu))
            prod = f * g
            for rho in th.characters:
                p, q = pairing(lam, rho), pairing(mu, rho)
                d2 = abs(p) + abs(q) - abs(p + q)
                assert d2 % 2 == 0
                if d2:
                    prod *= _linear_form(th, rho) ** (d2 // 2)
            acc.append((key, prod))
    return CoulombElement.from_terms(th.rank, acc)


def _quantized_shift(th: AbelianTheory, lam: Coweight) -> PolyElement:
    """The coefficient of u_lam: descending-factor dressing of e^lam by the
    positive pairings."""
    R = poly_ring(th.rank)
    hbar = R.gens[-1]
    poly = R.one
    for rho in th.characters:
        form = _linear_form(th, rho)
        for j in range(pairing(lam, rho)):
            poly *= form - j * hbar
    return poly


def quantize(
    th: AbelianTheory, a: CoulombElement, token: CancellationToken | None = None
) -> DifferenceOperator:
    """Linear map f(w) r^lam -> f(w) u_lam into the difference-operator algebra."""
    if th.rank != a.rank:
        raise DimensionError("element rank does not match theory rank")
    out = []
    for lam, f in a.polys:
        check(token)
        out.append((lam, f * _quantized_shift(th, lam)))
    return DifferenceOperator.from_terms(th.rank, out)


def quantum_relation(th: AbelianTheory, lam) -> tuple[DifferenceOperator, DifferenceOperator]:
    """(u_lam u_{-lam}, u_{-lam} u_lam), both supported on e^0."""
    lam = tuple(int(x) for x in lam)
    neg = tuple(-x for x in lam)
    up = DifferenceOperator.from_terms(th.rank, {lam: _quantized_shift(th, lam)})
    down = DifferenceOperator.from_terms(th.rank, {neg: _quantized_shift(th, neg)})
    return dops.multiply(up, down), dops.multiply(down, up)


def element_from_operator(th: AbelianTheory, op: DifferenceOperator) -> CoulombElement:
    """Pull an hbar-free operator back along the hbar = 0 basis identification
    r^lam <-> u_lam|_{hbar=0}."""
    hbar = poly_ring(th.rank).gens[-1]
    out = []
    for lam, poly in op.polys:
        if poly.degree(hbar) > 0:
            raise LiftError("operator still involves hbar")
        quo, rem = poly.div(_quantized_shift(th, lam).compose(hbar, 0))
        if rem:
            raise LiftError(f"coefficient at {lam} is not divisible by the monopole dressing")
        out.append((lam, quo))
    return CoulombElement.from_terms(th.rank, out)


def poisson(
    th: AbelianTheory,
    a: CoulombElement,
    b: CoulombElement,
    token: CancellationToken | None = None,
) -> CoulombElement:
    """Poisson bracket extracted from the quantization: commutator over hbar at
    hbar = 0, pulled back to the monopole basis."""
    bracket = dops.poisson_from_lifts(quantize(th, a, token), quantize(th, b, token), token)
    return element_from_operator(th, bracket)


def grading_degree(th: AbelianTheory, a: CoulombElement) -> Fraction:
    """Cohomological degree of a monomial term: deg(w^m r^lam) = m + (1/2) sum |<rho_i,lam>|."""
    if len(a.polys) != 1 or len(a.polys[0][1]) != 1:
        raise DomainError("grading degree is defined for single monomial terms")
    lam, poly = a.polys[0]
    (monom,) = poly.itermonoms()
    return Fraction(sum(monom)) + Fraction(sum(abs(pairing(lam, rho)) for rho in th.characters), 2)


def hilbert_series(
    th: AbelianTheory, max_deg, token: CancellationToken | None = None
) -> list[int]:
    """Graded dimensions of the Coulomb branch ring in half-integer steps.

    Entry i is the dimension in degree i/2.  With s one half-degree and A the
    n x k character matrix, the monopole formula sums s^{|A lam|_1} over the
    coweights lam, times 1 / (1 - s^2)^k for the dressings by the w's.  When A
    has rank k, lam -> y = A lam is a bijection onto the y in Z^n whose class
    U y vanishes in Z/d_1 + ... + Z/d_k + Z^{n-k} (Smith form U A V = D).
    Give x_i the class of U e_i and y_i that of -U e_i; the monomials x^a y^b
    over one y = a - b number s^{|y|_1} / (1 - s^2)^n, so the series is
    (1 - s^2)^{n-k} times the count of class-zero monomials.  The DP keeps
    only classes the later characters can cancel: O(t^min(k, n-k)) in degree t.
    """
    max_deg = Fraction(max_deg)
    if max_deg < 0:
        raise DomainError("max_deg must be non-negative")
    n, k = len(th.characters), th.rank
    u, d, _ = smith_normal_form(IntMatrix.from_rows(th.characters))
    diag = [d.entries[j][j] for j in range(min(n, k))]
    if n < k or 0 in diag:
        raise DomainError("unbounded degree-0 piece: characters do not span the dual lattice")
    # (U y)_j must vanish mod d_j for j < k and in Z for j >= k; d_j = 1 asks nothing
    rows = [j for j in range(n) if j >= k or diag[j] != 1]
    weights = [tuple(u.entries[j][i] for j in rows) for i in range(n)]
    moduli = [diag[j] if j < k else 0 for j in rows]
    return koszul_counts(weights, moduli, int(2 * max_deg), n - k, token)


def birationality_witness(th: AbelianTheory, lam) -> sympy.Expr:
    """r^lam * r^{-lam} = prod_i <rho_i, w>^{|<rho_i, lam>|}, a nonzero
    polynomial: every monopole class is invertible after inverting the w's."""
    lam = tuple(int(x) for x in lam)
    poly = poly_ring(th.rank).one
    for rho in th.characters:
        p = abs(pairing(lam, rho))
        if p:
            poly *= _linear_form(th, rho) ** p
    return poly.as_expr()
