"""Abelian Coulomb branch algebras on the monopole basis.

Elements of the Coulomb branch of an ``AbelianTheory`` are finite sums
f_lam(w) * r^lam over coweights lam; the lam-component is the pi_1 grading of
the term.  The classical product, the quantization into difference operators,
the Poisson bracket and the cohomological grading live here; the
birationality witness, a symbolic value, lives in ``symbolic``.  Coefficients
are ``polynomial.Polynomial`` values, as in ``difference_ops``, with hbar's
exponent always 0; a monopole dressing is a product of linear forms
<rho_i, w>, so pulling an operator back divides by one linear form at a
time.  The theory itself and the Hilbert series need no polynomials; they
live in ``abelian`` and are re-exported.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import difference_ops as dops
from .abelian import AbelianTheory, hilbert_series  # noqa: F401 (re-exported)
from .cancel import CancellationToken, check
from .difference_ops import DifferenceOperator, _GradedSum, _merge, to_poly
from .errors import DimensionError, DomainError, LiftError
from .lattices import CharacterVector, Coweight, as_coweight, pairing
from .polynomial import Polynomial


class CoulombElement(_GradedSum):
    """Finite sum of f_lam(w) * r^lam with exact rational coefficients, held
    as polynomials in w_1 .. w_rank, hbar whose hbar exponents are all 0."""

    _basis = "r"
    _rank_mismatch = "elements live in different theories"

    @staticmethod
    def from_terms(rank: int, terms) -> "CoulombElement":
        def classical(p):
            p = to_poly(rank, p)
            if p.hbar_degree() > 0:
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


@lru_cache(maxsize=256)
def _linear_form(rank: int, rho: CharacterVector) -> Polynomial:
    """<rho, w> as a polynomial in w_1 .. w_rank, hbar."""
    return Polynomial({tuple(int(i == j) for i in range(rank + 1)): c for j, c in enumerate(rho) if c})


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
                    form = _linear_form(th.rank, rho)
                    for _ in range(d2 // 2):
                        check(token)
                        prod *= form
            acc.append((key, prod))
    return CoulombElement.from_terms(th.rank, acc)


def _quantized_shift(
    th: AbelianTheory, lam: Coweight, token: CancellationToken | None = None
) -> Polynomial:
    """The coefficient of u_lam: descending-factor dressing of e^lam by the
    positive pairings, prod_i prod_{0 <= j < <rho_i, lam>} (<rho_i, w> - j hbar)."""
    hbar = (0,) * th.rank + (1,)
    poly = Polynomial.constant(th.rank + 1, 1)
    for rho in th.characters:
        form = _linear_form(th.rank, rho)
        for j in range(pairing(lam, rho)):
            check(token)
            poly *= Polynomial({**form.num, hbar: -j}) if j else form
    return poly


def _dressing_factors(th: AbelianTheory, lam: Coweight) -> list[Polynomial]:
    """The linear factors of the quantized dressing at hbar = 0, each
    <rho_i, w> repeated max(0, <rho_i, lam>) times."""
    return [_linear_form(th.rank, rho) for rho in th.characters for _ in range(pairing(lam, rho))]


def _classical_dressing(th: AbelianTheory, lam: Coweight) -> Polynomial:
    """The quantized dressing at hbar = 0: prod_i <rho_i, w>^max(0, <rho_i, lam>)."""
    poly = Polynomial.constant(th.rank + 1, 1)
    for form in _dressing_factors(th, lam):
        poly *= form
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
        out.append((lam, f * _quantized_shift(th, lam, token)))
    return DifferenceOperator.from_terms(th.rank, out)


def quantum_relation(th: AbelianTheory, lam) -> tuple[DifferenceOperator, DifferenceOperator]:
    """(u_lam u_{-lam}, u_{-lam} u_lam), both supported on e^0."""
    lam = as_coweight(lam)
    neg = tuple(-x for x in lam)
    up = DifferenceOperator.from_terms(th.rank, {lam: _quantized_shift(th, lam)})
    down = DifferenceOperator.from_terms(th.rank, {neg: _quantized_shift(th, neg)})
    return dops.multiply(up, down), dops.multiply(down, up)


def element_from_operator(th: AbelianTheory, op: DifferenceOperator) -> CoulombElement:
    """Pull an hbar-free operator back along the hbar = 0 basis identification
    r^lam <-> u_lam|_{hbar=0}, dividing each coefficient by the linear factors
    of its dressing one at a time."""
    out = []
    for lam, poly in op.polys:
        if poly.hbar_degree() > 0:
            raise LiftError("operator still involves hbar")
        try:
            for form in _dressing_factors(th, lam):
                poly = poly.divide_linear(form)
        except LiftError:
            raise LiftError(f"coefficient at {lam} is not divisible by the monopole dressing") from None
        out.append((lam, poly))
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
    (monom,) = poly.num
    return Fraction(sum(monom)) + Fraction(sum(abs(pairing(lam, rho)) for rho in th.characters), 2)
