"""Abelian Coulomb branch algebras on the monopole basis.

Elements of the Coulomb branch of an ``AbelianTheory`` are finite sums
f_lam(w) * r^lam over coweights lam; the lam-component is the pi_1 grading of
the term.  The classical product, the quantization into difference operators,
the Poisson bracket and the cohomological grading live here; the
birationality witness, a symbolic value, lives in ``symbolic``.  Coefficients
are ``polynomial.Polynomial`` values, as in ``difference_ops``, with hbar's
exponent always 0; a monopole dressing is a product of linear forms <rho_i, w>,
and ``_dressed`` alone multiplies one out, or divides by it, one form at a
time.  The bracket is a closed form on the monopole basis and builds no
operator.  The theory and the Hilbert series need no polynomials; they live in
``abelian`` and are re-exported.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

from . import difference_ops as dops
from .abelian import AbelianTheory, hilbert_series  # noqa: F401 (re-exported)
from .cancel import check
from .difference_ops import DifferenceOperator, _collect, _GradedSum, _merge, to_poly
from .errors import DimensionError, DomainError, LiftError
from .lattices import CharacterVector, Coweight, as_integers, pairing
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


def _terms(th: AbelianTheory, x: CoulombElement) -> tuple:
    """The terms of x, once its rank matches the theory's."""
    if th.rank != x.rank:
        raise DimensionError("element rank does not match theory rank")
    return x.polys


def _checked_terms(th: AbelianTheory, x: CoulombElement) -> tuple:
    """The terms of x, once its rank matches the theory's and the deadline is checked per term."""
    for _ in _terms(th, x):
        check()
    return x.polys


def _term_pairs(th: AbelianTheory, left, right):
    """Each pair (f r^lam, g r^mu) of terms of left and right as lam, f, mu, g and the factors
    (<rho_i, w>, d_i, c_i) with d_i > 0.  For p_i = <rho_i, lam> and q_i = <rho_i, mu>, read once
    per term, both d_i = (|p_i| + |q_i| - |p_i + q_i|) / 2 and c_i = max(0, q_i) p_i - max(0, p_i) q_i
    vanish unless p_i q_i < 0, and then d_i = min(|p_i|, |q_i|) and c_i = p_i |q_i|."""
    forms = [_linear_form(th.rank, rho) for rho in th.characters]
    right = [(mu, g, [pairing(mu, rho) for rho in th.characters]) for mu, g in right]
    for lam, f in left:
        ps = [pairing(lam, rho) for rho in th.characters]
        for mu, g, qs in right:
            check()
            yield lam, f, mu, g, [
                (form, min(abs(p), abs(q)), p * abs(q)) for form, p, q in zip(forms, ps, qs) if p * q < 0]


def _dressed(th: AbelianTheory, poly: Polynomial, pairs, descending: bool = False,
             step=Polynomial.__mul__) -> Polynomial:
    """``poly`` times the dressing given by its (linear form, exponent e) ``pairs``, one linear
    factor at a time in their order, with one deadline check per factor: form^e, or with
    ``descending`` prod_(0 <= j < e) (form - j hbar).  An exponent e <= 0 contributes nothing;
    ``step=Polynomial.divide_linear`` divides by the dressing instead."""
    hbar = (0,) * th.rank + (1,)
    for form, e in pairs:
        for j in range(e):
            check()
            poly = step(poly, Polynomial({**form.num, hbar: -j}) if descending and j else form)
    return poly


def _pairings(th: AbelianTheory, lam: Coweight) -> list:
    """The dressing of u_lam as (<rho_i, w>, <rho_i, lam>) pairs, one per character."""
    return [(_linear_form(th.rank, rho), pairing(lam, rho)) for rho in th.characters]


def classical_product(th: AbelianTheory, a: CoulombElement, b: CoulombElement) -> CoulombElement:
    """Bilinear extension of the monopole product rule

        r^lam * r^mu = prod_i <rho_i, w>^{d_i} r^{lam+mu},
        d_i = (|<rho_i,lam>| + |<rho_i,mu>| - |<rho_i,lam+mu>|) / 2.
    """
    acc = [(tuple(map(add, lam, mu)), _dressed(th, f * g, [(form, d) for form, d, _ in factors]))
           for lam, f, mu, g, factors in _term_pairs(th, _terms(th, a), _terms(th, b))]
    return CoulombElement(th.rank, _collect(acc))


def quantize(th: AbelianTheory, a: CoulombElement) -> DifferenceOperator:
    """Linear map f(w) r^lam -> f(w) u_lam into the difference-operator algebra: u_lam is e^lam
    dressed by prod_i prod_{0 <= j < <rho_i, lam>} (<rho_i, w> - j hbar)."""
    one = Polynomial.constant(th.rank + 1, 1)
    out = [(lam, f * _dressed(th, one, _pairings(th, lam), True)) for lam, f in _checked_terms(th, a)]
    return DifferenceOperator(th.rank, _collect(out))


def quantum_relation(th: AbelianTheory, lam) -> tuple[DifferenceOperator, DifferenceOperator]:
    """(u_lam u_{-lam}, u_{-lam} u_lam), both supported on e^0."""
    lam = as_integers(lam, "coweight")
    one = Polynomial.constant(th.rank + 1, 1)
    up, down = (DifferenceOperator.from_terms(th.rank, {nu: _dressed(th, one, _pairings(th, nu), True)})
                for nu in (lam, tuple(-x for x in lam)))
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
            out.append((lam, _dressed(th, poly, _pairings(th, lam), step=Polynomial.divide_linear)))
        except LiftError:
            raise LiftError(f"coefficient at {lam} is not divisible by the monopole dressing") from None
    return CoulombElement(th.rank, _collect(out))


def poisson(th: AbelianTheory, a: CoulombElement, b: CoulombElement) -> CoulombElement:
    """The Poisson bracket in closed form on the monopole basis.  With p_i, q_i,
    d_i and c_i as in ``_term_pairs`` and d_lam = sum_j lam_j d/dw_j,

        {f r^lam, g r^mu} = [(f d_lam g - g d_mu f) prod_i rho_i^d_i
                             + f g sum_(c_i != 0) c_i rho_i^(d_i - 1) prod_(k != i) rho_k^d_k] r^(lam + mu).

    The commutator of the quantizations has hbar-coefficient F d_lam G - G d_mu F with F = f D_lam,
    G = g D_mu and D_lam = prod_i rho_i^max(0, p_i), as the hbar-linear parts of the dressings cancel;
    then D_lam D_mu = D_(lam+mu) prod_i rho_i^d_i and d_lam D_mu = D_mu sum_i max(0, q_i) p_i / rho_i.
    The sum C reads the partial dressing D at the start of each factor, so where f d_lam g - g d_mu f
    is zero, only the last factor's multiplications of D are skipped."""
    acc, left, right = [], _checked_terms(th, a), _checked_terms(th, b)
    for lam, f, mu, g, factors in _term_pairs(th, left, right):
        lead = f * g.derivative(lam) - g * f.derivative(mu)
        dressing, c_sum = Polynomial.constant(th.rank + 1, 1), Polynomial({})
        for k, (form, d, c) in enumerate(factors, 1):
            check()
            c_sum = _dressed(th, c_sum * form + dressing * Polynomial.constant(th.rank + 1, c), [(form, d - 1)])
            if lead or k < len(factors):
                dressing = _dressed(th, dressing, [(form, d)])
        acc.append((tuple(map(add, lam, mu)), lead * dressing + f * g * c_sum))
    return CoulombElement(th.rank, _collect(acc))


def grading_degree(th: AbelianTheory, a: CoulombElement) -> Fraction:
    """Cohomological degree of a monomial term: deg(w^m r^lam) = m + (1/2) sum |<rho_i,lam>|."""
    if len(a.polys) != 1 or len(a.polys[0][1]) != 1:
        raise DomainError("grading degree is defined for single monomial terms")
    lam, poly = a.polys[0]
    (monom,) = poly.num
    return Fraction(sum(monom)) + Fraction(sum(abs(pairing(lam, rho)) for rho in th.characters), 2)
