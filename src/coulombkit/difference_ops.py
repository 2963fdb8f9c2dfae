"""hbar-difference operators on a torus Lie algebra.

An operator is a finite sum of terms f(w, hbar) * e^lam, where e^lam shifts
polynomial arguments by hbar * lam and f is an exact rational-coefficient
polynomial.  Multiplication normal-orders coefficients to the left of shifts:
(f e^lam)(g e^mu) = f * g(w + hbar lam) * e^(lam + mu).

Coefficients are ``polynomial.Polynomial`` values in w_1 .. w_rank, hbar:
integer numerators over one common denominator, so integer coefficients never
pay for a gcd.  The shift expands each monomial by the binomial theorem,
(w_j + lam_j hbar)^a = sum_k C(a, k) lam_j^k w_j^(a-k) hbar^k, and the hbar
specialization evaluates the hbar-degree pieces of a coefficient at the value
by Horner's rule.  ``str`` prints through ``Polynomial`` itself.

Symbolic values cross in and out through ``coulombkit.symbolic``, on use.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import NamedTuple

from .cancel import check
from .errors import DimensionError, LiftError
from .lattices import Coweight, as_integers
from .polynomial import Polynomial


def to_poly(rank: int, value) -> Polynomial:
    """``value`` (a polynomial, an int, a Fraction or a polynomial symbolic
    expression, read by ``symbolic.from_expr``) as a polynomial in
    w_1 .. w_rank, hbar."""
    if isinstance(value, Polynomial):
        return value
    if type(value) is int or isinstance(value, Fraction):
        return Polynomial.constant(rank + 1, value)
    from .symbolic import from_expr

    return from_expr(rank, value)


def _collect(pairs) -> tuple[tuple[Coweight, Polynomial], ...]:
    """Sum the polynomials of equal coweights, drop zeros, sort; the pairs are already valid."""
    merged: dict[Coweight, Polynomial] = {}
    for lam, p in pairs:
        merged[lam] = merged[lam] + p if lam in merged else p
    return tuple((lam, p) for lam, p in sorted(merged.items()) if p)


def _merge(rank: int, terms, convert, owner: str) -> tuple[tuple[Coweight, Polynomial], ...]:
    """Read each coweight and convert each coefficient, then ``_collect``."""
    pairs = []
    for lam, p in terms.items() if isinstance(terms, dict) else terms:
        lam = as_integers(lam, "coweight")
        if len(lam) != rank:
            raise DimensionError(f"coweight length does not match {owner} rank")
        pairs.append((lam, convert(p)))
    return _collect(pairs)


class _GradedSum(NamedTuple):
    """Finite sum over coweights lam of a polynomial coefficient in
    w_1 .. w_rank, hbar times the basis element ``_basis``^lam of degree lam."""

    rank: int
    polys: tuple[tuple[Coweight, Polynomial], ...]

    @property
    def terms(self) -> tuple:
        from .symbolic import as_expr

        return tuple((lam, as_expr(self.rank, p)) for lam, p in self.polys)

    def _check_rank(self, other):
        """``other`` once its rank matches; a sum of another kind is read through ``from_terms``."""
        if self.rank != other.rank:
            raise DimensionError(self._rank_mismatch)
        return other if type(other) is type(self) else self.from_terms(self.rank, other.polys)

    def __add__(self, other):
        other = self._check_rank(other)
        return type(self)(self.rank, _collect(self.polys + other.polys))

    def __sub__(self, other):
        other = self._check_rank(other)
        return type(self)(self.rank, _collect(self.polys + tuple((lam, -p) for lam, p in other.polys)))

    def scale(self, c):
        c = to_poly(self.rank, c)
        return self.from_terms(self.rank, [(lam, c * p) for lam, p in self.polys])

    def is_zero(self) -> bool:
        return not self.polys

    def __str__(self) -> str:
        if not self.polys:
            return "0"
        return " + ".join(
            f"({p})" + (f"*{self._basis}^{list(lam)}" if any(lam) else "") for lam, p in self.polys
        )


class DifferenceOperator(_GradedSum):
    """Finite sum over coweights lam of f_lam(w, hbar) * e^lam."""

    __slots__ = ()
    _basis = "e"
    _rank_mismatch = "operators act on tori of different ranks"

    @staticmethod
    def from_terms(rank: int, terms) -> "DifferenceOperator":
        return DifferenceOperator(rank, _merge(rank, terms, lambda p: to_poly(rank, p), "operator"))

    @staticmethod
    def one(rank: int) -> "DifferenceOperator":
        return DifferenceOperator.from_terms(rank, {(0,) * rank: 1})

    @staticmethod
    def shift(rank: int, lam) -> "DifferenceOperator":
        """The pure shift operator e^lam."""
        return DifferenceOperator.from_terms(rank, {tuple(lam): 1})

    @staticmethod
    def polynomial(rank: int, poly) -> "DifferenceOperator":
        """A multiplication operator f(w, hbar) * e^0."""
        return DifferenceOperator.from_terms(rank, {(0,) * rank: poly})

    def __mul__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        return multiply(self, other)


def shift_polynomial(rank: int, poly, lam: Coweight):
    """Substitute w_j -> w_j + hbar * lam_j, the action of e^lam."""
    from .symbolic import as_expr

    return as_expr(rank, to_poly(rank, poly).shift(lam))


def multiply(a: DifferenceOperator, b: DifferenceOperator) -> DifferenceOperator:
    a._check_rank(b)
    acc: list[tuple[Coweight, Polynomial]] = []
    for lam, f in a.polys:
        for mu, g in b.polys:
            check()
            acc.append((tuple(map(add, lam, mu)), f * g.shift(lam)))
    return DifferenceOperator(a.rank, _collect(acc))


def commutator(a: DifferenceOperator, b: DifferenceOperator) -> DifferenceOperator:
    return multiply(a, b) - multiply(b, a)


def specialize_hbar(a: DifferenceOperator, value) -> DifferenceOperator:
    """hbar -> ``value`` (a rational or a polynomial) in every coefficient."""
    v = to_poly(a.rank, value)
    return DifferenceOperator(a.rank, _collect((lam, p.at_hbar(v)) for lam, p in a.polys))


def poisson_from_lifts(a_lift: DifferenceOperator, b_lift: DifferenceOperator) -> DifferenceOperator:
    """(a*b - b*a) / hbar followed by hbar -> 0.

    Every commutator coefficient is divisible by hbar, because hbar is central
    and the algebra is commutative modulo hbar; LiftError guards that.
    """
    comm = commutator(a_lift, b_lift)
    out = []
    for lam, p in comm.polys:
        if p.hbar_coefficient(0):
            raise LiftError(f"commutator coefficient at {lam} is not divisible by hbar")
        out.append((lam, p.hbar_coefficient(1)))
    return DifferenceOperator(comm.rank, _collect(out))
