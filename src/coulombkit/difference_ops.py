"""hbar-difference operators on a torus Lie algebra.

An operator is a finite sum of terms f(w, hbar) * e^lam, where e^lam shifts
polynomial arguments by hbar * lam and f is an exact rational-coefficient
polynomial.  Multiplication normal-orders coefficients to the left of shifts:
(f e^lam)(g e^mu) = f * g(w + hbar lam) * e^(lam + mu).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import sympy

from .errors import DimensionError, LiftError
from .lattices import Coweight

HBAR = sympy.Symbol("hbar")


def w_vars(rank: int) -> tuple[sympy.Symbol, ...]:
    """Equivariant parameters w_1 .. w_rank."""
    if rank == 0:
        return ()
    return sympy.symbols(f"w1:{rank + 1}")


def _canonical(expr) -> sympy.Expr:
    return sympy.expand(sympy.sympify(expr))


@dataclass(frozen=True)
class DifferenceOperator:
    """Finite sum over coweights lam of f_lam(w, hbar) * e^lam."""

    rank: int
    terms: tuple[tuple[Coweight, sympy.Expr], ...]

    @staticmethod
    def from_terms(rank: int, terms) -> "DifferenceOperator":
        merged: dict[Coweight, sympy.Expr] = {}
        for lam, poly in dict(terms).items() if isinstance(terms, dict) else terms:
            lam = tuple(int(x) for x in lam)
            if len(lam) != rank:
                raise DimensionError("coweight length does not match operator rank")
            merged[lam] = _canonical(merged.get(lam, 0) + poly)
        cleaned = tuple(
            (lam, poly) for lam, poly in sorted(merged.items()) if poly != 0
        )
        return DifferenceOperator(rank, cleaned)

    @staticmethod
    def zero(rank: int) -> "DifferenceOperator":
        return DifferenceOperator(rank, ())

    @staticmethod
    def one(rank: int) -> "DifferenceOperator":
        return DifferenceOperator.from_terms(rank, {(0,) * rank: sympy.Integer(1)})

    @staticmethod
    def shift(rank: int, lam) -> "DifferenceOperator":
        """The pure shift operator e^lam."""
        return DifferenceOperator.from_terms(rank, {tuple(lam): sympy.Integer(1)})

    @staticmethod
    def polynomial(rank: int, poly) -> "DifferenceOperator":
        """A multiplication operator f(w, hbar) * e^0."""
        return DifferenceOperator.from_terms(rank, {(0,) * rank: poly})

    def _check_rank(self, other: "DifferenceOperator") -> None:
        if self.rank != other.rank:
            raise DimensionError("operators act on tori of different ranks")

    def __add__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        self._check_rank(other)
        return DifferenceOperator.from_terms(self.rank, list(self.terms) + list(other.terms))

    def __sub__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        self._check_rank(other)
        return self + other.scale(-1)

    def scale(self, c) -> "DifferenceOperator":
        return DifferenceOperator.from_terms(
            self.rank, [(lam, c * poly) for lam, poly in self.terms]
        )

    def __mul__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        return multiply(self, other)

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for lam, poly in self.terms:
            e = "" if not any(lam) else f"*e^{list(lam)}"
            parts.append(f"({poly}){e}")
        return " + ".join(parts)


def shift_polynomial(rank: int, poly, lam: Coweight) -> sympy.Expr:
    """Substitute w_j -> w_j + hbar * lam_j, the action of e^lam."""
    ws = w_vars(rank)
    subs = {w: w + HBAR * l for w, l in zip(ws, lam) if l}
    return _canonical(sympy.sympify(poly).subs(subs, simultaneous=True))


def multiply(a: DifferenceOperator, b: DifferenceOperator) -> DifferenceOperator:
    a._check_rank(b)
    acc: list[tuple[Coweight, sympy.Expr]] = []
    for lam, f in a.terms:
        for mu, g in b.terms:
            key = tuple(x + y for x, y in zip(lam, mu))
            acc.append((key, f * shift_polynomial(a.rank, g, lam)))
    return DifferenceOperator.from_terms(a.rank, acc)


def commutator(a: DifferenceOperator, b: DifferenceOperator) -> DifferenceOperator:
    return multiply(a, b) - multiply(b, a)


def specialize_hbar(a: DifferenceOperator, value) -> DifferenceOperator:
    val = sympy.Rational(Fraction(value)) if not isinstance(value, sympy.Expr) else value
    return DifferenceOperator.from_terms(
        a.rank, [(lam, poly.subs(HBAR, val)) for lam, poly in a.terms]
    )


def poisson_from_lifts(a_lift: DifferenceOperator, b_lift: DifferenceOperator) -> DifferenceOperator:
    """(a*b - b*a) / hbar followed by hbar -> 0.

    Raises LiftError if some commutator coefficient is not divisible by hbar,
    which signals inconsistent lifts of classical elements.
    """
    comm = commutator(a_lift, b_lift)
    out = []
    for lam, poly in comm.terms:
        if poly.subs(HBAR, 0) != 0:
            raise LiftError(f"commutator coefficient at {lam} is not divisible by hbar")
        out.append((lam, _canonical(poly / HBAR).subs(HBAR, 0)))
    return DifferenceOperator.from_terms(comm.rank, out)
