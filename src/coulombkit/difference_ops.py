"""hbar-difference operators on a torus Lie algebra.

An operator is a finite sum of terms f(w, hbar) * e^lam, where e^lam shifts
polynomial arguments by hbar * lam and f is an exact rational-coefficient
polynomial.  Multiplication normal-orders coefficients to the left of shifts:
(f e^lam)(g e^mu) = f * g(w + hbar lam) * e^(lam + mu).

Coefficients are elements of one sparse polynomial ring per rank,
QQ[w_1 .. w_rank, hbar] (``poly_ring``); sympy expressions appear only where
values enter (``from_terms``) and leave (``terms``, ``str``).  The ring's
generic substitution is not used: the shift expands each monomial by the
binomial theorem, (w_j + lam_j hbar)^a = sum_k C(a, k) lam_j^k w_j^(a-k) hbar^k,
into one dict of exponent tuples, and the hbar specialization evaluates the
hbar-degree pieces of a coefficient at the value by Horner's rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb

import sympy
from sympy.polys.domains import QQ
from sympy.polys.rings import PolyElement, PolyRing, ring

from .cancel import CancellationToken, check
from .errors import DimensionError, DomainError, LiftError
from .lattices import Coweight

HBAR = sympy.Symbol("hbar")


def w_vars(rank: int) -> tuple[sympy.Symbol, ...]:
    """Equivariant parameters w_1 .. w_rank."""
    if rank == 0:
        return ()
    return sympy.symbols(f"w1:{rank + 1}")


@lru_cache(maxsize=32)
def poly_ring(rank: int) -> PolyRing:
    """QQ[w_1 .. w_rank, hbar] in lex order; hbar is the last generator."""
    return ring(w_vars(rank) + (HBAR,), QQ)[0]


def to_poly(rank: int, value) -> PolyElement:
    """``value`` (a ring element, a rational or a polynomial sympy expression)
    as an element of ``poly_ring(rank)``."""
    R = poly_ring(rank)
    if isinstance(value, PolyElement) and value.ring == R:
        return value
    try:
        return R.from_expr(sympy.sympify(value))
    except (ValueError, TypeError, sympy.SympifyError):
        gens = ", ".join(map(str, R.symbols))
        raise DomainError(f"{value} is not a polynomial in {gens}") from None


def _merge(rank: int, terms, convert, owner: str) -> tuple[tuple[Coweight, PolyElement], ...]:
    """Convert each coefficient, sum equal coweights, drop zero coefficients,
    sort by coweight."""
    merged: dict[Coweight, PolyElement] = {}
    for lam, p in terms.items() if isinstance(terms, dict) else terms:
        lam = tuple(int(x) for x in lam)
        if len(lam) != rank:
            raise DimensionError(f"coweight length does not match {owner} rank")
        p = convert(p)
        merged[lam] = merged[lam] + p if lam in merged else p
    return tuple((lam, p) for lam, p in sorted(merged.items()) if p)


@dataclass(frozen=True)
class _GradedSum:
    """Finite sum over coweights lam of a coefficient in ``poly_ring(rank)``
    times the basis element ``_basis``^lam of degree lam."""

    rank: int
    polys: tuple[tuple[Coweight, PolyElement], ...]

    @property
    def terms(self) -> tuple[tuple[Coweight, sympy.Expr], ...]:
        return tuple((lam, p.as_expr()) for lam, p in self.polys)

    def _check_rank(self, other) -> None:
        if self.rank != other.rank:
            raise DimensionError(self._rank_mismatch)

    def __add__(self, other):
        self._check_rank(other)
        return self.from_terms(self.rank, self.polys + other.polys)

    def __sub__(self, other):
        self._check_rank(other)
        return self.from_terms(self.rank, self.polys + tuple((lam, -p) for lam, p in other.polys))

    def scale(self, c):
        c = to_poly(self.rank, c)
        return self.from_terms(self.rank, [(lam, c * p) for lam, p in self.polys])

    def is_zero(self) -> bool:
        return not self.polys

    def __str__(self) -> str:
        if not self.polys:
            return "0"
        return " + ".join(
            f"({p.as_expr()})" + (f"*{self._basis}^{list(lam)}" if any(lam) else "")
            for lam, p in self.polys
        )


class DifferenceOperator(_GradedSum):
    """Finite sum over coweights lam of f_lam(w, hbar) * e^lam."""

    _basis = "e"
    _rank_mismatch = "operators act on tori of different ranks"

    @staticmethod
    def from_terms(rank: int, terms) -> "DifferenceOperator":
        return DifferenceOperator(rank, _merge(rank, terms, lambda p: to_poly(rank, p), "operator"))

    @staticmethod
    def zero(rank: int) -> "DifferenceOperator":
        return DifferenceOperator(rank, ())

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


def _shift(p: PolyElement, lam: Coweight, token: CancellationToken | None = None) -> PolyElement:
    """p(w + hbar * lam, hbar), monomial by monomial by the binomial theorem:
    w_j^a -> sum_k C(a, k) lam_j^k w_j^(a - k) hbar^k."""
    moved = [(j, l) for j, l in enumerate(lam) if l]
    if not moved:
        return p
    zero = p.ring.domain.zero
    out: dict = {}
    for monom, coeff in p.items():
        check(token)
        expansions = [[(j, k, comb(a, k) * l**k) for k in range(a + 1)] for j, l in moved if (a := monom[j])]
        for choice in product(*expansions):
            m, factor = list(monom), 1
            for j, k, b in choice:
                m[j] -= k
                m[-1] += k
                factor *= b
            m = tuple(m)
            out[m] = out.get(m, zero) + coeff * factor
    return p.new({m: c for m, c in out.items() if c})


def shift_polynomial(rank: int, poly, lam: Coweight) -> sympy.Expr:
    """Substitute w_j -> w_j + hbar * lam_j, the action of e^lam."""
    return _shift(to_poly(rank, poly), lam).as_expr()


def multiply(
    a: DifferenceOperator, b: DifferenceOperator, token: CancellationToken | None = None
) -> DifferenceOperator:
    a._check_rank(b)
    acc: list[tuple[Coweight, PolyElement]] = []
    for lam, f in a.polys:
        for mu, g in b.polys:
            check(token)
            key = tuple(x + y for x, y in zip(lam, mu))
            acc.append((key, f * _shift(g, lam, token)))
    return DifferenceOperator.from_terms(a.rank, acc)


def commutator(
    a: DifferenceOperator, b: DifferenceOperator, token: CancellationToken | None = None
) -> DifferenceOperator:
    return multiply(a, b, token) - multiply(b, a, token)


def specialize_hbar(a: DifferenceOperator, value) -> DifferenceOperator:
    """hbar -> ``value`` (a rational or a polynomial) in every coefficient."""
    v = to_poly(a.rank, value)
    return DifferenceOperator.from_terms(a.rank, [(lam, _at_hbar(p, v)) for lam, p in a.polys])


def _at_hbar(p: PolyElement, v: PolyElement) -> PolyElement:
    """p(w, v) by Horner's rule over the hbar-degree pieces p_d(w) of p."""
    pieces: dict[int, dict] = {}
    for monom, coeff in p.items():
        pieces.setdefault(monom[-1], {})[monom[:-1] + (0,)] = coeff
    acc = p.ring.zero
    for d in range(max(pieces, default=0), -1, -1):
        acc = acc * v + p.new(pieces.get(d, ()))
    return acc


def poisson_from_lifts(
    a_lift: DifferenceOperator, b_lift: DifferenceOperator, token: CancellationToken | None = None
) -> DifferenceOperator:
    """(a*b - b*a) / hbar followed by hbar -> 0.

    Every commutator coefficient is divisible by hbar, because hbar is central
    and the algebra is commutative modulo hbar; LiftError guards that.
    """
    comm = commutator(a_lift, b_lift, token)
    hbar = poly_ring(comm.rank).gens[-1]
    out = []
    for lam, p in comm.polys:
        if p.coeff_wrt(hbar, 0):
            raise LiftError(f"commutator coefficient at {lam} is not divisible by hbar")
        out.append((lam, p.coeff_wrt(hbar, 1)))
    return DifferenceOperator.from_terms(comm.rank, out)
