"""Abelian gauge theories and the Hilbert series of their Coulomb branches.

A theory is a torus rank together with the character vectors of the matter
representation.  Its Coulomb branch's Hilbert series is a lattice count (the
monopole formula), so this module needs only integer linear algebra; the
element algebra on the monopole basis lives in ``monopole``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cancel import check
from .errors import DimensionError, DomainError
from .lattices import CharacterVector, IntMatrix, as_integers, koszul_counts, smith_normal_form


@dataclass(frozen=True)
class AbelianTheory:
    """Abelian gauge theory (T, N): torus rank and matter characters."""

    rank: int
    characters: tuple[CharacterVector, ...]

    @staticmethod
    def of(rank: int, characters) -> "AbelianTheory":
        chars = tuple(as_integers(c, "character") for c in characters)
        if any(len(c) != rank for c in chars):
            raise DimensionError("character length does not match torus rank")
        return AbelianTheory(rank, chars)

    @staticmethod
    def a_type(ell: int) -> "AbelianTheory":
        """Rank-1 theory with ell weight-1 characters: the A_{ell-1} surface."""
        return AbelianTheory.of(1, [(1,)] * ell)


def top_half_degree(max_deg) -> int:
    """2 * max_deg, the last half-degree a graded dimension table covers."""
    try:
        q = Fraction(max_deg)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):  # None, nan or "abc", inf, "1/0"
        q = None
    if q is None or q.numerator < 0 or 2 % q.denominator:
        raise DomainError(f"max_deg must be a non-negative half-integer, not {max_deg}")
    return 2 * q.numerator // q.denominator


def hilbert_series(th: AbelianTheory, max_deg) -> list[int]:
    """Graded dimensions of the Coulomb branch ring in half-integer steps.

    Entry i is the dimension in degree i/2.  With s one half-degree and A the
    n x k character matrix, the monopole formula sums s^{|A lam|_1} over the
    coweights lam, times 1 / (1 - s^2)^k for the dressings by the w's.  When A
    has rank k, lam -> y = A lam is a bijection onto the y in Z^n whose class
    U y vanishes in Z/d_1 + ... + Z/d_k + Z^{n-k} (Smith form U A V = D).
    Give x_i the class of U e_i and y_i that of -U e_i; the monomials x^a y^b
    over one y = a - b number s^{|y|_1} / (1 - s^2)^n, so the series is
    (1 - s^2)^{n-k} times the count of class-zero monomials.  ``koszul_counts``
    sums s^{|y|_1} over the class-zero y directly, one character at a time,
    keeping only the classes that the later characters can cancel, so it holds
    O(t^min(k, n-k)) states of degree t; on rank 1 its cost is linear in
    max_deg.
    """
    top = top_half_degree(max_deg)
    n, k = len(th.characters), th.rank
    if n < k:  # the shape alone refuses, with no Smith form
        check()
        raise DomainError("unbounded degree-0 piece: characters do not span the dual lattice")
    u, d, _ = smith_normal_form(IntMatrix.from_rows(th.characters))
    if 0 in (diag := [d.entries[j][j] for j in range(k)]):
        raise DomainError("unbounded degree-0 piece: characters do not span the dual lattice")
    # (U y)_j must vanish mod d_j for j < k and in Z for j >= k; d_j = 1 asks nothing
    rows = [j for j in range(n) if j >= k or diag[j] != 1]
    weights = [tuple(u.entries[j][i] for j in rows) for i in range(n)]
    moduli = [diag[j] if j < k else 0 for j in rows]
    return koszul_counts(weights, moduli, top, n - k)
