"""Higgs-side Hamiltonian reduction for torus actions, by exact invariant theory.

The reducing torus acts on hypermultiplet pairs (x_i, y_i) through an integer
charge matrix; the moment ideal is generated by the weighted sums of x_i y_i.
Graded dimensions of the invariant quotient are a Koszul count: the moment
generators form a regular sequence of weight-zero elements, so the quotient's
invariants are the weight-zero monomials cut down by (1 - t)^m.  Both x_i and
y_i carry degree 1/2 so the moment generators are homogeneous of degree 1,
matching the Coulomb-side normalization.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .abelian import AbelianTheory, hilbert_series, top_half_degree
from .errors import DimensionError
from .lattices import IntMatrix, as_integers, dual_sequence, koszul_counts


class HiggsTheory(NamedTuple):
    """n hypermultiplet pairs with an n x m integer charge matrix for the
    reducing torus; y_i carries the negated weight of x_i."""

    n: int
    charges: tuple[tuple[int, ...], ...]  # row i = weight of x_i

    @staticmethod
    def of(charges) -> "HiggsTheory":
        rows = tuple(as_integers(row, "charge") for row in charges)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionError("ragged charge matrix")
        th = HiggsTheory(len(rows), rows)
        if rows and rows[0]:
            if IntMatrix(rows).rank() < len(rows[0]):
                raise DimensionError("charge matrix columns must be linearly independent")
        return th

    @property
    def m(self) -> int:
        return len(self.charges[0]) if self.charges and self.charges[0] else 0

    def variables(self):
        from .symbolic import higgs_variables

        return higgs_variables(self.n)


GradedDimensionTable = dict[Fraction, int]


@lru_cache(maxsize=4)
def _half_degrees(n: int) -> tuple[Fraction, ...]:
    """The keys 0, 1/2, 1, ... of an n-entry table, shared by the tables of one length."""
    return tuple(Fraction(t, 2) for t in range(n))


def dims_to_table(dims: list[int]) -> GradedDimensionTable:
    """Dimensions listed by half-degree 0, 1/2, 1, ... as a table by degree."""
    return dict(zip(_half_degrees(len(dims)), dims))


def invariant_hilbert(th: HiggsTheory, max_deg) -> GradedDimensionTable:
    """Graded dimension of the torus invariants of the moment-ideal quotient.

    The mu_j form a regular sequence: (x, y) -> (x_i y_i) is flat, and the
    mu_j are linearly independent linear forms in the x_i y_i because the
    columns of the charge matrix are (``HiggsTheory.of`` enforces it), so
    mu^{-1}(0) has codimension m.  Taking torus invariants is exact and each
    mu_j has weight zero, so the Koszul resolution gives
    HS(C[x, y] / mu)^T = (1 - s^2)^m * #(weight-zero monomials), where s steps
    one half-degree (deg x_i = deg y_i = 1/2, deg mu_j = 1).
    """
    return dims_to_table(koszul_counts(th.charges, (0,) * th.m, top_half_degree(max_deg), th.m))


class ComparisonReport(NamedTuple):
    coulomb: GradedDimensionTable
    higgs: GradedDimensionTable
    max_deg: Fraction
    verdict: bool


def coulomb_higgs_compare(a: IntMatrix, max_deg) -> ComparisonReport:
    """Toric hyperkaehler duality check at the level of graded dimensions.

    The Coulomb side is the abelian theory whose characters are the rows of
    the cocharacter inclusion ``a``; the Higgs side reduces C^n + (C^n)* by
    the dual torus, whose charges ``dual_sequence(a)`` are a saturated kernel
    basis: independent columns, so no rank pass checks them again.

    Both sides run one ``koszul_counts`` DP, which sums s^|m|_1 over the
    relation vectors m of its weights: the image of ``a`` on the Coulomb side,
    ker(B^T) with B = ``dual_sequence(a)`` on the Higgs side, which is the same
    lattice when ``dual_sequence`` is right (Gale duality).  So the verdict,
    which compares the two dimension lists in half-degree order, checks
    ``dual_sequence``, the Smith form and the grading; the independent oracles
    (coweight box scan, rank method) live in the tests.
    """
    max_deg = Fraction(top_half_degree(max_deg), 2)
    coulomb_dims = hilbert_series(AbelianTheory.of(a.ncols, a.entries), max_deg)
    b = dual_sequence(a)
    higgs_table = invariant_hilbert(HiggsTheory(b.nrows, b.entries), max_deg)
    # both tables cover the half-degrees 0 .. max_deg, in order
    verdict = coulomb_dims == list(higgs_table.values())
    return ComparisonReport(dims_to_table(coulomb_dims), higgs_table, max_deg, verdict)
