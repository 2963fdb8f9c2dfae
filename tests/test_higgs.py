"""Torus Hamiltonian reduction and the Coulomb/Higgs dimension comparison."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
import sympy

from coulombkit import higgs
from coulombkit.errors import DimensionError, DomainError
from coulombkit.higgs import (
    HiggsTheory,
    coulomb_higgs_compare,
    invariant_hilbert,
)
from coulombkit.lattices import IntMatrix, smith_diagonal
from coulombkit.symbolic import moment_ideal_generators


def test_moment_generators():
    th = HiggsTheory.of([[1], [-1]])
    xs, ys = th.variables()
    gens = moment_ideal_generators(th)
    assert gens == [xs[0] * ys[0] - xs[1] * ys[1]]
    assert moment_ideal_generators(HiggsTheory.of([[], []])) == []
    ident = HiggsTheory.of([[1, 0], [0, 1]])
    xs, ys = ident.variables()
    assert moment_ideal_generators(ident) == [xs[0] * ys[0], xs[1] * ys[1]]


def test_moment_generators_are_weight_zero():
    th = HiggsTheory.of([[1, 0], [2, 1], [0, -1]])
    xs, ys = th.variables()
    for g in moment_ideal_generators(th):
        # every monomial x_i y_i has weight 0 under the torus
        poly = sympy.Poly(g, *xs, *ys)
        for powers, _ in poly.terms():
            x_pow, y_pow = powers[: th.n], powers[th.n :]
            assert x_pow == y_pow


def test_invariant_hilbert_a1_surface():
    table = invariant_hilbert(HiggsTheory.of([[1], [-1]]), 2)
    assert table == {
        Fraction(0): 1,
        Fraction(1, 2): 0,
        Fraction(1): 3,
        Fraction(3, 2): 0,
        Fraction(2): 5,
    }


def test_invariant_hilbert_free_ring():
    # m = 0: no reduction, free ring on 2n half-degree generators
    for n in (1, 2):
        th = HiggsTheory.of([[] for _ in range(n)])
        table = invariant_hilbert(th, Fraction(3, 2))
        for t in range(4):
            assert table[Fraction(t, 2)] == comb(t + 2 * n - 1, 2 * n - 1)


def test_charge_matrix_validation():
    with pytest.raises(DimensionError):
        HiggsTheory.of([[1, 0], [1]])
    with pytest.raises(DimensionError):
        HiggsTheory.of([[1, 1], [1, 1]])  # dependent columns


@pytest.mark.parametrize("entry", [1.7, "2", None, float("nan")])
def test_charges_that_are_not_integers_are_domain_errors(entry):
    # each entry was read through int(): [[1.7], [2]] became the charges ((1,), (2,))
    with pytest.raises(DomainError, match="^charge entries must be integers"):
        HiggsTheory.of([[entry], [2]])
    assert HiggsTheory.of([[1.0], [2]]) == HiggsTheory.of([[1], [2]])


def test_compare_diagonal_torus():
    report = coulomb_higgs_compare(IntMatrix.from_rows([[1], [1]]), 2)
    assert report.verdict
    assert report.coulomb[Fraction(1)] == 3
    assert report.coulomb == report.higgs


def test_compare_triple_cover():
    report = coulomb_higgs_compare(IntMatrix.from_rows([[1], [1], [1]]), 2)
    assert report.verdict
    assert report.coulomb[Fraction(3, 2)] == 2


def test_compare_identity():
    for n in (2, 3):
        report = coulomb_higgs_compare(IntMatrix.identity(n), Fraction(3, 2))
        assert report.verdict
        # free ring on 2n generators of degree 1/2
        for t in range(4):
            assert report.coulomb[Fraction(t, 2)] == comb(t + 2 * n - 1, 2 * n - 1)


def test_compare_rank_two_samples():
    for rows in ([[1, 0], [1, 1]], [[1, 0], [0, 1], [1, 1]], [[1, 1], [0, 1], [1, 0]]):
        report = coulomb_higgs_compare(IntMatrix.from_rows(rows), 2)
        assert report.verdict, rows


def _rank_method(th, max_deg):
    """Reference oracle: the weight-zero monomials of each degree modulo the
    weight-zero slice of the moment ideal, whose dimension is a matrix rank."""
    n2, zero = 2 * th.n, (0,) * th.m

    def weight_zero_monomials(t):
        out = []
        for combo in combinations_with_replacement(range(n2), t):
            e = [0] * n2
            for i in combo:
                e[i] += 1
            w = tuple(sum((e[i] - e[th.n + i]) * th.charges[i][j] for i in range(th.n))
                      for j in range(th.m))
            if w == zero:
                out.append(tuple(e))
        return out

    table = {}
    for t in range(int(2 * max_deg) + 1):
        basis = weight_zero_monomials(t)
        index = {e: i for i, e in enumerate(basis)}
        rows = []
        for e in weight_zero_monomials(t - 2) if t >= 2 else []:
            for j in range(th.m):
                # mu_j * x^e in the degree-t basis
                row = [0] * len(basis)
                for i in range(th.n):
                    lifted = list(e)
                    lifted[i] += 1
                    lifted[th.n + i] += 1
                    row[index[tuple(lifted)]] += th.charges[i][j]
                rows.append(row)
        table[Fraction(t, 2)] = len(basis) - (sympy.Matrix(rows).rank() if rows else 0)
    return table


def _saturated_charge_matrices(count, seed):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        m = rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(rng.randint(m, 4))]
        if smith_diagonal(IntMatrix.from_rows(rows)) == (1,) * m:
            found.append(rows)
    return found


def test_koszul_count_matches_rank_method():
    for rows in _saturated_charge_matrices(20, seed=3):
        th = HiggsTheory.of(rows)
        assert invariant_hilbert(th, 3) == _rank_method(th, 3), rows


@pytest.mark.parametrize(
    "max_deg",
    [-1, Fraction(1, 3), float("inf"), float("nan"), "abc", None, "1/0"],
    ids=["negative", "one_third", "inf", "nan", "word", "none", "zero_denominator"],
)
def test_invariant_hilbert_rejects_a_degree_that_is_not_a_non_negative_half_integer(max_deg):
    with pytest.raises(DomainError, match="non-negative half-integer"):
        invariant_hilbert(HiggsTheory.of([[1], [-1]]), max_deg)


@pytest.mark.parametrize(
    "max_deg",
    [-1, Fraction(1, 3), float("inf"), float("nan"), "abc", None, "1/0"],
    ids=["negative", "one_third", "inf", "nan", "word", "none", "zero_denominator"],
)
def test_compare_rejects_a_degree_that_is_not_a_non_negative_half_integer(max_deg):
    # at 1/3 the report covered degree 0 only and still read max_deg 1/3, verdict true
    with pytest.raises(DomainError, match="non-negative half-integer"):
        coulomb_higgs_compare(IntMatrix.from_rows([[1], [1]]), max_deg)


def test_a_wrong_dual_sequence_reads_a_false_verdict(monkeypatch):
    # [[2], [1]] spans no kernel of a^T = [1, 1]: its weight-zero monomials are not the Coulomb side's
    monkeypatch.setattr(higgs, "dual_sequence", lambda a: IntMatrix.from_rows([[2], [1]]))
    report = coulomb_higgs_compare(IntMatrix.from_rows([[1], [1]]), 2)
    assert report.verdict is False
    assert report.max_deg == 2
    assert report.coulomb == dict(zip([Fraction(t, 2) for t in range(5)], [1, 0, 3, 0, 5]))
    assert report.higgs == dict(zip([Fraction(t, 2) for t in range(5)], [1, 0, 1, 2, 1]))


def test_half_integer_degrees_are_accepted_in_any_exact_form():
    th = HiggsTheory.of([[1], [-1]])
    assert invariant_hilbert(th, "3/2") == invariant_hilbert(th, Fraction(3, 2)) == invariant_hilbert(th, 1.5)
    assert list(invariant_hilbert(th, 1)) == [0, Fraction(1, 2), 1]


def test_compare_rank_three():
    a = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    assert coulomb_higgs_compare(a, 4).verdict
