"""Abelian Coulomb branch algebras: products, quantization, grading, series."""

import random
import time
from fractions import Fraction
from itertools import product
from math import comb, floor

import pytest
import sympy

from coulombkit.cancel import CancellationToken
from coulombkit.difference_ops import HBAR, DifferenceOperator, multiply, specialize_hbar, w_vars
from coulombkit.errors import DomainError, LiftError
from coulombkit.lattices import IntMatrix, pairing, smith_diagonal
from coulombkit.monopole import (
    AbelianTheory,
    CoulombElement,
    birationality_witness,
    classical_product,
    element_from_operator,
    grading_degree,
    hilbert_series,
    poisson,
    quantize,
    quantum_relation,
)
from test_lattices import solve_rational

W = w_vars(1)[0]


def mono(lam, poly=1, rank=1):
    return CoulombElement.monopole(rank, lam, poly)


def random_theory(rng):
    # entries stay in [-1, 1]: larger pairings inflate dressing degrees fast
    k = rng.randint(1, 3)
    n = rng.randint(0, 4)
    chars = [tuple(rng.randint(-1, 1) for _ in range(k)) for _ in range(n)]
    return AbelianTheory.of(k, chars)


def random_element(rng, th):
    terms = []
    for _ in range(rng.randint(1, 2)):
        lam = tuple(rng.randint(-1, 1) for _ in range(th.rank))
        ws = w_vars(th.rank)
        poly = sympy.Integer(rng.randint(-2, 2)) + sum(rng.randint(-1, 1) * w for w in ws)
        terms.append((lam, poly))
    elem = CoulombElement.from_terms(th.rank, terms)
    return elem if not elem.is_zero() else CoulombElement.polynomial(th.rank, 1)


def test_classical_product_pure_torus():
    th = AbelianTheory.of(2, [])
    prod = classical_product(th, mono((1, 0), rank=2), mono((0, -2), rank=2))
    assert prod.terms == (((1, -2), sympy.Integer(1)),)


def test_classical_product_a_type():
    assert classical_product(
        AbelianTheory.a_type(1), mono((1,)), mono((-1,))
    ).terms == (((0,), W),)
    assert classical_product(
        AbelianTheory.a_type(3), mono((1,)), mono((-1,))
    ).terms == (((0,), sympy.expand(W**3)),)


def test_classical_product_commutative_associative():
    rng = random.Random(41)
    for _ in range(40):
        th = random_theory(rng)
        a, b, c = (random_element(rng, th) for _ in range(3))
        ab = classical_product(th, a, b)
        assert ab.terms == classical_product(th, b, a).terms
        assert (
            classical_product(th, ab, c).terms
            == classical_product(th, a, classical_product(th, b, c)).terms
        )


def test_quantize_examples():
    for ell in (1, 2, 4):
        th = AbelianTheory.a_type(ell)
        x = quantize(th, mono((1,)))
        assert x == DifferenceOperator.from_terms(1, {(1,): sympy.expand(W**ell)})
        y = quantize(th, mono((-1,)))
        assert y == DifferenceOperator.shift(1, (-1,))
    th0 = AbelianTheory.of(2, [])
    assert quantize(th0, mono((1, -1), rank=2)) == DifferenceOperator.shift(2, (1, -1))


def test_quantum_relation_surface():
    for ell in range(1, 6):
        th = AbelianTheory.a_type(ell)
        left, right = quantum_relation(th, (1,))
        assert left == DifferenceOperator.from_terms(1, {(0,): sympy.expand(W**ell)})
        assert right == DifferenceOperator.from_terms(1, {(0,): sympy.expand((W - HBAR) ** ell)})
    th0 = AbelianTheory.of(1, [])
    assert quantum_relation(th0, (3,)) == (DifferenceOperator.one(1), DifferenceOperator.one(1))


def test_quantum_relation_mixed_characters():
    th = AbelianTheory.of(1, [(1,), (-1,)])
    up, down = quantum_relation(th, (1,))
    # u_1 = w e^1 (from the +1 character), u_{-1} = -w e^{-1} wait: pairing of
    # -1 with (-1,) is +1, dressing (-w - 0 hbar); recorded as exact fixture
    assert up == DifferenceOperator.from_terms(1, {(0,): sympy.expand(W * (-W - HBAR))})
    assert down == DifferenceOperator.from_terms(1, {(0,): sympy.expand(-W * (W - HBAR))})


def test_classical_limit_multiplicativity():
    rng = random.Random(43)
    for _ in range(40):
        th = random_theory(rng)
        a, b = random_element(rng, th), random_element(rng, th)
        lhs = specialize_hbar(multiply(quantize(th, a), quantize(th, b)), 0)
        rhs = specialize_hbar(quantize(th, classical_product(th, a, b)), 0)
        assert lhs == rhs


def test_element_from_operator_roundtrip():
    rng = random.Random(47)
    for _ in range(20):
        th = random_theory(rng)
        a = random_element(rng, th)
        back = element_from_operator(th, specialize_hbar(quantize(th, a), 0))
        assert back.terms == a.terms


def test_element_from_operator_lift_errors():
    th = AbelianTheory.a_type(2)
    with pytest.raises(LiftError):
        element_from_operator(th, DifferenceOperator.from_terms(1, {(1,): HBAR}))
    with pytest.raises(LiftError):
        # e^1 alone is not in the image: the dressing w^2 is missing
        element_from_operator(th, DifferenceOperator.shift(1, (1,)))


def test_poisson_surface_bracket():
    for ell in range(1, 6):
        th = AbelianTheory.a_type(ell)
        br = poisson(th, mono((1,)), mono((-1,)))
        assert br.terms == (((0,), sympy.expand(ell * W ** (ell - 1))),)


def test_poisson_trivial_and_pure_torus():
    th = AbelianTheory.a_type(2)
    w_elem = CoulombElement.polynomial(1, W)
    assert poisson(th, w_elem, w_elem).is_zero()
    th0 = AbelianTheory.of(1, [])
    br = poisson(th0, mono((2,)), w_elem)
    assert br.terms == (((2,), sympy.Integer(2)),)


def test_poisson_properties():
    rng = random.Random(53)
    for _ in range(15):
        th = random_theory(rng)
        a, b = random_element(rng, th), random_element(rng, th)
        anti = poisson(th, a, b) + poisson(th, b, a)
        assert anti.is_zero()
        # Leibniz: {a, b*c} = {a,b}*c + b*{a,c}
        c = random_element(rng, th)
        lhs = poisson(th, a, classical_product(th, b, c))
        rhs = classical_product(th, poisson(th, a, b), c) + classical_product(
            th, b, poisson(th, a, c)
        )
        assert (lhs - rhs).is_zero()


def test_grading_degree():
    th = AbelianTheory.a_type(2)
    assert grading_degree(th, CoulombElement.polynomial(1, 1)) == 0
    assert grading_degree(th, mono((1,))) == 1
    assert grading_degree(th, CoulombElement.polynomial(1, W)) == 1
    th1 = AbelianTheory.a_type(1)
    assert grading_degree(th1, mono((1,))) == Fraction(1, 2)
    with pytest.raises(DomainError):
        grading_degree(th, CoulombElement.polynomial(1, 1 + W))


def test_grading_additivity():
    # rank 1 keeps every dressing factor a monomial, so degrees are defined
    rng = random.Random(59)
    for _ in range(40):
        th = AbelianTheory.of(1, [(rng.randint(-2, 2),) for _ in range(rng.randint(0, 4))])
        a = mono((rng.randint(-3, 3),))
        b = mono((rng.randint(-3, 3),))
        prod = classical_product(th, a, b)
        assert len(prod.terms) == 1
        assert grading_degree(th, prod) == grading_degree(th, a) + grading_degree(th, b)


def test_pi1_grading_additivity():
    th = AbelianTheory.a_type(2)
    prod = classical_product(th, mono((2,)), mono((-1,)))
    assert [lam for lam, _ in prod.terms] == [(1,)]


def test_hilbert_series_examples():
    assert hilbert_series(AbelianTheory.a_type(2), 3) == [1, 0, 3, 0, 5, 0, 7]
    assert hilbert_series(AbelianTheory.a_type(1), 1) == [1, 2, 3]
    # characters (2), (2): cokernel Z/2 + Z, and lam has degree 2|lam|
    assert hilbert_series(AbelianTheory.of(1, [(2,), (2,)]), 3) == [1, 0, 1, 0, 3, 0, 3]
    with pytest.raises(DomainError, match="unbounded degree-0"):
        hilbert_series(AbelianTheory.of(1, []), 1)


@pytest.mark.parametrize("max_deg", [-1, Fraction(1, 3)], ids=["negative", "one_third"])
def test_hilbert_series_rejects_a_degree_that_is_not_a_non_negative_half_integer(max_deg):
    with pytest.raises(DomainError, match="non-negative half-integer"):
        hilbert_series(AbelianTheory.a_type(2), max_deg)


def test_hilbert_series_rank_two_free_case():
    # identity characters: Coulomb branch of two independent rank-1 factors,
    # free on 4 generators of degree 1/2
    th = AbelianTheory.of(2, [(1, 0), (0, 1)])
    from math import comb

    dims = hilbert_series(th, 2)
    assert dims == [comb(t + 3, 3) for t in range(5)]


def _box_scan(th, max_deg):
    """Reference oracle: every coweight in a box that bounds the degree, each
    with its comb(m + k - 1, k - 1) dressing monomials of degree m."""
    max_deg = Fraction(max_deg)
    k = th.rank
    dims = [0] * (int(2 * max_deg) + 1)
    if k == 0:
        dims[0] = 1
        return dims
    if IntMatrix.from_rows(th.characters).rank() < k:
        raise DomainError("unbounded degree-0 piece: characters do not span the dual lattice")
    # pick k independent characters M; |lam|_inf <= |M^-1|_inf * |M lam|_1
    # and |M lam|_1 <= 2 * deg(lam), which bounds the search box
    rows = []
    for rho in th.characters:
        if IntMatrix.from_rows(rows + [rho]).rank() == len(rows) + 1:
            rows.append(rho)
        if len(rows) == k:
            break
    # column j of M^-1 solves M v = e_j
    minv_cols = [solve_rational(rows, [int(i == j) for i in range(k)])[0] for j in range(k)]
    radius = floor(max(sum(abs(col[i]) for col in minv_cols) for i in range(k)) * 2 * max_deg)
    for lam in product(range(-radius, radius + 1), repeat=k):
        b2 = sum(abs(pairing(lam, rho)) for rho in th.characters)
        for t in range(b2, len(dims), 2):
            dims[t] += comb((t - b2) // 2 + k - 1, k - 1)
    return dims


def _seeded_theories(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(1, 3)
        n = rng.randint(k, k + 3)
        out.append(AbelianTheory.of(k, [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]))
    return out


def test_hilbert_series_matches_box_scan():
    torsion = compared = 0
    for th in _seeded_theories(80, seed=5):
        deg = {1: 3, 2: 2, 3: 1}[th.rank]
        try:
            want = _box_scan(th, deg)
        except DomainError as exc:
            with pytest.raises(DomainError, match=str(exc)):
                hilbert_series(th, deg)
            continue
        assert hilbert_series(th, deg) == want, th.characters
        compared += 1
        torsion += any(d > 1 for d in smith_diagonal(IntMatrix.from_rows(th.characters)))
    assert compared >= 50 and torsion >= 20


def test_hilbert_series_many_characters():
    # small rank k, large n - k: the box scan is cheap here, and the DP stays
    # cheap only because it drops the classes the later characters cannot cancel
    token = CancellationToken(timeout=2.0)
    cases = [
        (AbelianTheory.a_type(12), 6),
        (AbelianTheory.a_type(24), 4),
        (AbelianTheory.of(1, [(1,), (2,), (1,), (3,), (1,), (2,), (1,), (1,)]), 4),
        (AbelianTheory.of(2, [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, 0), (0, 1)]), 4),
    ]
    for th, deg in cases:
        assert hilbert_series(th, deg, token) == _box_scan(th, deg), th.characters


def test_hilbert_series_rank_zero():
    # no coweights but 0 and no dressings: only the constants
    for n in (0, 1, 3):
        assert hilbert_series(AbelianTheory.of(0, [()] * n), 2) == [1, 0, 0, 0, 0]


@pytest.mark.parametrize(
    "rank, characters",
    [(1, []), (1, [(0,)]), (2, [(1, 1), (2, 2)]), (2, [(1, 0)]), (3, [(1, 0, 0), (0, 1, 0)])],
)
def test_hilbert_series_rank_deficient(rank, characters):
    with pytest.raises(DomainError) as exc:
        hilbert_series(AbelianTheory.of(rank, characters), 2)
    assert str(exc.value) == "unbounded degree-0 piece: characters do not span the dual lattice"


def test_hilbert_series_slow_box_case():
    # the box scan needs 73^3 points for the 51 coweights of degree <= 3
    th = AbelianTheory.of(3, [(-1, -1, 0), (0, -1, 2), (-1, -1, -1), (1, 0, -2)])
    start = time.perf_counter()
    assert hilbert_series(th, 3) == [1, 0, 5, 4, 14, 26, 56]
    assert time.perf_counter() - start < 0.5


def test_birationality_witness():
    th = AbelianTheory.a_type(1)
    assert birationality_witness(th, (0,)) == 1
    assert birationality_witness(th, (1,)) == W
    th2 = AbelianTheory.of(2, [(1, 0), (1, 1)])
    w1, _ = w_vars(2)
    assert birationality_witness(th2, (1, -1)) == w1
    # witness equals the classical product r^lam * r^{-lam}
    prod = classical_product(th2, mono((1, -1), rank=2), mono((-1, 1), rank=2))
    assert prod.terms == (((0, 0), birationality_witness(th2, (1, -1))),)
