"""Acceptance suite: twelve exact criteria, each with a pinned time budget.

Every check is exact integer/rational arithmetic (zero tolerance).  The
conftest hook prints one pass/fail line per criterion after the run.
"""

import random
import time
from contextlib import contextmanager

import sympy

from coulombkit.cartan import (
    KMWeight,
    central_element_as_root_sum,
    dominance_leq,
    langlands_dual,
    named_gcm,
)
from coulombkit.difference_ops import (
    DifferenceOperator,
    commutator,
    multiply,
    specialize_hbar,
)
from coulombkit.higgs import coulomb_higgs_compare
from coulombkit.lattices import IntMatrix
from coulombkit.monopole import (
    AbelianTheory,
    CoulombElement,
    classical_product,
    hilbert_series,
    poisson,
    quantize,
    quantum_relation,
)
from coulombkit.multiplicities import (
    default_support_depth,
    tensor_decompose,
    weight_multiplicity,
)
from coulombkit.quiver import fixed_point_nonempty, jordan_coulomb_hilbert, mv_dimension, strata_affine
from coulombkit.symbolic import HBAR, w_vars

from test_multiplicities import oracle_multiplicity

W = w_vars(1)[0]


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"exceeded the {seconds}s budget: {elapsed:.2f}s"


def _cone_vectors(rank, height):
    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for x in range(remaining + 1):
            yield from rec(prefix + (x,), remaining - x, slots - 1)

    for h in range(1, height + 1):
        yield from rec((), h, rank)


def test_criterion_01_quantum_surface_relations():
    with budget(1):
        for ell in range(1, 6):
            th = AbelianTheory.a_type(ell)
            left, right = quantum_relation(th, (1,))
            assert left == DifferenceOperator.from_terms(1, {(0,): sympy.expand(W**ell)})
            assert right == DifferenceOperator.from_terms(
                1, {(0,): sympy.expand((W - HBAR) ** ell)}
            )


def test_criterion_02_poisson_bracket():
    with budget(1):
        for ell in range(1, 6):
            th = AbelianTheory.a_type(ell)
            x = CoulombElement.monopole(1, (1,))
            y = CoulombElement.monopole(1, (-1,))
            br = poisson(th, x, y)
            assert br.terms == (((0,), sympy.expand(ell * W ** (ell - 1))),)


def test_criterion_03_quantum_torus_relations():
    rng = random.Random(101)
    with budget(1):
        for _ in range(50):
            k = rng.randint(1, 3)
            ws = w_vars(k)
            lam = tuple(rng.randint(-3, 3) for _ in range(k))
            coeffs = [rng.randint(-3, 3) for _ in range(k)]
            u = DifferenceOperator.polynomial(k, sum(c * w for c, w in zip(coeffs, ws)))
            e_lam = DifferenceOperator.shift(k, lam)
            pair = sum(c * x for c, x in zip(coeffs, lam))
            assert commutator(e_lam, u) == DifferenceOperator.from_terms(k, {lam: HBAR * pair})
            mu = tuple(rng.randint(-3, 3) for _ in range(k))
            assert multiply(e_lam, DifferenceOperator.shift(k, mu)) == DifferenceOperator.shift(
                k, tuple(a + b for a, b in zip(lam, mu))
            )


def _random_theory(rng):
    k = rng.randint(1, 3)
    n = rng.randint(0, 4)
    return AbelianTheory.of(k, [tuple(rng.randint(-1, 1) for _ in range(k)) for _ in range(n)])


def _random_element(rng, th):
    terms = []
    for _ in range(rng.randint(1, 2)):
        lam = tuple(rng.randint(-1, 1) for _ in range(th.rank))
        poly = sympy.Integer(rng.randint(-2, 2)) + sum(
            rng.randint(-1, 1) * w for w in w_vars(th.rank)
        )
        terms.append((lam, poly))
    elem = CoulombElement.from_terms(th.rank, terms)
    return elem if not elem.is_zero() else CoulombElement.polynomial(th.rank, 1)


def test_criterion_04_classical_product_ring_axioms():
    rng = random.Random(103)
    theories = [_random_theory(rng) for _ in range(5)]
    with budget(10):
        for i in range(200):
            th = theories[i % 5]
            a, b, c = (_random_element(rng, th) for _ in range(3))
            ab = classical_product(th, a, b)
            # elements compare by (rank, polys): exact coefficients in one polynomial ring
            assert ab == classical_product(th, b, a)
            assert classical_product(th, ab, c) == classical_product(th, a, classical_product(th, b, c))


def test_criterion_05_classical_limit_multiplicativity():
    rng = random.Random(107)
    theories = [_random_theory(rng) for _ in range(5)]
    with budget(10):
        for i in range(200):
            th = theories[i % 5]
            a, b = _random_element(rng, th), _random_element(rng, th)
            lhs = specialize_hbar(multiply(quantize(th, a), quantize(th, b)), 0)
            rhs = specialize_hbar(quantize(th, classical_product(th, a, b)), 0)
            assert lhs == rhs


def test_criterion_06_toric_hyperkaehler_duality():
    samples = [
        [[1], [1]],
        [[1], [1], [1]],
        [[1, 0], [0, 1]],
        [[1, 1], [0, 1], [1, 0]],
        [[1, 0], [1, 1]],
        [[1, 0], [0, 1], [1, 1]],
    ]
    with budget(60):
        count = 0
        for rows in samples:
            report = coulomb_higgs_compare(IntMatrix.from_rows(rows), 4)
            assert report.verdict, rows
            count += 1
        report = coulomb_higgs_compare(IntMatrix.identity(3), 4)
        assert report.verdict
        count += 1
        assert count >= 5


def test_criterion_07_freudenthal_vs_character_oracle():
    with budget(30):
        for name in ("A1", "A2", "B2"):
            gcm = named_gcm(name)
            n = gcm.size
            for coords in _dominant_box(n, 3):
                lam = KMWeight.of(coords)
                depth = default_support_depth(gcm, lam) if any(coords) else 0
                checked = {(0,) * n}
                assert weight_multiplicity(gcm, lam, lam) == 1
                for beta in _cone_vectors(n, depth):
                    mu = lam - gcm.root_combination(beta)
                    expected = oracle_multiplicity(gcm, lam, mu)
                    assert weight_multiplicity(gcm, lam, mu) == expected
                    checked.add(beta)
                assert checked


def _dominant_box(n, bound):
    from itertools import product

    return product(range(bound + 1), repeat=n)


def test_criterion_08_adjoint_tensor_example():
    with budget(5):
        for n in range(2, 6):
            gcm = named_gcm(f"A{n - 1}")
            size = gcm.size
            w1 = KMWeight.of(tuple(1 if i == 0 else 0 for i in range(size)))
            wlast = KMWeight.of(tuple(1 if i == size - 1 else 0 for i in range(size)))
            adjoint = KMWeight.of(
                tuple(1 if i in (0, size - 1) else 0 for i in range(size))
            )
            zero = KMWeight.of((0,) * size)
            if size == 1:
                adjoint = KMWeight.of((2,))
            assert tensor_decompose(gcm, w1, wlast) == {adjoint: 1, zero: 1}


def test_criterion_09_satake_fixed_point_shadow():
    with budget(30):
        for name, lam_coords, depth in (("A2", (2, 1), 6), ("A1~", (2, 0), 6)):
            gcm = named_gcm(name)
            dual = langlands_dual(gcm)
            lam = KMWeight.of(lam_coords)
            for beta in _cone_vectors(gcm.size, depth):
                mu = lam - gcm.root_combination(beta)
                verdict = fixed_point_nonempty(gcm, lam, mu)
                assert verdict == (weight_multiplicity(dual, lam, mu) > 0)
                for i in range(gcm.size):
                    assert fixed_point_nonempty(gcm, lam, dual.reflect(i, mu)) == verdict


def test_criterion_10_mv_dimension_additivity():
    rng = random.Random(109)
    names = ("A2", "A3", "B2")
    with budget(1):
        for _ in range(100):
            gcm = named_gcm(rng.choice(names))
            n = gcm.size
            lam = KMWeight.of(tuple(rng.randint(0, 3) for _ in range(n)))
            v1 = tuple(rng.randint(0, 2) for _ in range(n))
            v2 = tuple(rng.randint(0, 2) for _ in range(n))
            kappa = lam - gcm.root_combination(v1)
            mu = kappa - gcm.root_combination(v2)
            assert mv_dimension(gcm, lam, kappa) == sum(v1)
            assert mv_dimension(gcm, kappa, mu) == sum(v2)
            assert mv_dimension(gcm, lam, mu) == sum(v1) + sum(v2)


def test_criterion_11_cross_module_hilbert_consistency():
    with budget(10):
        for ell in range(1, 5):
            th = AbelianTheory.a_type(ell)
            assert hilbert_series(th, 4) == jordan_coulomb_hilbert(1, ell, 4)


def test_criterion_12_affine_strata_enumerator():
    aff = named_gcm("A1~")
    lam = KMWeight.of((2, 0))
    c = central_element_as_root_sum(aff)
    mu = lam - c.scaled(2)
    with budget(10):
        out = strata_affine(aff, lam, mu, 2)
        assert (lam, ()) in out
        # closure under the literal constraint
        for kappa, part in out:
            assert aff.is_dominant(kappa)
            assert dominance_leq(mu, kappa, aff)
            assert dominance_leq(kappa, lam - c.scaled(sum(part)), aff)
        # independent brute-force re-enumeration, hardcoded for this Cartan
        # datum: alpha_0 = (2,-2) fund / delta 0, alpha_1 = (-2,2) fund / delta 1
        partitions = {0: [()], 1: [(1,)], 2: [(2,), (1, 1)]}
        expected = set()
        for s in (0, 1, 2):
            for part in partitions[s]:
                for a in range(2 - s + 1):
                    for b in range(2 - s + 1):
                        fund = (2 - 2 * a + 2 * b, 2 * a - 2 * b)
                        delta = -s - b
                        if fund[0] >= 0 and fund[1] >= 0:
                            expected.add((KMWeight.of(fund, delta), part))
        assert set(out) == expected
        assert len(out) == len(set(out))
