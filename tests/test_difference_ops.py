"""Shift-operator algebra: normal ordering, commutators, bracket extraction."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

from coulombkit import difference_ops
from coulombkit.difference_ops import (
    DifferenceOperator,
    commutator,
    multiply,
    poisson_from_lifts,
    shift_polynomial,
    specialize_hbar,
)
from coulombkit.errors import DimensionError, DomainError, LiftError
from coulombkit.polynomial import Polynomial
from coulombkit.symbolic import HBAR, w_vars

W = w_vars(1)[0]


def op(terms, rank=1):
    return DifferenceOperator.from_terms(rank, terms)


def test_shift_acts_by_substitution():
    assert shift_polynomial(1, W**2, (1,)) == sympy.expand((W + HBAR) ** 2)
    w1, w2 = w_vars(2)
    assert shift_polynomial(2, w1 * w2, (1, -1)) == sympy.expand((w1 + HBAR) * (w2 - HBAR))


def test_normal_ordering_examples():
    e1 = DifferenceOperator.shift(1, (1,))
    w_op = DifferenceOperator.polynomial(1, W)
    assert multiply(e1, w_op) == op({(1,): W + HBAR})
    # e^0 is the unit
    a = op({(1,): W**2, (-2,): 3})
    assert multiply(DifferenceOperator.one(1), a) == a
    assert multiply(a, DifferenceOperator.one(1)) == a
    # e^{-1} (w^2 e^1) = (w - hbar)^2 e^0
    left = DifferenceOperator.shift(1, (-1,))
    assert multiply(left, op({(1,): W**2})) == op({(0,): (W - HBAR) ** 2})


def test_shift_group_law():
    rng = random.Random(3)
    for _ in range(20):
        k = rng.randint(1, 3)
        lam = tuple(rng.randint(-2, 2) for _ in range(k))
        mu = tuple(rng.randint(-2, 2) for _ in range(k))
        prod = multiply(DifferenceOperator.shift(k, lam), DifferenceOperator.shift(k, mu))
        assert prod == DifferenceOperator.shift(k, tuple(a + b for a, b in zip(lam, mu)))


def test_commutator_examples():
    e1 = DifferenceOperator.shift(1, (1,))
    w_op = DifferenceOperator.polynomial(1, W)
    assert commutator(e1, w_op) == op({(1,): HBAR})
    w1, w2 = w_vars(2)
    a = DifferenceOperator.polynomial(2, w1)
    b = DifferenceOperator.polynomial(2, w2)
    assert commutator(a, b).is_zero()
    em1 = DifferenceOperator.shift(1, (-1,))
    assert commutator(e1, em1).is_zero()


def test_commutator_linear_form_general():
    rng = random.Random(5)
    for _ in range(30):
        k = rng.randint(1, 3)
        ws = w_vars(k)
        lam = tuple(rng.randint(-3, 3) for _ in range(k))
        coeffs = [rng.randint(-3, 3) for _ in range(k)]
        u = sympy.Add(*[c * w for c, w in zip(coeffs, ws)])
        lhs = commutator(DifferenceOperator.shift(k, lam), DifferenceOperator.polynomial(k, u))
        pair = sum(c * x for c, x in zip(coeffs, lam))
        assert lhs == op({lam: HBAR * pair}, rank=k)


def test_w_not_central():
    # w generates a commutative subalgebra that is not central
    e1 = DifferenceOperator.shift(1, (1,))
    w_op = DifferenceOperator.polynomial(1, W)
    assert commutator(w_op, w_op).is_zero()
    assert not commutator(e1, w_op).is_zero()


def test_associativity_randomized():
    rng = random.Random(17)

    def random_op(k):
        terms = {}
        for _ in range(rng.randint(1, 2)):
            lam = tuple(rng.randint(-2, 2) for _ in range(k))
            ws = w_vars(k)
            poly = sympy.Integer(rng.randint(-2, 2))
            for w in ws:
                poly += rng.randint(-1, 1) * w
            if rng.random() < 0.3:
                poly += HBAR * rng.randint(-1, 1)
            terms[lam] = terms.get(lam, 0) + poly
        return DifferenceOperator.from_terms(k, list(terms.items()))

    for _ in range(25):
        k = rng.randint(1, 2)
        a, b, c = random_op(k), random_op(k), random_op(k)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_specialize_hbar():
    assert specialize_hbar(op({(1,): HBAR}), 0).is_zero()
    assert specialize_hbar(op({(0,): (W - HBAR) ** 2}), 1) == op({(0,): (W - 1) ** 2})
    for ell in range(1, 4):
        assert specialize_hbar(op({(0,): (W - HBAR) ** ell}), 0) == op({(0,): W**ell})


def test_poisson_from_lifts():
    w_op = DifferenceOperator.polynomial(1, W)
    w1, w2 = w_vars(2)
    assert poisson_from_lifts(
        DifferenceOperator.polynomial(2, w1), DifferenceOperator.polynomial(2, w2)
    ).is_zero()
    for ell in range(1, 4):
        x = op({(1,): W**ell})
        y = DifferenceOperator.shift(1, (-1,))
        assert poisson_from_lifts(x, y) == op({(0,): ell * W ** (ell - 1)})
    e_lam = DifferenceOperator.shift(1, (2,))
    assert poisson_from_lifts(e_lam, w_op) == op({(2,): 2})


def test_poisson_bracket_properties():
    rng = random.Random(23)

    def random_classical(k):
        lam = tuple(rng.randint(-2, 2) for _ in range(k))
        ws = w_vars(k)
        poly = sympy.Integer(rng.randint(-2, 2)) + sum(rng.randint(-1, 1) * w for w in ws)
        return op({lam: poly}, rank=k) if poly != 0 else DifferenceOperator.one(k)

    for _ in range(20):
        k = rng.randint(1, 2)
        a, b = random_classical(k), random_classical(k)
        assert poisson_from_lifts(a, b) == poisson_from_lifts(b, a).scale(-1)


def test_commutator_is_hbar_divisible_for_hbar_free_lifts():
    # the hbar = 0 specialization is commutative, so the bracket always exists
    rng = random.Random(31)
    for _ in range(20):
        lam = (rng.randint(-2, 2),)
        mu = (rng.randint(-2, 2),)
        a = op({lam: W ** rng.randint(0, 2)})
        b = op({mu: rng.randint(1, 3) + W})
        comm = commutator(a, b)
        for _, poly in comm.terms:
            assert poly.subs(HBAR, 0) == 0
        poisson_from_lifts(a, b)  # must not raise


def test_rank_mismatch():
    e1 = DifferenceOperator.shift(1, (1,))
    with pytest.raises(DimensionError):
        multiply(e1, DifferenceOperator.shift(2, (1, 0)))


@pytest.mark.parametrize("entry", [1.7, "2", Fraction(1, 2)])
def test_non_integer_coweights_are_domain_errors(entry):
    # int() once truncated each of these: (1.7,) read as e^[1] and ("2",) as e^[2]
    with pytest.raises(DomainError, match="coweight entries must be integers"):
        op({(entry,): 1})


def test_integral_float_coweight_reads_as_its_integer():
    # the JSON schema accepts 1.0 as an integer, so the library does too
    assert str(op({(1.0,): 1})) == "(1)*e^[1]"
    assert op({(1.0,): W}) == op({(1,): W})


def test_a_sum_with_another_kind_reads_it_at_the_boundary():
    # sums of one kind skip the per-term reading; a classical element still rejects an hbar term
    from coulombkit.monopole import CoulombElement

    elem, hbar = CoulombElement.monopole(1, (1,)), DifferenceOperator.polynomial(1, HBAR)
    with pytest.raises(DomainError, match="may not involve hbar"):
        elem + hbar
    with pytest.raises(DomainError, match="may not involve hbar"):
        elem - hbar
    assert str(hbar + elem) == "(hbar) + (1)*e^[1]"
    assert elem + DifferenceOperator.one(1) == CoulombElement.from_terms(1, {(0,): 1, (1,): 1})


# ---------------------------------------------------------------- reference oracle
# The formulas below work on sympy expressions, as the library did before its
# coefficients became ring elements: simultaneous substitution for the shift
# and sympy.expand for every product and sum.

def oracle_shift(rank, expr, lam):
    subs = {w: w + HBAR * l for w, l in zip(w_vars(rank), lam) if l}
    return sympy.expand(sympy.sympify(expr).subs(subs, simultaneous=True))


def oracle_terms(acc):
    return tuple((lam, p) for lam, p in sorted(acc.items()) if p != 0)


def oracle_multiply(rank, a_terms, b_terms):
    acc = {}
    for lam, f in a_terms:
        for mu, g in b_terms:
            key = tuple(x + y for x, y in zip(lam, mu))
            acc[key] = sympy.expand(acc.get(key, 0) + f * oracle_shift(rank, g, lam))
    return oracle_terms(acc)


def oracle_sub(x_terms, y_terms):
    acc = dict(x_terms)
    for lam, p in y_terms:
        acc[lam] = sympy.expand(acc.get(lam, 0) - p)
    return oracle_terms(acc)


def oracle_at_hbar_zero(terms):
    return oracle_terms({lam: sympy.expand(p.subs(HBAR, 0)) for lam, p in terms})


@st.composite
def polys(draw, rank):
    gens = w_vars(rank) + (HBAR,)
    poly = sympy.Integer(0)
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(st.fractions(-3, 3, max_denominator=3))
        powers = [draw(st.integers(0, 2)) for _ in w_vars(rank)] + [draw(st.integers(0, 1))]
        poly += sympy.Rational(coeff.numerator, coeff.denominator) * sympy.Mul(
            *[g**e for g, e in zip(gens, powers)]
        )
    return poly


@st.composite
def operator_pairs(draw):
    rank = draw(st.integers(1, 3))

    def operator():
        lams = st.tuples(*[st.integers(-2, 2)] * rank)
        return draw(st.lists(st.tuples(lams, polys(rank)), min_size=1, max_size=2))

    return rank, operator(), operator(), draw(st.tuples(*[st.integers(-2, 2)] * rank))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(operator_pairs())
def test_ring_kernel_matches_expr_oracle(case):
    rank, a_terms, b_terms, lam = case
    a = DifferenceOperator.from_terms(rank, a_terms)
    b = DifferenceOperator.from_terms(rank, b_terms)
    # the oracle starts from the merged Expr terms, so merging is checked too
    ab = oracle_multiply(rank, a.terms, b.terms)
    assert multiply(a, b).terms == ab
    assert commutator(a, b).terms == oracle_sub(ab, oracle_multiply(rank, b.terms, a.terms))
    assert specialize_hbar(a, 0).terms == oracle_at_hbar_zero(a.terms)
    for _, p in a.terms:
        assert shift_polynomial(rank, p, lam) == oracle_shift(rank, p, lam)


def test_hbar_inverse_is_not_a_coefficient():
    # a 1/hbar coefficient once made the commutator's hbar^0 part nonzero;
    # coefficients are now polynomials, so it is refused on entry
    with pytest.raises(DomainError):
        op({(1,): 1 / HBAR})


def test_poisson_from_lifts_rejects_hbar_free_commutator_part(monkeypatch):
    # hbar is central and the algebra is commutative modulo hbar, so no pair of
    # polynomial operators has such a commutator; the guard is fed one directly
    monkeypatch.setattr(difference_ops, "commutator", lambda a, b: op({(1,): W + HBAR}))
    with pytest.raises(LiftError):
        poisson_from_lifts(DifferenceOperator.one(1), DifferenceOperator.one(1))


# ---------------------------------------------------------------- polynomial kernels against sympy
# The shift, the hbar specialization, the classical dressing and the difference
# are computed term by term on ``Polynomial`` values; sympy's PolyRing over QQ,
# with its generic PolyElement.compose and Expr.subs, is the oracle.

def oracle_ring(rank):
    return ring(w_vars(rank) + (HBAR,), QQ)[0]


def native(p):
    """A sympy ring element as a Polynomial."""
    return Polynomial.from_fractions({m: Fraction(int(c.numerator), int(c.denominator)) for m, c in p.items()})


def in_ring(R, p):
    """A Polynomial as an element of the sympy ring R."""
    return R.from_dict({m: QQ(c, p.den) for m, c in p.num.items()})


def random_ring_poly(rng, rank, max_deg=6, terms=6):
    R = oracle_ring(rank)
    poly = R.zero
    for _ in range(rng.randint(1, terms)):
        exps = [0] * (rank + 1)
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(rank + 1)] += 1
        coeff = sympy.Rational(rng.randint(-5, 5), rng.randint(1, 4))
        poly += R.from_expr(coeff * sympy.Mul(*[g**e for g, e in zip(R.symbols, exps)]))
    return poly


def assert_canonical(p, rank):
    # integer numerators, none zero, over a positive denominator sharing no factor with them
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    assert all(len(m) == rank + 1 and min(m) >= 0 for m in p.num)


def test_shift_matches_compose():
    rng = random.Random(61)
    for _ in range(150):
        rank = rng.randint(1, 3)
        p = random_ring_poly(rng, rank)
        lam = tuple(rng.randint(-3, 3) for _ in range(rank))
        hbar = p.ring.gens[-1]
        want = p.compose([(w, w + l * hbar) for w, l in zip(p.ring.gens, lam) if l]) if any(lam) else p
        got = native(p).shift(lam)
        assert got == native(want)
        assert_canonical(got, rank)
        assert shift_polynomial(rank, p.as_expr(), lam) == want.as_expr()


def test_shift_cancels_to_zero_coefficients():
    # w^2 - (w + hbar)^2 shifted by -1 is (w - hbar)^2 - w^2: the w^2 terms cancel
    R = oracle_ring(1)
    w, hbar = R.gens
    got = native(w**2 - (w + hbar) ** 2).shift((-1,))
    assert got == native(-2 * w * hbar + hbar**2)
    assert_canonical(got, 1)


def test_specialize_hbar_matches_compose_and_subs():
    rng = random.Random(67)
    w1 = w_vars(1)[0]
    for _ in range(40):
        rank = rng.randint(1, 3)
        R = oracle_ring(rank)
        a = DifferenceOperator.from_terms(
            rank,
            [(tuple(rng.randint(-2, 2) for _ in range(rank)), native(random_ring_poly(rng, rank))) for _ in range(2)],
        )
        for value in (0, sympy.Rational(rng.randint(-4, 4) or 1, rng.randint(1, 3)), w1 + HBAR, w1**2 - 3 * HBAR):
            v = R.from_expr(sympy.sympify(value))
            got = specialize_hbar(a, value)
            want = DifferenceOperator.from_terms(
                rank, [(lam, native(in_ring(R, p).compose(R.gens[-1], v))) for lam, p in a.polys]
            )
            assert got == want
            assert got.terms == oracle_terms(
                {lam: sympy.expand(p.subs(HBAR, value)) for lam, p in a.terms}
            )
            for _, p in got.polys:
                assert_canonical(p, rank)


def test_classical_dressing_is_the_quantized_dressing_at_hbar_zero():
    from coulombkit import monopole

    rng = random.Random(71)
    for _ in range(60):
        rank = rng.randint(1, 3)
        th = monopole.AbelianTheory.of(
            rank, [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rng.randint(0, 4))]
        )
        lam = tuple(rng.randint(-3, 3) for _ in range(rank))
        R = oracle_ring(rank)
        one, pairs = Polynomial.constant(rank + 1, 1), monopole._pairings(th, lam)
        got = monopole._dressed(th, one, pairs)
        assert in_ring(R, got) == in_ring(R, monopole._dressed(th, one, pairs, True)).compose(R.gens[-1], 0)
        assert_canonical(got, rank)


def test_difference_is_the_sum_with_the_negation():
    rng = random.Random(73)
    for _ in range(60):
        rank = rng.randint(1, 3)

        def operator():
            lams = [tuple(rng.randint(-1, 1) for _ in range(rank)) for _ in range(rng.randint(1, 3))]
            return DifferenceOperator.from_terms(
                rank, [(lam, native(random_ring_poly(rng, rank, 3, 3))) for lam in lams]
            )

        a, b = operator(), operator()
        got = a - b
        assert got == a + b.scale(-1)
        assert (a - a).is_zero()
        for _, p in got.polys:
            assert_canonical(p, rank)
