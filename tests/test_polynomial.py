"""Differential tests of ``Polynomial`` against sympy's PolyRing over QQ.

Each case draws a rank 0-4 and polynomials in w_1 .. w_rank, hbar whose
coefficients include halves and integers of forty digits, and builds every
value twice: as a ``Polynomial`` and as an element of sympy's ring, which is
the oracle.  The printer's oracle is ``str`` of the same polynomial as a sympy
expression, at ranks 0-4 and 10-12.
"""

from fractions import Fraction
from math import comb, gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

from coulombkit.difference_ops import DifferenceOperator, to_poly
from coulombkit.errors import DomainError, LiftError
from coulombkit.monopole import AbelianTheory, CoulombElement, _dressed, _pairings, element_from_operator
from coulombkit.polynomial import Polynomial
from coulombkit.symbolic import HBAR, as_expr, w_vars

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)

COEFFS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-5, 6)]),
    st.integers(-(10**40), 10**40),
)


def oracle_ring(rank):
    return ring(w_vars(rank) + (HBAR,), QQ)[0]


def in_ring(R, p):
    return R.from_dict({m: QQ(c, p.den) for m, c in p.num.items()})


def assert_canonical(p, rank):
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    assert all(len(m) == rank + 1 and min(m) >= 0 for m in p.num)


@st.composite
def coefficient_dicts(draw, rank, hbar=True, max_terms=4):
    monoms = st.tuples(*[st.integers(0, 3)] * rank, st.integers(0, 2 if hbar else 0))
    return draw(st.dictionaries(monoms, COEFFS, max_size=max_terms))


@st.composite
def pairs(draw, hbar=True):
    """A rank, and two polynomials each as a Polynomial and in sympy's ring."""
    rank = draw(st.integers(0, 4))
    R = oracle_ring(rank)
    out = []
    for _ in range(2):
        coeffs = draw(coefficient_dicts(rank, hbar))
        out.append((
            Polynomial.from_fractions({m: Fraction(q) for m, q in coeffs.items()}),
            R.from_dict({m: QQ(Fraction(q).numerator, Fraction(q).denominator) for m, q in coeffs.items()}),
        ))
    return rank, R, out


@SETTINGS
@given(pairs())
def test_ring_operations(case):
    rank, R, ((a, A), (b, B)) = case
    assert in_ring(R, a) == A
    for got, want in ((a + b, A + B), (a - b, A - B), (a * b, A * B), (-a, -A), (a**3, A**3)):
        assert in_ring(R, got) == want
        assert_canonical(got, rank)
    assert (a + b == b + a) and hash(a + b) == hash(b + a)
    assert bool(a) == bool(A) and len(a) == len(A)


@SETTINGS
@given(pairs(), st.data())
def test_shift_matches_compose(case, data):
    rank, R, ((a, A), _) = case
    lam = data.draw(st.tuples(*[st.integers(-3, 3)] * rank))
    hbar = R.gens[-1]
    want = A.compose([(w, w + l * hbar) for w, l in zip(R.gens, lam) if l]) if any(lam) else A
    got = a.shift(lam)
    assert in_ring(R, got) == want
    assert_canonical(got, rank)


@SETTINGS
@given(pairs(), st.sampled_from(["zero", "rational", "polynomial"]))
def test_hbar_specialization_matches_compose_and_subs(case, kind):
    rank, R, ((a, A), (b, B)) = case
    if kind == "zero":
        v, V = Polynomial({}), R.zero
    elif kind == "rational":
        v, V = Polynomial.constant(rank + 1, Fraction(-3, 2)), R(QQ(-3, 2))
    else:
        v, V = b, B
    got = a.at_hbar(v)
    assert in_ring(R, got) == A.compose(R.gens[-1], V)
    assert as_expr(rank, got) == sympy.expand(A.as_expr().subs(HBAR, V.as_expr()))
    assert_canonical(got, rank)


@SETTINGS
@given(pairs())
def test_hbar_coefficient_and_degree(case):
    rank, R, ((a, A), _) = case
    hbar = R.gens[-1]
    assert a.hbar_degree() == (A.degree(hbar) if A else -1)
    for k in range(4):
        got = a.hbar_coefficient(k)
        assert in_ring(R, got) == A.coeff_wrt(hbar, k)
        assert_canonical(got, rank)


@st.composite
def dressed(draw):
    """A theory, a coweight, an hbar-free quotient and an hbar-free addend."""
    rank = draw(st.integers(0, 4))
    chars = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank), max_size=4))
    lam = draw(st.tuples(*[st.integers(-2, 2)] * rank))
    quotient, addend = (draw(coefficient_dicts(rank, hbar=False, max_terms=3)) for _ in range(2))
    return rank, chars, lam, quotient, addend


@SETTINGS
@given(dressed(), st.booleans())
def test_division_by_the_dressing_matches_div(case, exact):
    rank, chars, lam, quotient, addend = case
    R = oracle_ring(rank)
    th = AbelianTheory.of(rank, chars)
    dressing = _dressed(th, Polynomial.constant(rank + 1, 1), _pairings(th, lam))
    coeff = Polynomial.from_fractions({m: Fraction(q) for m, q in quotient.items()}) * dressing
    if not exact:
        coeff += Polynomial.from_fractions({m: Fraction(q) for m, q in addend.items()})
    op = DifferenceOperator.from_terms(rank, {lam: coeff})
    want, rem = in_ring(R, coeff).div(in_ring(R, dressing))
    if rem:
        with pytest.raises(LiftError) as err:
            element_from_operator(th, op)
        assert str(err.value) == f"coefficient at {lam} is not divisible by the monopole dressing"
    else:
        got = element_from_operator(th, op)
        assert got == CoulombElement.from_terms(rank, {lam: want.as_expr()})


@SETTINGS
@given(pairs(), st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_division_by_one_linear_form(case, form_coeffs):
    rank, R, ((a, A), (b, B)) = case
    coeffs = form_coeffs[:rank] + form_coeffs[-1:]  # the last one multiplies hbar
    form = Polynomial.make({tuple(int(i == j) for i in range(rank + 1)): c for j, c in enumerate(coeffs)})
    if not form:
        return
    L = in_ring(R, form)
    assert in_ring(R, (a * form).divide_linear(form)) == A
    quo, rem = (A * L + B).div(L)
    if rem:
        with pytest.raises(LiftError):
            (a * form + b).divide_linear(form)
    else:
        got = (a * form + b).divide_linear(form)
        assert in_ring(R, got) == quo
        assert_canonical(got, rank)


@SETTINGS
@given(pairs(), st.data())
def test_derivative_matches_diff(case, data):
    # along v in w_1 .. w_rank, so hbar's exponents are kept
    rank, R, ((p, P), _) = case
    v = data.draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
    got = p.derivative(v)
    assert in_ring(R, got) == sum((c * P.diff(x) for c, x in zip(v, R.gens)), R.zero)
    assert_canonical(got, rank)


@SETTINGS
@given(pairs(), st.data())
def test_printed_forms_match_sympy(case, data):
    rank, R, ((a, A), (b, B)) = case
    lams = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank), min_size=1, max_size=2, unique=True))
    op = DifferenceOperator.from_terms(rank, list(zip(lams, (a, b))))
    ring_terms = [(lam, P) for lam, P in sorted(zip(lams, (A, B))) if P]
    assert op.terms == tuple((lam, P.as_expr()) for lam, P in ring_terms)
    assert str(op) == (" + ".join(
        f"({P.as_expr()})" + (f"*e^{list(lam)}" if any(lam) else "") for lam, P in ring_terms
    ) or "0")
    # sums, products and integer powers of the generators, as PolyRing.from_expr reads them
    for expr in (A.as_expr(), (A.as_expr() + 1) * (B.as_expr() - HBAR) ** 2, sympy.Rational(1, 2) * HBAR**3):
        assert in_ring(R, to_poly(rank, expr)) == R.from_expr(expr)


@pytest.mark.parametrize("expr", ["1/w1", "sqrt(2)", "x", "w1**(1/2)", "hbar**-2", "w3"])
def test_non_polynomials_are_domain_errors(expr):
    with pytest.raises(DomainError, match="is not a polynomial in w1, w2, hbar"):
        to_poly(2, sympy.sympify(expr))


@pytest.mark.parametrize("value", [None, True, "w1", '__import__("os").getpid()'])
def test_coefficients_that_are_not_expressions_are_domain_errors(value):
    # strings are never parsed (parsing one evaluates it), and None or a bool is no polynomial
    with pytest.raises(DomainError, match="is not a polynomial in w1, hbar"):
        CoulombElement.from_terms(1, {(0,): value})


@pytest.mark.parametrize("a", [0, 1, 2, 50, 2000])
def test_shift_of_one_power_is_the_binomial_expansion(a):
    # (w1 + lam hbar)^a = sum_k C(a, k) lam^k w1^(a - k) hbar^k, the row built as a running product
    for lam, coeff, den in ((1, 1, 1), (-2, 3, 7)):
        got = Polynomial.make({(a, 0): coeff}, den).shift((lam,))
        assert got == Polynomial.make({(a - k, k): coeff * comb(a, k) * lam**k for k in range(a + 1)}, den)


@st.composite
def printable(draw):
    """A rank in 0-4 or 10-12 and a polynomial of up to five sparse terms whose
    coefficients have denominators 1-6 and numerators of up to 36 digits; half
    of them a constant plus a multiple of one variable's power, the shape sympy
    orders specially."""
    rank = draw(st.sampled_from([0, 1, 2, 3, 4, 10, 11, 12]))
    numerator = st.one_of(st.integers(-3, 3), st.integers(-(10**36), 10**36))
    coeff = st.builds(Fraction, numerator, st.integers(1, 6))
    if draw(st.booleans()):
        j, e = draw(st.integers(0, rank)), draw(st.integers(1, 3))
        power = tuple(e if i == j else 0 for i in range(rank + 1))
        coeffs = {(0,) * (rank + 1): draw(coeff), power: draw(coeff)}
    else:
        exponent = st.sampled_from([0, 0, 0, 1, 2, 3])
        coeffs = draw(st.dictionaries(st.tuples(*[exponent] * (rank + 1)), coeff, max_size=5))
    return rank, Polynomial.from_fractions(coeffs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(printable())
def test_str_matches_the_printed_sympy_expression(case):
    rank, p = case
    assert str(p) == str(as_expr(rank, p))


@pytest.mark.parametrize(
    "coeffs, rank, text",
    [
        ({}, 1, "0"),
        ({(1, 0): -2, (0, 0): 4}, 1, "4 - 2*w1"),
        ({(1, 0): -1, (0, 0): Fraction(1, 3)}, 1, "1/3 - w1"),
        ({(1, 1, 0): -1, (0, 0, 0): 4}, 2, "-w1*w2 + 4"),
        ({(1, 0): -2, (0, 0): -3}, 1, "-2*w1 - 3"),
        ({(2, 0): Fraction(-1, 2), (0, 0): 3}, 1, "3 - w1**2/2"),
        ({(0, 0, 1): Fraction(-1, 2), (0, 0, 0): 3}, 2, "3 - hbar/2"),
        ({(1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 0): 3}, 2, "-w1 - w2 + 3"),
        ({(0,) * 9 + (1, 0, 0): 2, (0, 1) + (0,) * 10: Fraction(-2, 3)}, 11, "2*w10 - 2*w2/3"),
        ({(1,) * 12: 1}, 11, "hbar*w1*w10*w11*w2*w3*w4*w5*w6*w7*w8*w9"),
        ({(3, 1): 10**40 + 1, (0, 0): Fraction(-1, 6)}, 1, f"{10**40 + 1}*hbar*w1**3 - 1/6"),
    ],
)
def test_str_of_explicit_polynomials(coeffs, rank, text):
    p = Polynomial.from_fractions({m: Fraction(q) for m, q in coeffs.items()})
    assert str(p) == text == str(as_expr(rank, p))


@pytest.mark.parametrize("k", [0, -1])
def test_powers_below_one_are_domain_errors(k):
    # p ** 0 returned None, and p ** -1 squared its base without end
    p = Polynomial.make({(1, 0): 1, (0, 0): 2})
    with pytest.raises(DomainError):
        p**k
