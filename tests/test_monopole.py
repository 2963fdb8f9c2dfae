"""Abelian Coulomb branch algebras: products, quantization, grading, series."""

import hashlib
import json
import random
import time
from fractions import Fraction
from itertools import product
from math import comb, floor

import pytest
import sympy

from coulombkit import abelian
from coulombkit.cancel import CancellationToken
from coulombkit.difference_ops import (
    DifferenceOperator,
    commutator,
    multiply,
    poisson_from_lifts,
    specialize_hbar,
)
from coulombkit.errors import Cancelled, DomainError, LiftError
from coulombkit.jsonio import element_to_json, operator_to_json
from coulombkit.lattices import IntMatrix, pairing, smith_diagonal
from coulombkit.monopole import (
    AbelianTheory,
    CoulombElement,
    classical_product,
    element_from_operator,
    grading_degree,
    hilbert_series,
    poisson,
    quantize,
    quantum_relation,
)
from coulombkit.polynomial import Polynomial
from coulombkit.quiver import jordan_coulomb_hilbert
from coulombkit.symbolic import HBAR, birationality_witness, w_vars
from test_lattices import solve_rational, tuple_koszul_counts

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


def _closed_form_case(rng):
    """A theory of rank 0-3 with 0-5 characters, entries in -2..2 (zero and
    repeated characters included), and two elements of 0-3 terms with
    fractional coefficients at coweights in [-1, 1]^rank."""
    k = rng.randint(0, 3)
    chars = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(rng.randint(0, 5))]
    if chars and rng.random() < 0.2:
        chars.append(rng.choice(chars))
    th = AbelianTheory.of(k, chars)

    def element():
        terms = []
        for _ in range(rng.randint(0, 3)):
            num = {}
            for _ in range(rng.randint(1, 3)):
                m = tuple(rng.randint(0, 2) for _ in range(k)) + (0,)
                num[m] = num.get(m, 0) + rng.randint(-3, 3)
            terms.append((tuple(rng.randint(-1, 1) for _ in range(k)), Polynomial.make(num, rng.choice((1, 2, 3)))))
        return CoulombElement.from_terms(k, terms)

    return th, element(), element()


def test_closed_form_bracket_matches_the_quantized_commutator():
    # the reference is the bracket as the hbar-coefficient of the commutator of the lifts
    rng = random.Random(2201)
    nonzero = 0
    for _ in range(600):
        th, a, b = _closed_form_case(rng)
        want = element_from_operator(th, poisson_from_lifts(quantize(th, a), quantize(th, b)))
        assert poisson(th, a, b) == want
        nonzero += not want.is_zero()
    assert nonzero > 200


def test_poisson_jacobi_identity():
    rng = random.Random(59)
    for _ in range(25):
        th = random_theory(rng)
        a, b, c = (random_element(rng, th) for _ in range(3))
        cyclic = [poisson(th, x, poisson(th, y, z)) for x, y, z in ((a, b, c), (b, c, a), (c, a, b))]
        assert (cyclic[0] + cyclic[1] + cyclic[2]).is_zero()


@pytest.mark.parametrize("entry", [1.7, "2", None, float("nan")])
def test_theory_characters_that_are_not_integers_are_domain_errors(entry):
    # each entry was read through int(): ("2",) and (1.9,) became the characters (2,) and (1,)
    with pytest.raises(DomainError, match="^character entries must be integers"):
        AbelianTheory.of(1, [(1,), (entry,)])
    assert AbelianTheory.of(1, [(1.0,), (2,)]) == AbelianTheory.of(1, [(1,), (2,)])


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


def test_hilbert_series_with_more_torus_rank_than_characters():
    # a 2 x rank character matrix is refused by its shape, with no Smith form (rank 3000 took
    # 5.35 s and 229 MB through one); under an expired deadline the run is cancelled first
    rng = random.Random(36)
    for rank, budget in ((1000, 1.0), (3000, 0.5)):
        th = AbelianTheory.of(rank, [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(2)])
        start = time.perf_counter()
        with pytest.raises(DomainError, match="^unbounded degree-0 piece: characters do not span the dual lattice$"):
            hilbert_series(th, 2)
        assert time.perf_counter() - start < budget
        with pytest.raises(Cancelled), CancellationToken(0):
            hilbert_series(th, 2)
    with pytest.raises(Cancelled), CancellationToken(0):  # no characters at all: the deadline is read first too
        hilbert_series(AbelianTheory.of(2, []), 2)


def test_hilbert_series_examples():
    assert hilbert_series(AbelianTheory.a_type(2), 3) == [1, 0, 3, 0, 5, 0, 7]
    assert hilbert_series(AbelianTheory.a_type(1), 1) == [1, 2, 3]
    # characters (2), (2): cokernel Z/2 + Z, and lam has degree 2|lam|
    assert hilbert_series(AbelianTheory.of(1, [(2,), (2,)]), 3) == [1, 0, 1, 0, 3, 0, 3]
    with pytest.raises(DomainError, match="unbounded degree-0"):
        hilbert_series(AbelianTheory.of(1, []), 1)


def _rank_one_monopole_sum(charges, top):
    """Reference oracle: the monopole formula at rank 1, sum_m s^(c|m|) / (1 - s^2) with
    c = sum_i |q_i|, in half-degrees 0..top."""
    c = sum(map(abs, charges))
    dims = [int(t == 0) + 2 * (t > 0 and t % c == 0) for t in range(top + 1)]
    for t in range(2, top + 1):
        dims[t] += dims[t - 2]
    return dims


def test_rank_one_hilbert_series_is_the_closed_monopole_sum():
    # seeded charge lists, with torsion when the charges share a factor and with zero charges;
    # three characters [1] at max-deg 400 once took about a minute (cubic in max-deg)
    rng = random.Random(41)
    lists = [[2, 2], [2, 3], [1, -2, 3]]
    while len(lists) < 40:
        charges = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
        lists += [charges] * any(charges)
    with CancellationToken(2):
        for charges in lists:
            th = AbelianTheory.of(1, [(q,) for q in charges])
            assert hilbert_series(th, 10) == _rank_one_monopole_sum(charges, 20), charges
        assert hilbert_series(AbelianTheory.a_type(3), 400) == _rank_one_monopole_sum([1, 1, 1], 800)


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
    cases = [
        (AbelianTheory.a_type(12), 6),
        (AbelianTheory.a_type(24), 4),
        (AbelianTheory.of(1, [(1,), (2,), (1,), (3,), (1,), (2,), (1,), (1,)]), 4),
        (AbelianTheory.of(2, [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, 0), (0, 1)]), 4),
    ]
    with CancellationToken(timeout=2.0):
        for th, deg in cases:
            assert hilbert_series(th, deg) == _box_scan(th, deg), th.characters


def test_hilbert_series_a_type_24_to_degree_8():
    # 23 free coordinates of the Coulomb side's class group, each class one integer key
    assert hilbert_series(AbelianTheory.a_type(24), 8) == jordan_coulomb_hilbert(1, 24, 8)


def test_hilbert_series_unsaturated_characters_match_tuple_dp(monkeypatch):
    # characters whose Smith form has an entry above 1: the class group has torsion
    rng = random.Random(23)
    theories = []
    while len(theories) < 200:
        k = rng.randint(1, 3)
        chars = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(3, 6))]
        diag = smith_diagonal(IntMatrix.from_rows(chars))
        if len(chars) >= k and 0 not in diag and max(diag) > 1:
            theories.append(AbelianTheory.of(k, chars))
    got = [hilbert_series(th, 3) for th in theories]
    monkeypatch.setattr(abelian, "koszul_counts", tuple_koszul_counts)
    assert got == [hilbert_series(th, 3) for th in theories]


def test_hilbert_series_rank_five_many_characters_finish():
    # a smallest-pivot Smith loop with no Hermite reduction ran 6 of these past the token, the
    # slowest for 3 s; the digest holds the answers of the other 54, recorded on that loop
    rng = random.Random(5)
    theories = []
    while len(theories) < 60:
        chars = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(10)]
        if IntMatrix.from_rows(chars).rank() == 5:
            theories.append(AbelianTheory.of(5, chars))
    answers = {}
    for i, th in enumerate(theories):
        with CancellationToken(timeout=2.0):
            answers[i] = hilbert_series(th, 1)
    recorded = {i: dims for i, dims in answers.items() if i not in (15, 17, 19, 20, 33, 37)}
    digest = hashlib.sha256(json.dumps(recorded, sort_keys=True).encode()).hexdigest()
    assert digest == "a901b7a7dff20b9c24c79adefe72225c2e29f75e4470accf261963387236616c"


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


@pytest.mark.parametrize("entry", [1.7, "2", Fraction(1, 2)])
def test_non_integer_coweights_are_domain_errors(entry):
    # each read through int() once: (1.9,) gave the witness at lam = 1
    th = AbelianTheory.of(1, [(1,), (1,)])
    for call in (lambda: CoulombElement.from_terms(1, {(entry,): 1}),
                 lambda: quantum_relation(th, (entry,)),
                 lambda: birationality_witness(th, (entry,))):
        with pytest.raises(DomainError, match="coweight entries must be integers"):
            call()
    assert quantum_relation(th, (1.0,)) == quantum_relation(th, (1,))


# ---------------------------------------------------------------- exact-value digests

def _digest_case(rng):
    """A theory of rank 1-3 and two elements with rational coefficients of
    degree up to 2 at coweights in [-1, 1]^rank."""
    k = rng.randint(1, 3)
    th = AbelianTheory.of(k, [[rng.randint(-1, 1) for _ in range(k)] for _ in range(rng.randint(1, 4))])
    ws = w_vars(k)

    def element():
        terms = []
        for _ in range(rng.randint(1, 2)):
            lam = tuple(rng.randint(-1, 1) for _ in range(k))
            poly = sympy.Rational(rng.randint(-3, 3), rng.randint(1, 2))
            for _ in range(rng.randint(0, 2)):
                poly += sympy.Rational(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3)) * rng.choice(ws) ** rng.randint(1, 2)
            terms.append((lam, poly))
        elem = CoulombElement.from_terms(k, terms)
        return elem if not elem.is_zero() else CoulombElement.polynomial(k, 1)

    return th, element(), element()


def monopole_values(th, a, b) -> str:
    """str() and JSON of every monopole-algebra operation on (a, b), one line each."""
    qa, qb = quantize(th, a), quantize(th, b)
    ab = classical_product(th, a, b)
    q = multiply(qa, qb)
    lim = specialize_hbar(q, 0)
    values = [
        (ab, element_to_json),
        (qa, operator_to_json),
        (q, operator_to_json),
        (commutator(qa, qb), operator_to_json),
        (lim, operator_to_json),
        (poisson(th, a, b), element_to_json),
        (element_from_operator(th, lim), element_to_json),
    ]
    return "\n".join(f"{v}\t{json.dumps(enc(v), sort_keys=True)}" for v, enc in values)


# sha256 of monopole_values on the 40 seeded theories, recorded before the shift,
# the dressing and the hbar specialization were computed term by term in the ring
MONOPOLE_DIGESTS = [
    "798e9de7d045a4d9d5ccd9194c8a15129f2976126c0ed75fea347a8b308d0c8f",
    "07de8b1ab74ab4f5a0ce2ad4dc9f6b800d68611eb67b1874ef77a5b9472bbe1d",
    "c7750c3321c2cc56d7ace2824844b6c9fbb92c8e82d77fac07545d8b4ec3e597",
    "f708638326b69c09f6b3be5d723e4b9f6f34ccb2c9f24830f9f94114565314cf",
    "1f66e8d4175277a1cb8c3b6ba76f75555a1d7a40ea52440fed5f21204aa2f9d2",
    "85a17e14a8236a99bfcb7a4150a3f52ec74c4daa0f1076a20b337879b21a32c9",
    "71273a2547ee7d7cda4a588878f60f948cdef3b49ec5b12f869837259f6e0cbc",
    "a767d4dee622847cd70a078cbcef3f8815157ff6829349d4eaadcbf89ffd9df9",
    "6f5d9d05b99fc7529821c98d34ae41d6f9ce9da4382cc6eb5557a3a09de5dd90",
    "06f27e70848f676920bdef401664c5e9d73ed30b515ce3baeb92797c0bfad953",
    "66cbe121d3a580dec4117bddaf1467225614905883083cbee50d09be136e6bd8",
    "8f2e2c1906ac77e1029fb25ba5d6ecb2ae2941833c18e2d6274889a6fde89574",
    "765c05a55a8f63d97cb3843751ad828eb65c7d9d5ebf78b6cd7c3e2e55df6b32",
    "5467fbb2667567ce7ccf7cca33df5449923444c69887b6c2fac4f50b0c972b5e",
    "9fb88ad05b1f808602f46a5708d4b0a13d11bddb9ed5dd806f49bfe3fb4f83c0",
    "6f7752c802b23cb60dbedee65a05b46c71deb731485adfb76187925b95c2eaf1",
    "6aba1d24108f415cee402bbfff36479d685a0100cf900a9b4c0deeb8a7b2759b",
    "1a7656c8b433fdab171ef60e22bbc7991b4912f675cd5dcaba052931eb36e398",
    "f5aeb1b61cd8f121844176113729bfb0ca5e69cc121f708df0f4fdd5de85d83b",
    "de411417af7c248fa59ea611911801f6b76a36dd7dbd7941f12054766a1e6a4f",
    "60dc6326b9c5226609851ff99eb7f686cc68cf4b019491a493da81444f90e9ee",
    "284565c975aab7b9b04295500f16426ddc718ca6dc953c0751d8f70420a5d5cd",
    "6dd8521011de37fd2cb634f5c9b241688d326a02ea9355d35c8c6df258cd8a52",
    "1f53757d378b45285031ad924d429365756fa071c51ec47f629c8bd61e0c0c5a",
    "0490c81b717b61045ba93dfdaa1650aedfbc5fc67de15a34e6e7ec60f17baffe",
    "a70455868d143050a79d79b84d999a4a043d14060eec96e04af1356567a2a936",
    "4eecce035dd37f2070da20cbb1dc230a84ab0efcbabf3bea8c12c815ce0739ad",
    "523cfb3a4e89fb4b2df6e261e6b75fba88c71ec689d907b361be9cdecc10ea12",
    "c8b6a3b0ad8f12473614c63e19ebde53b701b6e56b51e5b9c0e8fd48af639dae",
    "af88a8f99de3ec69a7d356e08429f1611dab9801ef2622be8de888e53dabc649",
    "062ae7169942c695c584ec66c2d3886751c03a78d5d97acc02b58ab2d59b57bc",
    "b522c9942b85183939ddba3fc91dc1bf647fc1c5bb982e0bd45efd427e9317c2",
    "4d42fa560b7f90251289da92cad57c046689f514dcd0e87556a1ddfd094e48a5",
    "b0c1dff83c91bb3e80b537285e730b77c658cd72e9cb0586337e34a06d360526",
    "d3a6581c61c367c00c9df2e7a0affed5e4c364e5981dff7cea2b57a1ef3de121",
    "132c68e801e47eb1baa3e947c1c0971af165fc60b05084794bdfe7bb70a35bf1",
    "91cd138c7a8cb1e421e4b4c72f0c5bc81c521d2f154f8552466135fc16ef18c8",
    "84997b3069a23c795aca5810fb81f8dfb62ad147cae34182bc00e2283a6f9229",
    "c00b465a01058a163b036b08222ec7ae1a60c2b1251dc0c887e0a762aaca2d4c",
    "299567a4209505b26d6024d3cd39b52fd239cb65fe6cde59f92e1956edfce6ab",
]


def test_monopole_values_match_recorded_digests():
    rng = random.Random(2201)
    computed = [
        hashlib.sha256(monopole_values(*_digest_case(rng)).encode()).hexdigest() for _ in range(40)
    ]
    assert computed == MONOPOLE_DIGESTS
