"""Quiver bookkeeping, slice parameters, strata, and fixed-point shadows."""

import random
import re
import sys
import time
from fractions import Fraction
from itertools import product

import pytest

from coulombkit.cartan import (
    KMWeight,
    central_element_as_root_sum,
    dominance_leq,
    in_positive_root_cone,
    langlands_dual,
    named_gcm,
    validate_and_symmetrize,
)
from coulombkit.errors import CoulombKitError, DomainError, UnsupportedError
from coulombkit.monopole import AbelianTheory, hilbert_series
from coulombkit.multiplicities import weight_multiplicity
from coulombkit.quiver import (
    DimVectors,
    Quiver,
    _dominant_interval,
    cocharacter_split,
    dims_from_weights,
    fixed_point_nonempty,
    gauge_data,
    jordan_coulomb_hilbert,
    mv_dimension,
    parabolic_codim,
    slice_params,
    strata_affine,
    strata_finite,
)
from test_multiplicities import LISTING_DATA, refuse_root_combination


def test_gauge_data_jordan():
    q = Quiver.jordan()
    for n, ell in ((1, 1), (2, 3), (3, 0)):
        gd = gauge_data(q, DimVectors.of([n], [ell]))
        assert gd.dim_g == n * n
        assert gd.dim_n == n * n + ell * n


def test_gauge_data_examples():
    q = Quiver.linear(2)
    gd = gauge_data(q, DimVectors.of([1, 1], [1, 1]))
    assert gd.dim_g == 2 and gd.dim_n == 3
    assert gauge_data(q, DimVectors.of([0, 0], [0, 0])).dim_g == 0


def test_cartan_matrix_forgets_orientation():
    assert Quiver.linear(3).cartan_matrix().entries == named_gcm("A3").entries
    with pytest.raises(UnsupportedError):
        Quiver.jordan().cartan_matrix()
    # parallel edges in both orientations count together
    q = Quiver.of(4, [(0, 1), (1, 0), (1, 2), (3, 2), (2, 3), (0, 3)])
    a = [[2, -2, 0, -1], [-2, 2, -1, 0], [0, -1, 2, -2], [-1, 0, -2, 2]]
    assert q.cartan_matrix() == validate_and_symmetrize(a)
    assert q.cartan_matrix().neighbours == validate_and_symmetrize(a).neighbours


def _random_quiver(rng):
    """Multi-edges, isolated vertices, trees, cycles, two disjoint triangles, or a triangle and a point."""
    kind = rng.choice(["edges", "tree", "cycle", "triangles", "triangle-and-point"])
    if kind == "edges":
        n = rng.randint(0, 7)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n + 2))] if n > 1 else []
    elif kind == "tree":
        n = rng.randint(1, 8)
        edges = [(rng.randrange(i), i) for i in range(1, n) for _ in range(rng.choice([1, 1, 1, 2]))]
    elif kind == "cycle":
        n = rng.randint(2, 8)
        edges = [(i, (i + 1) % n) for i in range(n)]
    else:
        n = 6 if kind == "triangles" else 4
        edges = [(0, 1), (1, 2), (2, 0)] + ([(3, 4), (4, 5), (5, 3)] if n == 6 else [])
    perm = rng.sample(range(n), n)
    return Quiver.of(n, [(perm[b], perm[a]) if rng.random() < 0.5 else (perm[a], perm[b]) for a, b in edges])


def _outcome(build):
    try:
        return build()
    except CoulombKitError as exc:
        return type(exc), str(exc)


def test_quiver_datum_from_its_edges_matches_validating_its_dense_rows():
    rng = random.Random(2201)
    for _ in range(400):
        q = _random_quiver(rng)
        rows = [[2 if i == j else 0 for j in range(q.vertices)] for i in range(q.vertices)]
        for s, t in q.edges:
            rows[s][t] -= 1
            rows[t][s] -= 1
        got, want = _outcome(q.cartan_matrix), _outcome(lambda: validate_and_symmetrize(rows))
        if isinstance(want, tuple):
            assert got == want, q
            continue
        fields = ("neighbours", "entries", "d", "tag", "null_vector", "dual_labels", "delta_split")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields], q
        assert got == want and hash(got) == hash(want)
        assert langlands_dual(got).entries == tuple(zip(*rows))


def test_3000_vertex_linear_slice_within_a_second_and_a_half():
    # the axioms, the symmetrizer walk and root_combination read each row's nonzeros; their
    # dense n x n passes took 2.7 s here
    n = 3000
    q, d = Quiver.linear(n), DimVectors.of([1] * n, [2] + [0] * (n - 1))
    start = time.perf_counter()
    sp = slice_params(q, d)
    assert time.perf_counter() - start < 1.5
    assert sp.mu == KMWeight((1,) + (0,) * (n - 2) + (-1,)) and not sp.mu_dominant


def test_slice_params_examples():
    a1 = Quiver.linear(1)
    sp = slice_params(a1, DimVectors.of([1], [2]))
    assert sp.lam == KMWeight.of((2,)) and sp.mu == KMWeight.of((0,))
    a2 = Quiver.linear(2)
    sp = slice_params(a2, DimVectors.of([1, 1], [1, 1]))
    assert sp.lam == KMWeight.of((1, 1)) and sp.mu == KMWeight.of((0, 0))
    assert sp.mu_dominant
    sp0 = slice_params(a2, DimVectors.of([0, 0], [2, 1]))
    assert sp0.mu == sp0.lam


def test_dims_from_weights_inverse():
    gcm = named_gcm("A1")
    d = dims_from_weights(gcm, KMWeight.of((2,)), KMWeight.of((0,)))
    assert d == DimVectors.of([1], [2])
    assert dims_from_weights(gcm, KMWeight.of((2,)), KMWeight.of((2,))).v == (0,)
    with pytest.raises(DomainError, match="not a valid slice"):
        dims_from_weights(gcm, KMWeight.of((2,)), KMWeight.of((1,)))


def test_roundtrip_slice_dims():
    rng = random.Random(61)
    for _ in range(20):
        n = rng.randint(1, 3)
        q = Quiver.linear(n)
        d = DimVectors.of(
            [rng.randint(0, 2) for _ in range(n)], [rng.randint(0, 3) for _ in range(n)]
        )
        sp = slice_params(q, d)
        assert dims_from_weights(q.cartan_matrix(), sp.lam, sp.mu) == d


def test_mv_dimension():
    a2 = named_gcm("A2")
    assert mv_dimension(a2, KMWeight.of((1, 1)), KMWeight.of((1, 1))) == 0
    assert mv_dimension(a2, KMWeight.of((1, 1)), KMWeight.of((0, 0))) == 2
    a1 = named_gcm("A1")
    assert mv_dimension(a1, KMWeight.of((2,)), KMWeight.of((-2,))) == 2
    with pytest.raises(DomainError):
        mv_dimension(a1, KMWeight.of((2,)), KMWeight.of((1,)))


def test_fixed_point_examples():
    a1 = named_gcm("A1")
    two = KMWeight.of((2,))
    assert fixed_point_nonempty(a1, two, two)
    assert fixed_point_nonempty(a1, two, KMWeight.of((0,)))
    assert not fixed_point_nonempty(a1, two, KMWeight.of((4,)))


def test_strata_finite():
    a1 = named_gcm("A1")
    two, zero = KMWeight.of((2,)), KMWeight.of((0,))
    assert strata_finite(a1, two, two) == [two]
    assert strata_finite(a1, two, zero) == [two, zero]
    a2 = named_gcm("A2")
    rho, z2 = KMWeight.of((1, 1)), KMWeight.of((0, 0))
    assert strata_finite(a2, rho, z2) == [rho, z2]
    # mu not dominant: interval still enumerates dominant kappa only
    out = strata_finite(a1, two, KMWeight.of((-2,)))
    assert out == [two, zero]


def box_interval(gcm, top, mu):
    """Every u in the box 0 <= u <= t, t the root coordinates of top - mu, kept where
    top - sum u_i alpha_i is dominant: the interval as it was found before the pruned walk."""
    t = in_positive_root_cone(gcm, top - mu)
    if t is None:
        return []
    out = []
    for u in product(*[range(x + 1) for x in t]):
        kappa = top - gcm.root_combination(u)
        if gcm.is_dominant(kappa):
            out.append((sum(u), kappa))
    out.sort(key=lambda p: (p[0], p[1].fund, p[1].delta))
    return out


INTERVAL_DATA = [named_gcm(name) for name in ("A1", "A2", "A3", "A4", "B2", "C2", "G2", "B3", "C3",
                                              "A1~", "A2~", "A3~")] + [
    validate_and_symmetrize(a) for a in ([[2, -1], [-4, 2]], [[2, -3], [-3, 2]])
]


def _datum_id(gcm):
    return f"{gcm.tag}{gcm.size}:{gcm.d}"


@pytest.mark.parametrize("gcm", INTERVAL_DATA, ids=_datum_id)
def test_dominant_interval_walk_matches_the_box_scan(gcm):
    # tops not all dominant, mu both below top and off its root lattice, random delta on affine tops
    rng = random.Random(_datum_id(gcm))
    n, found = gcm.size, 0
    for _ in range(60):
        top = KMWeight(tuple(rng.randint(-1, 4) for _ in range(n)), rng.randint(-3, 3) if gcm.tag == "affine" else 0)
        mu = top - gcm.root_combination([rng.randint(0, 3 if n <= 3 else 2) for _ in range(n)])
        if rng.random() < 0.2:
            mu = KMWeight(tuple(rng.randint(-3, 3) for _ in range(n)), mu.delta)
        want = box_interval(gcm, top, mu)
        assert _dominant_interval(gcm, top, mu) == want, (top, mu)
        found += len(want) > 1
    assert found


@pytest.mark.parametrize("gcm", LISTING_DATA, ids=_datum_id)
def test_dominant_interval_reads_each_kappa_off_the_walk(gcm, monkeypatch):
    # the box scan writes each kappa as top - root_combination(u); the walk reads it off its bounds
    rng = random.Random(f"reach {_datum_id(gcm)}")
    n, cases = gcm.size, []
    for _ in range(20):
        top = KMWeight(tuple(rng.randint(0, 4) for _ in range(n)), rng.randint(-3, 3) if gcm.tag != "finite" else 0)
        mu = top - gcm.root_combination([rng.randint(0, 3 if n <= 3 else 2) for _ in range(n)])
        cases.append((top, mu, box_interval(gcm, top, mu)))
    refuse_root_combination(monkeypatch)
    for top, mu, want in cases:
        got = _dominant_interval(gcm, top, mu)
        assert got == want and all(type(x) is int for _, k in got for x in k.fund + (k.delta,)), (top, mu)
    assert sum(len(want) > 1 for _, _, want in cases) >= 5


def dominant_closure(gcm, top, mu, roots):
    """Dominant kappa >= mu reached from a dominant top by steps down positive roots through dominant
    weights; in finite type that is every dominant kappa in [mu, top] (Stembridge, Adv. Math. 136, 1998)."""
    seen, frontier = {top.fund}, [top]
    while frontier:
        nxt = []
        for kappa in frontier:
            for beta in roots:
                nu = kappa - beta
                if nu.fund not in seen and gcm.is_dominant(nu) and dominance_leq(mu, nu, gcm):
                    seen.add(nu.fund)
                    nxt.append(nu)
        frontier = nxt
    return seen


def test_dominant_interval_on_a9_needs_no_stack():
    # rho down to varpi_5 on A9: a box of 5.6 x 10^8 points holds 1486 dominant weights
    gcm = named_gcm("A9")
    top, mu = KMWeight((1,) * 9), KMWeight((0, 0, 0, 0, 1, 0, 0, 0, 0))
    in_positive_root_cone(gcm, top - mu)  # the datum's Smith pass, before the limit
    old, limit = sys.getrecursionlimit(), 1
    while True:  # the least limit the interpreter accepts here is the current stack depth + 1
        try:
            sys.setrecursionlimit(limit)
            break
        except RecursionError:
            limit += 1
    try:
        sys.setrecursionlimit(limit + 4)
        got = _dominant_interval(gcm, top, mu)
    finally:
        sys.setrecursionlimit(old)
    roots = [gcm.root_combination([int(i <= k <= j) for k in range(9)]) for i in range(9) for j in range(i, 9)]
    assert {kappa.fund for _, kappa in got} == dominant_closure(gcm, top, mu, roots)
    assert len(got) == 1486 and got[0] == (0, top) and got[-1][1] == mu


def test_strata_affine_contains_endpoints():
    aff = named_gcm("A1~")
    lam = KMWeight.of((2, 0))
    c = central_element_as_root_sum(aff)
    mu = lam - c.scaled(2)
    out = strata_affine(aff, lam, mu, 2)
    assert (lam, ()) in out
    assert (mu, ()) in out
    for kappa, part in out:
        assert aff.is_dominant(kappa)
        assert dominance_leq(mu, kappa, aff)
        assert dominance_leq(kappa, lam - c.scaled(sum(part)), aff)


@pytest.mark.parametrize("matrix", [[[2, -1], [-4, 2]], [[2, -4], [-1, 2]]])
def test_twisted_strata_affine_shift_by_the_null_root(matrix):
    # A2^(2) and its transpose: the Kac labels differ from the dual labels, and each size |p| moves
    # the top to lam - |p| delta, delta = sum a_i alpha_i; every kappa has lam's level, so a box of
    # fundamental coordinates and deltas between mu's and lam's holds them all
    gcm = validate_and_symmetrize(matrix)
    delta = gcm.root_combination(gcm.null_vector)
    partitions = {0: [()], 1: [(1,)], 2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 1, 1)]}
    lam, counts = KMWeight.of((1, 0)), []
    for mu in (KMWeight.of((1, 0), -2), KMWeight.of((0, 2), -3), lam):
        box = [KMWeight(f, d) for f in product(range(5), repeat=2) for d in range(mu.delta, lam.delta + 1)]
        want = set()
        for size, parts in partitions.items():
            top = lam - delta.scaled(size)
            want |= {(k, p) for k in box for p in parts if dominance_leq(mu, k, gcm) and dominance_leq(k, top, gcm)}
        got = strata_affine(gcm, lam, mu, 3)
        assert len(got) == len(set(got)) and set(got) == want, mu
        counts.append(len(got))
    assert counts == ([10, 14, 1] if matrix[0][1] == -1 else [7, 0, 1])


def test_strata_affine_requires_level():
    aff = named_gcm("A1~")
    delta = aff.root_combination(aff.null_vector)
    with pytest.raises(DomainError):
        strata_affine(aff, delta, delta, 1)
    with pytest.raises(UnsupportedError):
        strata_affine(named_gcm("A2"), KMWeight.of((1, 1)), KMWeight.of((0, 0)), 1)


def test_strata_affine_rejects_a_negative_bound():
    # a negative bound once gave [] as if no stratum existed
    lam = KMWeight.of((2, 0))
    with pytest.raises(DomainError):
        strata_affine(named_gcm("A1~"), lam, lam, -1)


def test_cocharacter_split():
    weights = [(1, 0), (0, 1)]
    assert cocharacter_split(weights, (0, 0)) == (0, 2, 0)
    assert cocharacter_split(weights, (1, 0)) == (0, 1, 1)
    assert cocharacter_split([(1, -1)], (1, 0)) == (0, 0, 1)


def test_parabolic_codim():
    assert parabolic_codim([2], [(1, 0)]) == 1
    assert parabolic_codim([2], [(5, 5)]) == 0
    assert parabolic_codim([3], [(1, 0, 0)]) == 2
    assert parabolic_codim([2, 3], [(1, 0), (2, 1, 1)]) == 1 + 2


@pytest.mark.parametrize("read, noun, seen", [
    (lambda: cocharacter_split([(1.5, 0), (-0.5, 0), (0.9, 0)], (1, 0)), "weight", "(1.5, 0)"),
    (lambda: cocharacter_split([(1, 0)], (0.5, 0)), "cocharacter", "(0.5, 0)"),
    (lambda: parabolic_codim([2.5], [(1, 2)]), "GL rank", "(2.5,)"),
    (lambda: parabolic_codim([2], [(1, 1.5)]), "cocharacter block", "(1, 1.5)"),
], ids=["split-weight", "split-cocharacter", "codim-rank", "codim-block"])
def test_split_inputs_that_are_not_integers_are_domain_errors(read, noun, seen):
    # pairing read each entry through int(), so the weights above split as (0, 2, 1), and a
    # float GL rank reached range() as a bare TypeError; the error names what was read
    with pytest.raises(DomainError, match=f"^{noun} entries must be integers, not {re.escape(seen)}$"):
        read()


def test_split_inputs_read_integral_floats_as_integers():
    assert cocharacter_split([(2.0, 0), (-1, 0.0)], (1.0, 0)) == (1, 0, 1)
    assert parabolic_codim([2.0], [(1, 2.0)]) == parabolic_codim([2], [(1, 2)]) == 1


def test_jordan_hilbert_examples():
    assert jordan_coulomb_hilbert(1, 2, 3) == [1, 0, 3, 0, 5, 0, 7]
    assert jordan_coulomb_hilbert(1, 1, "3/2") == [1, 2, 3, 4]
    assert jordan_coulomb_hilbert(2, 1, 0) == [1]
    with pytest.raises(UnsupportedError):
        jordan_coulomb_hilbert(1, 0, 1)


def test_jordan_hilbert_negative_ell():
    with pytest.raises(DomainError, match="ell must be positive, got -3"):
        jordan_coulomb_hilbert(1, -3, 1)


@pytest.mark.parametrize("max_deg", [-1, Fraction(1, 3), "1.4"], ids=["negative", "one_third", "decimal"])
def test_jordan_hilbert_rejects_a_degree_that_is_not_a_non_negative_half_integer(max_deg):
    with pytest.raises(DomainError, match="non-negative half-integer"):
        jordan_coulomb_hilbert(1, 2, max_deg)


def test_jordan_hilbert_matches_abelian_series():
    # the last three have many characters, so the Coulomb side's DP runs over a large cokernel
    for ell, max_deg in ((1, 3), (2, 3), (3, 3), (8, 8), (16, 8), (24, 8)):
        th = AbelianTheory.a_type(ell)
        assert jordan_coulomb_hilbert(1, ell, max_deg) == hilbert_series(th, max_deg)


def test_jordan_symmetric_square():
    # Sym^2 of the plane (ell = 1): dimensions of degree-d part of
    # C[x1,y1,x2,y2]^{S_2}, i.e. multisets of 2 monomials
    dims = jordan_coulomb_hilbert(2, 1, 1)
    # degree 0: {1,1}; 1/2: {1,x},{1,y}; 1: {1,x^2},{1,xy},{1,y^2},{x,x},{x,y},{y,y}
    assert dims == [1, 2, 6]


def test_fixed_point_weyl_invariance_dual_side():
    gcm = named_gcm("B2")
    from coulombkit.cartan import langlands_dual

    dual = langlands_dual(gcm)
    lam = KMWeight.of((1, 1))
    for mu_f in [(1, 1), (0, 0), (-1, 1), (1, -2), (0, 1)]:
        mu = KMWeight.of(mu_f)
        base = fixed_point_nonempty(gcm, lam, mu)
        for i in range(2):
            assert fixed_point_nonempty(gcm, lam, dual.reflect(i, mu)) == base
        assert base == (weight_multiplicity(dual, lam, mu) > 0)


@pytest.mark.parametrize("read, noun", [
    (lambda: Quiver.of(2, [(0, 1.2)]), "quiver edge"),
    (lambda: DimVectors.of([1.5], [1]), "dimension vector"),
    (lambda: DimVectors.of([1], ["1"]), "dimension vector"),
], ids=["edge", "v", "w"])
def test_quiver_inputs_that_are_not_integers_are_domain_errors(read, noun):
    # each entry was read through int(): Quiver.of(2, [(0, 1.2)]) had the edge (0, 1)
    with pytest.raises(DomainError, match=f"^{noun} entries must be integers"):
        read()
    assert Quiver.of(2, [(0, 1.0)]) == Quiver(2, ((0, 1),))
    assert DimVectors.of([1.0], [2]) == DimVectors((1,), (2,))
