"""Root and weight multiplicities, with an independent character-formula oracle.

The oracle expands the Weyl character formula directly: for finite type,
mult(mu) = sum over the Weyl group of sign(w) * K(w(lam+rho) - (mu+rho)),
where K is the Kostant partition function over the positive roots.  It shares
no code with the Freudenthal recursion under test.
"""

import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from coulombkit import cartan, multiplicities
from coulombkit.cancel import CancellationToken
from coulombkit.cartan import (
    NAMED_CARTAN_MATRICES,
    KMWeight,
    in_positive_root_cone,
    langlands_dual,
    named_gcm,
    root_coordinates,
    validate_and_symmetrize,
)
from coulombkit.errors import Cancelled, DimensionError, DomainError, UnsupportedError
from coulombkit.multiplicities import (
    FreudenthalTable,
    RootTable,
    default_support_depth,
    root_multiplicities,
    tensor_decompose,
    tensor_fixed_components,
    tensor_weight_mult,
    weight_multiplicity,
    weight_support,
)
from test_cartan import oracle_root_coordinates

RHO_CACHE = {}


def weyl_orbit_with_signs(gcm, lam_rho):
    """BFS orbit of a regular dominant weight; sign = (-1)^(reflection depth)."""
    seen = {lam_rho.fund: 1}
    frontier = [(lam_rho, 1)]
    while frontier:
        nxt = []
        for mu, sign in frontier:
            for i in range(gcm.size):
                nu = gcm.reflect(i, mu)
                if nu.fund not in seen:
                    seen[nu.fund] = -sign
                    nxt.append((nu, -sign))
        frontier = nxt
    return seen


def positive_roots(gcm):
    table = root_multiplicities(gcm, 12)
    roots = table.roots()
    assert all(m == 1 for m in table.multiplicities.values())
    return roots


def kostant_partition(roots, target):
    """Number of ways to write target (root coords) over the given roots."""

    @lru_cache(maxsize=None)
    def count(idx, remaining):
        if all(x == 0 for x in remaining):
            return 1
        if idx == len(roots):
            return 0
        total = 0
        vec = remaining
        while all(x >= 0 for x in vec):
            total += count(idx + 1, vec)
            vec = tuple(a - b for a, b in zip(vec, roots[idx]))
        return total

    return count(0, tuple(target))


def oracle_multiplicity(gcm, lam, mu):
    rho = KMWeight.of((1,) * gcm.size)
    roots = positive_roots(gcm)
    orbit = weyl_orbit_with_signs(gcm, lam + rho)
    total = 0
    for fund, sign in orbit.items():
        diff = KMWeight.of(fund) - (mu + rho)
        rc = root_coordinates(gcm, diff)
        if rc is None or any(x.denominator != 1 or x < 0 for x in rc):
            continue
        total += sign * kostant_partition(roots, tuple(int(x) for x in rc))
    return total


def test_root_table_a2():
    table = root_multiplicities(named_gcm("A2"), 3)
    assert table.multiplicities == {(1, 0): 1, (0, 1): 1, (1, 1): 1}


def test_root_table_height_one():
    for name in ("A1", "B2", "G2", "A1~"):
        table = root_multiplicities(named_gcm(name), 1)
        n = table.gcm.size
        assert set(table.multiplicities) == {
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        }


def test_root_table_finite_counts():
    # number of positive roots: A2 -> 3, B2 -> 4, G2 -> 6
    for name, count in (("A2", 3), ("B2", 4), ("G2", 6)):
        table = root_multiplicities(named_gcm(name), 10)
        assert len(table.multiplicities) == count


def test_root_table_stops_after_the_highest_root():
    # G2's highest root has height 5: the first empty layer, 6, ends the table
    table = root_multiplicities(named_gcm("G2"), 40)
    assert len(table.multiplicities) == 6
    assert max(map(sum, table.c_values)) == 6


def gram_norm(gcm, b):
    n = gcm.size
    return sum(gcm.gram(i, j) * b[i] * b[j] for i in range(n) for j in range(n))


def test_root_table_norms_are_the_forms_of_its_roots():
    # kept in the summands beside the multiplicities, so Freudenthal's sums do not recompute
    # them; real roots have (beta, beta) = 2 d_i > 0, imaginary ones (beta, beta) <= 0
    for name in ("A3", "B2", "G2", "C3", "A1~", "A2~", "A3~"):
        gcm = named_gcm(name)
        table = root_multiplicities(gcm, 8)
        assert [(b, norm) for b, _, norm, _, _ in table.summands] == [
            (b, gram_norm(gcm, b)) for b in table.multiplicities
        ]


def test_root_table_extends_in_place():
    # continuing Peterson's recursion from height 3 gives the fresh height-7 table
    for name in ("A2~", "A3~"):
        gcm = named_gcm(name)
        table = root_multiplicities(gcm, 3)
        table.extend(7)
        fresh = root_multiplicities(gcm, 7)
        assert table.height == fresh.height == 7
        assert table.c_values == fresh.c_values
        assert table.multiplicities == fresh.multiplicities
        # Freudenthal's summands list the roots in the multiplicities' order, a copied prefix included
        assert table.summands == fresh.summands == fresh_root_table(gcm, 7).summands == [
            (b, m, gram_norm(gcm, b), tuple(x * d for x, d in zip(b, gcm.d)), sum(b))
            for b, m in fresh.multiplicities.items()
        ]


# hyperbolic, the twisted affine A2^(2), and an indefinite rank-3 datum
EXPLICIT_CARTAN = ([[2, -3], [-3, 2]], [[2, -1], [-4, 2]], [[2, -2, 0], [-2, 2, -1], [0, -1, 2]])
CARTAN_DATA = {name: named_gcm(name) for name in sorted(NAMED_CARTAN_MATRICES)}
CARTAN_DATA.update((str(a), validate_and_symmetrize(a)) for a in EXPLICIT_CARTAN)


def fresh_root_table(gcm, height):
    table = RootTable(gcm, 0)
    table.extend(height)
    return table


def same_table(a, b):
    return (a.height, a.multiplicities, a.c_values) == (b.height, b.multiplicities, b.c_values)


@pytest.mark.parametrize("deeper", [False, True])
def test_root_multiplicities_read_the_shared_table(deeper):
    multiplicities._root_table.cache_clear()
    if deeper:
        # lam - 10 delta on the A1~ basic module grows A1~'s shared table to height 20
        lam = KMWeight.of((1, 0))
        assert weight_multiplicity(named_gcm("A1~"), lam, KMWeight.of((1, 0), -10)) == 42
    for name, gcm in CARTAN_DATA.items():
        if deeper:
            root_multiplicities(gcm, 12)
        for height in range(1, 9):
            assert same_table(root_multiplicities(gcm, height), fresh_root_table(gcm, height)), (name, height)


def test_returned_root_tables_are_copies():
    gcm = named_gcm("A2~")
    table = root_multiplicities(gcm, 4)
    table.extend(9)
    table.multiplicities[(1, 1, 1)] = 99
    table.c_values.clear()
    assert same_table(root_multiplicities(gcm, 4), fresh_root_table(gcm, 4))
    assert same_table(root_multiplicities(gcm, 9), fresh_root_table(gcm, 9))


class CountdownToken(CancellationToken):
    """Cancels at its n-th check, which lands inside a layer of the recursion."""

    def __init__(self, n):
        super().__init__()
        self.left = n

    def check(self):
        self.left -= 1
        if self.left < 0:
            raise Cancelled("operation cancelled")


@pytest.mark.parametrize("token", [CancellationToken(0), CountdownToken(7), CountdownToken(60), CountdownToken(400)])
def test_cancelled_root_multiplicities_leave_the_shared_table_valid(token):
    gcm = named_gcm("A3~")
    multiplicities._root_table.cache_clear()
    with pytest.raises(Cancelled), token:
        root_multiplicities(gcm, 9)
    assert same_table(root_multiplicities(gcm, 9), fresh_root_table(gcm, 9))


def kac_affine_roots(l, height):
    """Positive roots of A_l~ up to ``height`` by Kac, Prop. 6.3: alpha + k delta
    (alpha a root of A_l, k >= 0 for positive alpha and k >= 1 for negative)
    has multiplicity 1, and k delta (k >= 1) has multiplicity l.  Coordinates
    put alpha_0 first, and delta = alpha_0 + ... + alpha_l."""
    finite = [tuple(int(i <= j < k) for j in range(l)) for i in range(l) for k in range(i + 1, l + 1)]
    out = {}
    for k in range(height + 1):
        delta = (k,) * (l + 1)
        if 0 < k * (l + 1) <= height:
            out[delta] = l
        for alpha in finite:
            for sign in (1, -1):
                beta = (k,) + tuple(k + sign * a for a in alpha)
                if (sign > 0 or k > 0) and sum(beta) <= height:
                    out[beta] = 1
    return out


@pytest.mark.parametrize("l, height, count", [(1, 14, 21), (1, 120, 180), (2, 12, 28), (3, 10, 34)])
def test_affine_root_tables_match_kac_description(l, height, count):
    table = root_multiplicities(named_gcm(f"A{l}~"), height)
    want = kac_affine_roots(l, height)
    assert len(want) == count
    assert table.multiplicities == want


def exact_values(gcm):
    """Root multiplicities and c-values to height 14 (8 above rank 4), and the
    weight support of V(lam) for each lam with coordinate sum <= 3, to depth 6
    (2 above rank 4); below rank 5 each weight's simple reflections are queried
    too.  One line per weight or root."""
    small = gcm.size <= 4
    table = root_multiplicities(gcm, 14 if small else 8)
    lines = [f"{b} {table.multiplicities.get(b, 0)} {table.c_values[b]}"
             for b in sorted(table.c_values, key=lambda b: (sum(b), b))]
    for fund in product(range(4), repeat=gcm.size):
        if sum(fund) > 3:
            continue
        lam = KMWeight(fund)
        for mu, m in weight_support(gcm, lam, 6 if small else 2):
            reflected = [weight_multiplicity(gcm, lam, gcm.reflect(i, mu)) for i in range(gcm.size)] if small else []
            lines.append(f"{fund} {mu.fund} {mu.delta} {m} {reflected}")
    return "\n".join(lines)


# sha256 of exact_values, recorded before Freudenthal's formula was restricted to dominant
# weights and Peterson's pair sums moved to integers; keyed by matrix, not by registry name
EXACT_VALUE_DIGESTS = {
    "[[2]]": "936348bf06a90ca9fd2bba9ea28a41129d4f1134273ec9367cb418f89534ceba",
    "[[2, -1], [-1, 2]]": "75971a02e1ebcb9be36bf34fda7f3e8bc8b94661aafbc6973a82d63d49804f9c",
    "[[2, -1], [-2, 2]]": "4dbce6f9fce4ecca458e2b4a22c14f4e9dd0eb809b50704239f15c350055b86a",
    "[[2, -1], [-3, 2]]": "b0c82a363770aafd59c62636157270c2711e50bc0816e862c5fdc09c91a6ea44",
    "[[2, -1], [-4, 2]]": "808359043772a86a581d8ce88ac6041867696d74bc3d6b8b4bd726a3fb725da6",
    "[[2, -2], [-1, 2]]": "f9a8f5aad29e911084825588d3e6d1cefdeeaebb786b2b4556414adcf14f75a1",
    "[[2, -2], [-2, 2]]": "32074abe2161aa607bb10f18ad53463b10936b114d1a9e7e07d9a0b591d5c8df",
    "[[2, -3], [-3, 2]]": "9d6fe1710c8c3239ef08bfbfc2208a2fcbbb49a7766b8eca055b3aa141800eae",
    "[[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]": "0927831332dc051294f89e47f8099a92d1996f5bcbb09e16e6fe660b704fc636",
    "[[2, -1, 0], [-1, 2, -1], [0, -1, 2]]": "8a12217c2078612be7f1bd78b6e82bf9c2f6e5b510d6e5c2143780e11c9ab4ff",
    "[[2, -1, 0], [-1, 2, -1], [0, -2, 2]]": "a92541f595ef7b1a48a7b9f59092c9d9e03e1f00bf878cab66ed5f3a8c3d44fa",
    "[[2, -1, 0], [-1, 2, -2], [0, -1, 2]]": "8be80b2938df32b2073f54cb302bbcc12a64df75fbcead8e198056459a7974f3",
    "[[2, -2, 0], [-2, 2, -1], [0, -1, 2]]": "67fcc55960af77078bb8e47664ec7e36334c1c8d9e67a048bb4ed2128a71cea9",
    "[[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]": "e490bf5ec9ad5fdb4bd66e0c8eb36b15fbcef156aa0152b8edcb113dcba3af42",
    "[[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]": "c865b9658df850cbe7c9f4ebbc2ebffa9df1486d348f1daa15b4c8b74e6a3a4d",
    "[[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, 0], [0, 0, -1, 2, -1], [0, 0, 0, -1, 2]]": "3d867e11ecd7aeed0975a33f0ebe6606d6653c78f12b3e883178883466fd8714",
    "[[2, -1, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0], [0, -1, 2, -1, 0, 0], [0, 0, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]]": "ba7f26f7d83b36e15ca083e5f281683a516b903b4b95b855912750d4cb6f0b2a",
    "[[2, -1, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0], [0, -1, 2, -1, 0, 0, 0], [0, 0, -1, 2, -1, 0, 0], [0, 0, 0, -1, 2, -1, 0], [0, 0, 0, 0, -1, 2, -1], [0, 0, 0, 0, 0, -1, 2]]": "8d581ac5cc16aa2ab82772186334ac58ef66db97ea4f0eb4777cfad3fd1f6e51",
    "[[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0], [0, -1, 2, -1, 0, 0, 0, 0], [0, 0, -1, 2, -1, 0, 0, 0], [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0], [0, 0, 0, 0, 0, -1, 2, -1], [0, 0, 0, 0, 0, 0, -1, 2]]": "0bc04c393e912908e8cd8b2f531fc784e496f0967c87f32f30a96b3e29f67feb",
    "[[2, -1, 0, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0, 0], [0, -1, 2, -1, 0, 0, 0, 0, 0], [0, 0, -1, 2, -1, 0, 0, 0, 0], [0, 0, 0, -1, 2, -1, 0, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, 0, -1, 2, -1, 0], [0, 0, 0, 0, 0, 0, -1, 2, -1], [0, 0, 0, 0, 0, 0, 0, -1, 2]]": "2d61f939e7eb614aed7708390781d21d52637dc56a2fb1a2cd1fd9994060b18c",
}


def test_exact_values_match_recorded_digests():
    computed = {}
    for key in EXACT_VALUE_DIGESTS:
        gcm = validate_and_symmetrize(json.loads(key))
        computed[key] = hashlib.sha256(exact_values(gcm).encode()).hexdigest()
    assert computed == EXACT_VALUE_DIGESTS


def test_tables_store_only_nonzero_entries():
    for name, height in (("G2", 40), ("A1~", 30), ("A2~", 12), ("A3~", 9)):
        table = root_multiplicities(named_gcm(name), height)
        assert all(table.c_values.values()) and all(table.multiplicities.values())
    gcm, lam = named_gcm("A4"), KMWeight.of((1, 1, 1, 1))
    table = FreudenthalTable(gcm, lam)
    support = weight_support(gcm, lam)
    table.extend(30)  # the lowest weight has height 20, and layer 21 is empty
    assert table.height == 21
    assert len(table._mult) == len(support) == 291 and all(table._mult.values())


def test_affine_a1_imaginary_root_multiplicities():
    aff = named_gcm("A1~")
    table = root_multiplicities(aff, 6)
    # delta = alpha_0 + alpha_1; imaginary multiplicities equal the finite rank
    assert table.multiplicities[(1, 1)] == 1
    assert table.multiplicities[(2, 2)] == 1
    assert table.multiplicities[(3, 3)] == 1
    # real roots all multiplicity 1
    assert table.multiplicities[(2, 1)] == 1
    assert table.multiplicities[(1, 2)] == 1


def coloured_partitions(colours, top):
    """p_colours(n) for n <= top: the coefficients of prod_k (1 - q^k)^-colours."""
    p = [1] + [0] * top
    for k in range(1, top + 1):
        for _ in range(colours):
            for n in range(k, top + 1):
                p[n] += p[n - k]
    return p


@pytest.mark.parametrize("l, top", [(1, 40), (2, 25), (3, 14)])
def test_basic_modules_follow_frenkel_kac(l, top):
    # Frenkel-Kac: on A_l~, mult(Lambda_i - n delta) in V(Lambda_i) is the number of l-coloured
    # partitions of n, for i = 0 and 1
    gcm = named_gcm(f"A{l}~")
    delta = gcm.root_combination(gcm.null_vector)
    want = coloured_partitions(l, top)
    for i in (0, 1):
        lam = KMWeight(tuple(int(j == i) for j in range(l + 1)), 0)
        assert [weight_multiplicity(gcm, lam, lam - delta.scaled(n)) for n in range(top + 1)] == want


def test_level_one_roots_of_the_feingold_frenkel_algebra():
    # Feingold-Frenkel: the hyperbolic F extends A1~ (vertices 1, 2) by vertex 0, and a root with
    # alpha_0-coefficient 1 has mult = p(1 - (a, a) / 2); every such vector with (a, a) <= 2 is a root
    gcm = validate_and_symmetrize([[2, -1, 0], [-1, 2, -2], [0, -2, 2]])
    height = 40
    table = root_multiplicities(gcm, height)
    p = coloured_partitions(1, height)
    level_one = {(1, b1, h - 1 - b1) for h in range(1, height + 1) for b1 in range(h)}
    want = {b: p[1 - gram_norm(gcm, b) // 2] for b in level_one if gram_norm(gcm, b) <= 2}
    assert len(want) == 122
    assert {b: m for b, m in table.multiplicities.items() if b[0] == 1} == want


@pytest.mark.parametrize("a, imaginary", [
    (NAMED_CARTAN_MATRICES["A1~"], 1), (NAMED_CARTAN_MATRICES["A2~"], 2),
    (NAMED_CARTAN_MATRICES["A3~"], 3), ([[2, -1], [-4, 2]], 1),
], ids=["A1~", "A2~", "A3~", "A2^(2)"])
def test_affine_roots_are_real_of_multiplicity_one_or_multiples_of_delta(a, imaginary):
    # Kac, Ch. 6: mult(n delta) is l on A_l~ and 1 on A2^(2); every other positive root is real,
    # with (a, a) > 0 and multiplicity 1
    gcm = validate_and_symmetrize(a)
    delta = gcm.null_vector
    table = root_multiplicities(gcm, 12 * sum(delta))
    for b, m in table.multiplicities.items():
        k = sum(b) // sum(delta)
        if b == tuple(k * x for x in delta):
            assert m == imaginary, b
        else:
            assert gram_norm(gcm, b) > 0 and m == 1, b
    assert all(table.multiplicities[tuple(k * x for x in delta)] == imaginary for k in range(1, 13))


def test_weight_multiplicity_highest_weight():
    gcm = named_gcm("A2")
    lam = KMWeight.of((2, 1))
    assert weight_multiplicity(gcm, lam, lam) == 1


def test_weight_multiplicity_adjoint_zero_weight():
    gcm = named_gcm("A2")
    assert weight_multiplicity(gcm, KMWeight.of((1, 1)), KMWeight.of((0, 0))) == 2


def decoded(table):
    """A table's multiplicities under the root coordinates its keys pack, in its order."""
    return {multiplicities._unpack(b, table._width, table.gcm.size): m for b, m in table._mult.items()}


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_freudenthal_depth_is_not_bounded_by_the_recursion_limit():
    # the fill runs in height order, so a depth of 300 needs no deep stack
    table = FreudenthalTable(named_gcm("A1"), KMWeight.of((300,)))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        assert table.multiplicity_at_depth((300,)) == 1
    finally:
        sys.setrecursionlimit(old)


def test_freudenthal_sums_only_at_dominant_weights():
    # A4 (3,3,3,3) at mu = 0 fills 6968 weights, of which 198 are dominant (lam included);
    # every other weight reads its dominant conjugate's multiplicity
    multiplicities._root_table.cache_clear()
    multiplicities._freudenthal.cache_clear()
    gcm, lam = named_gcm("A4"), KMWeight.of((3, 3, 3, 3))
    assert weight_multiplicity(gcm, lam, KMWeight.of((0, 0, 0, 0))) == 1136
    table = multiplicities._freudenthal(gcm, lam.fund)
    assert table.evaluated == 198
    assert len(table._mult) == 6968


def parent_dominant_depth(gcm, lam, beta):
    """The query's reduction before mu's coordinates were passed in: c = lam - A beta
    is recomputed from lam and beta, then s_i adds c_i to beta_i while c_i < 0."""
    a, beta = gcm.entries, list(beta)
    c = [x - sum(r * b for r, b in zip(row, beta)) for x, row in zip(lam.fund, a)]
    while (i := next((i for i, x in enumerate(c) if x < 0), None)) is not None:
        step = c[i]
        beta[i] += step
        if beta[i] < 0:
            return None
        for j, row in enumerate(a):
            c[j] -= row[i] * step
    return tuple(beta)


# A3, B3, G2, A1~, A2~, the twisted affine A2^(2) and a hyperbolic datum
QUERY_DATA = [named_gcm(name) for name in ("A3", "B3", "G2", "A1~", "A2~")] + [
    validate_and_symmetrize(a) for a in ([[2, -1], [-4, 2]], [[2, -3], [-3, 2]])
]


def test_query_path_matches_the_recomputing_oracle():
    # the oracle solves by Gauss-Jordan, reduces with lam - A beta recomputed, and reads a
    # fresh table; the library reads the dominant conjugate off mu through its cached solve
    rng, tables, seen = random.Random(2201), {}, set()
    while len(seen) < 600:
        gcm = rng.choice(QUERY_DATA)
        lam = KMWeight.of([rng.randint(0, 2) for _ in range(gcm.size)], rng.randint(-1, 1))
        mu = lam - gcm.root_combination([rng.randint(-1, 3) for _ in range(gcm.size)])
        for _ in range(rng.randint(0, 2)):
            mu = gcm.reflect(rng.randrange(gcm.size), mu)
        if rng.random() < 0.2:  # off the root lattice, or off the delta pin
            mu = KMWeight(mu.fund, mu.delta + rng.choice((-1, 1))) if gcm.tag == "affine" else \
                KMWeight(tuple(x + rng.randint(-1, 1) for x in mu.fund), mu.delta)
        if (gcm, lam, mu) in seen:
            continue
        seen.add((gcm, lam, mu))
        coords = oracle_root_coordinates(gcm, lam - mu)
        want, beta = 0, None
        if coords is not None and all(x.denominator == 1 and x >= 0 for x in coords):
            beta = parent_dominant_depth(gcm, lam, tuple(int(x) for x in coords))
        if beta is not None:
            if (gcm, lam) not in tables:
                tables[gcm, lam] = FreudenthalTable(gcm, lam)
            want = tables[gcm, lam].multiplicity_at_depth(beta)
        assert weight_multiplicity(gcm, lam, mu) == want, (gcm.entries, lam, mu)
    assert len({gcm for gcm, _, _ in seen}) == len(QUERY_DATA)


def parent_query(gcm, lam, mu, tables):
    """The query as it read the datum before the table held its own data: a public
    solve of lam - mu, the dense reduction, and a table filled to that depth."""
    beta = in_positive_root_cone(gcm, lam - mu)
    if beta is None or (beta := parent_dominant_depth(gcm, lam, beta)) is None:
        return 0
    if (gcm, lam) not in tables:
        tables[gcm, lam] = FreudenthalTable(gcm, lam)
    return tables[gcm, lam].multiplicity_at_depth(beta)


def test_table_queries_and_supports_match_the_parent_path():
    # named finite and affine data, the twisted A2^(2), a hyperbolic datum and rank 0; mu off
    # the root lattice, and a nonzero delta in finite type, answer 0
    data = QUERY_DATA + [named_gcm("C3"), validate_and_symmetrize([])]
    rng, tables, kinds = random.Random(3008), {}, set()
    for _ in range(900):
        gcm = rng.choice(data)
        lam = KMWeight.of([rng.randint(0, 2) for _ in range(gcm.size)], rng.randint(-1, 1))
        mu = lam - gcm.root_combination([rng.randint(-1, 3) for _ in range(gcm.size)])
        for _ in range(rng.randint(0, 2)) if gcm.size else ():
            mu = gcm.reflect(rng.randrange(gcm.size), mu)
        if rng.random() < 0.25:
            mu = KMWeight(mu.fund, mu.delta + rng.choice((-1, 1))) if rng.random() < 0.5 else \
                KMWeight(tuple(x + rng.randint(-1, 1) for x in mu.fund), mu.delta)
        want = parent_query(gcm, lam, mu, tables)
        assert weight_multiplicity(gcm, lam, mu) == want, (gcm.entries, lam, mu)
        kinds.add((gcm.tag, gcm.size, want > 0, gcm.tag == "finite" and mu.delta != lam.delta))
    assert {(tag, m) for tag, _, m, _ in kinds} >= {(t, m) for t in ("finite", "affine", "indefinite") for m in (0, 1)}
    # rank 0, and lam - mu with a nonzero delta in finite type, at rank 0 and above
    assert {("finite", 0, True, False), ("finite", 0, False, True)} <= kinds
    assert any(off and size for _, size, _, off in kinds)
    for gcm in data:
        lam = KMWeight.of([rng.randint(0, 2) for _ in range(gcm.size)], rng.randint(-1, 1))
        depth = rng.randint(0, 5)
        table = FreudenthalTable(gcm, lam)
        table.extend(depth)
        stored = decoded(table)
        betas = sorted((b for b in stored if sum(b) <= depth), key=lambda b: (sum(b), b))
        want = [(lam - gcm.root_combination(b), stored[b]) for b in betas]
        assert weight_support(gcm, lam, depth) == want, (gcm.entries, lam, depth)


def test_table_queries_raise_the_parent_errors_in_its_order():
    gcm = named_gcm("A2")
    for lam, mu, message in [
        ((1, 0), (1, 0, 0), "weights live on different Cartan data"),
        # a highest weight of the wrong length is refused as its table is built, before mu is read
        ((1, 0, 0), (1, 0), "weight length does not match Cartan matrix size"),
        ((1, 0, 0), (1, 0, 0), "weight length does not match Cartan matrix size"),
    ]:
        for _ in range(2):  # a failed query leaves the table as it was
            with pytest.raises(DimensionError, match=f"^{message}$"):
                weight_multiplicity(gcm, KMWeight.of(lam), KMWeight.of(mu))
    with pytest.raises(DomainError, match="^highest weight must be dominant$"):
        weight_multiplicity(gcm, KMWeight.of((-1, 0, 0)), KMWeight.of((1, 0)))


def test_a_warm_query_reads_only_the_table():
    # the table holds its solve data and reads the datum's nonzeros, so a query it has filled reads no datum cache
    gcm, lam = named_gcm("B3"), KMWeight.of((1, 1, 1))
    support = weight_support(gcm, lam)
    for mu, _ in support:
        weight_multiplicity(gcm, lam, mu)
    rows = type(gcm).entries.fget
    before = cartan._solve_data.cache_info(), rows.cache_info()
    assert [(mu, weight_multiplicity(gcm, lam, mu)) for mu, _ in support] == support
    assert (cartan._solve_data.cache_info(), rows.cache_info()) == before


class SolvingTable(FreudenthalTable):
    """The query path before the index of dominant weights: lam - mu solved into the
    positive root cone, then beta walked to the depth of the dominant conjugate of mu
    (s_i adds c_i to beta_i; a negative beta_i leaves the weights) and read there.
    ``reason`` records where the last query ended."""

    def multiplicity(self, mu):
        (lam := self.lam)._match(mu)
        if self._data is None:
            if len(lam.fund) != self.gcm.size:
                raise DimensionError("weight length does not match Cartan matrix size")
            self._data = cartan._solve_data(self.gcm)
        diff = tuple(x - y for x, y in zip(lam.fund, mu.fund))
        beta = cartan._cone(cartan._solve(self.gcm, self._data, diff, lam.delta - mu.delta))
        if beta is None:
            self.reason = "solve"
            return 0
        nbrs, c, beta = self.gcm.neighbours, list(mu.fund), list(beta)
        while (i := next((i for i, x in enumerate(c) if x < 0), None)) is not None:
            step = c[i]
            beta[i] += step
            if beta[i] < 0:
                self.reason = "walk"
                return 0
            c[i] -= 2 * step
            for j in nbrs[i]:
                c[j] -= nbrs[j][i] * step
        self.reason = "read"
        return self.multiplicity_at_depth(tuple(beta))


def test_the_index_of_dominant_weights_matches_the_solving_path():
    # finite, affine, twisted and hyperbolic data; mu off the root lattice, off the positive
    # cone and off the delta pin, walks that leave the cone, and delta-shifted highest weights.
    # Each query must answer as the solving path does and leave the table at the same height.
    rng, tables, kinds = random.Random(3301), {}, set()
    data = QUERY_DATA + [named_gcm("C3")]
    for _ in range(1500):
        gcm = rng.choice(data)
        lam = KMWeight.of([rng.randint(0, 2) for _ in range(gcm.size)], rng.randint(-2, 2))
        mu = lam - gcm.root_combination([rng.randint(-2, 4) for _ in range(gcm.size)])
        for _ in range(rng.randint(0, 4)):
            mu = gcm.reflect(rng.randrange(gcm.size), mu)
        shape = rng.choice(("weight", "weight", "lattice", "delta"))
        if shape == "lattice":
            mu = KMWeight(tuple(x + rng.randint(-1, 1) for x in mu.fund), mu.delta)
        elif shape == "delta":
            mu = KMWeight(mu.fund, mu.delta + rng.choice((-2, -1, 1, 2)))
        if (gcm, lam) not in tables:
            tables[gcm, lam] = FreudenthalTable(gcm, lam), SolvingTable(gcm, lam)
        table, oracle = tables[gcm, lam]
        want = oracle.multiplicity(mu)
        assert (table.multiplicity(mu), table.height) == (want, oracle.height), (gcm.entries, lam, mu)
        assert weight_multiplicity(gcm, lam, mu) == want, (gcm.entries, lam, mu)
        kinds.add((gcm.tag, oracle.reason))
    assert kinds == {(t, r) for t in ("finite", "affine", "indefinite") for r in ("solve", "walk", "read")}
    # A6 2rho at a non-weight of integer height 20: the solve refuses it before any layer is filled
    gcm, lam, mu = named_gcm("A6"), KMWeight.of((2,) * 6), KMWeight.of((-4, 0, 0, 1, -1, 9))
    table, oracle = FreudenthalTable(gcm, lam), SolvingTable(gcm, lam)
    assert (table.multiplicity(mu), table.height) == (oracle.multiplicity(mu), oracle.height) == (0, 0)


def test_a_covered_query_solves_nothing(monkeypatch):
    # once a table covers a query's dominant conjugate, the query reads the index alone
    b3, a1 = named_gcm("B3"), named_gcm("A1~")
    b3_lam, a1_lam = KMWeight.of((1, 1, 1)), KMWeight.of((1, 0), 2)
    support = weight_support(b3, b3_lam)  # the whole module: the table is complete
    queries = [(b3, b3_lam, mu) for mu, _ in support]
    queries += [(b3, b3_lam, b3.reflect(i, mu)) for mu, _ in support for i in range(3)]
    queries += [(b3, b3_lam, KMWeight(mu.fund, 1)) for mu, _ in support[:20]]  # off the delta pin
    queries += [(b3, b3_lam, KMWeight.of((9, -9, 1)))]
    for n in range(6):  # Lambda_0 + (2 - n) delta, of height 2n <= 10, its conjugates and off-lattice weights
        mu = KMWeight.of((1, 0), 2 - n)
        queries += [(a1, a1_lam, nu) for nu in (mu, a1.reflect(0, mu), a1.reflect(1, mu), KMWeight.of((0, 1), 2 - n))]
    weight_multiplicity(a1, a1_lam, KMWeight.of((1, 0), -3))  # fills A1~ to height 10
    want = [weight_multiplicity(*q) for q in queries]
    assert want[:len(support)] == [m for _, m in support] and 0 in want and sorted(set(want))[-1] > 1

    def refuse(*args):
        raise AssertionError("a covered query solved")

    monkeypatch.setattr(multiplicities, "_solve", refuse)
    monkeypatch.setattr(multiplicities, "_cone", refuse)
    assert [weight_multiplicity(*q) for q in queries] == want


def test_affine_queries_reduce_before_filling():
    # s_0 s_1 s_0 (Lambda_0 - 10 delta) lies at beta = (14, 12); the table grows only to the
    # height 20 of its dominant conjugate, whose multiplicity is p(10) = 42
    multiplicities._freudenthal.cache_clear()
    gcm, lam = named_gcm("A1~"), KMWeight.of((1, 0))
    assert weight_multiplicity(gcm, lam, KMWeight((-3, 4), -12)) == 42
    assert multiplicities._freudenthal(gcm, lam.fund).height == 20


@pytest.mark.parametrize("a", [NAMED_CARTAN_MATRICES[name] for name in ("A1~", "A2~", "A3~")] + [
    [[2, -1], [-4, 2]], NAMED_CARTAN_MATRICES["A2"], NAMED_CARTAN_MATRICES["G2"]],
    ids=["A1~", "A2~", "A3~", "A2^(2)", "A2", "G2"])
def test_every_delta_shift_of_a_highest_weight_reads_one_table(a):
    # V(Lambda_0 + k delta) is V(Lambda_0) with every weight moved by k delta: one table serves all k;
    # in finite type, where lam - mu with a nonzero delta has no weight space, the answers are unchanged
    gcm = validate_and_symmetrize(a)
    rng = random.Random(31)
    multiplicities._freudenthal.cache_clear()
    fund = (1,) + (0,) * (gcm.size - 1)
    for k in range(-5, 6):
        lam = KMWeight(fund, k)
        for _ in range(12):
            mu = lam - gcm.root_combination([rng.randint(0, 4) for _ in range(gcm.size)])
            if rng.random() < 0.3:
                mu = KMWeight(mu.fund, mu.delta + rng.randint(-2, 2))
            assert weight_multiplicity(gcm, lam, mu) == FreudenthalTable(gcm, lam).multiplicity(mu), (lam, mu)
        (table := FreudenthalTable(gcm, lam)).extend(3)
        stored = decoded(table)
        betas = sorted((b for b in stored if sum(b) <= 3), key=lambda b: (sum(b), b))
        assert weight_support(gcm, lam, 3) == [(lam - gcm.root_combination(b), stored[b]) for b in betas]
    assert multiplicities._freudenthal.cache_info().misses == 1


def test_weight_multiplicity_requires_dominant():
    gcm = named_gcm("A2")
    with pytest.raises(DomainError):
        weight_multiplicity(gcm, KMWeight.of((-1, 0)), KMWeight.of((0, 0)))


def test_basic_representation_partition_numbers():
    # affine A1, lam = Lambda_0: mult(lam - n*delta) = p(n)
    aff = named_gcm("A1~")
    lam = KMWeight.of((1, 0))
    delta = aff.root_combination(aff.null_vector)
    partitions = [1, 1, 2, 3, 5, 7]
    for n, p in enumerate(partitions):
        assert weight_multiplicity(aff, lam, lam - delta.scaled(n)) == p


def test_freudenthal_weyl_invariance():
    gcm = named_gcm("B2")
    lam = KMWeight.of((1, 1))
    for mu, m in weight_support(gcm, lam):
        for i in range(gcm.size):
            assert weight_multiplicity(gcm, lam, gcm.reflect(i, mu)) == m


def test_freudenthal_matches_character_oracle_spot():
    gcm = named_gcm("A2")
    lam = KMWeight.of((2, 2))
    for mu, m in weight_support(gcm, lam):
        assert oracle_multiplicity(gcm, lam, mu) == m


# named finite and affine data, the twisted A2^(2) and the hyperbolic Feingold-Frenkel datum
LISTING_DATA = [named_gcm(name) for name in ("A1", "A2", "A3", "A4", "B3", "C3", "G2", "A1~", "A2~", "A3~")] + [
    validate_and_symmetrize(a) for a in ([[2, -1], [-4, 2]], [[2, -1, 0], [-1, 2, -2], [0, -2, 2]])
]


def root_combination_form(gcm, lam, depth):
    """The listing as it was written before: lam minus each beta's root combination, read off a
    fresh table in (height, beta) order."""
    table = FreudenthalTable(gcm, lam)
    table.extend(depth)
    stored = decoded(table)
    betas = sorted((b for b in stored if sum(b) <= depth), key=lambda b: (sum(b), b))
    return [(lam - gcm.root_combination(b), stored[b]) for b in betas]


def refuse_root_combination(monkeypatch):
    def refuse(self, coeffs):
        raise AssertionError("a listing called root_combination")
    monkeypatch.setattr(cartan.GeneralizedCartanMatrix, "root_combination", refuse)


@pytest.mark.parametrize("gcm", LISTING_DATA, ids=lambda g: f"{g.tag}{g.size}:{g.d}")
def test_weight_support_writes_each_weight_from_the_one_above_it(gcm, monkeypatch):
    rng = random.Random(f"{gcm.d}{gcm.tag}{gcm.size}")
    cases = []
    for _ in range(12):
        lam = KMWeight.of([rng.randint(0, 2) for _ in range(gcm.size)], rng.randint(-2, 2))
        depth = rng.randint(0, 6 if gcm.size <= 2 else 4)
        cases.append((lam, depth, root_combination_form(gcm, lam, depth)))
    refuse_root_combination(monkeypatch)
    for lam, depth, want in cases:
        got = weight_support(gcm, lam, depth)
        assert got == want and all(type(x) is int for mu, _ in got for x in mu.fund + (mu.delta,)), (lam, depth)
    assert sum(len(want) > 1 for _, _, want in cases) >= 4


def test_a_long_support_listing_is_cancelled_by_the_deadline():
    # the table is filled first, so every deadline check the second listing reads is its own
    gcm, lam = named_gcm("A4"), KMWeight.of((2, 2, 2, 2))
    depth = multiplicities.default_support_depth(gcm, lam)
    support = weight_support(gcm, lam, depth)
    checks = []

    class Countdown(CancellationToken):
        def __init__(self, allowed):
            super().__init__()
            self.allowed = allowed

        def check(self):
            checks.append(1)
            if len(checks) > self.allowed:
                raise Cancelled("operation timed out")

    with pytest.raises(Cancelled), Countdown(len(support) // 2):
        weight_support(gcm, lam, depth)
    checks.clear()
    with Countdown(len(support)):
        assert weight_support(gcm, lam, depth) == support
    assert len(checks) == len(support) == 3081  # one per weight


def test_a_support_weight_with_no_listed_parent_fails_loudly(monkeypatch):
    # every weight but lam lies a simple root below a listed one; a table that broke this must
    # not have the orphan listed as lam
    class Orphaned:
        # lam and (1, 1) in 2-bit digits, with layer 1 empty
        _width, _ends = 2, [1, 1, 2]
        _mult = {multiplicities._pack((0, 0), 2): 1, multiplicities._pack((1, 1), 2): 2}

        def extend(self, depth):
            pass

    monkeypatch.setattr(multiplicities, "_freudenthal", lambda gcm, fund: Orphaned())
    with pytest.raises(AssertionError, match="simple root above"):
        weight_support(named_gcm("A2"), KMWeight.of((1, 1)), 2)


def test_weight_support_depth_required_for_affine():
    aff = named_gcm("A1~")
    with pytest.raises(DomainError):
        weight_support(aff, KMWeight.of((1, 0)))


def test_weight_support_rejects_a_negative_depth():
    with pytest.raises(DomainError):
        weight_support(named_gcm("A2"), KMWeight.of((1, 0)), -1)
    assert weight_support(named_gcm("A2"), KMWeight.of((1, 0)), 0) == [(KMWeight.of((1, 0)), 1)]


class TupleTable:
    """The layered fill as it was before its keys were packed: each weight under the tuple of
    its root coordinates, a candidate built by tuple addition, and Freudenthal's sums read by
    tuple subtraction until a coordinate goes negative.  The oracle of the packed table."""

    def __init__(self, gcm, lam):
        self.gcm, self.lam = gcm, lam
        self.height, self._top = 0, {(0,) * gcm.size: lam.fund}
        self._mult = dict.fromkeys(self._top, 1)
        self._dominant = {(lam.fund, lam.delta) if gcm.delta_split else lam.fund: 1}
        self.evaluated = 1

    def extend(self, height):
        gcm, mult = self.gcm, self._mult
        if height <= self.height or not self._top:
            return
        table = multiplicities._root_table(gcm)
        table.extend(height)
        roots = [r for r in table.summands if r[4] <= height]
        columns = list(zip(*gcm.entries))
        while self._top and self.height < height:
            below = {}
            for b, c in self._top.items():
                for i, col in enumerate(columns):
                    if (beta := b[:i] + (b[i] + 1,) + b[i + 1:]) not in below:
                        below[beta] = tuple(x - y for x, y in zip(c, col))
            layer, top = {}, {}
            for beta, mu in below.items():
                if (low := min(mu)) >= 0:
                    q = self._freudenthal_sum(beta, mu, roots)
                else:
                    i = mu.index(low)
                    q = mult.get(beta[:i] + (beta[i] + low,) + beta[i + 1:], 0)
                if q:
                    layer[beta], top[beta] = q, mu
            mult.update(layer)
            self._top, self.height = top, self.height + 1

    def _freudenthal_sum(self, beta, mu, roots):
        gcm, lam, mult = self.gcm, self.lam.fund, self._mult
        self.evaluated += 1
        num = 0
        for alpha, m_alpha, norm, d_alpha, _ in roots:
            pairing = sum(x * y for x, y in zip(mu, d_alpha))
            shifted, k = beta, 1
            while min(shifted := tuple(x - y for x, y in zip(shifted, alpha))) >= 0:
                num += m_alpha * (pairing + k * norm) * mult.get(shifted, 0)
                k += 1
        den = multiplicities._pair(gcm, [x + y + 2 for x, y in zip(lam, mu)], beta)
        q = 2 * num // den if den else 0
        if q:
            split = gcm.delta_split
            self._dominant[(mu, self.lam.delta - sum(x * y for x, y in zip(split, beta))) if split else mu] = q
        return q


def assert_same_fill(table, oracle):
    """The packed table holds the oracle's weights in its order, with its layer ends and sums."""
    assert list(decoded(table).items()) == list(oracle._mult.items())
    assert (table.height, table.evaluated, table._dominant) == (oracle.height, oracle.evaluated, oracle._dominant)
    assert table._ends == [sum(sum(b) <= h for b in oracle._mult) for h in range(oracle.height + 1)]


F = validate_and_symmetrize([[2, -1, 0], [-1, 2, -2], [0, -2, 2]])  # hyperbolic Feingold-Frenkel
FILL_DATA = [named_gcm(name) for name in sorted(NAMED_CARTAN_MATRICES)] + [
    validate_and_symmetrize(a) for a in ([[2, -1], [-4, 2]], [[2, -4], [-1, 2]])
] + [F]


@pytest.mark.parametrize("gcm", FILL_DATA, ids=lambda g: str([list(r) for r in g.entries]))
def test_the_packed_table_matches_the_tuple_keyed_fill(gcm):
    # seeded highest weights, each filled in two steps, so that most tables re-pack between them
    rng = random.Random(str(gcm.entries))
    cap = 9 if gcm.size <= 3 else 6 if gcm.size <= 5 else 4
    widths = set()
    for _ in range(4):
        lam = KMWeight.of([rng.randint(0, 2) for _ in range(gcm.size)], rng.randint(-1, 1))
        table, oracle = FreudenthalTable(gcm, lam), TupleTable(gcm, lam)
        for height in sorted(rng.randint(1, cap) for _ in range(2)):
            table.extend(height)
            oracle.extend(height)
            assert_same_fill(table, oracle)
            widths.add(table._width)
    assert len(widths) >= 2


def test_a_table_filled_past_its_digit_width_keeps_the_partition_numbers():
    # Lambda_0 - n delta has height 2n: the keys are re-packed as 2n reaches 2, 4, 8, 16, 32 and 64
    gcm, lam = named_gcm("A1~"), KMWeight.of((1, 0))
    table, p, widths = FreudenthalTable(gcm, lam), coloured_partitions(1, 40), []
    for n in range(1, 41):
        assert table.multiplicity(KMWeight((1, 0), -n)) == p[n], n
        widths.append(table._width)
    assert widths == sorted(widths) and len(set(widths)) == 6 and 2 ** (widths[-1] - 1) > table.height == 80
    (oracle := TupleTable(gcm, lam)).extend(80)
    assert_same_fill(table, oracle)


def test_a_reflection_off_the_positive_cone_reads_zero_at_huge_coordinates():
    # the digit width is set by heights, not by lam; a candidate whose -mu_i exceeds beta_i
    # reflects to a vector with a negative coordinate, which holds no weight
    big = 10**40
    for gcm, fund in [(named_gcm("A2"), (big, 0)), (named_gcm("A2"), (0, big)),
                      (named_gcm("B3"), (big, 0, big)), (named_gcm("A1~"), (big, 0)), (F, (0, big, 0))]:
        lam = KMWeight.of(fund)
        table, oracle = FreudenthalTable(gcm, lam), TupleTable(gcm, lam)
        table.extend(5)
        oracle.extend(5)
        assert_same_fill(table, oracle)
        assert table._width == 4
    # A2, lam = 10^40 varpi_1: lam - alpha_2 has mu_2 = -2 at beta_2 = 1, and lam - 2 alpha_2
    # has mu_2 = -4 at beta_2 = 2; lam - alpha_1 - alpha_2 reflects to lam - alpha_1.  V(lam) is
    # the symmetric power Sym^(10^40) C^3, whose weights have multiplicity 1
    table = FreudenthalTable(named_gcm("A2"), KMWeight.of((big, 0)))
    assert [table.multiplicity_at_depth(b) for b in ((0, 1), (0, 2), (1, 0), (1, 1), (2, 2))] == [0, 0, 1, 1, 1]
    assert table.multiplicity_at_depth((-1, 3)) == table.multiplicity_at_depth((3, -1)) == 0


def test_freudenthal_rejects_a_highest_weight_of_another_rank():
    gcm, lam = named_gcm("A1~"), KMWeight.of((1, 0, 0))
    with pytest.raises(DimensionError, match="weight length"):
        FreudenthalTable(gcm, lam)
    # a table every later call would refuse is not cached, and its length is read before mu's
    multiplicities._freudenthal.cache_clear()
    for mu in (KMWeight.of((1, 0, 0)), KMWeight.of((1, 0, 0, 0))):
        with pytest.raises(DimensionError, match="weight length"):
            weight_multiplicity(gcm, lam, mu)
    assert multiplicities._freudenthal.cache_info().currsize == 0


def reflecting_dominant(gcm, mu):
    """The dominant conjugate and det(w) by simple reflections of ``KMWeight``s, in finite type."""
    sign = 1
    while (i := next((i for i, c in enumerate(mu.fund) if c < 0), None)) is not None:
        mu, sign = gcm.reflect(i, mu), -sign
    return mu, sign


def test_default_support_depth_is_the_height_down_to_the_lowest_weight():
    # the lowest weight of V(lam) is -nu for nu the dominant conjugate of -lam, found by reflecting
    names = [name for name in NAMED_CARTAN_MATRICES if named_gcm(name).tag == "finite"]
    data = [named_gcm(name) for name in names] + [
        validate_and_symmetrize(tuple(zip(*NAMED_CARTAN_MATRICES[name]))) for name in ("B2", "C2", "G2", "B3", "C3")]
    assert len(names) == 14
    rng = random.Random("lowest weights")
    for gcm in data:
        for _ in range(12):
            lam = KMWeight(tuple(rng.randint(0, 3) for _ in range(gcm.size)), rng.randint(-2, 2))
            lowest = -reflecting_dominant(gcm, -lam)[0]
            assert default_support_depth(gcm, lam) == sum(in_positive_root_cone(gcm, lam - lowest)), (gcm, lam)


def test_default_support_depth_refuses_other_types_and_lengths():
    with pytest.raises(UnsupportedError):
        default_support_depth(named_gcm("A1~"), KMWeight.of((1, 0)))
    with pytest.raises(DimensionError):
        default_support_depth(named_gcm("A2"), KMWeight.of((1, 0, 0)))


def test_dominant_conjugate_in_integers_matches_the_reflection_walk():
    # the walk reflects at the least coordinate and the oracle at the first negative one: the
    # conjugate is unique, and so is det(w) where it is regular, the only place Brauer-Klimyk reads it
    rng = random.Random(33)
    for name in ("A1", "A3", "B2", "C2", "G2", "B3", "C3", "A5"):
        gcm = named_gcm(name)
        for _ in range(40):
            mu = KMWeight(tuple(rng.randint(-4, 4) for _ in range(gcm.size)), rng.randint(-2, 2))
            nu, sign = reflecting_dominant(gcm, mu)
            h, delta, walked = cartan._dominant_walk(gcm, c := list(mu.fund), delta=mu.delta)
            assert (tuple(c), delta, h) == (nu.fund, mu.delta, math.inf), (name, mu)
            assert walked == sign or min(nu.fund) == 0, (name, mu)
    # A1~, A2~, the twisted A2^(2) and a hyperbolic datum: a Weyl conjugate mu of a dominant nu walks
    # back to nu, with nu's delta, and its height falls by the height of nu - mu; a walk stops once
    # its height is negative, also where it would never reach the chamber
    for a in (NAMED_CARTAN_MATRICES["A1~"], NAMED_CARTAN_MATRICES["A2~"], [[2, -1], [-4, 2]], [[2, -3], [-3, 2]]):
        gcm = validate_and_symmetrize(a)
        for _ in range(40):
            nu = mu = KMWeight(tuple(rng.randint(0, 3) for _ in range(gcm.size)), rng.randint(-2, 2))
            for _ in range(rng.randint(0, 6)):
                mu = gcm.reflect(rng.randrange(gcm.size), mu)
            rise = sum(in_positive_root_cone(gcm, nu - mu))
            h, delta, _ = cartan._dominant_walk(gcm, c := list(mu.fund), rise + 5, mu.delta)
            assert (tuple(c), delta, h) == (nu.fund, nu.delta, 5), (a, mu)
            if rise:
                assert cartan._dominant_walk(gcm, list(mu.fund), rise - 1, mu.delta)[0] < 0, (a, mu)
    assert cartan._dominant_walk(validate_and_symmetrize([[2, -3], [-3, 2]]), [-1, -1], 50)[0] < 0


def test_tensor_weight_mult_examples():
    a1 = named_gcm("A1")
    w = KMWeight.of((1,))
    assert tensor_weight_mult(a1, w, w, w + w) == 1
    assert tensor_weight_mult(a1, w, w, KMWeight.of((0,))) == 2
    a2 = named_gcm("A2")
    assert tensor_weight_mult(a2, KMWeight.of((1, 0)), KMWeight.of((0, 1)), KMWeight.of((0, 0))) == 3


def test_tensor_weight_mult_symmetry():
    a2 = named_gcm("A2")
    lam1, lam2 = KMWeight.of((2, 0)), KMWeight.of((0, 1))
    for mu, _ in weight_support(a2, lam1 + lam2):
        assert tensor_weight_mult(a2, lam1, lam2, mu) == tensor_weight_mult(a2, lam2, lam1, mu)


def test_tensor_decompose_examples():
    a1 = named_gcm("A1")
    w = KMWeight.of((1,))
    assert tensor_decompose(a1, w, w) == {KMWeight.of((2,)): 1, KMWeight.of((0,)): 1}
    assert tensor_decompose(a1, w, KMWeight.of((0,))) == {w: 1}
    a2 = named_gcm("A2")
    assert tensor_decompose(a2, KMWeight.of((1, 0)), KMWeight.of((0, 1))) == {
        KMWeight.of((1, 1)): 1,
        KMWeight.of((0, 0)): 1,
    }


def _assert_decompose_matches_convolution(gcm, lam1, lam2):
    # Brauer-Klimyk against the convolution of the two weight supports
    comps = tensor_decompose(gcm, lam1, lam2)
    for mu, _ in weight_support(gcm, lam1 + lam2):
        expected = sum(m * weight_multiplicity(gcm, nu, mu) for nu, m in comps.items())
        assert expected == tensor_weight_mult(gcm, lam1, lam2, mu)


def test_tensor_decompose_consistent_with_weight_mult():
    _assert_decompose_matches_convolution(
        named_gcm("B2"), KMWeight.of((1, 0)), KMWeight.of((0, 1))
    )


@pytest.mark.parametrize(
    "name, fund1, fund2",
    [
        ("G2", (1, 0), (0, 1)),
        ("B3", (1, 0, 0), (0, 0, 1)),
        ("C3", (0, 1, 0), (1, 0, 0)),
        ("A3", (1, 0, 1), (0, 1, 0)),
    ],
    ids=["G2", "B3", "C3", "A3"],
)
def test_tensor_decompose_consistent_with_weight_mult_other_types(name, fund1, fund2):
    _assert_decompose_matches_convolution(
        named_gcm(name), KMWeight.of(fund1), KMWeight.of(fund2)
    )


def brauer_klimyk(gcm, lam1, lam2):
    """The Brauer-Klimyk sum with ``KMWeight`` reflections, as tensor_decompose once walked it."""
    rho, result = KMWeight((1,) * gcm.size), {}
    for mu, m in weight_support(gcm, lam1):
        nu, sign = reflecting_dominant(gcm, lam2 + mu + rho)
        if all(c > 0 for c in nu.fund):
            result[nu - rho] = result.get(nu - rho, 0) + sign * m
    return {kappa: m for kappa, m in result.items() if m}


def test_tensor_decompose_matches_a_brauer_klimyk_oracle():
    rng = random.Random(340)
    for name in ("A1", "A2", "A3", "A4", "B2", "C2", "G2", "B3", "C3"):
        gcm = named_gcm(name)
        for _ in range(5):
            lam1, lam2 = (KMWeight(tuple(rng.randint(0, 2) for _ in range(gcm.size)), rng.randint(-1, 1))
                          for _ in range(2))
            assert tensor_decompose(gcm, lam1, lam2) == brauer_klimyk(gcm, lam1, lam2), (name, lam1, lam2)


def test_tensor_decompose_requires_finite():
    with pytest.raises(UnsupportedError):
        tensor_decompose(named_gcm("A1~"), KMWeight.of((1, 0)), KMWeight.of((1, 0)))


def test_tensor_fixed_components_a1():
    a1 = named_gcm("A1")
    w = KMWeight.of((1,))
    zero = KMWeight.of((0,))
    pairs = tensor_fixed_components(a1, w, w, zero)
    assert pairs == [(KMWeight.of((-1,)), w), (w, KMWeight.of((-1,)))]
    assert tensor_fixed_components(a1, w, w, w + w) == [(w, w)]
    assert tensor_fixed_components(a1, w, w, KMWeight.of((3,))) == []
