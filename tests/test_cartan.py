"""Cartan data: axioms, symmetrizers, classification, duality, dominance."""

import dataclasses
import hashlib
import math
import random
import re
import time
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulombkit import cartan, multiplicities
from coulombkit.cancel import CancellationToken
from coulombkit.cartan import (
    NAMED_CARTAN_MATRICES,
    KMWeight,
    central_element_as_root_sum,
    dominance_leq,
    in_positive_root_cone,
    langlands_dual,
    level,
    named_gcm,
    root_coordinates,
    validate_and_symmetrize,
)
from coulombkit.errors import (
    Cancelled,
    CartanError,
    CoulombKitError,
    DimensionError,
    DomainError,
    SymmetrizabilityError,
    UnsupportedError,
)
from coulombkit.lattices import IntMatrix, integer_kernel
from test_lattices import bareiss_det, solve_rational


def test_a2_symmetric():
    gcm = validate_and_symmetrize([[2, -1], [-1, 2]])
    assert gcm.d == (1, 1)
    assert gcm.tag == "finite"


def test_b2_symmetrizers():
    gcm = validate_and_symmetrize([[2, -2], [-1, 2]])
    assert gcm.d == (1, 2)
    assert gcm.tag == "finite"
    # d_i a_ij = d_j a_ji
    for i in range(2):
        for j in range(2):
            assert gcm.d[i] * gcm.entries[i][j] == gcm.d[j] * gcm.entries[j][i]


def test_nonsymmetrizable_cycle():
    with pytest.raises(SymmetrizabilityError):
        validate_and_symmetrize([[2, -1, -1], [-1, 2, -1], [-2, -1, 2]])


def fraction_symmetrizers(nbrs):
    """The symmetrizer walk in ``Fraction`` arithmetic: each d_j / d_start along the
    breadth-first walk, then the component scaled by the lcm of their denominators."""
    ratio = [None] * len(nbrs)
    for start in range(len(ratio)):
        if ratio[start] is not None:
            continue
        ratio[start] = Fraction(1)
        comp = [start]
        for i in comp:
            for j, x in nbrs[i].items():
                val = ratio[i] * Fraction(x, nbrs[j][i])
                if ratio[j] is None:
                    ratio[j] = val
                    comp.append(j)
                elif ratio[j] != val:
                    raise SymmetrizabilityError("matrix is not symmetrizable (cycle products disagree)")
        scaled = [ratio[i] * math.lcm(*(ratio[k].denominator for k in comp)) for i in comp]
        g = math.gcd(*map(int, scaled))
        for i, x in zip(comp, scaled):
            ratio[i] = Fraction(int(x) // g)
    return tuple(int(r) for r in ratio)


def _random_neighbours(rng):
    """Off-diagonal nonzeros on 1-9 vertices: most edges symmetrized by random d_i in
    {1, 2, 3, 4, 6}, some with free entries, which rarely agree around a cycle; a chain
    of bonds (-1, -2) sometimes follows, so the walk's ratios halve along it."""
    n = rng.randint(1, 9)
    d = [rng.choice((1, 1, 2, 3, 4, 6)) for _ in range(n)]
    nbrs = [{} for _ in range(n)]
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.4:
                s = -rng.randint(1, 2) * math.lcm(d[i], d[j])
                pair = (s // d[i], s // d[j]) if rng.random() < 0.8 else (rng.randint(-4, -1), rng.randint(-4, -1))
                nbrs[i][j], nbrs[j][i] = pair
    if rng.random() < 0.2:
        nbrs += [{} for _ in range(rng.randint(1, 12))]
        for i in range(n - 1, len(nbrs) - 1):
            nbrs[i][i + 1], nbrs[i + 1][i] = -1, -2
    return nbrs


def test_integer_symmetrizers_match_the_fraction_walk():
    rng = random.Random(76)
    kinds = {}
    for _ in range(4000):
        nbrs = _random_neighbours(rng)
        try:
            want = fraction_symmetrizers(nbrs)
        except SymmetrizabilityError as exc:
            with pytest.raises(SymmetrizabilityError, match=f"^{re.escape(str(exc))}$"):
                cartan._minimal_symmetrizers(nbrs)
            kinds["not symmetrizable"] = kinds.get("not symmetrizable", 0) + 1
            continue
        assert cartan._minimal_symmetrizers(nbrs) == want, nbrs
        kind = "d = 1" if set(want) == {1} else "d > 1"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert min(kinds.values()) >= 400 and len(kinds) == 3, kinds
    for gcm in ORACLE_DATA:
        assert cartan._minimal_symmetrizers(gcm.neighbours) == fraction_symmetrizers(gcm.neighbours) == gcm.d


def test_axiom_violations():
    with pytest.raises(CartanError):
        validate_and_symmetrize([[1, 0], [0, 2]])
    with pytest.raises(CartanError):
        validate_and_symmetrize([[2, 1], [1, 2]])
    with pytest.raises(CartanError):
        validate_and_symmetrize([[2, 0], [-1, 2]])


def test_classification_tags():
    assert named_gcm("A3").tag == "finite"
    assert named_gcm("G2").tag == "finite"
    assert named_gcm("A1~").tag == "affine"
    assert named_gcm("A2~").tag == "affine"
    assert validate_and_symmetrize([[2, -3], [-3, 2]]).tag == "indefinite"


EDGE_PAIRS = [(-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-1, -4), (-4, -1), (-2, -2)]
BLOCKS = [m for m in NAMED_CARTAN_MATRICES.values() if len(m) <= 3] + [[[2, -1], [-4, 2]], [[2, -3], [-3, 2]]]


def _random_cartan_input(rng):
    """A square matrix of size 0-7: sparse edges carrying pairs such as (-1, -2)
    (cycles are rare), a symmetric graph, free entries on a random graph, or named
    blocks in a permuted block sum; about one in ten then has one entry broken,
    and one in fifty a ragged row."""
    n = rng.randint(0, 7)
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    kind = rng.choice(("tree", "symmetric", "free", "blocks"))
    if kind == "blocks":
        a, n = [], 0
        while n < 7 and rng.random() < 0.8:
            b = rng.choice(BLOCKS)
            if n + len(b) > 7:
                break
            a = [row + [0] * len(b) for row in a] + [[0] * n + list(r) for r in b]
            n += len(b)
        perm = rng.sample(range(n), n)
        a = [[a[p][q] for q in perm] for p in perm]
    for j in range(1, n):
        for i in range(j):
            if kind == "tree" and i == rng.randrange(j):
                a[i][j], a[j][i] = rng.choice(EDGE_PAIRS)
            elif kind == "symmetric" and rng.random() < 0.4:
                a[i][j] = a[j][i] = rng.choice((-1, -1, -2))
            elif kind == "free" and rng.random() < 0.3:
                a[i][j], a[j][i] = rng.randint(-3, -1), rng.randint(-3, -1)
    if n and rng.random() < 0.1:
        i, j = rng.randrange(n), rng.randrange(n)
        a[i][j] = rng.choice((1, 3, 0, -1))
    if n and rng.random() < 0.02:
        a[rng.randrange(n)].append(0)
    return a


def _validation_outcome(a):
    try:
        g = validate_and_symmetrize(a)
    except CoulombKitError as exc:
        return type(exc).__name__, str(exc)
    return g.entries, g.d, g.tag, g.null_vector, g.dual_labels, g.delta_split


def test_validation_outcomes_match_recorded_digest():
    # recorded on the tree that classified with one Bareiss determinant per leading minor;
    # 2545 finite, 1595 indefinite, 175 affine, 929 CartanError, 651 SymmetrizabilityError,
    # 105 UnsupportedError
    rng = random.Random(2201)
    digest = hashlib.sha256()
    for _ in range(6000):
        digest.update(repr(_validation_outcome(_random_cartan_input(rng))).encode())
    assert digest.hexdigest() == "48387c0f4270858cc84a4b33162111e597db729423258704d91793d3b2c761c9"


def _dense_first_violation(a):
    """The axiom error a dense row-major scan of ``a`` meets first, or None."""
    n = len(a)
    if any(len(row) != n for row in a):
        return "Cartan matrix must be square"
    for i in range(n):
        if a[i][i] != 2:
            return f"diagonal entry a[{i}][{i}] must be 2"
        for j in range(n):
            if i != j:
                if a[i][j] > 0:
                    return f"off-diagonal entry a[{i}][{j}] must be <= 0"
                if (a[i][j] == 0) != (a[j][i] == 0):
                    return f"a[{i}][{j}] = 0 requires a[{j}][{i}] = 0"
    return None


def _several_violations(rng):
    """A symmetric-pattern matrix of size 2-8 with 2-4 axiom violations: one-sided zero
    patterns with the zero above or below the diagonal, positive off-diagonal entries,
    diagonal entries other than 2, and, in about one in twenty, a ragged row."""
    n = rng.randint(2, 8)
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.5:
                a[i][j], a[j][i] = rng.randint(-3, -1), rng.randint(-3, -1)
    for _ in range(rng.randint(2, 4)):
        i, j = rng.sample(range(n), 2)
        kind = rng.choice(("zero", "one-sided", "positive", "diagonal"))
        if kind == "zero":
            a[i][j] = 0
        elif kind == "one-sided":
            a[i][j], a[j][i] = rng.randint(-3, -1), 0
        elif kind == "positive":
            a[i][j] = rng.randint(1, 3)
        else:
            a[i][i] = rng.choice((-2, 0, 1, 3))
    if rng.random() < 0.05:
        row = a[rng.randrange(n)]
        row.append(0) if rng.random() < 0.5 else row.pop()
    return a


def test_first_of_several_violations_is_the_dense_scans():
    # validation reads each row's nonzeros once; a one-sided pair (p, q), p < q, must still be
    # reported at row p, before later entries of row p and every later row, whichever side is zero
    rng = random.Random(27)
    kinds = {}
    for _ in range(4000):
        a = _several_violations(rng)
        want = _dense_first_violation(a)
        for m in [a] if want == "Cartan matrix must be square" else [a, IntMatrix.from_rows(a)]:
            try:
                validate_and_symmetrize(m)
                got = None
            except CoulombKitError as exc:
                got = str(exc)
            if want is None:  # the violations cancelled: a later stage may still reject it
                assert got is None or not got.startswith(("diagonal", "off-diagonal", "a[", "Cartan")), a
            else:
                assert got == want, a
        kind = (want or "valid").split()[0]
        if kind.startswith("a["):  # one-sided at (p, q), p < q: is the zero a_pq or a_qp?
            p, q = map(int, kind[2:-1].split("]["))
            kind = "zero-below" if a[p][q] else "zero-above"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"Cartan", "diagonal", "off-diagonal", "zero-above", "zero-below", "valid"}, kinds
    assert min(kinds.values()) >= 50, kinds


def _sylvester_tag(gcm):
    """(tag, number of components) by Sylvester's rule on the leading blocks of
    D*A on each component, every minor a separate Bareiss determinant."""
    n, seen, tags, ncomps = gcm.size, set(), set(), 0
    for start in range(n):
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            row = gcm.entries[frontier.pop()]
            new = {j for j in range(n) if row[j] and j not in comp}
            comp |= new
            frontier += new
        seen |= comp
        ncomps += 1
        comp = sorted(comp)
        sym = [[gcm.d[i] * gcm.entries[i][j] for j in comp] for i in comp]
        minors = [bareiss_det([row[:k] for row in sym[:k]]) for k in range(1, len(comp) + 1)]
        if all(m > 0 for m in minors):
            tags.add("finite")
        elif minors[-1] == 0 and all(m > 0 for m in minors[:-1]):
            tags.add("affine")
        else:
            tags.add("indefinite")
    return next((t for t in ("indefinite", "affine") if t in tags), "finite"), ncomps


def test_tags_follow_sylvester_on_leading_blocks():
    rng = random.Random(5)
    seen = {}
    for _ in range(3000):
        try:
            gcm = validate_and_symmetrize(_random_cartan_input(rng))
        except CoulombKitError:
            continue
        tag, ncomps = _sylvester_tag(gcm)
        assert gcm.tag == tag, gcm.entries
        key = (tag, ncomps > 1)
        seen[key] = seen.get(key, 0) + 1
    # a decomposable affine datum is rejected (a finite summand leaves the null vector
    # non-positive, two affine summands a 2-dimensional radical); the digest covers those
    assert set(seen) == {(t, d) for t in ("finite", "affine", "indefinite") for d in (False, True)} - {
        ("affine", True)
    }
    assert min(seen.values()) >= 20, seen


def test_type_a_200_validates_in_one_elimination():
    # one Bareiss determinant per leading minor took about 20 s here
    a = [[2 if i == j else -(abs(i - j) == 1) for j in range(200)] for i in range(200)]
    start = time.perf_counter()
    gcm = validate_and_symmetrize(a)
    assert time.perf_counter() - start < 2
    assert gcm.tag == "finite" and gcm.d == (1,) * 200


@pytest.mark.parametrize("a, tag", [(cartan._type_a(800), "finite"), (cartan._affine_a(799), "affine")],
                         ids=["A800", "cycle-800"])
def test_800_vertex_path_and_cycle_validate_within_a_second(a, tag):
    # eliminated a vertex of least degree first, a path or a cycle makes no fill; the
    # dense Bareiss pass and kernel took 1.6 s and 4.1 s at 400 vertices
    start = time.perf_counter()
    gcm = validate_and_symmetrize(a)
    assert time.perf_counter() - start < 1
    assert gcm.tag == tag and gcm.null_vector == (None if tag == "finite" else (1,) * 800)


def test_rank_zero_datum():
    gcm = validate_and_symmetrize([])
    assert (gcm.tag, gcm.d) == ("finite", ())
    empty = KMWeight.of(())
    assert root_coordinates(gcm, empty) == ()
    assert in_positive_root_cone(gcm, empty) == ()
    assert in_positive_root_cone(gcm, KMWeight.of((), delta=1)) is None


def test_langlands_dual_transpose_and_involution():
    b2 = named_gcm("B2")
    c2 = langlands_dual(b2)
    assert c2.entries == ((2, -1), (-2, 2))
    assert langlands_dual(c2).entries == b2.entries
    a2 = named_gcm("A2")
    assert langlands_dual(a2).entries == a2.entries


def test_affine_data():
    aff = named_gcm("A1~")
    assert aff.null_vector == (1, 1)
    assert aff.dual_labels == (1, 1)
    # s . a = 1
    assert sum(s * a for s, a in zip(aff.delta_split, aff.null_vector)) == 1
    # A . a = 0
    for row in aff.entries:
        assert sum(x * a for x, a in zip(row, aff.null_vector)) == 0


def test_affine_delta_is_root_combination_of_null_vector():
    aff = named_gcm("A1~")
    delta = aff.root_combination(aff.null_vector)
    assert delta.fund == (0, 0) and delta.delta == 1


def test_level_examples():
    aff = named_gcm("A1~")
    lam0 = KMWeight.of((1, 0))
    assert level(aff, lam0) == 1
    assert level(aff, KMWeight.of((1, 1))) == 2
    delta = aff.root_combination(aff.null_vector)
    assert level(aff, delta) == 0
    with pytest.raises(UnsupportedError):
        level(named_gcm("A2"), KMWeight.of((1, 0)))


def test_central_element():
    # the null root sum a_i alpha_i, also where the Kac labels a differ from the dual labels
    affine = [gcm for gcm in ORACLE_DATA if gcm.tag == "affine"]
    assert len(affine) >= 100 and any(gcm.null_vector != gcm.dual_labels for gcm in affine)
    for aff in affine:
        c = central_element_as_root_sum(aff)
        assert c == aff.root_combination(aff.null_vector) == KMWeight((0,) * aff.size, 1), aff
        assert level(aff, c) == 0


def test_dominance_a1():
    a1 = named_gcm("A1")
    two = KMWeight.of((2,))
    zero = KMWeight.of((0,))
    one = KMWeight.of((1,))
    assert dominance_leq(two, two, a1)
    assert dominance_leq(zero, two, a1)      # difference = alpha
    assert not dominance_leq(one, two, a1)   # difference not in root lattice


def test_dominance_partial_order():
    a2 = named_gcm("A2")
    rho = KMWeight.of((1, 1))
    zero = KMWeight.of((0, 0))
    theta = KMWeight.of((1, 1))
    assert dominance_leq(zero, rho, a2)
    assert not dominance_leq(rho, zero, a2)
    assert dominance_leq(theta, rho, a2) and dominance_leq(rho, theta, a2)


def test_root_coordinates_affine_pinning():
    aff = named_gcm("A1~")
    # alpha_0 + alpha_1 should come back as (1, 1) with delta coordinate resolved
    mu = aff.simple_root(0) + aff.simple_root(1)
    assert root_coordinates(aff, mu) == (1, 1)
    # delta itself
    delta = aff.root_combination(aff.null_vector)
    assert in_positive_root_cone(aff, delta) == (1, 1)
    # a weight off the root lattice
    assert root_coordinates(aff, KMWeight.of((1, 0))) is None


def test_reflect_preserves_affine_delta_pairing():
    aff = named_gcm("A1~")
    lam = KMWeight.of((2, 0), delta=0)
    for i in range(2):
        refl = aff.reflect(i, lam)
        assert level(aff, refl) == level(aff, lam)


def test_named_registry_errors():
    with pytest.raises(DomainError):
        named_gcm("E11")


TWISTED = [[2, -1], [-4, 2]]  # affine, null vector (1, 2)
# affine G2 with its nodes relabeled, null vector (2, 1, 1): the Smith form's particular
# solution has a nonzero delta_split component here, so the sign of the delta pin shows
RELABELED_G2_AFFINE = [[2, -3, -1], [-1, 2, 0], [-1, 0, 2]]
HYPERBOLIC = [[2, -3], [-3, 2]]
SINGULAR_INDEFINITE = [[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -3], [0, 0, -3, 2]]
SOLVER_CASES = [named_gcm(name) for name in NAMED_CARTAN_MATRICES] + [
    validate_and_symmetrize(m) for m in (TWISTED, RELABELED_G2_AFFINE, HYPERBOLIC, SINGULAR_INDEFINITE)
]


def oracle_root_coordinates(gcm, mu):
    """Root coordinates by a Gauss-Jordan solve over Q, the null-vector
    direction pinned by s . c = delta in affine type."""
    sol = solve_rational(gcm.entries, mu.fund)
    if sol is None:
        return None
    v0, kernel_dim = sol
    if kernel_dim == 0:
        return tuple(v0) if mu.delta == 0 else None
    if gcm.tag != "affine" or kernel_dim != 1:
        raise UnsupportedError("singular non-affine Cartan matrices are not supported")
    t = mu.delta - sum(s * x for s, x in zip(gcm.delta_split, v0))
    return tuple(x + t * a for x, a in zip(v0, gcm.null_vector))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UnsupportedError as exc:
        return type(exc)


@st.composite
def solver_queries(draw):
    gcm = draw(st.sampled_from(SOLVER_CASES))
    coords = st.lists(st.integers(-6, 6), min_size=gcm.size, max_size=gcm.size)
    if draw(st.booleans()):  # on the root lattice
        fund = gcm.root_combination(draw(coords)).fund
    else:
        fund = tuple(draw(coords))
    return gcm, KMWeight(fund, draw(st.sampled_from((-1, 0, 1, 3))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(solver_queries())
def test_root_coordinates_match_gauss_jordan_oracle(query):
    gcm, mu = query
    want = _outcome(oracle_root_coordinates, gcm, mu)
    assert _outcome(root_coordinates, gcm, mu) == want
    if isinstance(want, tuple):
        assert all(type(x) is Fraction for x in root_coordinates(gcm, mu))
        cone = tuple(int(x) for x in want) if all(x.denominator == 1 and x >= 0 for x in want) else None
        assert in_positive_root_cone(gcm, mu) == cone
    else:
        assert _outcome(in_positive_root_cone, gcm, mu) == want


def test_root_coordinates_twisted_affine_pin():
    gcm = validate_and_symmetrize(TWISTED)
    assert gcm.null_vector == (1, 2) and gcm.dual_labels == (2, 1)
    delta = gcm.root_combination(gcm.null_vector)
    for k in (-1, 1, 3):
        assert root_coordinates(gcm, delta.scaled(k)) == (k, 2 * k)
    assert in_positive_root_cone(gcm, delta.scaled(-1)) is None
    assert in_positive_root_cone(gcm, gcm.simple_root(1) + delta) == (1, 3)


def test_root_coordinates_singular_indefinite():
    gcm = validate_and_symmetrize(SINGULAR_INDEFINITE)
    assert gcm.tag == "indefinite"
    for fn in (root_coordinates, in_positive_root_cone):
        assert fn(gcm, KMWeight.of((1, 0, 0, 0))) is None  # inconsistent
        with pytest.raises(UnsupportedError):
            fn(gcm, gcm.root_combination((1, 2, 0, 1)))


def test_langlands_dual_is_built_once_per_datum():
    for gcm in SOLVER_CASES:
        assert langlands_dual(gcm) is langlands_dual(gcm)
        assert langlands_dual(langlands_dual(gcm)) == gcm
    # the cache is keyed by the datum's value, not by the object
    assert langlands_dual(named_gcm("B2")) is langlands_dual(named_gcm("B2"))


def test_cancelled_smith_pass_stores_nothing():
    gcm = validate_and_symmetrize([[2, -2, 0], [-1, 2, -7], [0, -1, 2]])
    mu = gcm.root_combination((1, 2, 3))
    cartan._solve_data.cache_clear()
    cancelled = CancellationToken()
    cancelled.cancel()
    with pytest.raises(Cancelled), cancelled:
        in_positive_root_cone(gcm, mu)
    assert cartan._solve_data.cache_info().currsize == 0
    # a later caller's token, or none, builds the solve data once, keyed by the datum alone
    with CancellationToken(60):
        assert in_positive_root_cone(gcm, mu) == (1, 2, 3)
    data = cartan._solve_data(gcm)
    assert in_positive_root_cone(gcm, mu) == (1, 2, 3) and cartan._solve_data(gcm) is data
    with cancelled:
        assert in_positive_root_cone(gcm, mu) == (1, 2, 3)
    # the cancelled pass and the one build are the only misses
    info = cartan._solve_data.cache_info()
    assert (info.misses, info.currsize) == (2, 1)


def test_validation_honours_the_token():
    cancelled = CancellationToken()
    cancelled.cancel()
    with pytest.raises(Cancelled), cancelled:
        validate_and_symmetrize(NAMED_CARTAN_MATRICES["A3"])
    with CancellationToken(60):
        assert validate_and_symmetrize(NAMED_CARTAN_MATRICES["A3"]) == named_gcm("A3")


def test_a_datum_stores_its_nonzeros_and_writes_its_rows_once_when_read():
    assert [f.name for f in dataclasses.fields(cartan.GeneralizedCartanMatrix)] == [
        "neighbours", "d", "tag", "null_vector", "dual_labels", "delta_split"]
    gcm = validate_and_symmetrize(NAMED_CARTAN_MATRICES["B3"])
    assert gcm.neighbours == ({1: -1}, {0: -1, 2: -2}, {1: -1})
    rows = cartan.GeneralizedCartanMatrix.entries.fget
    rows.cache_clear()
    cancelled = CancellationToken()
    cancelled.cancel()
    with pytest.raises(Cancelled), cancelled:
        gcm.entries
    assert rows.cache_info().currsize == 0  # a cancelled read stores nothing
    assert gcm.entries == tuple(map(tuple, NAMED_CARTAN_MATRICES["B3"]))
    # written once per datum: an equal datum reads the same rows, and the instance is left as it was
    assert named_gcm("B3").entries is gcm.entries and vars(gcm).keys() == vars(named_gcm("B3")).keys()
    assert rows.cache_info().misses == 2 and gcm == named_gcm("B3") and hash(gcm) == hash(named_gcm("B3"))


@pytest.mark.parametrize("rows", [NAMED_CARTAN_MATRICES["B3"], NAMED_CARTAN_MATRICES["A2~"]], ids=["B3", "A2~"])
def test_a_datum_validated_twice_hashes_its_fields_and_shares_the_tables(rows):
    first, second = validate_and_symmetrize(rows), validate_and_symmetrize(rows)
    assert first is not second and first == second
    fields = (first.d, first.tag, first.null_vector, first.dual_labels, first.delta_split)
    assert hash(first) == hash(second) == hash(fields)
    lam = KMWeight.of((1,) * first.size)
    multiplicities.weight_multiplicity(first, lam, lam)
    before = multiplicities._freudenthal.cache_info()
    assert multiplicities.weight_multiplicity(second, lam, lam) == 1
    after = multiplicities._freudenthal.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_root_coordinates_wrong_length():
    for gcm in SOLVER_CASES:
        for fn in (root_coordinates, in_positive_root_cone):
            with pytest.raises(DimensionError):
                fn(gcm, KMWeight.of((0,) * (gcm.size + 1)))


def _fields(gcm):
    return gcm.entries, gcm.d, gcm.tag, gcm.null_vector, gcm.dual_labels, gcm.delta_split


def _permuted(gcm, rng):
    perm = rng.sample(range(gcm.size), gcm.size)
    return validate_and_symmetrize([[gcm.entries[p][q] for q in perm] for p in perm])


def _tree(n, edges):
    """The Cartan matrix on n vertices with a_ij, a_ji read off each edge (i, j, a_ij, a_ji)."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, aij, aji in edges:
        a[i][j], a[j][i] = aij, aji
    return a


def _chain(n, bonds=None):
    """The path 0 - 1 - ... - n-1, with (a_i,i+1, a_i+1,i) = bonds[i] where given."""
    return [(i, i + 1, *(bonds or {}).get(i, (-1, -1))) for i in range(n - 1)]


# affine data from Kac's Tables Aff 1-3, most with labels above 2 or one label 1
KAC_AFFINE = [
    _tree(7, _chain(5) + [(2, 5, -1, -1), (5, 6, -1, -1)]),  # E6~
    _tree(8, _chain(7) + [(3, 7, -1, -1)]),  # E7~
    _tree(9, _chain(8) + [(5, 8, -1, -1)]),  # E8~
    _tree(5, _chain(5, {2: (-2, -1)})),  # F4~, and E6^(2) as its transpose
    _tree(5, _chain(5, {2: (-1, -2)})),
    _tree(3, _chain(3, {1: (-3, -1)})),  # G2~, and D4^(3) as its transpose
    _tree(3, _chain(3, {1: (-1, -3)})),
    _tree(6, [(0, 2, -1, -1), (1, 2, -1, -1), (2, 3, -1, -1), (3, 4, -1, -1), (3, 5, -1, -1)]),  # D5~
    _tree(4, [(0, 2, -1, -1), (1, 2, -1, -1), (2, 3, -1, -2)]),  # B3~
    _tree(4, _chain(4, {0: (-2, -1), 2: (-1, -2)})),  # C3~
    _tree(3, _chain(3, {0: (-2, -1), 1: (-2, -1)})),  # A4^(2), null vector (2, 2, 1)
    _tree(4, _chain(4, {0: (-1, -2), 2: (-2, -1)})),  # D4^(2)
]


def _oracle_data():
    """Every named datum, the explicit ones above, Kac's affine data, and the data
    among 3000 seeded random inputs, each with one permuted copy."""
    rng = random.Random(24)
    data = list(SOLVER_CASES) + [validate_and_symmetrize(m) for m in KAC_AFFINE]
    for _ in range(3000):
        try:
            data.append(validate_and_symmetrize(_random_cartan_input(rng)))
        except CoulombKitError:
            pass
    return data + [_permuted(g, rng) for g in data]


ORACLE_DATA = _oracle_data()


def test_langlands_dual_matches_validating_the_transpose():
    tags = {}
    for gcm in ORACLE_DATA:
        assert _fields(langlands_dual(gcm)) == _fields(validate_and_symmetrize(tuple(zip(*gcm.entries))))
        tags[gcm.tag] = tags.get(gcm.tag, 0) + 1
    assert len(ORACLE_DATA) >= 2000 and tags.keys() == {"finite", "affine", "indefinite"}
    assert all(validate_and_symmetrize(m).tag == "affine" for m in KAC_AFFINE)
    assert tags["affine"] >= 100, tags


def test_elimination_order_changes_nothing_but_the_vertex_labels():
    # the pivots are read in least-degree order, so a permutation reorders the elimination
    rng = random.Random(26)
    for gcm in ORACLE_DATA:
        kernel = integer_kernel(IntMatrix.from_rows(gcm.entries))
        if gcm.tag == "affine":
            column = [row[0] for row in kernel.entries]
            assert kernel.ncols == 1 and gcm.null_vector in (tuple(column), tuple(-x for x in column))
        elif gcm.tag == "finite":
            assert kernel.ncols == 0
        for _ in range(3):
            perm = rng.sample(range(gcm.size), gcm.size)
            permuted = validate_and_symmetrize([[gcm.entries[p][q] for q in perm] for p in perm])
            assert permuted.tag == _sylvester_tag(permuted)[0] == gcm.tag, gcm.entries
            for field in ("d", "null_vector", "dual_labels"):
                value = getattr(gcm, field)
                assert getattr(permuted, field) == (value and tuple(value[p] for p in perm))


def test_root_combination_and_simple_roots_are_the_dense_products():
    # both read each row's nonzeros; the dual's are the transpose's
    rng = random.Random(27)
    for gcm in ORACLE_DATA:
        for g in (gcm, langlands_dual(gcm)):
            n, split = g.size, g.delta_split or (0,) * g.size
            c = [rng.randint(-4, 4) for _ in range(n)]
            fund = tuple(sum(g.entries[i][j] * c[j] for j in range(n)) for i in range(n))
            assert g.root_combination(c) == KMWeight(fund, sum(s * x for s, x in zip(split, c)))
            for j in range(n):
                assert g.simple_root(j) == KMWeight(tuple(row[j] for row in g.entries), split[j])


def _greedy_delta_splitter(a):
    """The earlier convention: s with s . a = 1 by extended Euclid, folding in
    a_1, a_2, ... in index order."""

    def bezout(p, q):
        old_r, r, old_s, s, old_t, t = p, q, 1, 0, 0, 1
        while r:
            k = old_r // r
            old_r, r = r, old_r - k * r
            old_s, s = s, old_s - k * s
            old_t, t = t, old_t - k * t
        return old_s, old_t

    g, coeffs = a[0], [1] + [0] * (len(a) - 1)
    for i in range(1, len(a)):
        x, y = bezout(g, a[i])
        g = math.gcd(g, a[i])
        coeffs = [c * x for c in coeffs]
        coeffs[i] = y
    assert g == 1
    return tuple(coeffs)


def test_delta_splitter_matches_the_extended_euclid_greedy():
    rng = random.Random(8)
    affine = [g for g in ORACLE_DATA if g.tag == "affine"]
    for gcm in affine + [_permuted(g, rng) for g in affine for _ in range(3)]:
        assert gcm.delta_split == _greedy_delta_splitter(gcm.null_vector)
        assert langlands_dual(gcm).delta_split == _greedy_delta_splitter(gcm.dual_labels)


def test_langlands_dual_runs_no_elimination_and_no_kernel(monkeypatch):
    type_a = validate_and_symmetrize([[2 if i == j else -(abs(i - j) == 1) for j in range(400)] for i in range(400)])
    cycle = validate_and_symmetrize(cartan._affine_a(40))
    calls = []
    for name in ("_eliminate", "smith_normal_form"):
        monkeypatch.setattr(cartan, name, lambda *args, name=name: calls.append(name))
    langlands_dual.cache_clear()
    for gcm in (type_a, cycle):
        start = time.perf_counter()
        dual = langlands_dual(gcm)
        assert time.perf_counter() - start < 0.5
        assert _fields(dual)[1:] == (gcm.d, gcm.tag, gcm.dual_labels, gcm.null_vector, gcm.delta_split)
        assert langlands_dual(gcm) is dual
    assert calls == [] and langlands_dual.cache_info().misses == 2


@pytest.mark.parametrize("read, noun", [
    (lambda: validate_and_symmetrize([[2, -1.5], [-1, 2]]), "Cartan matrix"),
    (lambda: KMWeight.of([1.7, 2]), "weight"),
    (lambda: KMWeight.of([1, 2], delta=0.5), "weight"),
    (lambda: KMWeight.of(["1", 2]), "weight"),
], ids=["cartan-entry", "weight-coordinate", "weight-delta", "weight-string"])
def test_cartan_inputs_that_are_not_integers_are_domain_errors(read, noun):
    # each entry was read through int(): [[2, -1.5], [-1, 2]] validated as A2, and
    # KMWeight.of([1.7, 2], delta=0.5) was (1, 2) with delta 0; the error names what was read
    with pytest.raises(DomainError, match=f"^{noun} entries must be integers"):
        read()
    assert KMWeight.of([1.0, 2], delta=1.0) == KMWeight((1, 2), 1)
    assert validate_and_symmetrize([[2.0, -1], [-1, 2]]) == named_gcm("A2")


def test_dual_symmetrizers_are_the_component_lcm_over_d():
    # the transpose's minimal symmetrizers equal L / d_i for L the lcm of d over the component
    # of i: on every named datum, the twisted A2^(2), a hyperbolic datum, G2 + B2, and seeded
    # block sums of those with their vertices permuted.  The oracle walks the components here,
    # apart from the symmetrizer walk that the dual runs
    blocks = [NAMED_CARTAN_MATRICES[name] for name in sorted(NAMED_CARTAN_MATRICES)]
    blocks += [[[2, -1], [-4, 2]], [[2, -3], [-3, 2]]]

    def block_sum(parts):
        a = []
        for b in parts:
            a = [row + [0] * len(b) for row in a] + [[0] * len(a) + list(r) for r in b]
        return a

    data = [validate_and_symmetrize(a) for a in blocks]
    data.append(validate_and_symmetrize(block_sum([NAMED_CARTAN_MATRICES["G2"], NAMED_CARTAN_MATRICES["B2"]])))
    rng = random.Random(34)
    while len(data) < 80:
        parts = rng.sample([b for b in blocks if len(b) < 9], rng.randint(2, 4))
        try:
            data.append(_permuted(validate_and_symmetrize(block_sum(parts)), rng))
        except CoulombKitError:  # two affine blocks, or an affine and a finite one, are not supported
            pass
    assert len(data) == 80 and any(len(set(g.d)) > 2 for g in data)
    for gcm in data:
        expected = [0] * gcm.size
        for start in range(gcm.size):
            if not expected[start]:
                comp, seen = [start], {start}
                for i in comp:
                    comp += (new := gcm.neighbours[i].keys() - seen)
                    seen |= new
                lcm = math.lcm(*(gcm.d[i] for i in comp))
                for i in comp:
                    expected[i] = lcm // gcm.d[i]
        assert langlands_dual(gcm).d == tuple(expected), gcm.entries


def test_height_form_sums_every_solve():
    # den times the sum of a solve's coordinates is one form over (fund, delta), kept in the solve
    # data, and the affine zero row is the solve's own consistency check; a singular non-affine
    # datum has no form
    rng = random.Random(35)
    singular = validate_and_symmetrize([[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -3], [0, 0, -3, 2]])
    assert singular.tag == "indefinite" and cartan._solve_data(singular)[4] is None
    kinds = set()
    for gcm in ORACLE_DATA[::7]:
        data = cartan._solve_data(gcm)
        _, zero_rows, _, den, height = data
        if height is None:
            continue
        (form, per_delta), zero = height, zero_rows[0] if zero_rows else ()
        assert len(zero_rows) == (gcm.tag == "affine")
        for _ in range(6):
            fund, delta = tuple(rng.randint(-5, 5) for _ in range(gcm.size)), rng.randint(-3, 3)
            sol = cartan._solve(gcm, data, fund, delta)
            assert (sol is None) == (sum(map(mul, zero, fund)) != 0 or gcm.tag != "affine" and delta != 0)
            if sol is not None:
                assert sol[1] == den and sum(sol[0]) == sum(map(mul, form, fund)) + per_delta * delta
                kinds.add(gcm.tag)
    assert kinds == {"finite", "affine", "indefinite"}
