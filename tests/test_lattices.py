"""Integer lattice linear algebra: Smith/Hermite forms and the dual torus."""

import random
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulombkit import lattices
from coulombkit.cancel import CancellationToken, check
from coulombkit.errors import Cancelled, DimensionError, DomainError, LatticeError
from coulombkit.lattices import (
    IntMatrix,
    dual_sequence,
    hermite_column_form,
    integer_kernel,
    koszul_counts,
    pairing,
    saturation,
    smith_diagonal,
    smith_normal_form,
)


def solve_rational(a_rows, rhs):
    """Reference oracle: solve the square system A v = rhs over Q by
    Gauss-Jordan elimination in ``Fraction``s.

    Returns (particular solution, kernel dimension), or None when inconsistent.
    """
    n = len(a_rows)
    aug = [[Fraction(a_rows[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, n):
        if aug[i][n] != 0:
            return None
    v = [Fraction(0)] * n
    for row, c in zip(aug, pivots):
        v[c] = row[n]
    return v, n - r


def bareiss_det(rows):
    """Reference oracle: exact determinant of a square integer matrix by
    fraction-free Gaussian elimination (Bareiss), swapping rows past a zero pivot."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def euclid_hermite_column_form(mat):
    """Reference oracle: column-style Hermite normal form by Euclid's algorithm
    on the columns, row by row, with zero columns dropped."""
    rows, cols = mat.nrows, mat.ncols
    colv = [list(mat.column(j)) for j in range(cols)]

    def col_addmul(dst, src, k):
        colv[dst] = [a + k * b for a, b in zip(colv[dst], colv[src])]

    pivot_col = 0
    for r in range(rows):
        if pivot_col >= len(colv):
            break
        # euclidean elimination within row r over columns >= pivot_col
        while True:
            nz = [j for j in range(pivot_col, len(colv)) if colv[j][r] != 0]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: (abs(colv[j][r]), j))
            for j in nz:
                if j != j0:
                    col_addmul(j, j0, -(colv[j][r] // colv[j0][r]))
        nz = [j for j in range(pivot_col, len(colv)) if colv[j][r] != 0]
        if not nz:
            continue
        j0 = nz[0]
        colv[pivot_col], colv[j0] = colv[j0], colv[pivot_col]
        if colv[pivot_col][r] < 0:
            colv[pivot_col] = [-x for x in colv[pivot_col]]
        p = colv[pivot_col][r]
        for j in range(pivot_col):
            col_addmul(j, pivot_col, -(colv[j][r] // p))
        pivot_col += 1

    kept = [c for c in colv[:pivot_col]]
    return IntMatrix(tuple(zip(*kept)) if kept else tuple(() for _ in range(rows)))


def test_pairing_values():
    assert pairing((0, 0), (3, 5)) == 0
    assert pairing((1,), (1,)) == 1
    assert pairing((1, 2), (3, 4)) == 11


def test_pairing_length_mismatch():
    with pytest.raises(DimensionError):
        pairing((1, 2), (1,))


def test_smith_trivial_cases():
    u, d, v = smith_normal_form(IntMatrix.from_rows([[2]]))
    assert d.entries == ((2,),)
    assert u.entries == ((1,),) and v.entries == ((1,),)
    ident = IntMatrix.identity(3)
    _, d, _ = smith_normal_form(ident)
    assert d == ident
    _, d, _ = smith_normal_form(IntMatrix.from_rows([[1, 1]]))
    assert d.entries == ((1, 0),)


def test_smith_randomized_identity_and_divisibility():
    rng = random.Random(7)
    for _ in range(120):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        )
        u, d, v = smith_normal_form(m)
        assert (u @ m) @ v == d
        assert abs(bareiss_det(u.entries)) == 1 and abs(bareiss_det(v.entries)) == 1
        diag = [d.entries[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        # off-diagonal must vanish
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d.entries[i][j] == 0


def test_smith_transform_entries_stay_small():
    # a smallest-pivot loop with no Hermite reduction reaches entries past 10^7 on these
    rng = random.Random(3)
    for _ in range(300):
        m = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(4)] for _ in range(8)])
        u, d, v = smith_normal_form(m)
        assert (u @ m) @ v == d
        assert max(abs(x) for t in (u, v) for row in t.entries for x in row) < 10**4


def test_smith_normal_form_honours_an_expired_token():
    with pytest.raises(Cancelled), CancellationToken(0):
        smith_normal_form(IntMatrix.from_rows([[2, 3], [5, 7]]))


def test_hermite_canonicalizes_column_span():
    a = IntMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    # column operations do not change the Hermite form
    b = IntMatrix.from_rows([[1, 1], [2, 3], [3, 4]])
    assert hermite_column_form(a) == hermite_column_form(b)


def test_hermite_matches_euclid_oracle():
    rng = random.Random(13)
    shapes = dict.fromkeys(("plain", "zero_columns", "rank_deficient", "zero_rows"), 0)
    for _ in range(400):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        kind = rng.choice(tuple(shapes))
        if kind == "zero_columns" and cols:
            j = rng.randrange(cols)
            for row in m:
                row[j] = 0
        elif kind == "rank_deficient" and rows > 1:
            m[-1] = [a - 2 * b for a, b in zip(m[0], m[1])]
        elif kind == "zero_rows" and rows:
            m[rng.randrange(rows)] = [0] * cols
        else:
            kind = "plain"
        mat = IntMatrix.from_rows(m)
        assert hermite_column_form(mat) == euclid_hermite_column_form(mat), m
        shapes[kind] += 1
    assert min(shapes.values()) >= 50


def test_dual_sequence_examples():
    b = dual_sequence(IntMatrix.from_rows([[1], [1]]))
    assert b.ncols == 1 and pairing(b.column(0), (1, 1)) == 0
    assert dual_sequence(IntMatrix.identity(3)).ncols == 0
    b3 = dual_sequence(IntMatrix.from_rows([[1], [1], [1]]))
    assert b3.ncols == 2
    for j in range(2):
        assert pairing(b3.column(j), (1, 1, 1)) == 0


def test_dual_sequence_rejects_torsion_and_rank_deficiency():
    with pytest.raises(LatticeError, match="not a torus"):
        dual_sequence(IntMatrix.from_rows([[2], [0]]))
    with pytest.raises(LatticeError):
        dual_sequence(IntMatrix.from_rows([[1, 1], [1, 1]]))


@pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0]], [[1, 1], [1, 1]]], ids=["wide", "square"])
def test_dual_sequence_rejects_a_matrix_without_full_column_rank(rows):
    # a wide matrix and a rank-deficient square one leave the Hermite pass with rank below k
    with pytest.raises(LatticeError, match="^cocharacter inclusion does not have full column rank$"):
        dual_sequence(IntMatrix.from_rows(rows))


def smith_dual_sequence(a):
    """Reference oracle: the dual sequence as it was decided before, by the Smith diagonal,
    with the kernel of a^T as the answer."""
    n, k = a.nrows, a.ncols
    if k == 0:
        return IntMatrix.identity(n)
    diag = smith_diagonal(a)
    if sum(1 for d in diag if d != 0) != k:
        raise LatticeError("cocharacter inclusion does not have full column rank")
    if any(d not in (0, 1) for d in diag):
        raise LatticeError("quotient is not a torus (cokernel has torsion)")
    return integer_kernel(a.transpose())


def test_dual_sequence_matches_the_smith_decision():
    # seeded n x k matrices, n <= 6 and k <= n + 1: k = 0, n = k, wide, rank-deficient (a repeated
    # or zero column) and torsion (a column scaled by 2 or 3) cases all occur, with the same message
    rng, kinds = random.Random(37), Counter()
    for _ in range(2000):
        n = rng.randint(0, 6)
        k = rng.randint(0, n + 1) if n else 0  # a matrix with no rows has no columns
        cols = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        if k >= 2 and rng.random() < 0.2:
            cols[-1] = list(cols[0]) if rng.random() < 0.5 else [0] * n
        if k and rng.random() < 0.2:
            cols[0] = [rng.choice((2, 3)) * x for x in cols[0]]
        a = IntMatrix(tuple(tuple(col[i] for col in cols) for i in range(n)) if k else tuple(() for _ in range(n)))
        try:
            want = smith_dual_sequence(a)
        except LatticeError as exc:
            with pytest.raises(LatticeError, match=f"^{re.escape(str(exc))}$"):
                dual_sequence(a)
            kinds["torsion" if "torsion" in str(exc) else "rank"] += 1
            continue
        got = dual_sequence(a)
        assert got == want and got.nrows == n and got.ncols == n - k, a
        kinds["k = 0" if k == 0 else "n = k" if n == k else "dual"] += 1
    assert min(kinds.values()) >= 20 and len(kinds) == 5, kinds


def test_dual_sequence_rank_and_involution():
    rng = random.Random(11)
    tried = 0
    while tried < 15:
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        a = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)])
        diag = smith_diagonal(a)
        if sum(1 for d in diag if d != 0) != k or any(d not in (0, 1) for d in diag):
            continue
        tried += 1
        b = dual_sequence(a)
        assert b.ncols == n - k
        assert all(
            x == 0 for row in (a.transpose() @ b).entries for x in row
        )
        # dual of the dual spans the saturation of a
        if n - k:
            assert saturation(b) == b  # kernels are saturated
            assert dual_sequence(b) == saturation(a)


def test_integer_kernel_is_saturated():
    m = IntMatrix.from_rows([[2, 4]])
    ker = integer_kernel(m)
    assert ker.ncols == 1
    col = ker.column(0)
    assert pairing(col, (2, 4)) == 0
    # primitive kernel vector, not (2, -1) scaled
    import math

    assert math.gcd(*[abs(x) for x in col]) == 1


def _enumerated_koszul_counts(weights, moduli, top, power):
    """Reference oracle: every monomial in x_i, y_i of half-degree <= top,
    kept when its weight vanishes in Z/moduli[0] + ..., then times (1 - s^2)^power."""
    n = len(weights)
    dims = []
    for t in range(top + 1):
        count = 0
        for combo in combinations_with_replacement(range(2 * n), t):
            total = [0] * len(moduli)
            for v in combo:
                sign = 1 if v < n else -1
                total = [a + sign * b for a, b in zip(total, weights[v % n])]
            count += all(a % m == 0 if m else a == 0 for a, m in zip(total, moduli))
        dims.append(count)
    return [
        sum((-1) ** q * comb(power, q) * dims[t - 2 * q] for q in range(min(power, t // 2) + 1))
        for t in range(top + 1)
    ]


def test_koszul_counts_match_enumeration():
    # groups with and without torsion, zero and repeated weights, weights of any rank
    rng = random.Random(11)
    torsion = 0
    for _ in range(150):
        moduli = [rng.choice((0, 0, 0, 2, 3)) for _ in range(rng.randint(0, 3))]
        weights = [tuple(rng.randint(-2, 2) for _ in moduli) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.3 and weights:
            weights.append(weights[0])
        top, power = rng.randint(0, 4), rng.randint(0, 2)
        want = _enumerated_koszul_counts(weights, moduli, top, power)
        assert koszul_counts(weights, moduli, top, power) == want, (weights, moduli)
        torsion += any(moduli)
    assert torsion >= 40


def tuple_koszul_counts(weights, moduli, top, power):
    """Reference oracle: the Koszul count with each class a tuple of its
    coordinates, reduced mod the moduli, and the classes outside the span of
    the later weights dropped by a Smith-form test per character."""
    r = len(moduli)
    zero = (0,) * r
    torsion = [tuple(m if j == i else 0 for j in range(r)) for i, m in enumerate(moduli) if m]
    pairs = []  # (weight of x_i, weight of y_i, the tests a kept class passes, their memo)
    for i, w in enumerate(weights):
        # c is in the column span of B iff e_p divides (S c)_p for each p, where S B T = E
        s, e, _ = smith_normal_form(IntMatrix(tuple(zip(*weights[i + 1 :], *torsion)) or ((),) * r))
        tests = [(s.entries[p], e.entries[p][p] if p < e.ncols else 0) for p in range(r)]
        pairs.append((w, tuple(-c for c in w), [(row, ep) for row, ep in tests if ep != 1], {}))
    # one half-degree at a time: below[j] maps a class to the number of monomials in the
    # first j + 1 variables of half-degree t - 1, before the pruning after their pair
    below = [{} for _ in range(2 * len(weights))]
    dims, out = [], []
    for t in range(top + 1):
        check()
        layer = {zero: 1} if t == 0 else {}
        for i, (x, y, tests, kept) in enumerate(pairs):
            for j, v in ((2 * i, x), (2 * i + 1, y)):
                # without variable j, plus variable j times a monomial of half-degree t - 1
                if j % 2:  # below[j - 1] keeps x_i's layer for half-degree t + 1
                    layer = dict(layer)
                for wt, c in below[j].items():
                    key = tuple((a + b) % m if m else a + b for a, b, m in zip(wt, v, moduli))
                    layer[key] = layer.get(key, 0) + c
                below[j] = layer
            for wt in layer.keys() - kept.keys():
                kept[wt] = all(gcd(sum(a * b for a, b in zip(row, wt)), ep) == ep for row, ep in tests)
            layer = {wt: c for wt, c in layer.items() if kept[wt]}
        dims.append(layer.get(zero, 0))
        out.append(sum((-1) ** q * comb(power, q) * dims[t - 2 * q] for q in range(min(power, t // 2) + 1)))
    return out


def _koszul_inputs(count, seed):
    """Seeded inputs: torsion of every size, zero, repeated and doubled weights."""
    rng = random.Random(seed)
    for _ in range(count):
        moduli = [rng.choice((0, 0, 2, 3, 4, 6, 10**6 + 3)) for _ in range(rng.randint(0, 4))]
        weights = [tuple(rng.randint(-3, 3) for _ in moduli) for _ in range(rng.randint(0, 4))]
        extras = [(0,) * len(moduli)] + weights[:1] + [tuple(2 * a for a in w) for w in weights[-1:]]
        weights += [w for w in extras if rng.random() < 0.3]
        rng.shuffle(weights)
        top = rng.randint(0, 10 if len(weights) <= 4 else 6)
        yield weights, moduli, top, rng.randint(0, 3)


def test_koszul_counts_match_tuple_dp(monkeypatch):
    # the relation-vector DP against the tuple keys, through every kind of pair, the torsion
    # carry and the residue of a class modulo a subgroup of index above 1
    kinds, lookups = [], {lattices._Carry: 0, lattices._Residue: 0}
    flag_keys = lattices._flag_keys

    def recorded(*args):
        pairs, radix = flag_keys(*args)
        kinds.extend("rank" if index == 0 else "index 1" if index == 1 else "index > 1" for _, _, index, _ in pairs)
        return pairs, radix

    def counted(memo):
        missing = memo.__missing__

        def wrapper(self, key):
            lookups[memo] += 1
            return missing(self, key)

        monkeypatch.setattr(memo, "__missing__", wrapper)

    monkeypatch.setattr(lattices, "_flag_keys", recorded)
    counted(lattices._Carry)
    counted(lattices._Residue)
    cases = 0
    for weights, moduli, top, power in _koszul_inputs(600, seed=19):
        want = tuple_koszul_counts(weights, moduli, top, power)
        assert koszul_counts(weights, moduli, top, power) == want, (weights, moduli, top, power)
        cases += 1
    assert cases == 600
    assert min(kinds.count(kind) for kind in ("rank", "index 1", "index > 1")) >= 50, Counter(kinds)
    assert min(lookups.values()) >= 100, lookups


def test_a_long_walk_from_one_state_meets_the_deadline(monkeypatch):
    # the first pair of ((1,), (1,)) walks 2 * 10**6 + 1 moves from the one state at degree 0;
    # the deadline passes right after the count's first check, which then comes again within a slice
    calls = 0

    def counted():
        nonlocal calls
        calls += 1

    monkeypatch.setattr(lattices, "check", counted)
    lattices._flag_keys(((1,), (1,)), (0,), 10**6)
    before, calls = calls, 0

    def expiring():
        counted()
        if calls > before + 1:
            raise Cancelled("operation timed out")

    monkeypatch.setattr(lattices, "check", expiring)
    start = time.monotonic()
    with pytest.raises(Cancelled):
        koszul_counts(((1,), (1,)), (0,), 10**6, 2)
    assert time.monotonic() - start < 0.1
    assert calls == before + 2


def _in_span_by_smith(c, gens):
    """Reference oracle: c lies in the span of ``gens`` iff e_p divides (S c)_p, where S B T = E."""
    s, e, _ = smith_normal_form(IntMatrix(tuple(zip(*gens)) or ((),) * len(c)))
    diag = [e.entries[p][p] if p < e.ncols else 0 for p in range(len(c))]
    return all(gcd(pairing(row, c), ep) == ep for row, ep in zip(s.entries, diag))


def test_flag_key_filters_keep_exactly_the_later_span():
    # pair i sends a class c of H_{i-1} to exactly the m with c + m w_i in H_i, the span of the
    # torsion generators and the later weights; the classes reached are sums of up to `top`
    # signed earlier weights, keyed by the earlier pairs' steps and carries
    checked = Counter()
    for weights, moduli, top, _ in _koszul_inputs(150, seed=29):
        top = min(top, 3)
        pairs, radix = lattices._flag_keys(weights, moduli, top)
        torsion = [tuple(m if j == i else 0 for j in range(len(moduli))) for i, m in enumerate(moduli) if m]
        for i, (_, _, index, read) in enumerate(pairs):
            if index == 1:
                continue
            classes = {}
            for combo in (c for d in range(top + 1) for c in combinations_with_replacement(range(2 * i), d)):
                cls, key = [0] * len(moduli), 0
                for j in combo:
                    step, carry, _, _ = pairs[j // 2]
                    sign = -1 if j % 2 else 1
                    key += sign * step + (0 if carry is None else carry[key % radix, sign])
                    cls = [a + sign * b for a, b in zip(cls, weights[j // 2])]
                classes[key] = cls
            for key, cls in classes.items():
                if not _in_span_by_smith(cls, torsion + weights[i:]):
                    continue
                first = read[key] if index else -((key + read[0]) // read[1])
                for m in range(-top, top + 1):
                    allowed = (m - first) % index == 0 if index else m == first
                    moved = [a + m * b for a, b in zip(cls, weights[i])]
                    assert allowed == _in_span_by_smith(moved, torsion + weights[i + 1 :]), (weights, moduli, i, cls, m)
                    checked["rank" if index == 0 else "index > 1", allowed] += 1
    assert len(checked) == 4 and min(checked.values()) >= 100, checked


@pytest.mark.parametrize("entry", [2.5, "2", None])
def test_matrix_entries_that_are_not_integers_are_domain_errors(entry):
    # each entry was read through int(): [[1, 2.5]] became the matrix ((1, 2),)
    with pytest.raises(DomainError, match="^matrix entries must be integers"):
        IntMatrix.from_rows([[1, entry]])
    assert IntMatrix.from_rows([[1, 2.0]]) == IntMatrix(((1, 2),))


def reference_as_integers(values, noun):
    """The reader as it was before exact ints were returned at once: every input takes the
    int() round trip and one elementwise comparison."""
    try:
        values = tuple(values)
        out = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        out = None
    if out != values:
        raise DomainError(f"{noun} entries must be integers, not {values!r}")
    return out


ENTRIES = st.one_of(
    st.integers(), st.booleans(), st.floats(allow_nan=True), st.integers(-10**6, 10**6).map(float),
    st.fractions(max_denominator=4), st.text(max_size=3), st.none(),
)


def assert_reads_like_the_reference(values):
    try:
        want = reference_as_integers(values, "weight")
    except DomainError as exc:
        with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
            lattices.as_integers(values, "weight")
        return
    got = lattices.as_integers(values, "weight")
    assert got == want and all(type(x) is int for x in got)


@settings(max_examples=400, deadline=None)
@given(st.lists(ENTRIES, max_size=5), st.booleans())
def test_as_integers_reads_what_the_reference_reader_reads(values, as_tuple):
    assert_reads_like_the_reference(tuple(values) if as_tuple else values)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_as_integers_reads_numpy_integers_as_the_reference_reader_does(data):
    np = pytest.importorskip("numpy")  # optional: the test extra does not install it
    int64s = st.integers(-2**63, 2**63 - 1).map(np.int64)
    assert_reads_like_the_reference(data.draw(st.lists(st.one_of(ENTRIES, int64s), min_size=1, max_size=5)))


def test_as_integers_returns_a_tuple_of_exact_ints_as_it_is():
    t = (1, -2, 10**40)
    assert lattices.as_integers(t, "weight") is t
    assert type(lattices.as_integers([True, 2.0, Fraction(3)], "weight")[0]) is int
    with pytest.raises(DomainError, match="^weight entries must be integers, not 5$"):
        lattices.as_integers(5, "weight")
