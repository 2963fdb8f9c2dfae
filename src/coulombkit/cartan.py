"""Symmetrizable generalized Cartan matrices and Kac-Moody weights.

Weights are stored in fundamental-weight coordinates plus an explicit delta
coordinate.  The delta coordinate is zero and ignored outside affine type;
in affine type it pairs to zero with every simple coroot, and the simple
roots acquire delta components through the convention fixed in
``_delta_splitter``: alpha_j carries delta coordinate 1 for the last j whose
label a_j is 1, and every other alpha_i carries 0, so s . a = 1 against the
primitive null vector a (in untwisted affine type that node plays alpha_0 in
the usual alpha_0 = delta - theta).

A datum stores A once, as each row's off-diagonal nonzeros: validation reads an
explicit matrix into them, and a quiver counts them off its edges.  The
symmetrizer walk, one sparse elimination (a vertex of least degree first) for
the type and the affine null vector, ``root_combination`` and the dual read
those, so they cost the datum's edges; the dense rows ``entries`` are written
on first read, once per datum.  Root coordinates come from the Smith form
U A V = D, the one exact-linear-algebra path.  Everything a solve reads is
stored once per Cartan datum: the rows of U at the nonzero d_j, each scaled by
den / d_j, the rows of U at the zero d_j, the columns of V at the nonzero d_j,
and the common denominator den; beside them the height form, which gives den
times the sum of a solve's coordinates as one dot product over (fund, delta).  A
solve (``_solve``) is then one zero-row check and two integer matrix-vector
products, with no ``Fraction``; a Freudenthal table reads the record once and
solves only above its filled layers.  One walk (``_dominant_walk``) reflects
fundamental coordinates to the dominant chamber over the datum's nonzeros,
carrying height, delta and det(w), for every caller that reads a weight at its
dominant conjugate.  The Langlands dual is read
off the datum's own fields once per datum: the transpose has the same type and
swaps the Kac labels (Kac, Sec. 2.1, Ch. 4), so only its nonzeros are
transposed, and its symmetrizers come from the walk that validation runs; it and
the solve data sit in an ``lru_cache`` keyed by the datum and are built under the
deadline (``cancel.check``), so a cancelled pass stores nothing; the datum's hash,
which those caches read per call, is computed once, when it is built.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, repeat
from operator import add, mul, sub

from .cancel import check
from .errors import CartanError, DimensionError, DomainError, SymmetrizabilityError, UnsupportedError
from .lattices import IntMatrix, as_integers, smith_normal_form


@dataclass(frozen=True)
class KMWeight:
    """Integral weight: sum of fund[i] * varpi_i plus delta * (null root)."""

    fund: tuple[int, ...]
    delta: int = 0

    @staticmethod
    def of(coords, delta: int = 0) -> "KMWeight":
        """Coordinates and delta read by ``as_integers`` (an ``int`` delta as it is): nothing is truncated."""
        return KMWeight(as_integers(coords, "weight"),
                        delta if type(delta) is int else as_integers((delta,), "weight")[0])

    def __add__(self, other: "KMWeight") -> "KMWeight":
        self._match(other)
        return KMWeight(tuple(map(add, self.fund, other.fund)), self.delta + other.delta)

    def __sub__(self, other: "KMWeight") -> "KMWeight":
        self._match(other)
        return KMWeight(tuple(map(sub, self.fund, other.fund)), self.delta - other.delta)

    def __neg__(self) -> "KMWeight":
        return KMWeight(tuple(-a for a in self.fund), -self.delta)

    def scaled(self, k: int) -> "KMWeight":
        return KMWeight(tuple(k * a for a in self.fund), k * self.delta)

    def is_zero(self) -> bool:
        return self.delta == 0 and all(c == 0 for c in self.fund)

    def _match(self, other: "KMWeight") -> None:
        if len(self.fund) != len(other.fund):
            raise DimensionError("weights live on different Cartan data")


@dataclass(frozen=True)
class GeneralizedCartanMatrix:
    """Validated symmetrizable GCM, stored as its rows' nonzeros; ``entries`` is written on first read."""

    neighbours: tuple[dict[int, int], ...] = field(hash=False)  # row i: {j != i: a_ij != 0}
    d: tuple[int, ...]                # minimal positive symmetrizers
    tag: str                          # "finite" | "affine" | "indefinite"
    null_vector: tuple[int, ...] | None       # primitive a with A a = 0 (affine)
    dual_labels: tuple[int, ...] | None       # primitive a^vee with a^vee A = 0 (affine)
    delta_split: tuple[int, ...] | None       # integer s with s . a = 1 (affine)

    def __post_init__(self):  # the generated hash's value, once: caches keyed by the datum read it per call
        fields = self.d, self.tag, self.null_vector, self.dual_labels, self.delta_split
        object.__setattr__(self, "_hash", hash(fields))  # not through __dict__, which would slow every attribute read

    def __hash__(self) -> int:
        return self._hash

    @property
    def size(self) -> int:
        return len(self.neighbours)

    @property
    @lru_cache(maxsize=16)  # keyed by the datum, like the solve data; a cache on the instance slows its reads
    def entries(self) -> tuple[tuple[int, ...], ...]:
        rows = []
        for i, nz in enumerate(self.neighbours):
            check()
            rows.append(tuple(map({**nz, i: 2}.get, range(self.size), repeat(0))))
        return tuple(rows)

    def simple_root(self, j: int) -> KMWeight:
        """alpha_j in (fundamental, delta) coordinates."""
        fund = tuple(2 if i == j else self.neighbours[i].get(j, 0) for i in range(self.size))
        delta = self.delta_split[j] if self.delta_split is not None else 0
        return KMWeight(fund, delta)

    def root_combination(self, coeffs) -> KMWeight:
        fund = []
        for i, row in enumerate(self.neighbours):
            check()
            fund.append(2 * coeffs[i] + sum(x * coeffs[j] for j, x in row.items()))
        delta = 0 if self.delta_split is None else sum(map(mul, self.delta_split, coeffs))
        return KMWeight(tuple(fund), delta)

    def gram(self, i: int, j: int) -> int:
        """Invariant form on simple roots, normalized (alpha_i, alpha_i) = 2 d_i."""
        return self.d[i] * (2 if i == j else self.neighbours[i].get(j, 0))

    def reflect(self, i: int, mu: KMWeight) -> KMWeight:
        """Simple reflection s_i acting on a weight."""
        return mu - self.simple_root(i).scaled(mu.fund[i])

    def is_dominant(self, mu: KMWeight) -> bool:
        return all(c >= 0 for c in mu.fund)


def _minimal_symmetrizers(nbrs) -> tuple[int, ...]:
    """Minimal positive symmetrizers: one walk along the nonzeros per connected component from
    its first vertex fixes each d_j / d_i = a_ij / a_ji as num_j / den_j in lowest terms, in
    integers, and d_j = num_j L / den_j for L the lcm of the den_j.  That is minimal: a prime p of L
    does not divide d_j where den_j has the most factors p.  The deadline is checked at each vertex."""
    num, den = [0] * len(nbrs), [1] * len(nbrs)
    for start in range(len(num)):
        if num[start]:
            continue
        num[start] = 1
        comp = [start]
        for i in comp:  # breadth first: the vertices appended below are walked in turn
            check()
            for j, x in nbrs[i].items():
                y = nbrs[j][i]
                if not num[j]:
                    g = -math.gcd(p := num[i] * x, q := den[i] * y)  # x, y < 0: num_j, den_j > 0
                    num[j], den[j] = p // g, q // g
                    comp.append(j)
                elif num[i] * x * den[j] != num[j] * y * den[i]:  # d_i a_ij = d_j a_ji
                    raise SymmetrizabilityError("matrix is not symmetrizable (cycle products disagree)")
        scale = reduce(math.lcm, (den[i] for i in comp))
        for i in comp:
            num[i] *= scale // den[i]
    return tuple(num)


def _eliminate(nbrs) -> tuple[str, list[int] | None]:
    """Type and primitive null vector of a symmetrizable GCM from one sparse elimination.

    D A is symmetric; a component is finite iff it is positive definite, affine
    iff positive semidefinite of corank 1, and every proper principal block of
    an affine one is finite (Kac, Ch. 4).  So the pivots decide in any vertex
    order: a negative pivot, or a zero pivot that still has a neighbour, is
    indefinite, and a zero pivot with no neighbour left ends an affine
    component.  A vertex of least current degree goes first, which makes no fill
    on trees and cycles (Rose, 1972).  Each updated row is scaled by the
    positive pivot and divided by its gcd, which keeps every pivot's sign.  The
    deadline is checked at each row copied and each pivot.  With one zero pivot,
    back-substitution through the stored rows gives the null vector.
    """
    rows = []
    for i, row in enumerate(nbrs):
        check()
        rows.append({**row, i: 2})
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    order, zeros = [], []  # order: (vertex, pivot, its later neighbours' entries)
    while heap:
        deg, k = heapq.heappop(heap)
        rk = rows[k]
        if rk is None or deg != len(rk):
            continue  # eliminated, or pushed again at its current degree
        check()
        rows[k], p = None, rk.pop(k)
        order.append((k, p, rk))
        if p < 0 or (p == 0 and rk):
            return "indefinite", None
        if p == 0:
            zeros.append(k)
        for i in rk:
            aik = rows[i].pop(k)
            row = {j: p * x for j, x in rows[i].items()}
            for j, x in rk.items():
                row[j] = row.get(j, 0) - aik * x
            g = math.gcd(*row.values()) or 1
            rows[i] = row = {j: x // g for j, x in row.items() if x or i == j}
            heapq.heappush(heap, (len(row), i))
    if not zeros:
        return "finite", None
    if len(zeros) > 1:
        raise UnsupportedError("only affine matrices with 1-dimensional radical are supported")
    x = [Fraction(0)] * len(nbrs)
    x[zeros[0]] = Fraction(1)
    for k, p, rk in reversed(order):
        if p:
            x[k] = Fraction(-sum(y * x[j] for j, y in rk.items()), p)
    # x = a / a_z for the primitive null vector a and the zero pivot z, so a_z is its lcd
    den = reduce(math.lcm, (v.denominator for v in x))
    return "affine", [int(v * den) for v in x]


def validate_and_symmetrize(raw) -> GeneralizedCartanMatrix:
    """Check the GCM axioms, compute minimal symmetrizers, classify the type.

    Accepts an ``IntMatrix`` or nested rows, each read by ``as_integers``.  One reading keeps each
    row's off-diagonal nonzeros; every later pass reads those and checks the deadline per row.
    """
    a, nbrs = [], []
    for i, row in enumerate(raw.entries if isinstance(raw, IntMatrix) else raw):
        check()
        a.append(row := row if isinstance(raw, IntMatrix) else as_integers(row, "Cartan matrix"))
        nbrs.append({j: row[j] for j in compress(range(len(row)), row) if j != i})
    n = len(a)
    if any(len(row) != n for row in a):
        raise CartanError("Cartan matrix must be square")
    # raise what a row-major scan meets first: the least (row, column, kind); a one-sided pair at (min, max)
    first = (n,)
    for i, row in enumerate(nbrs):
        check()
        if a[i][i] != 2:
            first = min(first, (i, -1, 0, f"diagonal entry a[{i}][{i}] must be 2"))
        for j, x in row.items():
            if x > 0:
                first = min(first, (i, j, 0, f"off-diagonal entry a[{i}][{j}] must be <= 0"))
            if i not in nbrs[j]:
                p, q = min(i, j), max(i, j)
                first = min(first, (p, q, 1, f"a[{p}][{q}] = 0 requires a[{q}][{p}] = 0"))
    if first < (n,):
        raise CartanError(first[-1])
    return _datum(nbrs)


def _datum(nbrs) -> GeneralizedCartanMatrix:
    """Symmetrizers, type and labels of off-diagonal nonzeros that meet the GCM axioms."""
    d = _minimal_symmetrizers(nbrs)
    tag, vec = _eliminate(nbrs)
    null_vector = dual_labels = delta_split = None
    if vec is not None:
        if any(x <= 0 for x in vec):
            raise CartanError("affine null vector is not positive")
        null_vector = tuple(vec)
        g = reduce(math.gcd, map(mul, d, vec))
        dual_labels = tuple(x * y // g for x, y in zip(d, vec))
        delta_split = _delta_splitter(null_vector)
    return GeneralizedCartanMatrix(tuple(nbrs), d, tag, null_vector, dual_labels, delta_split)


def _delta_splitter(a: tuple[int, ...]) -> tuple[int, ...]:
    """e_j for the last j with a_j = 1, so s . a = 1.  An affine datum that
    validates is indecomposable, and each of those has a label 1 (Kac,
    Thm. 4.8 and Tables Aff 1-3)."""
    j = len(a) - 1 - a[::-1].index(1)
    return tuple(int(i == j) for i in range(len(a)))


@lru_cache(maxsize=16)
def langlands_dual(gcm: GeneralizedCartanMatrix) -> GeneralizedCartanMatrix:
    """Replace the Cartan matrix by its transpose, with its minimal symmetrizers: built once per
    datum, so repeated calls return the same object, and not validated again.  D A is symmetric,
    and the transpose's D' A^T is a positive multiple of D^-1 (D A) D^-1 on each component, so
    every principal minor keeps its sign and the tag stays.  a^vee A = 0 makes the Kac labels and
    the dual labels trade places.  The symmetrizers come from the walk that validation runs."""
    nbrs, at = gcm.neighbours, []
    check()  # the deadline once per call, so the rank-0 datum reads it too
    for i, row in enumerate(nbrs):
        check()
        at.append({j: nbrs[j][i] for j in row})
    labels = gcm.dual_labels
    split = None if labels is None else _delta_splitter(labels)
    return GeneralizedCartanMatrix(tuple(at), _minimal_symmetrizers(at), gcm.tag, labels, gcm.null_vector, split)


@lru_cache(maxsize=16)
def _solve_data(gcm: GeneralizedCartanMatrix):
    """One Smith pass U A V = D, run under the deadline, kept as what every solve reads:
    the rows of U at the nonzero d_j, each scaled by den / d_j; the rows of U at
    the zero d_j; the rows of V cut to the columns at the nonzero d_j; den, the
    largest d_j (1 for the rank-0 datum), which every nonzero d_j divides; and the
    height form (form, per_delta), with den times the sum of a solve's coordinates
    form . fund + per_delta delta.  The coordinates sum to (the column sums of V) . y
    over den, and in affine type the free coordinate t = den delta - s . num adds t sum(a).
    The form is None for a singular non-affine datum, which every solve refuses."""
    u, d, v = smith_normal_form(IntMatrix(gcm.entries))
    diag = [d.entries[j][j] for j in range(gcm.size)]
    den = max(diag, default=1)
    scaled = tuple(tuple(den // dj * x for x in row) for row, dj in zip(u.entries, diag) if dj)
    zero_rows = tuple(row for row, dj in zip(u.entries, diag) if not dj)
    v_cut = tuple(tuple(compress(row, diag)) for row in v.entries)
    height = None
    if not zero_rows or gcm.tag == "affine" and len(zero_rows) == 1:
        a, s = sum(gcm.null_vector or ()), gcm.delta_split or (0,) * gcm.size
        w = [sum(col) - a * sum(map(mul, s, col)) for col in zip(*v_cut)]
        height = tuple(sum(map(mul, w, col)) for col in zip(*scaled)), den * a
    return scaled, zero_rows, v_cut, den, height


def _scaled_root_coordinates(gcm: GeneralizedCartanMatrix, mu: KMWeight):
    if len(mu.fund) != gcm.size:
        raise DimensionError("weight length does not match Cartan matrix size")
    return _solve(gcm, _solve_data(gcm), mu.fund, mu.delta)


def _solve(gcm: GeneralizedCartanMatrix, data, fund, delta: int):
    """(num, den) with num / den the simple-root coordinates of the weight with fundamental
    coordinates ``fund`` and delta ``delta``, or None, read off the datum's solve data.  A c = mu
    becomes D y = U mu with c = V y.  A zero d_j meeting a nonzero (U mu)_j makes the system
    inconsistent; otherwise y_j = (U mu)_j / d_j, held over den."""
    scaled, zero_rows, v_cut, den, _ = data
    if zero_rows and any(sum(map(mul, row, fund)) for row in zero_rows):
        return None
    y = [sum(map(mul, row, fund)) for row in scaled]
    num = [sum(map(mul, row, y)) for row in v_cut]
    if not zero_rows:
        return (num, den) if delta == 0 else None
    if gcm.tag != "affine" or len(zero_rows) != 1:
        raise UnsupportedError("singular non-affine Cartan matrices are not supported")
    # the free coordinate moves along the null vector a, and s . c = delta pins it (s . a = 1)
    t = den * delta - sum(map(mul, gcm.delta_split, num))
    return [x + t * a for x, a in zip(num, gcm.null_vector)], den


def root_coordinates(gcm: GeneralizedCartanMatrix, mu: KMWeight):
    """Express ``mu`` in simple roots; returns a tuple of Fractions or None.

    For nonsingular Cartan matrices the delta coordinate must vanish; for
    affine type the delta coordinate pins down the null-vector direction.
    """
    sol = _scaled_root_coordinates(gcm, mu)
    return None if sol is None else tuple(Fraction(x, sol[1]) for x in sol[0])


def in_positive_root_cone(gcm: GeneralizedCartanMatrix, mu: KMWeight) -> tuple[int, ...] | None:
    """Integer non-negative root coordinates of ``mu``, or None.  A datum's
    first solve runs its Smith pass under the deadline."""
    return _cone(_scaled_root_coordinates(gcm, mu))


def _cone(sol) -> tuple[int, ...] | None:
    """The coordinates of a solve when they are non-negative integers, else None."""
    if sol is None:
        return None
    num, den = sol
    coords = [x // den for x in num]
    # den * (x // den) <= x, with equality at every x iff den divides them all
    if min(coords, default=0) < 0 or den * sum(coords) != sum(num):
        return None
    return tuple(coords)


def _dominant_walk(gcm: GeneralizedCartanMatrix, c: list[int], h=math.inf, delta: int = 0):
    """Reflect the fundamental coordinates ``c`` in place to the dominant chamber, and return
    (h, delta, det w) for the Weyl group element w walked.  s_i sends c to c - c_i A e_i:
    c_i -> -c_i, and c_j -= a_ji c_i for each neighbour j, read off the datum's nonzeros.  It
    raises the weight by -c_i alpha_i, so it adds c_i to the height h of a highest weight above
    it and -c_i s_i to its delta (s the delta split).  The walk stops once h is negative: a
    weight lies under its highest weight (Kac, Prop. 11.2), and outside finite type a weight
    that is not one may never reach the chamber.  A finite-type walk always ends, so a caller
    that reads no height leaves h infinite."""
    nbrs, split, sign = gcm.neighbours, gcm.delta_split, 1
    while h >= 0 and (step := min(c, default=0)) < 0:
        check()
        i, h, sign = c.index(step), h + step, -sign
        c[i] = -step
        if split:
            delta -= step * split[i]
        for j in nbrs[i]:  # column i of A: a_ji != 0 exactly where a_ij != 0
            c[j] -= nbrs[j][i] * step
    return h, delta, sign


def dominance_leq(mu: KMWeight, lam: KMWeight, gcm: GeneralizedCartanMatrix) -> bool:
    """Dominance order: mu <= lam iff lam - mu is a non-negative integral
    combination of simple roots."""
    return in_positive_root_cone(gcm, lam - mu) is not None


def level(gcm: GeneralizedCartanMatrix, lam: KMWeight) -> int:
    """Pairing with the canonical central element c = sum a_i^vee alpha_i^vee."""
    if gcm.tag != "affine":
        raise UnsupportedError("level is defined for affine type only")
    if len(lam.fund) != gcm.size:
        raise DimensionError("weight length does not match Cartan matrix size")
    return sum(av * c for av, c in zip(gcm.dual_labels, lam.fund))


def central_element_as_root_sum(gcm: GeneralizedCartanMatrix) -> KMWeight:
    """The canonical central element K = sum a_i^vee alpha_i^vee read in the weight lattice:
    the form sends K to the null root delta = sum a_i alpha_i (Kac, Sec. 6.2), an imaginary
    weight of level 0 with every fundamental coordinate 0 and delta coordinate s . a = 1."""
    if gcm.tag != "affine":
        raise UnsupportedError("central element requires affine type")
    return KMWeight((0,) * gcm.size, 1)


# Registry of named Cartan data for the CLI and fixtures.
def _type_a(n: int):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]


def _affine_a(n: int):
    # cycle on n+1 vertices (n >= 2); n == 1 is the special rank-2 case
    if n == 1:
        return [[2, -2], [-2, 2]]
    m = n + 1
    return [
        [2 if i == j else (-1 if (i - j) % m in (1, m - 1) else 0) for j in range(m)]
        for i in range(m)
    ]


NAMED_CARTAN_MATRICES: dict[str, list[list[int]]] = {
    **{f"A{n}": _type_a(n) for n in range(1, 10)},
    "B2": [[2, -2], [-1, 2]],
    "C2": [[2, -1], [-2, 2]],
    "G2": [[2, -1], [-3, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "A1~": _affine_a(1),
    "A2~": _affine_a(2),
    "A3~": _affine_a(3),
}


def named_gcm(name: str) -> GeneralizedCartanMatrix:
    try:
        return validate_and_symmetrize(NAMED_CARTAN_MATRICES[name])
    except KeyError:
        raise DomainError(f"unknown Cartan type name: {name!r}") from None
