"""Exact linear algebra for character and cocharacter lattices.

Smith normal form with unimodular transforms, column-style Hermite normal
form used to canonicalize sublattices, the dual-torus kernel construction,
and the count of weight-zero monomials that gives the graded dimensions on
both sides of hypertoric duality.  The Smith form is the one path for rank,
kernels and solving: ``cartan`` solves for root coordinates through it, and
there is no Gauss-Jordan elimination over Q.  All work is plain
arbitrary-precision integer arithmetic.  Coweights and character vectors are
plain integer tuples; ``pairing`` is their dot product.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from typing import Iterable, Sequence

from .cancel import CancellationToken, check
from .errors import DimensionError, LatticeError

Coweight = tuple[int, ...]
CharacterVector = tuple[int, ...]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, stored row-major as a tuple of row tuples."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = self.entries
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionError("ragged rows in integer matrix")

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in r) for r in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)) if self.entries else ())

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise DimensionError("matrix product shape mismatch")
        bt = other.transpose().entries
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt) for row in self.entries)
        )

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def det(self) -> int:
        """Exact determinant by fraction-free Gaussian elimination (Bareiss)."""
        n = self.nrows
        if n != self.ncols:
            raise DimensionError("determinant of a non-square matrix")
        if n == 0:
            return 1
        m = [list(r) for r in self.entries]
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

    def rank(self) -> int:
        return sum(1 for d in smith_diagonal(self) if d != 0)


def pairing(lam: Sequence[int], rho: Sequence[int]) -> int:
    """Canonical pairing of a coweight with a character vector."""
    if len(lam) != len(rho):
        raise DimensionError(f"pairing length mismatch: {len(lam)} vs {len(rho)}")
    return sum(int(a) * int(b) for a, b in zip(lam, rho))


def smith_normal_form(
    mat: IntMatrix, token: CancellationToken | None = None
) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*mat*V = D, U and V unimodular, D diagonal
    with each diagonal entry dividing the next.

    Pivoting always picks the smallest-magnitude nonzero entry of the working
    submatrix (first by rows, then columns on ties), so output is deterministic.
    ``token`` is checked at each pivot and before each row or column operation
    of the clearing passes, whose entries can grow without bound.
    """
    rows, cols = mat.nrows, mat.ncols
    m = [list(r) for r in mat.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row[dst] += k * row[src]
        for j in range(cols):
            m[dst][j] += k * m[src][j]
        for j in range(rows):
            u[dst][j] += k * u[src][j]

    def add_col(src, dst, k):
        for row in m:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        check(token)
        # locate smallest nonzero pivot in the remaining block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # clear row and column t; repeat until clean (pivot may shrink)
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    check(token)
                    q = m[i][t] // m[t][t]
                    add_row(t, i, -q)
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    check(token)
                    q = m[t][j] // m[t][t]
                    add_col(t, j, -q)
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        if m[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        check(token)
        changed = False
        for i in range(t - 1):
            a, b = m[i][i], m[i + 1][i + 1]
            if a != 0 and b % a != 0:
                # fold b into position i via one column add, then re-clean 2x2
                add_col(i + 1, i, 1)
                while True:
                    q = m[i + 1][i] // m[i][i]
                    add_row(i, i + 1, -q)
                    if m[i + 1][i] == 0:
                        break
                    swap_rows(i, i + 1)
                q = m[i][i + 1] // m[i][i]
                add_col(i, i + 1, -q)
                if m[i][i] < 0:
                    negate_row(i)
                if m[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    return IntMatrix.from_rows(u), IntMatrix.from_rows(m), IntMatrix.from_rows(v)


def smith_diagonal(mat: IntMatrix) -> tuple[int, ...]:
    _, d, _ = smith_normal_form(mat)
    return tuple(d.entries[i][i] for i in range(min(d.nrows, d.ncols)))


def koszul_counts(
    weights, moduli, top: int, power: int, token: CancellationToken | None = None
) -> list[int]:
    """Weight-zero monomials in x_i, y_i of each half-degree 0..top, times
    (1 - s^2)^power, where s steps one half-degree.

    x_i carries ``weights[i]`` and y_i its negative, in the group
    Z/moduli[0] + Z/moduli[1] + ..., where a modulus of 0 stands for Z.
    After the pair x_i, y_i only classes in the span of the later weights and
    the moduli are kept: no others can return to zero.  They lie in a subgroup
    of rank at most min(R, len(weights) - R), R the rank of the weights, so a
    layer of half-degree t holds O(t^min(R, len(weights) - R)) of them, not O(t^R).
    The count runs one half-degree at a time and checks ``token`` before each, and it
    keeps only one layer per variable, so a huge ``top`` grows under the token.
    """
    r = len(moduli)
    zero = (0,) * r
    torsion = [tuple(m if j == i else 0 for j in range(r)) for i, m in enumerate(moduli) if m]
    pairs = []  # (weight of x_i, weight of y_i, the tests a kept class passes, their memo)
    for i, w in enumerate(weights):
        # c is in the column span of B iff e_p divides (S c)_p for each p, where S B T = E
        s, e, _ = smith_normal_form(IntMatrix(tuple(zip(*weights[i + 1 :], *torsion)) or ((),) * r), token)
        tests = [(s.entries[p], e.entries[p][p] if p < e.ncols else 0) for p in range(r)]
        pairs.append((w, tuple(-c for c in w), [(row, ep) for row, ep in tests if ep != 1], {}))
    # one half-degree at a time: below[j] maps a class to the number of monomials in the
    # first j + 1 variables of half-degree t - 1, before the pruning after their pair
    below = [{} for _ in range(2 * len(weights))]
    dims, out = [], []
    for t in range(top + 1):
        check(token)
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


def hermite_column_form(mat: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form of the column span.

    Zero columns are dropped, pivots are positive, entries left of a pivot are
    reduced into [0, pivot).  Two matrices span the same sublattice iff their
    Hermite forms are equal, which is how sublattice equality is decided.
    """
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


def integer_kernel(mat: IntMatrix) -> IntMatrix:
    """A basis of the saturated integer kernel of ``mat``, as columns,
    canonicalized by Hermite column form."""
    _, d, v = smith_normal_form(mat)
    r = sum(1 for i in range(min(d.nrows, d.ncols)) if d.entries[i][i] != 0)
    cols = [v.column(j) for j in range(r, mat.ncols)]
    if not cols:
        return IntMatrix(tuple(() for _ in range(mat.ncols)))
    basis = IntMatrix(tuple(zip(*cols)))
    return hermite_column_form(basis)


def dual_sequence(a: IntMatrix) -> IntMatrix:
    """Cocharacter inclusion of the dual torus.

    Given the inclusion ``a``: Z^k -> Z^n of the cocharacter lattice of a
    subtorus T of (C^x)^n, returns B: Z^{n-k} -> Z^n with im(B) = ker(a^T),
    the cocharacter inclusion of the dual side.  Requires ``a`` to have full
    column rank with saturated image so that the quotient is again a torus.
    """
    n, k = a.nrows, a.ncols
    if k == 0:
        return IntMatrix.identity(n)
    diag = smith_diagonal(a)
    if sum(1 for d in diag if d != 0) != k:
        raise LatticeError("cocharacter inclusion does not have full column rank")
    if any(d not in (0, 1) for d in diag):
        raise LatticeError("quotient is not a torus (cokernel has torsion)")
    return integer_kernel(a.transpose())


def saturation(a: IntMatrix) -> IntMatrix:
    """Hermite basis of the saturation of the column span of ``a``."""
    # saturated span = kernel of (kernel of a^T)^T
    return integer_kernel(integer_kernel(a.transpose()).transpose())
