"""Exact linear algebra for character and cocharacter lattices.

One row-Hermite elimination, which reduces the entries above each pivot as it
goes, runs under every lattice computation: the Smith normal form with
unimodular transforms alternates it on rows and columns, the column-style
Hermite form that canonicalizes sublattices is one pass, and so are rank and
the saturated integer kernel.  On top of these sit the dual-torus kernel
construction, checked by that kernel pass, and the count of weight-zero monomials
that gives the graded dimensions on both sides of hypertoric duality.  That count sums the
relation vectors of the weights one pair at a time, with each class keyed by
one integer in coordinates that one Hermite pass over the generators adapts
to the spans of the later weights, so the moves a pair allows are read off
the key: one digit when its weight raises the rank, one residue class
otherwise.  ``cartan`` solves for root
coordinates through the Smith form; there is no Gauss-Jordan elimination
over Q and no determinant.  All work is plain arbitrary-precision integer
arithmetic.  Coweights and character vectors are plain integer tuples;
``pairing`` is their dot product.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from operator import mul
from typing import Iterable, Sequence

from .cancel import check
from .errors import DimensionError, DomainError, LatticeError

Coweight = tuple[int, ...]
CharacterVector = tuple[int, ...]
_INT = frozenset((int,))
_SLICE = 4096  # moves of one state in koszul_counts between two deadline checks


def as_integers(values, noun: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints.  An entry x with int(x) != x is a DomainError
    that says what was read ("{noun} entries must be integers"), so nothing is
    truncated; 1.0 reads as 1, as the JSON schema reads it; all-``int`` entries take one C-level pass."""
    try:
        values = tuple(values)
        if _INT.issuperset(map(type, values)):
            return values
        out = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        out = None
    if out != values:  # one elementwise comparison: 1 == 1.0, but 1 != 1.7 and 2 != "2"
        raise DomainError(f"{noun} entries must be integers, not {values!r}")
    return out


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
        return IntMatrix(tuple(as_integers(row, "matrix") for row in rows))

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

    def rank(self) -> int:
        return _hermite([list(r) for r in self.entries], self.ncols)


def pairing(lam: Sequence[int], rho: Sequence[int]) -> int:
    """Canonical pairing of a coweight with a character vector."""
    if len(lam) != len(rho):
        raise DimensionError(f"pairing length mismatch: {len(lam)} vs {len(rho)}")
    return sum(map(mul, lam, rho))


def _hermite(rows: list[list[int]], ncols: int) -> int:
    """Row-Hermite-reduce the first ``ncols`` columns of ``rows`` in place; return the rank.

    Column by column, Euclid's algorithm on the smallest nonzero entry at or
    below the current row leaves one pivot, made positive, and the entries
    above it are reduced into [0, pivot).  Entries past ``ncols`` take the same
    row operations, so a row that carries an identity block carries the
    transform.  The deadline is checked at each Euclid step.
    """
    n, r = len(rows), 0
    for c in range(ncols):
        if r == n:
            break
        while True:
            check()
            nz = [i for i in range(r, n) if rows[i][c]]
            if len(nz) < 2:
                break
            p = min(nz, key=lambda i: abs(rows[i][c]))
            a = rows[p]
            for i in nz:
                if i != p:
                    q = rows[i][c] // a[c]
                    rows[i] = [x - q * y for x, y in zip(rows[i], a)]
        if not nz:
            continue
        rows[r], rows[nz[0]] = rows[nz[0]], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        a = rows[r]
        for i in range(r):
            if q := rows[i][c] // a[c]:
                rows[i] = [x - q * y for x, y in zip(rows[i], a)]
        r += 1
    return r


def smith_normal_form(mat: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*mat*V = D, U and V unimodular, D diagonal
    with each diagonal entry dividing the next.

    Row Hermite passes on the matrix and on its transpose alternate until it is
    diagonal; where d_i does not divide d_{i+1}, column i + 1 is added to
    column i and the passes go round again.  Every pass reduces its entries
    above the pivots, so the entries of U and V stay small (Kannan-Bachem).
    The deadline is checked at each Euclid step.
    """
    rows, cols = mat.nrows, mat.ncols
    m = [list(r) for r in mat.entries]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    vt = [[int(i == j) for j in range(cols)] for i in range(cols)]  # V transposed

    def diagonal():
        return all(not x or i == j for i, row in enumerate(m) for j, x in enumerate(row))

    while True:
        a = [r + t for r, t in zip(m, u)]
        _hermite(a, cols)
        m, u = [r[:cols] for r in a], [r[cols:] for r in a]
        if not diagonal():
            a = [list(c) + t for c, t in zip(zip(*m), vt)]
            _hermite(a, rows)
            m, vt = [list(r) for r in zip(*(c[:rows] for c in a))], [c[rows:] for c in a]
            if not diagonal():
                continue
        d = [m[i][i] for i in range(min(rows, cols))]
        i = next((i for i in range(len(d) - 1) if d[i] and d[i + 1] % d[i]), None)
        if i is None:
            break
        for row in m:
            row[i] += row[i + 1]
        vt[i] = [x + y for x, y in zip(vt[i], vt[i + 1])]
    return IntMatrix(tuple(map(tuple, u))), IntMatrix(tuple(map(tuple, m))), IntMatrix(tuple(zip(*vt)))


def smith_diagonal(mat: IntMatrix) -> tuple[int, ...]:
    _, d, _ = smith_normal_form(mat)
    return tuple(d.entries[i][i] for i in range(min(d.nrows, d.ncols)))


class _Carry(dict):
    """Memo: the change in a key's mixed-radix torsion index when m times one
    weight's torsion digits are added, keyed by (the old index, m)."""

    def __init__(self, digits, radices):
        super().__init__()
        self.digits, self.radices = digits, radices

    def __missing__(self, index_m):
        index, m = index_m
        new, scale, rest = 0, 1, index
        for a, d in zip(self.digits, self.radices):
            rest, b = divmod(rest, d)
            new += (b + m * a) % d * scale
            scale *= d
        self[index_m] = new - index
        return new - index


class _Residue(dict):
    """Memo: for the key of a class c of H_{i-1}, the least m >= 0 with
    c + m w_i in H_i, which has index ``index`` above 1 in H_{i-1}.  ``rows``
    is a Hermite basis of H_{i-1}, row k starting at coordinate k, each with
    its coefficient of w_i; forward substitution writes c = h + q w_i with h
    in H_i, so m = -q mod ``index``."""

    def __init__(self, rows, index, radices, radix, base):
        super().__init__()
        self.rows, self.index, self.radices, self.radix, self.base = rows, index, radices, radix, base

    def __missing__(self, key):
        free, index = divmod(key, self.radix)
        y, half = [], self.base // 2
        for d in self.radices:
            index, a = divmod(index, d)
            y.append(a)
        while len(y) < len(self.rows):  # balanced base-B digits, lowest first
            a = (free + half) % self.base - half
            y.append(a)
            free = (free - a) // self.base
        q = 0
        for k, row in enumerate(self.rows):
            z = y[k] // row[k]
            y = [p - z * r for p, r in zip(y, row)]
            q += z * row[-1]
        self[key] = -q % self.index
        return self[key]


def _flag_keys(weights, moduli, top: int):
    """Integer keys for the classes of ``koszul_counts``, and each pair's moves.

    The class group is Z^r modulo the torsion generators m_j e_j (m_j != 0).
    One Hermite pass over the columns m_j e_j, then the weights last to first,
    leaves them in echelon form E.  The columns of E give each weight
    coordinates y adapted to the flag H_{-1} ⊇ H_0 ⊇ ..., where H_i is spanned
    by the torsion generators and weights[i + 1:]: H_i lies in the first
    rank(H_i) coordinates, and the first t, one per torsion generator, are
    read mod E's diagonal entries d_k.  A key is F * M + tau, where tau is the
    mixed-radix index of those residues, M = prod d_k, and F holds the other
    coordinates as balanced base-B digits, lowest first; B = 2 * top * (the
    largest of them in a weight) + 1, so no sum of ``top`` weights carries.

    Returns (pairs, M).  pairs[i] = (step, carry, index, read) moves a class c
    of H_{i-1} to the classes c + m w_i in H_i.  step is the change of F * M
    for m = 1, and carry a torsion carry memo, or None when w_i has no torsion
    digits.  When w_i raises the rank, index is 0 and the one allowed m clears
    the top coordinate of c, a multiple of w_i's pivot there: with read =
    (offset, divisor), m = -((key + offset) // divisor).  Otherwise index =
    [H_{i-1} : H_i], the allowed m are one residue class mod index, and read
    is None when index is 1, or else a memo of the least allowed m >= 0 by key.
    """
    r, n = len(moduli), len(weights)
    torsion = [tuple(m if j == i else 0 for j in range(r)) for i, m in enumerate(moduli) if m]
    gens = torsion + list(reversed(weights))
    rows = [[g[p] for g in gens] for p in range(r)]
    rank, t = _hermite(rows, len(gens)), len(torsion)
    cols = [list(c) for c in zip(*rows[:rank])] or [[] for _ in gens]
    pivots = [next(c for c, x in enumerate(row) if x) for row in rows[:rank]]
    radices = [rows[k][k] for k in range(t)]
    radix = prod(radices)
    base = 2 * top * max((abs(x) for row in rows[t:rank] for x in row), default=0) + 1
    pairs = []
    for i in range(n):
        c = t + n - 1 - i
        y = cols[c]
        step = sum(a * base**k for k, a in enumerate(y[t:])) * radix
        digits = [a % d for a, d in zip(y, radices)]
        carry = _Carry(digits, radices) if any(digits) else None
        low = sum(p < c for p in pivots)  # rank(H_i)
        if c in pivots:  # F's top digit is (key + offset) // (B^(low - t) * M)
            digit = base ** (low - t)
            pairs.append((step, carry, 0, ((digit - 1) // 2 * radix, digit * radix * y[low])))
            continue
        # H_{i-1} from the generators of H_i and w_i, each carrying its coefficient of w_i
        a = [col[:low] + [0] for col in cols[:c]] + [y[:low] + [1]]
        _hermite(a, low)
        index = gcd(*(row[-1] for row in a[low:]))
        read = _Residue(a[:low], index, radices, radix, base) if index > 1 else None
        pairs.append((step, carry, index, read))
    return pairs, radix


def koszul_counts(weights, moduli, top: int, power: int) -> list[int]:
    """Weight-zero monomials in x_i, y_i of each half-degree 0..top, times
    (1 - s^2)^power, where s steps one half-degree.

    x_i carries ``weights[i]`` and y_i its negative, in the group
    Z/moduli[0] + Z/moduli[1] + ..., where a modulus of 0 stands for Z.  As
    sum_{a,b} s^(a+b) [(a-b) w_i] = sum_m s^|m| [m w_i] / (1 - s^2), the count
    is (1 - s^2)^(power - n) times the sum of s^|m|_1 over the relation vectors
    m in Z^n (sum_i m_i w_i = 0, n = len(weights)); those n weight-zero
    factors are applied once, at the end.

    The DP runs over the pairs.  A state, one integer key(c) * (top + 1) + e,
    is a class c with a degree e; pair i moves it to c + m w_i with degree
    e + |m| for each m with c + m w_i in H_i, the span of the later weights and
    the moduli, since no other class can return to zero.  ``_flag_keys`` reads
    these m off the key: the one that clears c's top coordinate when w_i raises
    the rank, else one residue class mod [H_{i-1} : H_i], walked upward from
    its least m >= e - top.  The kept classes lie in a subgroup of rank at most
    min(R, n - R), R the rank of the weights, and a move is one multiply-add
    (and one carry lookup when the group has torsion).  The deadline is checked
    once per state that moves (and per slice of ``_SLICE`` moves) and per
    output degree, so a huge ``top`` grows under it.
    """
    pairs, radix = _flag_keys(weights, moduli, top)
    width = top + 1
    layer = {0: 1}  # class key * width + degree -> number of partial relation vectors
    for step, carry, index, read in pairs:
        new, jump = {}, step * width
        for state, count in layer.items():
            key, degree = divmod(state, width)
            room = top - degree
            if index:  # the allowed m form one residue class mod index
                first = 0 if read is None else read[key]
                ms = range(first - (first + room) // index * index, room + 1, index)
            else:  # at most one m: the one that clears the top coordinate of c
                m = -((key + read[0]) // read[1])
                if abs(m) > room:
                    continue
                ms = (m,)
            for part in (ms,) if len(ms) <= _SLICE else (ms[s : s + _SLICE] for s in range(0, len(ms), _SLICE)):
                check()
                if carry is None:
                    for m in part:
                        at = state + m * jump + abs(m)
                        new[at] = new.get(at, 0) + count
                else:
                    tau = key % radix
                    for m in part:
                        at = state + m * jump + abs(m) + carry[tau, m] * width
                        new[at] = new.get(at, 0) + count
        layer = new
    out, last = [], [[0, 0] for _ in range(abs(power - len(weights)))]
    for t in range(width):
        check()
        v = layer.get(t, 0)
        for prev in last:  # prev[t % 2] is the factor's input (times) or output (divided) at t - 2
            if power > len(weights):
                v, prev[t % 2] = v - prev[t % 2], v
            else:
                v = prev[t % 2] = v + prev[t % 2]
        out.append(v)
    return out


def hermite_column_form(mat: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form of the column span.

    Zero columns are dropped, pivots are positive, entries left of a pivot are
    reduced into [0, pivot).  Two matrices span the same sublattice iff their
    Hermite forms are equal, which is how sublattice equality is decided.
    """
    cols = [list(c) for c in zip(*mat.entries)]
    kept = cols[: _hermite(cols, mat.nrows)]
    return IntMatrix(tuple(zip(*kept)) if kept else tuple(() for _ in range(mat.nrows)))


def integer_kernel(mat: IntMatrix) -> IntMatrix:
    """A basis of the saturated integer kernel of ``mat``, as columns,
    canonicalized by Hermite column form.

    One Hermite pass over mat^T, carrying an identity block, leaves the
    kernel's basis in the transform's rows past the rank; the deadline is
    checked at each of its Euclid steps.
    """
    return _kernel_columns(*_with_transform(tuple(zip(*mat.entries)), mat.nrows), mat.nrows)


def _with_transform(rows, width: int):
    """(``rows`` each followed by its row of the identity, Hermite-reduced over the first ``width`` columns, rank)."""
    a = [list(r) + [int(i == j) for j in range(len(rows))] for i, r in enumerate(rows)]
    return a, _hermite(a, width)


def _kernel_columns(a, rank: int, width: int) -> IntMatrix:
    """The transforms ``_with_transform`` left past the rank, as Hermite columns: the saturated left kernel."""
    basis = [row[width:] for row in a[rank:]]
    return hermite_column_form(IntMatrix(tuple(zip(*basis)))) if basis else IntMatrix(tuple(() for _ in a))


def dual_sequence(a: IntMatrix) -> IntMatrix:
    """Cocharacter inclusion of the dual torus.

    Given the inclusion ``a``: Z^k -> Z^n of the cocharacter lattice of a
    subtorus T of (C^x)^n, returns B: Z^{n-k} -> Z^n with im(B) = ker(a^T),
    the cocharacter inclusion of the dual side.  Requires ``a`` to have full
    column rank with saturated image so that the quotient is again a torus.
    One kernel pass gives U a = [H; 0] (U unimodular); at rank k, coker H + Z^(n-k) is free iff H's pivots are 1.
    """
    rows, rank = _with_transform(a.entries, a.ncols)
    if rank < a.ncols:
        raise LatticeError("cocharacter inclusion does not have full column rank")
    if any(rows[i][i] != 1 for i in range(rank)):
        raise LatticeError("quotient is not a torus (cokernel has torsion)")
    return _kernel_columns(rows, rank, a.ncols)


def saturation(a: IntMatrix) -> IntMatrix:
    """Hermite basis of the saturation of the column span of ``a``."""
    # saturated span = kernel of (kernel of a^T)^T
    return integer_kernel(integer_kernel(a.transpose()).transpose())
