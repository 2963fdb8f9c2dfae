"""Quiver gauge theory data and its Kac-Moody shadows.

Translates (quiver, dimension vectors) into gauge-theory bookkeeping, slice
parameters (lam, mu), MV-cycle dimensions, strata enumerations, the fixed-point
shadow of the geometric Satake conjecture, cocharacter splittings, and the
Jordan-quiver symmetric-product Hilbert series.
"""

from __future__ import annotations

from typing import NamedTuple

from .abelian import top_half_degree
from .cancel import check
from .cartan import (
    GeneralizedCartanMatrix,
    KMWeight,
    _datum,
    central_element_as_root_sum,
    in_positive_root_cone,
    langlands_dual,
    level,
)
from .errors import DimensionError, DomainError, UnsupportedError
from .lattices import Coweight, as_integers, pairing
from .multiplicities import weight_multiplicity


class Quiver(NamedTuple):
    """Vertex count and ordered edge list (out, in); loops allowed but flagged."""

    vertices: int
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def of(vertices: int, edges) -> "Quiver":
        edges = tuple(as_integers(edge, "quiver edge") for edge in edges)
        if (bad := next((edge for edge in edges if len(edge) != 2), None)) is not None:
            raise DimensionError(f"quiver edge {bad} is not a pair (out, in)")
        for a, b in edges:
            if not (0 <= a < vertices and 0 <= b < vertices):
                raise DimensionError(f"edge ({a},{b}) references a missing vertex")
        return Quiver(vertices, edges)

    @staticmethod
    def linear(n: int) -> "Quiver":
        """Type A_n orientation 0 -> 1 -> ... -> n-1."""
        return Quiver.of(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def jordan() -> "Quiver":
        return Quiver.of(1, [(0, 0)])

    @property
    def loop_free(self) -> bool:
        return all(a != b for a, b in self.edges)

    def cartan_matrix(self) -> GeneralizedCartanMatrix:
        """Forget orientation: 2 on the diagonal minus edge counts elsewhere.  Only the nonzeros are
        counted off the edges; they meet the axioms, and the dense ``entries`` are written only when read."""
        if not self.loop_free:
            raise UnsupportedError("quivers with loops have no Kac-Moody datum")
        nbrs = [{} for _ in range(self.vertices)]
        for s, t in self.edges:
            nbrs[s][t] = nbrs[t][s] = nbrs[s].get(t, 0) - 1
        return _datum(nbrs)


class DimVectors(NamedTuple):
    v: tuple[int, ...]
    w: tuple[int, ...]

    @staticmethod
    def of(v, w) -> "DimVectors":
        return DimVectors(as_integers(v, "dimension vector"), as_integers(w, "dimension vector"))

    def check_against(self, q: Quiver) -> None:
        if len(self.v) != q.vertices or len(self.w) != q.vertices:
            raise DimensionError("dimension vectors do not match the vertex count")
        if any(x < 0 for x in self.v + self.w):
            raise DomainError("dimension vectors must be non-negative")


class GaugeData(NamedTuple):
    """Gauge group and matter catalogue for (Q, V, W)."""

    gauge_ranks: tuple[int, ...]
    summands: tuple[tuple[str, int, int], ...]  # (kind, source dim, target dim)
    dim_g: int
    dim_n: int


class SliceParams(NamedTuple):
    lam: KMWeight
    mu: KMWeight
    dims: DimVectors
    mu_dominant: bool


def gauge_data(q: Quiver, d: DimVectors) -> GaugeData:
    """dim G = sum (dim V_i)^2; N = edge Homs plus framing Homs."""
    d.check_against(q)
    summands = []
    dim_n = 0
    for s, t in q.edges:
        summands.append(("edge", d.v[s], d.v[t]))
        dim_n += d.v[s] * d.v[t]
    for i in range(q.vertices):
        summands.append(("framing", d.w[i], d.v[i]))
        dim_n += d.w[i] * d.v[i]
    return GaugeData(d.v, tuple(summands), sum(x * x for x in d.v), dim_n)


def slice_params(q: Quiver, d: DimVectors) -> SliceParams:
    """lam = sum w_i varpi_i, mu = lam - sum v_i alpha_i on the quiver's
    Kac-Moody datum (orientation forgotten)."""
    d.check_against(q)
    gcm = q.cartan_matrix()
    lam = KMWeight.of(d.w)
    mu = lam - gcm.root_combination(d.v)
    return SliceParams(lam, mu, d, gcm.is_dominant(mu))


def dims_from_weights(gcm: GeneralizedCartanMatrix, lam: KMWeight, mu: KMWeight) -> DimVectors:
    """Inverse of slice_params: w from the pairings of lam, v from lam - mu."""
    if not gcm.is_dominant(lam):
        raise DomainError("lam must be dominant")
    v = in_positive_root_cone(gcm, lam - mu)
    if v is None:
        raise DomainError("not a valid slice: lam - mu is outside the positive root cone")
    return DimVectors.of(v, lam.fund)


def mv_dimension(gcm: GeneralizedCartanMatrix, lam: KMWeight, mu: KMWeight) -> int:
    """Dimension sum v_i of the MV cycles for lam - mu = sum v_i alpha_i."""
    v = in_positive_root_cone(gcm, lam - mu)
    if v is None:
        raise DomainError("lam - mu is not a non-negative root combination")
    return sum(v)


def fixed_point_nonempty(gcm: GeneralizedCartanMatrix, lam: KMWeight, mu: KMWeight) -> bool:
    """Combinatorial shadow of the fixed-point conjecture: the fixed point
    exists iff the dual-side weight multiplicity V_mu(lam) is nonzero."""
    if not gcm.is_dominant(lam):
        raise DomainError("lam must be dominant")
    return weight_multiplicity(langlands_dual(gcm), lam, mu) > 0


def _dominant_interval(
    gcm: GeneralizedCartanMatrix, top: KMWeight, mu: KMWeight
) -> list[tuple[int, KMWeight]]:
    """Dominant kappa with top >= kappa >= mu, as (height of top-kappa, kappa).

    kappa = top - sum u_j alpha_j with 0 <= u <= t, t the root coordinates of top - mu, and
    <kappa, alpha_i^vee> = top_i - sum_j a_ij u_j.  A walk fixes u_0, u_1, ... in turn and keeps,
    per vertex, the most that pairing can still reach: a_ij <= 0 for j != i, so the coordinates not
    yet fixed raise it by at most the sum over them of (-a_ij) t_j.  A branch is cut when a vertex
    cannot reach 0.  That uses only the GCM axioms, so no dominant kappa is cut in any type, and the
    sorted list is the box scan's.  Fixing u_k moves the bounds of k and of its neighbours, read off
    the datum's nonzeros, and backtracking undoes it: the walk holds O(n + nonzeros) integers, runs
    on an explicit stack and checks the deadline once per node; at a leaf its bounds are kappa = top - A u.
    """
    check()  # the deadline once per call, so the rank-0 datum reads it too
    t = in_positive_root_cone(gcm, top - mu)
    if t is None:
        return []
    nbrs, n, split = gcm.neighbours, gcm.size, gcm.delta_split or ()
    cols = [[(j, nbrs[j][k]) for j in nbrs[k]] for k in range(n)]  # (j, a_jk) for a_jk != 0, j != k
    reach = [c - sum(x * t[j] for j, x in row.items()) for c, row in zip(top.fund, nbrs)]
    if min(reach, default=0) < 0:
        return []
    out: list[tuple[int, KMWeight]] = []
    u = [0] * n
    # every bound is >= 0 whenever the walk moves to the next vertex; fixing u_k at v moves
    # k's bound by -2 v and each neighbour j's by a_jk (t_k - v)
    k, fresh = 0, True
    while k >= 0:
        if k == n:
            out.append((sum(u), KMWeight(tuple(reach), top.delta - sum(s * x for s, x in zip(split, u)))))
            k, fresh = k - 1, False
            continue
        tk, col = t[k], cols[k]
        if fresh:
            u[k] = 0
            for j, x in col:
                reach[j] += x * tk
        elif u[k] < tk and reach[k] >= 2:
            u[k] += 1
            reach[k] -= 2
            for j, x in col:
                reach[j] -= x
        else:  # u_k is at t_k, or a larger one would leave k below 0: undo and backtrack
            v = u[k]
            reach[k] += 2 * v
            for j, x in col:
                reach[j] -= x * (tk - v)
            k, fresh = k - 1, False
            continue
        check()
        # u_k raises its neighbours' bounds as it grows, so a neighbour below 0 only skips this value
        if all(reach[j] >= 0 for j, _ in col):
            k, fresh = k + 1, True
        else:
            fresh = False
    out.sort()
    return out


def strata_finite(gcm: GeneralizedCartanMatrix, lam: KMWeight, mu: KMWeight) -> list[KMWeight]:
    """All dominant kappa with lam >= kappa >= mu, sorted descending."""
    if gcm.tag != "finite":
        raise UnsupportedError("strata_finite requires finite type")
    if not gcm.is_dominant(lam):
        raise DomainError("lam must be dominant")
    return [kappa for _, kappa in _dominant_interval(gcm, lam, mu)]


def _partitions(n: int):
    """Partitions of n as descending tuples; the empty partition for n = 0."""
    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def strata_affine(
    gcm: GeneralizedCartanMatrix,
    lam: KMWeight,
    mu: KMWeight,
    bound: int,
) -> list[tuple[KMWeight, tuple[int, ...]]]:
    """Brute-force enumeration of the affine strata index set: pairs
    (kappa, partition) with lam - |partition| delta >= kappa >= mu, where delta is
    the null root, the canonical central element read in the weight lattice.

    The literal constraint is applied for every level >= 1; the level-1
    description is stated only up to analogy, so level-1 output follows the
    same constraint without further correction.
    """
    if gcm.tag != "affine":
        raise UnsupportedError("strata_affine requires affine type")
    if not gcm.is_dominant(lam):
        raise DomainError("lam must be dominant")
    if level(gcm, lam) < 1:
        raise DomainError("lam must have level >= 1")
    if bound < 0:
        raise DomainError(f"bound must be non-negative, got {bound}")
    c = central_element_as_root_sum(gcm)
    out = []
    for size in range(bound + 1):
        check()
        top = lam - c.scaled(size)
        interval = _dominant_interval(gcm, top, mu)
        if not interval:  # no kappa to pair: the p(size) partitions are not walked
            continue
        for part in _partitions(size):
            check()
            out.extend((kappa, part) for _, kappa in interval)
    out.sort(key=lambda p: (sum(p[1]), p[1], p[0]))
    return out


def cocharacter_split(weights, mu: Coweight) -> tuple[int, int, int]:
    """Counts of representation weights pairing negative / zero / positive
    against the cocharacter; dim N^mu_{<=0} = neg + zero.  Entries are read by
    ``as_integers``, so none is truncated."""
    mu = as_integers(mu, "cocharacter")
    neg = zero = pos = 0
    for rho in weights:
        p = pairing(mu, as_integers(rho, "weight"))
        if p < 0:
            neg += 1
        elif p == 0:
            zero += 1
        else:
            pos += 1
    return neg, zero, pos


def parabolic_codim(gl_ranks, mu_blocks) -> int:
    """dim G/P_mu for a product of GLs: GL root pairs (a, b), a < b inside a
    factor, separated by unequal cocharacter entries.  Entries are read by
    ``as_integers``, so none is truncated."""
    gl_ranks = as_integers(gl_ranks, "GL rank")
    mu_blocks = [as_integers(block, "cocharacter block") for block in mu_blocks]
    if len(gl_ranks) != len(mu_blocks):
        raise DimensionError("one cocharacter block per GL factor is required")
    total = 0
    for rank, block in zip(gl_ranks, mu_blocks):
        if len(block) != rank:
            raise DimensionError("cocharacter block length must equal the GL rank")
        total += sum(
            1 for a in range(rank) for b in range(a + 1, rank) if block[a] != block[b]
        )
    return total


def jordan_coulomb_hilbert(n: int, ell: int, max_deg) -> list[int]:
    """Graded dimensions of the n-th symmetric product of the surface
    xy = z^ell, with deg z = 1 and deg x = deg y = ell/2, in half-integer steps.

    Entry i is the dimension in degree i/2, counting size-n multisets of
    normal-form monomials x^a z^c and y^b z^c (b > 0), one degree at a time
    and one multiset size at a time, with a deadline check before each.
    """
    n, ell = as_integers((n, ell), "n and ell")  # 2.0 reads as 2; 1.5 names no surface
    if ell < 0:
        raise DomainError(f"ell must be positive, got {ell}")
    if ell == 0:
        raise UnsupportedError("the grading degenerates for ell = 0")
    if n < 0:
        raise DomainError("n must be non-negative")
    top = top_half_degree(max_deg)
    h: list[int] = []  # h[t]: normal-form monomials of doubled degree t
    # sym[j][t]: multisets of j of them; one of doubled degree t <= top has at most top members
    # other than 1, so Sym^n agrees with Sym^top there when n > top; row j grows at degree 0
    sym: list[list[int]] = [[]]
    for t in range(top + 1):
        check()
        # x^a z^c and y^b z^c of doubled degree a * ell + 2c = t: one of each for every
        # a <= t // ell of the parity that makes t - a * ell even, except y^0 = x^0
        xs = (t // ell + 2 - t % 2) // 2 if ell % 2 else (t // ell + 1) * (1 - t % 2)
        h.append(2 * xs - (1 - t % 2))
        sym[0].append(int(t == 0))
        for j in range(1, min(n, top) + 1):
            check()
            if t == 0:
                sym.append([])
            # Newton's identity: j Sym^j(s) = sum over k = 1..j of h(s^k) Sym^(j - k)(s)
            total = sum(h[d] * sym[j - k][t - d * k] for k in range(1, j + 1) for d in range(t // k + 1))
            sym[j].append(total // j)
    return sym[-1]
