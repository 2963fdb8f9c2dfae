"""Reference computations made apart from coulombkit.

Nothing here imports coulombkit.  Polynomials are dicts from exponent tuples
to Fractions; Cartan data, root systems, dimensions and graded counts are
computed from first principles, so a check that compares the program with
these functions does not compare the program with itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations


class Mismatch(AssertionError):
    """An output disagrees with its reference value."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------- polynomials

def padd(*polys) -> dict:
    out: dict = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def pscale(p: dict, c) -> dict:
    return {e: c * v for e, v in p.items() if c * v}


def pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ppow(p: dict, k: int, nvars: int) -> dict:
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = pmul(out, p)
    return out


def linear(coeffs, nvars: int) -> dict:
    """sum_j coeffs[j] * x_j over nvars variables."""
    out = {}
    for j, c in enumerate(coeffs):
        if c:
            e = [0] * nvars
            e[j] = 1
            out[tuple(e)] = Fraction(c)
    return out


def pshift(p: dict, lam, hbar: int) -> dict:
    """Substitute x_j -> x_j + lam_j * x_hbar for j < len(lam)."""
    out: dict = {}
    for e, c in p.items():
        nvars = len(e)
        base = list(e)
        for j in range(len(lam)):
            base[j] = 0
        term = {tuple(base): c}
        for j, l in enumerate(lam):
            k = e[j]
            if not k:
                continue
            binom = {}
            for i in range(k + 1):
                coeff = math.comb(k, i) * Fraction(l) ** (k - i)
                if coeff:
                    ee = [0] * nvars
                    ee[j] += i
                    ee[hbar] += k - i
                    binom[tuple(ee)] = coeff
            term = pmul(term, binom)
        out = padd(out, term)
    return out


def pdiff(p: dict, direction) -> dict:
    """Directional derivative sum_j direction[j] * d/dx_j."""
    out: dict = {}
    for e, c in p.items():
        for j, d in enumerate(direction):
            if d and e[j]:
                ee = list(e)
                ee[j] -= 1
                ee = tuple(ee)
                out[ee] = out.get(ee, 0) + c * d * e[j]
    return {e: c for e, c in out.items() if c}


def psubst_zero(p: dict, var: int) -> dict:
    return {e: c for e, c in p.items() if e[var] == 0}


def pextend(p: dict, extra: int) -> dict:
    """Append ``extra`` variables with exponent zero."""
    return {e + (0,) * extra: c for e, c in p.items()}


# ---------------------------------------------------------------- abelian theories

def pairing(lam, rho) -> int:
    return sum(a * b for a, b in zip(lam, rho))


def dressing(chars, lam, nvars: int, rank: int, hbar: bool) -> dict:
    """prod over <rho, lam> = p > 0 of prod_{j<p} (<rho, w> - j*hbar)."""
    out = {(0,) * nvars: Fraction(1)}
    for rho in chars:
        p = pairing(lam, rho)
        for j in range(max(p, 0)):
            factor = linear(list(rho) + [0] * (nvars - rank), nvars)
            if j and hbar:
                e = [0] * nvars
                e[rank] = 1
                factor = padd(factor, {tuple(e): Fraction(-j)})
            out = pmul(out, factor)
    return out


def classical_product(chars, rank: int, a: dict, b: dict) -> dict:
    """r^lam r^mu = prod_i <rho_i, w>^{d_i} r^{lam+mu} on dict elements
    {coweight: poly in w}."""
    out: dict = {}
    for lam, f in a.items():
        for mu, g in b.items():
            nu = tuple(x + y for x, y in zip(lam, mu))
            term = pmul(f, g)
            for rho in chars:
                p, q = pairing(lam, rho), pairing(mu, rho)
                d2 = abs(p) + abs(q) - abs(p + q)
                if d2:
                    term = pmul(term, ppow(linear(rho, rank), d2 // 2, rank))
            out[nu] = padd(out.get(nu, {}), term)
    return {k: v for k, v in out.items() if v}


def quantize(chars, rank: int, a: dict) -> dict:
    """f r^lam -> f * u_lam as a dict operator {coweight: poly in (w, hbar)}."""
    n = rank + 1
    return {
        lam: pmul(pextend(f, 1), dressing(chars, lam, n, rank, True))
        for lam, f in a.items()
        if f
    }


def op_multiply(rank: int, a: dict, b: dict) -> dict:
    """(f e^lam)(g e^mu) = f * g(w + hbar lam) e^(lam+mu)."""
    out: dict = {}
    for lam, f in a.items():
        for mu, g in b.items():
            nu = tuple(x + y for x, y in zip(lam, mu))
            out[nu] = padd(out.get(nu, {}), pmul(f, pshift(g, lam, rank)))
    return {k: v for k, v in out.items() if v}


def op_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = padd(out.get(k, {}), pscale(v, -1))
    return {k: v for k, v in out.items() if v}


def op_at_hbar_zero(a: dict, rank: int) -> dict:
    out = {k: psubst_zero(v, rank) for k, v in a.items()}
    return {k: v for k, v in out.items() if v}


def poisson_times_dressing(chars, rank: int, a: dict, b: dict) -> dict:
    """First-order part of the quantized commutator, before division by the
    classical dressing C_nu: sum over lam + mu = nu of
    F0 * d_lam G0 - G0 * d_mu F0 with F0 = f C_lam and G0 = g C_mu."""
    out: dict = {}
    for lam, f in a.items():
        F0 = pmul(f, dressing(chars, lam, rank, rank, False))
        for mu, g in b.items():
            G0 = pmul(g, dressing(chars, mu, rank, rank, False))
            nu = tuple(x + y for x, y in zip(lam, mu))
            term = padd(pmul(F0, pdiff(G0, lam)), pscale(pmul(G0, pdiff(F0, mu)), -1))
            out[nu] = padd(out.get(nu, {}), term)
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------- integer matrices

def rank_q(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def kernel_q(rows) -> list[list[int]]:
    """Integer vectors spanning the rational kernel of an integer matrix."""
    ncols = len(rows[0])
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, c in zip(m, pivots):
            v[c] = -row[free]
        scale = math.lcm(*(x.denominator for x in v))
        basis.append([int(x * scale) for x in v])
    return basis


def det(rows) -> Fraction:
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


def maximal_minor_gcd(rows) -> int:
    """gcd of the maximal minors of an n x m integer matrix (n >= m); it is 1
    exactly when every Smith invariant factor is 1."""
    n, m = len(rows), len(rows[0])
    g = 0
    for sel in combinations(range(n), m):
        g = math.gcd(g, int(det([rows[i] for i in sel])))
    return g


def solve_q(a_rows, rhs):
    """Unique rational solution of a square nonsingular system, else None."""
    n = len(a_rows)
    aug = [[Fraction(a_rows[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [aug[i][n] for i in range(n)]


# ---------------------------------------------------------------- hypertoric counts

def weight_zero_counts(charges, top: int) -> list[int]:
    """#monomials of degree t in x_1..x_n, y_1..y_n with zero total weight,
    where x_i has weight charges[i] and y_i its negative, for t = 0..top."""
    m = len(charges[0]) if charges and charges[0] else 0
    zero = (0,) * m
    # states[t] maps a weight vector to the number of monomials of degree t
    states = [dict() for _ in range(top + 1)]
    states[0][zero] = 1
    weights = [tuple(r) for r in charges] + [tuple(-x for x in r) for r in charges]
    for w in weights:
        # unbounded multiplicity of one variable: ascending degree order
        for t in range(1, top + 1):
            for wt, cnt in states[t - 1].items():
                key = tuple(a + b for a, b in zip(wt, w))
                states[t][key] = states[t].get(key, 0) + cnt
    return [s.get(zero, 0) for s in states]


def koszul_table(charges, top: int) -> list[int]:
    """Graded dimensions in half-degree steps of the Hamiltonian reduction:
    (1 - t)^m times the weight-zero monomial count, deg t = two half steps."""
    m = len(charges[0]) if charges and charges[0] else 0
    w0 = weight_zero_counts(charges, top)
    out = []
    for t in range(top + 1):
        out.append(sum((-1) ** j * math.comb(m, j) * w0[t - 2 * j] for j in range(m + 1) if t - 2 * j >= 0))
    return out


# ---------------------------------------------------------------- Cartan data

# Columns are simple roots in fundamental-weight coordinates:
# entry [i][j] = <alpha_i^vee, alpha_j>.
CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "G2": [[2, -1], [-3, 2]],
    "A1~": [[2, -2], [-2, 2]],
    "A2~": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    "A3~": [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]],
}


def symmetrizer(a) -> list[int]:
    """Minimal positive d with d_i a_ij = d_j a_ji (connected diagram)."""
    n = len(a)
    d = [None] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if j != i and a[i][j] and d[j] is None:
                d[j] = d[i] * Fraction(a[i][j], a[j][i])
                todo.append(j)
    lcm = math.lcm(*(x.denominator for x in d))
    ints = [int(x * lcm) for x in d]
    g = math.gcd(*ints)
    return [x // g for x in ints]


def simple_reflection(a, i: int, fund):
    """s_i on a weight in fundamental coordinates."""
    k = fund[i]
    return tuple(f - k * a[r][i] for r, f in enumerate(fund))


def positive_roots(a) -> list[tuple[int, ...]]:
    """Positive roots of a finite-type Cartan matrix in simple-root
    coordinates, by closing the simple roots under simple reflections."""
    n = len(a)
    simple = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    seen = set(simple)
    todo = list(simple)
    while todo:
        beta = todo.pop()
        for i in range(n):
            pair = sum(a[i][j] * beta[j] for j in range(n))  # <beta, alpha_i^vee>
            gamma = tuple(b - (pair if k == i else 0) for k, b in enumerate(beta))
            if all(x >= 0 for x in gamma) and any(gamma) and gamma not in seen:
                seen.add(gamma)
                todo.append(gamma)
    return sorted(seen, key=lambda b: (sum(b), b))


@lru_cache(maxsize=None)
def _root_weights(name: str) -> tuple[tuple[int, ...], ...]:
    """For each positive root beta, the integers beta_j * d_j: proportional
    to the coefficients of beta^vee over the simple coroots."""
    a = CARTAN[name]
    d = symmetrizer(a)
    return tuple(tuple(b * dj for b, dj in zip(beta, d)) for beta in positive_roots(a))


def weyl_dimension(name: str, fund) -> int:
    """prod over positive roots of (lam + rho, beta^vee) / (rho, beta^vee)."""
    num = den = 1
    for w in _root_weights(name):
        num *= sum(x * (f + 1) for x, f in zip(w, fund))
        den *= sum(w)
    expect(num % den == 0, "Weyl dimension is not an integer")
    return num // den


def root_combination(a, coeffs) -> tuple[int, ...]:
    n = len(a)
    return tuple(sum(a[i][j] * coeffs[j] for j in range(n)) for i in range(n))


def dominant_conjugate(a, fund):
    mu = tuple(fund)
    while True:
        i = next((i for i, c in enumerate(mu) if c < 0), None)
        if i is None:
            return mu
        mu = simple_reflection(a, i, mu)


def in_root_cone(a, fund) -> bool:
    c = solve_q(a, fund)
    return c is not None and all(x.denominator == 1 and x >= 0 for x in c)


def is_weight_of(a, lam, mu) -> bool:
    """mu is a weight of the finite-type V(lam) iff lam - mu lies in the root
    lattice and the dominant conjugate of mu lies below lam."""
    diff = solve_q(a, [x - y for x, y in zip(lam, mu)])
    if diff is None or any(x.denominator != 1 for x in diff):
        return False
    top = dominant_conjugate(a, mu)
    return in_root_cone(a, [x - y for x, y in zip(lam, top)])


def transpose(a):
    return [list(r) for r in zip(*a)]


@lru_cache(maxsize=None)
def partition_number(n: int) -> int:
    """p(n) by Euler's pentagonal recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total, k = 0, 1
    while True:
        g1 = k * (3 * k - 1) // 2
        if g1 > n:
            break
        sign = 1 if k % 2 else -1
        total += sign * partition_number(n - g1)
        g2 = k * (3 * k + 1) // 2
        if g2 <= n:
            total += sign * partition_number(n - g2)
        k += 1
    return total
