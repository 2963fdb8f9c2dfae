"""Root and weight multiplicities for symmetrizable Kac-Moody algebras.

Root multiplicities come from Peterson's recursion on the positive root cone,
weight multiplicities from Freudenthal's formula filled in height order; both
run in exact arithmetic and work uniformly for finite, affine and indefinite
symmetrizable Cartan data.  Finite-type tensor products come from the
Brauer-Klimyk formula.  Height bounds make affine enumerations finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .cancel import CancellationToken, check
from .cartan import GeneralizedCartanMatrix, KMWeight, in_positive_root_cone, langlands_dual
from .errors import DimensionError, DomainError, UnsupportedError

RootVector = tuple[int, ...]  # coordinates over the simple roots


def _cone_vectors(rank: int, height: int, start: int = 1):
    """All non-negative integer vectors with start <= sum <= height, by height
    and then lexicographically (the cuts of a stars-and-bars word)."""
    for h in range(start, height + 1):
        for cuts in combinations_with_replacement(range(h + 1), rank - 1):
            yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (h,)))


@dataclass
class RootTable:
    """Positive roots up to a height bound, with multiplicities.

    ``multiplicities`` maps root-lattice vectors to positive integers;
    ``c_values`` holds the Peterson auxiliary c_beta for every cone vector up
    to ``height``, which stops one layer above the highest root in finite type.
    """

    gcm: GeneralizedCartanMatrix
    height: int
    multiplicities: dict[RootVector, int] = field(default_factory=dict)
    c_values: dict[RootVector, Fraction] = field(default_factory=dict)

    def roots(self):
        return sorted(self.multiplicities, key=lambda b: (sum(b), b))

    def extend(self, height: int, token: CancellationToken | None = None) -> None:
        """Continue Peterson's recursion from the current height bound up to
        ``height``; c_beta depends only on vectors of smaller height.  Every
        non-simple positive root is a positive root plus a simple root (Kac,
        Lemma 1.3), so once a layer holds no root, no higher layer does."""
        gcm, c, mults = self.gcm, self.c_values, self.multiplicities
        for h in range(self.height + 1, height + 1):
            if h > 1 + max(map(sum, mults), default=0):
                return
            for beta in _cone_vectors(gcm.size, h, h):
                check(token)
                if h == 1:
                    c[beta] = Fraction(1)
                    mults[beta] = 1
                    continue
                num = Fraction(0)
                for bp in _box(beta):
                    cp = c.get(bp)
                    if not cp:
                        continue
                    bpp = tuple(b - p for b, p in zip(beta, bp))
                    cpp = c.get(bpp)
                    if cpp:
                        num += _form(gcm, bp, bpp) * cp * cpp
                divisor_part = Fraction(0)
                for k in range(2, h + 1):
                    if all(b % k == 0 for b in beta):
                        sub = tuple(b // k for b in beta)
                        divisor_part += Fraction(mults.get(sub, 0), k)
                den = _form(gcm, beta, beta) - 2 * _pair(gcm, (1,) * gcm.size, beta)
                if den == 0:
                    # the denominator vanishes only off the root system (a real root of
                    # height >= 2 has (rho, beta^vee) >= 2 and an imaginary root has
                    # (beta, beta) <= 0 < (rho, beta)), so mult(beta) = 0 and c_beta is
                    # carried by the proper divisors alone
                    if num != 0:
                        raise UnsupportedError("Peterson recursion degenerate at " + repr(beta))
                    c[beta] = divisor_part
                    continue
                c[beta] = num / den
                mult = c[beta] - divisor_part
                assert mult.denominator == 1 and mult >= 0
                if mult:
                    mults[beta] = int(mult)
            self.height = h


def _form(gcm: GeneralizedCartanMatrix, beta: RootVector, gamma: RootVector) -> int:
    n = gcm.size
    return sum(gcm.gram(i, j) * beta[i] * gamma[j] for i in range(n) for j in range(n))


def _pair(gcm: GeneralizedCartanMatrix, fund, beta: RootVector) -> int:
    # (lam, beta) for lam = sum fund_i varpi_i: (varpi_i, alpha_j) = d_i delta_ij
    # with the (alpha_i, alpha_i) = 2 d_i normalization
    return sum(d * f * b for d, f, b in zip(gcm.d, fund, beta))


def root_multiplicities(
    gcm: GeneralizedCartanMatrix, height: int, token: CancellationToken | None = None
) -> RootTable:
    """Peterson's recursion up to the given height bound."""
    if height < 1:
        raise DomainError("height bound must be at least 1")
    table = RootTable(gcm, 0)
    table.extend(height, token)
    return table


@lru_cache(maxsize=16)
def _root_table(gcm: GeneralizedCartanMatrix) -> RootTable:
    """The Peterson table that every Freudenthal table of ``gcm`` extends."""
    return RootTable(gcm, 0)


def _box(beta: RootVector):
    """All vectors between zero and beta, coordinatewise."""
    return product(*(range(b + 1) for b in beta))


def _dominant(gcm: GeneralizedCartanMatrix, mu: KMWeight) -> tuple[KMWeight, int]:
    """The dominant Weyl conjugate of ``mu`` (finite type) and the sign det(w)
    of a Weyl group element w that takes ``mu`` there."""
    if len(mu.fund) != gcm.size:
        raise DimensionError("weight length does not match Cartan matrix size")
    sign = 1
    while (i := next((i for i, c in enumerate(mu.fund) if c < 0), None)) is not None:
        mu, sign = gcm.reflect(i, mu), -sign
    return mu, sign


class FreudenthalTable:
    """Weight multiplicities of the integrable module V(lam), memoized by the
    root-lattice distance from the highest weight."""

    def __init__(self, gcm: GeneralizedCartanMatrix, lam: KMWeight):
        if not gcm.is_dominant(lam):
            raise DomainError("highest weight must be dominant")
        self.gcm = gcm
        self.lam = lam
        self._mult: dict[RootVector, int] = {(0,) * gcm.size: 1}

    def _fill(self, betas, height: int, token: CancellationToken | None = None) -> None:
        """Freudenthal's formula at each beta of ``betas`` not yet known, in the
        given order, which must put every beta - k alpha of the cone first
        (height order does); ``height`` bounds the heights of ``betas``."""
        gcm, lam, mult = self.gcm, self.lam.fund, self._mult
        if len(lam) != gcm.size:
            raise DimensionError("weight length does not match Cartan matrix size")
        table = _root_table(gcm)
        table.extend(height, token)
        roots = [(alpha, m, _form(gcm, alpha, alpha))
                 for alpha, m in table.multiplicities.items() if sum(alpha) <= height]
        for beta in betas:
            if beta in mult:
                continue
            check(token)
            mu = [x - y for x, y in zip(lam, gcm.root_combination(beta).fund)]
            num = 0
            for alpha, m_alpha, norm in roots:
                pairing = _pair(gcm, mu, alpha)  # (mu + k alpha, alpha) = pairing + k norm
                shifted, k = beta, 1
                while min(shifted := tuple(b - a for b, a in zip(shifted, alpha))) >= 0:
                    num += m_alpha * (pairing + k * norm) * mult[shifted]
                    k += 1
            # (lam + rho, lam + rho) - (mu + rho, mu + rho) = (lam + mu + 2 rho, lam - mu)
            den = _pair(gcm, [x + y + 2 for x, y in zip(lam, mu)], beta)
            if den == 0:
                if num != 0:
                    raise UnsupportedError("Freudenthal recursion degenerate at " + repr(beta))
                mult[beta] = 0
            else:
                q, r = divmod(2 * num, den)
                assert r == 0 and q >= 0
                mult[beta] = q

    def multiplicity_at_depth(self, beta: RootVector, token: CancellationToken | None = None) -> int:
        """dim of the weight space at lam - sum beta_i alpha_i."""
        if beta not in self._mult:
            if any(b < 0 for b in beta):
                return 0
            self._fill(sorted(_box(beta), key=sum), sum(beta), token)
        return self._mult[beta]

    def multiplicity(self, mu: KMWeight, token: CancellationToken | None = None) -> int:
        diff = self.lam - mu  # raises DimensionError unless lam and mu have one length
        if self.gcm.tag == "finite":  # multiplicities are Weyl-invariant (Kac, Prop. 10.1)
            diff = self.lam - _dominant(self.gcm, mu)[0]
        beta = in_positive_root_cone(self.gcm, diff)
        if beta is None:
            return 0
        return self.multiplicity_at_depth(beta, token)


_freudenthal = lru_cache(maxsize=128)(FreudenthalTable)


def weight_multiplicity(
    gcm: GeneralizedCartanMatrix, lam: KMWeight, mu: KMWeight, token: CancellationToken | None = None
) -> int:
    """dim V_mu(lam) for the integrable highest-weight module V(lam)."""
    return _freudenthal(gcm, lam).multiplicity(mu, token)


def antidominant_conjugate(gcm: GeneralizedCartanMatrix, lam: KMWeight) -> KMWeight:
    """The antidominant Weyl conjugate of lam (finite type only)."""
    if gcm.tag != "finite":
        raise UnsupportedError("antidominant conjugate requires finite type")
    return -_dominant(gcm, -lam)[0]


def default_support_depth(gcm: GeneralizedCartanMatrix, lam: KMWeight) -> int:
    return sum(in_positive_root_cone(gcm, lam - antidominant_conjugate(gcm, lam)))


def weight_support(
    gcm: GeneralizedCartanMatrix,
    lam: KMWeight,
    depth: int | None = None,
    token: CancellationToken | None = None,
):
    """Pairs (mu, mult) with mult > 0 and lam - mu of height <= depth.

    ``depth`` may be omitted in finite type, where the full support fits under
    the height of lam minus its antidominant conjugate.
    """
    if depth is None:
        if gcm.tag != "finite":
            raise DomainError("an explicit depth is required outside finite type")
        depth = default_support_depth(gcm, lam)
    table = _freudenthal(gcm, lam)
    betas = list(_cone_vectors(gcm.size, depth))
    table._fill(betas, depth, token)
    return [(lam, 1)] + [(lam - gcm.root_combination(b), table._mult[b]) for b in betas if table._mult[b]]


def tensor_weight_mult(
    gcm: GeneralizedCartanMatrix,
    lam1: KMWeight,
    lam2: KMWeight,
    mu: KMWeight,
    depth: int | None = None,
    token: CancellationToken | None = None,
) -> int:
    """Weight multiplicity of mu in V(lam1) (x) V(lam2): the convolution
    sum over decompositions mu = mu1 + mu2 of the two weight supports."""
    total = 0
    for mu1, m1 in weight_support(gcm, lam1, depth, token):
        m2 = weight_multiplicity(gcm, lam2, mu - mu1, token)
        total += m1 * m2
    return total


def tensor_fixed_components(
    gcm: GeneralizedCartanMatrix,
    lam1: KMWeight,
    lam2: KMWeight,
    mu: KMWeight,
    depth: int | None = None,
    token: CancellationToken | None = None,
) -> list[tuple[KMWeight, KMWeight]]:
    """All pairs (mu1, mu2) with mu1 + mu2 = mu and each mu_a a weight of the
    corresponding module over the Langlands dual Cartan datum."""
    dual = langlands_dual(gcm)
    out = []
    for mu1, _ in weight_support(dual, lam1, depth, token):
        mu2 = mu - mu1
        if weight_multiplicity(dual, lam2, mu2, token) > 0:
            out.append((mu1, mu2))
    out.sort(key=lambda p: (p[0].fund, p[0].delta))
    return out


def tensor_decompose(
    gcm: GeneralizedCartanMatrix, lam1: KMWeight, lam2: KMWeight, token: CancellationToken | None = None
) -> dict[KMWeight, int]:
    """Decomposition of V(lam1) (x) V(lam2) into irreducibles, finite type only,
    by the Brauer-Klimyk formula: each weight mu of V(lam1) contributes
    mult(mu) det(w) to V(w(lam2 + mu + rho) - rho) when w(lam2 + mu + rho) is
    dominant and regular, and nothing when it lies on a wall."""
    if gcm.tag != "finite":
        raise UnsupportedError("tensor decomposition requires finite type")
    if not (gcm.is_dominant(lam1) and gcm.is_dominant(lam2)):
        raise DomainError("tensor factors must have dominant highest weights")
    if len(lam1.fund) != len(lam2.fund):
        raise DimensionError("weights live on different Cartan data")
    rho = KMWeight((1,) * gcm.size)
    result: dict[KMWeight, int] = {}
    for mu, m in weight_support(gcm, lam1, token=token):
        nu, sign = _dominant(gcm, lam2 + mu + rho)
        if all(c > 0 for c in nu.fund):
            kappa = nu - rho
            result[kappa] = result.get(kappa, 0) + sign * m
    assert all(m >= 0 for m in result.values())
    return {kappa: m for kappa, m in result.items() if m}
