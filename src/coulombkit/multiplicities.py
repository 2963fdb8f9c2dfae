"""Root and weight multiplicities for symmetrizable Kac-Moody algebras.

Root multiplicities come from Peterson's recursion on the positive root cone,
weight multiplicities from Freudenthal's recursion; both run in exact rational
arithmetic and work uniformly for finite, affine and indefinite symmetrizable
Cartan data.  Height bounds make affine enumerations finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .cancel import CancellationToken, check
from .cartan import GeneralizedCartanMatrix, KMWeight, in_positive_root_cone, langlands_dual
from .errors import DomainError, UnsupportedError

RootVector = tuple[int, ...]  # coordinates over the simple roots


def _height(beta: RootVector) -> int:
    return sum(beta)


def _cone_vectors(rank: int, height: int, start: int = 1):
    """All non-negative integer vectors with start <= sum <= height, by height."""
    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for x in range(remaining + 1):
            yield from rec(prefix + (x,), remaining - x, slots - 1)

    for h in range(start, height + 1):
        yield from rec((), h, rank)


@dataclass
class RootTable:
    """Positive roots up to a height bound, with multiplicities.

    ``multiplicities`` maps root-lattice vectors to positive integers;
    ``c_values`` holds the Peterson auxiliary c_beta for every cone vector.
    """

    gcm: GeneralizedCartanMatrix
    height: int
    multiplicities: dict[RootVector, int] = field(default_factory=dict)
    c_values: dict[RootVector, Fraction] = field(default_factory=dict)

    def roots(self):
        return sorted(self.multiplicities, key=lambda b: (_height(b), b))

    def extend(self, height: int, token: CancellationToken | None = None) -> None:
        """Continue Peterson's recursion from the current height bound up to
        ``height``; c_beta depends only on vectors of smaller height."""
        gcm, c, mults = self.gcm, self.c_values, self.multiplicities
        for beta in _cone_vectors(gcm.size, height, self.height + 1):
            check(token)
            if _height(beta) == 1:
                c[beta] = Fraction(1)
                mults[beta] = 1
                continue
            num = Fraction(0)
            for bp in _proper_subvectors(beta):
                cp = c.get(bp)
                if not cp:
                    continue
                bpp = tuple(b - p for b, p in zip(beta, bp))
                cpp = c.get(bpp)
                if cpp:
                    num += _form(gcm, bp, bpp) * cp * cpp
            divisor_part = Fraction(0)
            for k in range(2, _height(beta) + 1):
                if all(b % k == 0 for b in beta):
                    sub = tuple(b // k for b in beta)
                    divisor_part += Fraction(mults.get(sub, 0), k)
            den = _form(gcm, beta, beta) - 2 * _form_with_rho(gcm, beta)
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
        self.height = max(self.height, height)


def _form(gcm: GeneralizedCartanMatrix, beta: RootVector, gamma: RootVector) -> int:
    n = gcm.size
    return sum(gcm.gram(i, j) * beta[i] * gamma[j] for i in range(n) for j in range(n))


def _form_with_rho(gcm: GeneralizedCartanMatrix, beta: RootVector) -> int:
    # (rho, alpha_i) = d_i with the (alpha_i, alpha_i) = 2 d_i normalization
    return sum(gcm.d[i] * beta[i] for i in range(gcm.size))


def root_multiplicities(
    gcm: GeneralizedCartanMatrix, height: int, token: CancellationToken | None = None
) -> RootTable:
    """Peterson's recursion up to the given height bound."""
    if height < 1:
        raise DomainError("height bound must be at least 1")
    table = RootTable(gcm, 0)
    table.extend(height, token)
    return table


def _proper_subvectors(beta: RootVector):
    ranges = [range(b + 1) for b in beta]
    for bp in product(*ranges):
        if any(bp) and bp != beta:
            yield bp


class FreudenthalTable:
    """Weight multiplicities of the integrable module V(lam), memoized by the
    root-lattice distance from the highest weight."""

    def __init__(self, gcm: GeneralizedCartanMatrix, lam: KMWeight):
        if not gcm.is_dominant(lam):
            raise DomainError("highest weight must be dominant")
        self.gcm = gcm
        self.lam = lam
        self._mult: dict[RootVector, int] = {(0,) * gcm.size: 1}
        self._roots = RootTable(gcm, 0)

    def _root_table(self, height: int) -> RootTable:
        if self._roots.height < height:
            self._roots.extend(height)
        return self._roots

    def multiplicity_at_depth(self, beta: RootVector) -> int:
        """dim of the weight space at lam - sum beta_i alpha_i."""
        if beta in self._mult:
            return self._mult[beta]
        if any(b < 0 for b in beta):
            return 0
        gcm = self.gcm
        roots = self._root_table(_height(beta)).multiplicities
        lam_d = [gcm.d[i] * (self.lam.fund[i] + 1) for i in range(gcm.size)]
        den = 2 * sum(lam_d[i] * beta[i] for i in range(gcm.size)) - _form(gcm, beta, beta)
        num = Fraction(0)
        for alpha, m_alpha in roots.items():
            k = 1
            while True:
                shifted = tuple(b - k * a for b, a in zip(beta, alpha))
                if any(x < 0 for x in shifted):
                    break
                inner = self.multiplicity_at_depth(shifted)
                if inner:
                    # (mu + k alpha, alpha) with mu = lam - beta
                    lam_a = sum(gcm.d[i] * self.lam.fund[i] * alpha[i] for i in range(gcm.size))
                    pairing = lam_a - _form(gcm, beta, alpha) + k * _form(gcm, alpha, alpha)
                    num += 2 * m_alpha * pairing * inner
                k += 1
        if den == 0:
            if num != 0:
                raise UnsupportedError("Freudenthal recursion degenerate at " + repr(beta))
            result = 0
        else:
            q = num / den
            assert q.denominator == 1 and q >= 0
            result = int(q)
        self._mult[beta] = result
        return result

    def multiplicity(self, mu: KMWeight) -> int:
        beta = in_positive_root_cone(self.gcm, self.lam - mu)
        if beta is None:
            return 0
        return self.multiplicity_at_depth(beta)


_FREUDENTHAL_CACHE: dict[tuple, FreudenthalTable] = {}


def _freudenthal(gcm: GeneralizedCartanMatrix, lam: KMWeight) -> FreudenthalTable:
    key = (gcm.entries, lam.fund, lam.delta)
    if key not in _FREUDENTHAL_CACHE:
        _FREUDENTHAL_CACHE[key] = FreudenthalTable(gcm, lam)
    return _FREUDENTHAL_CACHE[key]


def weight_multiplicity(gcm: GeneralizedCartanMatrix, lam: KMWeight, mu: KMWeight) -> int:
    """dim V_mu(lam) for the integrable highest-weight module V(lam)."""
    return _freudenthal(gcm, lam).multiplicity(mu)


def antidominant_conjugate(gcm: GeneralizedCartanMatrix, lam: KMWeight) -> KMWeight:
    """Repeated simple reflections until antidominant (finite type only)."""
    if gcm.tag != "finite":
        raise UnsupportedError("antidominant conjugate requires finite type")
    mu = lam
    while True:
        i = next((i for i, c in enumerate(mu.fund) if c > 0), None)
        if i is None:
            return mu
        mu = gcm.reflect(i, mu)


def default_support_depth(gcm: GeneralizedCartanMatrix, lam: KMWeight) -> int:
    beta = in_positive_root_cone(gcm, lam - antidominant_conjugate(gcm, lam))
    return _height(beta)


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
    out = [(lam, 1)]
    for beta in _cone_vectors(gcm.size, depth):
        check(token)
        m = table.multiplicity_at_depth(beta)
        if m:
            out.append((lam - gcm.root_combination(beta), m))
    return out


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
        m2 = weight_multiplicity(gcm, lam2, mu - mu1)
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
        if weight_multiplicity(dual, lam2, mu2) > 0:
            out.append((mu1, mu2))
    out.sort(key=lambda p: (p[0].fund, p[0].delta))
    return out


def tensor_decompose(
    gcm: GeneralizedCartanMatrix, lam1: KMWeight, lam2: KMWeight
) -> dict[KMWeight, int]:
    """Decomposition of V(lam1) (x) V(lam2) into irreducibles, finite type only,
    by iterated highest-weight subtraction."""
    if gcm.tag != "finite":
        raise UnsupportedError("tensor decomposition requires finite type")
    if not (gcm.is_dominant(lam1) and gcm.is_dominant(lam2)):
        raise DomainError("tensor factors must have dominant highest weights")
    top = lam1 + lam2
    candidates = []
    depth = default_support_depth(gcm, lam1) + default_support_depth(gcm, lam2)
    zero = (0,) * gcm.size
    for beta in [zero] + list(_cone_vectors(gcm.size, depth)):
        kappa = top - gcm.root_combination(beta)
        if gcm.is_dominant(kappa):
            candidates.append((_height(beta), beta, kappa))
    candidates.sort(key=lambda t: (t[0], t[1]))
    result: dict[KMWeight, int] = {}
    for _, _, kappa in candidates:
        m = tensor_weight_mult(gcm, lam1, lam2, kappa)
        for nu, mult in result.items():
            m -= mult * weight_multiplicity(gcm, nu, kappa)
        assert m >= 0
        if m:
            result[kappa] = m
    return result
