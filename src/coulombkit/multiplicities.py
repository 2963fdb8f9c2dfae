"""Root and weight multiplicities for symmetrizable Kac-Moody algebras.

Root multiplicities come from Peterson's recursion, weight multiplicities from
Freudenthal's formula; both build one layer of height at a time from the layers
below and store only nonzero entries, in exact arithmetic, uniformly for finite,
affine and indefinite symmetrizable Cartan data.  Freudenthal's formula is
summed only at dominant weights: any other weight takes the multiplicity of a
Weyl conjugate in a lower layer, and a query is read at its dominant conjugate,
so the table grows only to that conjugate's height.  A table indexes its sums at
dominant weights by (fund, delta) and reads the solve data, height form
included, at its first query; a query takes the one walk to its dominant
conjugate (``cartan._dominant_walk``), carrying height and delta, and reads the
index, so a filled query solves nothing and reads no cache keyed by the datum.
Its sums read the summands the shared root table lists as it grows.  A table keys each
weight by its root coordinates packed into one int of W-bit digits, the first most
significant, with every digit and the height below 2^(W-1) (it re-packs wider before a
layer would reach that), so a coordinate that goes negative borrows into no key; it records
where each layer ends, and a listing sorts each layer's ints, in the tuples' order.  A table is
cached by the datum and lam.fund alone: delta pairs to zero with every coroot,
so V(lam + k delta) is V(lam) with every weight moved by k delta (Kac, Ch.
9-12), and every delta-shift of one highest weight reads the same table.
Peterson's pair sums run in integers, layer h over lcm(1, ..., h)^2, and its
denominators take each norm from the Gram rows the pair sums read.  Finite-type
tensor products come from the Brauer-Klimyk formula, which reads det(w) off the
same walk.  Height bounds make affine tables finite; a finite-type support listing reaches
2 ht(lam), read off the height form, and writes each weight from its parent.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice
from math import gcd, lcm
from operator import add, itemgetter, mul, sub

from .cancel import check
from .cartan import GeneralizedCartanMatrix, KMWeight, langlands_dual
from .cartan import _cone, _dominant_walk, _solve, _solve_data
from .errors import DimensionError, DomainError, UnsupportedError

RootVector = tuple[int, ...]  # coordinates over the simple roots


@dataclass
class RootTable:
    """Positive roots up to a height bound, with multiplicities.

    ``multiplicities`` maps root-lattice vectors to positive integers;
    ``c_values`` holds the nonzero Peterson auxiliaries c_beta up to
    ``height``, which stops one layer above the highest root in finite type.
    """

    gcm: GeneralizedCartanMatrix
    height: int
    multiplicities: dict[RootVector, int] = field(default_factory=dict)
    c_values: dict[RootVector, Fraction] = field(default_factory=dict)
    # (alpha, mult, (alpha, alpha), d alpha, height) per root of ``multiplicities``, in its order:
    # what Freudenthal's sums read, appended to as each layer is committed
    summands: list = field(default_factory=list, init=False, repr=False, compare=False)

    def roots(self):
        return sorted(self.multiplicities, key=lambda b: (sum(b), b))

    def extend(self, height: int) -> None:
        """Continue Peterson's recursion from the current height bound up to
        ``height``.  (beta, beta - 2 rho) c_beta sums c_beta' c_beta'' over beta' +
        beta'' = beta, and c_beta vanishes off the multiples of roots (Kac, Ex. 11.11),
        which those sums reach as k gamma = gamma + (k-1) gamma; so layer h is evaluated
        only at sums of stored c-values.  Every non-simple positive root is a positive
        root plus a simple root (Kac, Lemma 1.3): after a layer with no root, none has.

        c_beta sums mult(beta/k) / k over the k dividing beta, so for beta of height h
        c_beta L(h) is an integer, L(h) = lcm(1, ..., h): layer h is computed in integers
        over L(h)^2, and a ``Fraction`` is built only when the layer is committed."""
        gcm, c, mults, n = self.gcm, self.c_values, self.multiplicities, self.gcm.size
        # reached, or stopped: mults is filled in height order, so its last root tops them all
        if height <= self.height or self.height and sum(next(reversed(mults), ())) < self.height:
            return
        # lcms[h] = L(h), grown one entry per layer once the deadline has been checked
        lcms = list(accumulate(range(1, self.height + 1), lcm, initial=1))
        layers: dict[int, list[tuple[RootVector, int]]] = {}  # c_beta L(h), by height h
        for beta, cb in c.items():
            h = sum(beta)
            layers.setdefault(h, []).append((beta, cb.numerator * (lcms[h] // cb.denominator)))
        gram = [[gcm.gram(i, j) for i in range(n)] for j in range(n)]  # row j: (alpha_i, alpha_j)
        pairings: dict[RootVector, list[int]] = {}  # beta' -> ((beta', alpha_j))_j
        for h in range(self.height + 1, height + 1):
            check()
            lcms.append(scale := lcm(lcms[-1], h))
            num: dict[RootVector, int] = {}  # the pair sums times L(h)^2
            for h1 in range(1, h // 2 + 1):
                twice = 2 if 2 * h1 < h else 1  # the pair sum is symmetric in beta', beta''
                outer, inner = scale // lcms[h1] * twice, scale // lcms[h - h1]
                upper = [(bpp, cpp * inner) for bpp, cpp in layers.get(h - h1, ())]
                for bp, cp in layers.get(h1, ()):
                    check()
                    if (gp := pairings.get(bp)) is None:
                        gp = pairings[bp] = [sum(map(mul, row, bp)) for row in gram]
                    cp *= outer
                    for bpp, cpp in upper:
                        beta = tuple(map(add, bp, bpp))
                        num[beta] = num.get(beta, 0) + sum(map(mul, gp, bpp)) * cp * cpp
            roots = {tuple(int(i == j) for j in range(n)): 1 for i in range(n)} if h == 1 else {}
            norms = {beta: _norm(gram, beta) for beta in roots}
            layer = dict.fromkeys(roots, scale)
            for beta, s in num.items():
                check()
                divisor_part = 0  # sum of mult(beta/k) / k over k >= 2, times L(h)
                g = gcd(*beta)
                for k in range(2, g + 1):
                    if g % k == 0:
                        divisor_part += mults.get(tuple(b // k for b in beta), 0) * (scale // k)
                norm = _norm(gram, beta)
                den = norm - 2 * _pair(gcm, (1,) * n, beta)
                if den == 0:
                    # the denominator vanishes only off the root system (a real root of height >= 2
                    # has (rho, beta^vee) >= 2 and an imaginary root has (beta, beta) <= 0 < (rho, beta)),
                    # so mult(beta) = 0 and c_beta is carried by the proper divisors alone
                    if s != 0:
                        raise UnsupportedError("Peterson recursion degenerate at " + repr(beta))
                    cb = divisor_part
                else:
                    cb, r = divmod(s, den * scale)
                    mult, r_mult = divmod(cb - divisor_part, scale)
                    assert r == r_mult == 0 and mult >= 0
                    if mult:
                        roots[beta], norms[beta] = mult, norm
                if cb:
                    layer[beta] = cb
            layers[h] = list(layer.items())
            c.update((beta, Fraction(cb, scale)) for beta, cb in layer.items())
            mults.update(roots)
            self.summands += [(b, m, norms[b], tuple(map(mul, gcm.d, b)), h) for b, m in roots.items()]
            self.height = h
            if not roots:
                return


def _norm(gram, beta: RootVector) -> int:
    """(beta, beta) = sum_j beta_j (beta, alpha_j), with gram[j] the row ((alpha_i, alpha_j))_i."""
    return sum(b * sum(map(mul, row, beta)) for b, row in zip(beta, gram))


def _pair(gcm: GeneralizedCartanMatrix, fund, beta: RootVector) -> int:
    # (lam, beta) for lam = sum fund_i varpi_i: (varpi_i, alpha_j) = d_i delta_ij
    # with the (alpha_i, alpha_i) = 2 d_i normalization
    return sum(d * f * b for d, f, b in zip(gcm.d, fund, beta))


def _pack(beta: RootVector, width: int) -> int:
    """beta as one int of ``width``-bit digits, the first coordinate most significant, so
    that int order is tuple order; every coordinate must lie in [0, 2^width)."""
    return sum(b << width * i for i, b in enumerate(reversed(beta)))


def _unpack(key: int, width: int, size: int) -> RootVector:
    """The ``size`` coordinates that ``_pack`` packed into ``key``."""
    return tuple(key >> width * i & (1 << width) - 1 for i in reversed(range(size)))


def root_multiplicities(gcm: GeneralizedCartanMatrix, height: int) -> RootTable:
    """Peterson's recursion up to ``height``: a copy of the table that every Freudenthal
    table of ``gcm`` extends, grown under the deadline.  A cancelled call leaves that table
    valid, since a layer is committed only when it is complete."""
    if height < 1:
        raise DomainError("height bound must be at least 1")
    (shared := _root_table(gcm)).extend(height)
    h = min(height, shared.height)
    table = RootTable(gcm, h, *({b: v for b, v in d.items() if sum(b) <= h}
                               for d in (shared.multiplicities, shared.c_values)))
    table.summands = shared.summands[:len(table.multiplicities)]
    return table


@lru_cache(maxsize=16)
def _root_table(gcm: GeneralizedCartanMatrix) -> RootTable:
    """The Peterson table that every Freudenthal table of ``gcm`` extends."""
    return RootTable(gcm, 0)


class FreudenthalTable:
    """Weight multiplicities of the integrable module V(lam), keyed by the
    root-lattice distance beta from the highest weight and built in layers of
    equal height of beta; only nonzero multiplicities are stored.  A key packs beta
    into one int of ``_width``-bit digits, the first coordinate most significant
    (``_pack``), and ``_ends[h]`` counts the keys of the layers up to h.  ``evaluated``
    counts the weights whose multiplicity the table computed rather than read
    off a conjugate: lam, and each dominant weight summed by Freudenthal's formula."""

    def __init__(self, gcm: GeneralizedCartanMatrix, lam: KMWeight):
        if not gcm.is_dominant(lam):
            raise DomainError("highest weight must be dominant")
        if len(lam.fund) != gcm.size:
            raise DimensionError("weight length does not match Cartan matrix size")
        self.gcm, self.lam = gcm, lam
        # _top: the weights of the layer at height, each with its fundamental coordinates
        self.height, self._top, self._width, self._ends = 0, {0: lam.fund}, 1, [1]
        self._mult: dict[int, int] = {0: 1}
        # the nonzero sums at dominant weights, by fund, and in affine type by (fund, delta)
        self._dominant = {(lam.fund, lam.delta) if gcm.delta_split else lam.fund: 1}
        self.evaluated = 1
        self._data = self._form = None

    def extend(self, height: int) -> None:
        """Every layer up to ``height``.  V(lam) = U(n^-) v_lam, so a weight of
        layer h lies one simple root below a weight of layer h - 1; only those
        vectors are candidates, and the first empty layer ends the module.
        Freudenthal's formula is summed only at dominant candidates.  Any other
        has a negative coordinate mu_i, and s_i moves it up -mu_i layers to a
        complete one; multiplicities are Weyl-invariant (Kac, Prop. 10.1), so it
        takes the multiplicity stored there, or 0 off the positive cone.  The keys
        are re-packed wider first if ``height`` would reach 2^(W-1)."""
        if height <= self.height or not self._top:
            return
        table = _root_table(self.gcm)
        table.extend(height)
        if height >> (self._width - 1):
            self._repack(height.bit_length() + 1)
        gcm, mult, width = self.gcm, self._mult, self._width
        units, mask = [1 << width * i for i in reversed(range(gcm.size))], (1 << width) - 1
        roots = [(_pack(alpha, width), *rest) for alpha, *rest in
                 table.summands[:bisect_right(table.summands, height, key=itemgetter(4))]]
        columns = list(zip(units, zip(*gcm.entries)))  # lam - beta - alpha_i has coordinates lam - beta - A e_i
        while self._top and self.height < height:
            h = self.height + 1
            below = {}
            for b, c in self._top.items():
                for unit, col in columns:
                    if (beta := b + unit) not in below:
                        below[beta] = tuple(map(sub, c, col))
            layer, top = {}, {}
            summands = roots[:bisect_right(roots, h, key=itemgetter(4))]
            for beta, mu in below.items():
                check()
                if (low := min(mu)) >= 0:
                    q = self._freudenthal_sum(beta, mu, h, summands)
                else:
                    i = mu.index(low)
                    q = mult.get(beta + low * units[i], 0) if beta // units[i] & mask >= -low else 0
                if q:
                    layer[beta], top[beta] = q, mu
            mult.update(layer)
            self._top, self.height = top, h
            self._ends.append(len(mult))

    def _repack(self, width: int) -> None:
        """Every key of the table in digits of ``width`` bits."""
        old, n = self._width, self.gcm.size
        self._mult = {_pack(_unpack(b, old, n), width): q for b, q in self._mult.items()}
        self._top = {_pack(_unpack(b, old, n), width): mu for b, mu in self._top.items()}
        self._width = width

    def _freudenthal_sum(self, beta: int, mu: tuple[int, ...], h: int, roots) -> int:
        """Freudenthal's formula at lam - beta, of height h and fundamental coordinates ``mu``,
        from the complete layers below it; ``roots`` are the root table's summands of height
        at most h, each under its key.  beta - k alpha has height h - k ht(alpha) >= 0, so each of
        its digits is above -2^(W-1): one that went negative has borrowed, leaving a digit at
        2^(W-1) or more or a negative int, and neither is a key."""
        mult = self._mult
        self.evaluated += 1
        num = 0
        for alpha, m_alpha, norm, d_alpha, h_alpha in roots:
            shifted, pairing = beta, None
            for k in range(1, h // h_alpha + 1):
                shifted -= alpha
                if q := mult.get(shifted):
                    if pairing is None:  # (mu + k alpha, alpha) = pairing + k norm
                        pairing = sum(map(mul, mu, d_alpha))
                    num += m_alpha * (pairing + k * norm) * q
        if not num:
            return 0
        beta = _unpack(beta, self._width, len(mu))
        # (lam + rho, lam + rho) - (mu + rho, mu + rho) = (lam + mu + 2 rho, lam - mu)
        den = _pair(self.gcm, [x + y + 2 for x, y in zip(self.lam.fund, mu)], beta)
        if den == 0:
            raise UnsupportedError("Freudenthal recursion degenerate at " + repr(beta))
        q, r = divmod(2 * num, den)
        assert r == 0 and q >= 0
        if q:  # in affine type lam - beta has delta lam.delta - s . beta, s the delta split
            split = self.gcm.delta_split
            self._dominant[(mu, self.lam.delta - sum(map(mul, split, beta))) if split else mu] = q
        return q

    def multiplicity_at_depth(self, beta: RootVector) -> int:
        """dim of the weight space at lam - sum beta_i alpha_i."""
        self.extend(sum(beta))
        packs = min(beta, default=0) >= 0 and sum(beta) <= self.height  # else beta is no stored weight
        return self._mult.get(_pack(beta, self._width), 0) if packs else 0

    def multiplicity(self, mu: KMWeight) -> int:
        """dim of the weight space at mu, read at its dominant conjugate nu.  den times the
        height of lam - mu is a form over (mu.fund, mu.delta) read off the solve data once;
        s_i adds c_i to it and -c_i s_i to the delta.  Weights lie under lam (Kac, Prop. 11.2)
        and outside affine type (no zero row) share its delta, so a negative height answers 0;
        a covered nu is read in the index, and a deeper one is solved, so a layer is filled
        only when lam - nu is in the positive root cone."""
        (lam := self.lam)._match(mu)  # "weights live on different Cartan data"
        gcm = self.gcm
        if self._form is None:
            self._data = _solve_data(gcm)  # under the deadline; a cancelled Smith pass stores nothing
            _, zero_rows, _, den, height = self._data
            if height is None:  # singular, not affine: the solve raises or finds no weight
                _solve(gcm, self._data, tuple(map(sub, lam.fund, mu.fund)), lam.delta - mu.delta)
                return 0
            (form, per_delta), zero = height, zero_rows[0] if zero_rows else ()
            top = sum(map(mul, form, lam.fund)) + per_delta * lam.delta
            self._form = form, per_delta, den, zero, top, sum(map(mul, zero, lam.fund))
        form, per_delta, den, zero, top, zero_top = self._form
        c, delta = list(mu.fund), mu.delta
        h, r = divmod(top - sum(map(mul, form, c)) - per_delta * delta, den)
        if r or (sum(map(mul, zero, c)) != zero_top if zero else delta != lam.delta):
            return 0
        h, delta, _ = _dominant_walk(gcm, c, h, delta)
        nu = (tuple(c), delta) if zero else tuple(c)
        if h < 0 or h > self.height and self._top and \
                _cone(_solve(gcm, self._data, tuple(map(sub, lam.fund, c)), lam.delta - delta)) is None:
            return 0
        if h > self.height:
            self.extend(h)
        return self._dominant.get(nu, 0)


@lru_cache(maxsize=128)
def _freudenthal(gcm: GeneralizedCartanMatrix, fund: tuple[int, ...]) -> FreudenthalTable:
    """The table of V(sum fund_i varpi_i), shared by every delta-shift of that highest weight.
    Keyed by the tuple, whose hash is cheaper than a ``KMWeight``'s on a warm query."""
    return FreudenthalTable(gcm, KMWeight(fund))


def weight_multiplicity(gcm: GeneralizedCartanMatrix, lam: KMWeight, mu: KMWeight) -> int:
    """dim V_mu(lam) for the integrable highest-weight module V(lam).  delta pairs to zero
    with every coroot, so V(lam + k delta) is V(lam) with every weight moved by k delta: mu
    is read in the table of lam.fund, moved by -lam.delta."""
    table = _freudenthal(gcm, lam.fund)
    return table.multiplicity(KMWeight(mu.fund, mu.delta - lam.delta) if lam.delta else mu)


def default_support_depth(gcm: GeneralizedCartanMatrix, lam: KMWeight) -> int:
    """The height of lam minus the lowest weight w0 lam of V(lam), finite type only.  w0 sends
    rho^vee to -rho^vee, so it is 2 <lam, rho^vee> = 2 ht(lam) (Humphreys, Sec. 10.3): twice the
    height form of the datum's solve data at lam.fund, over den."""
    if gcm.tag != "finite":
        raise UnsupportedError("support depth requires finite type")
    if len(lam.fund) != gcm.size:
        raise DimensionError("weight length does not match Cartan matrix size")
    _, _, _, den, (form, _) = _solve_data(gcm)
    return 2 * sum(map(mul, form, lam.fund)) // den


def weight_support(gcm: GeneralizedCartanMatrix, lam: KMWeight, depth: int | None = None):
    """Pairs (mu, mult) with mult > 0 and beta = lam - mu of height <= depth, in (height, beta) order.

    ``depth`` may be omitted in finite type, where the full support fits under
    the height of lam minus its lowest weight.  The deadline is checked once per weight.
    """
    if depth is None:
        if gcm.tag != "finite":
            raise DomainError("an explicit depth is required outside finite type")
        depth = default_support_depth(gcm, lam)
    if depth < 0:
        raise DomainError("depth must be non-negative")
    table = _freudenthal(gcm, lam.fund)  # its weights moved by lam.delta are lam's
    table.extend(depth)
    mult, width, ends, n = table._mult, table._width, table._ends[:depth + 1], gcm.size
    columns = list(zip([1 << width * i for i in reversed(range(n))], zip(*gcm.entries), gcm.delta_split or (0,) * n))
    keys = list(islice(mult, ends[-1]))
    weights = {0: lam}  # every other weight is a listed one minus alpha_i (Kac, Prop. 11.2)
    check()  # the deadline, once per weight: lam's here, every other one's in the loop
    for start, end in zip(ends, ends[1:]):
        for b in sorted(keys[start:end]):  # int order is beta's order within a layer
            check()
            for unit, col, s in columns:
                if (up := weights.get(b - unit)) is not None:
                    break
            else:
                raise AssertionError(f"no listed weight lies a simple root above lam - {_unpack(b, width, n)}")
            weights[b] = KMWeight(tuple(map(sub, up.fund, col)), up.delta - s)
    return [(mu, mult[b]) for b, mu in weights.items()]


def tensor_weight_mult(
    gcm: GeneralizedCartanMatrix,
    lam1: KMWeight,
    lam2: KMWeight,
    mu: KMWeight,
    depth: int | None = None,
) -> int:
    """Weight multiplicity of mu in V(lam1) (x) V(lam2): the convolution
    sum over decompositions mu = mu1 + mu2 of the two weight supports."""
    total = 0
    for mu1, m1 in weight_support(gcm, lam1, depth):
        m2 = weight_multiplicity(gcm, lam2, mu - mu1)
        total += m1 * m2
    return total


def tensor_fixed_components(
    gcm: GeneralizedCartanMatrix,
    lam1: KMWeight,
    lam2: KMWeight,
    mu: KMWeight,
    depth: int | None = None,
) -> list[tuple[KMWeight, KMWeight]]:
    """All pairs (mu1, mu2) with mu1 + mu2 = mu and each mu_a a weight of the
    corresponding module over the Langlands dual Cartan datum."""
    dual = langlands_dual(gcm)
    out = []
    for mu1, _ in weight_support(dual, lam1, depth):
        mu2 = mu - mu1
        if weight_multiplicity(dual, lam2, mu2) > 0:
            out.append((mu1, mu2))
    out.sort(key=lambda p: (p[0].fund, p[0].delta))
    return out


def tensor_decompose(gcm: GeneralizedCartanMatrix, lam1: KMWeight, lam2: KMWeight) -> dict[KMWeight, int]:
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
    shift = [x + 1 for x in lam2.fund]  # lam2 + rho
    result: dict[tuple[int, ...], int] = {}
    for mu, m in weight_support(gcm, lam1):
        c = list(map(add, shift, mu.fund))
        sign = _dominant_walk(gcm, c)[2]
        if min(c, default=1) > 0:
            kappa = tuple(x - 1 for x in c)
            result[kappa] = result.get(kappa, 0) + sign * m
    assert all(m >= 0 for m in result.values())
    delta = lam1.delta + lam2.delta  # a finite-type reflection leaves delta alone
    return {KMWeight(kappa, delta): m for kappa, m in result.items() if m}
