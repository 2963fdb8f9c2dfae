"""km-batch: Kac-Moody weight and root multiplicities, tensor products and
quiver strata, without sympy.

Every round follows the same schedule, with some Cartan types rotating by
round index.  Highest weights are planned for the whole run without
replacement wherever the pools allow, so a round rarely finds a Freudenthal
table that an earlier round built; inside a round, the swept weight and the
A1~ basic module are queried many times and every other highest weight once
or twice (the README gives the shares).
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

import bench_oracles as O
from bench_harness import Case

from coulombkit import multiplicities as MU
from coulombkit import quiver as Q
from coulombkit.cartan import KMWeight, named_gcm

ROUND_S = 0.62
MIN_ROUNDS = 3

FINITE = ["A3", "A4", "B3", "C3", "G2"]
SMALL = ["B3", "C3", "G2"]
AFFINE = ["A1~", "A2~", "A3~"]
# Weyl-dimension windows of the highest weights each role draws from; a cold
# query only fills the table below its own depth, so its window is wide
WINDOWS = {"sweep": (10, 64), "support": (5, 50), "small": (6, 30), "cold": (1, 10**6), "tensor": (3, 15)}
COLD_PER_TYPE = 2
QUERY_HEIGHT = 3  # height of lam - mu for the cold and fixed-point queries
SWEEP_QUERIES = 120


@lru_cache(maxsize=None)
def _dims(name: str) -> dict[tuple[int, ...], int]:
    """Weyl dimension of every nonzero dominant weight with coordinates <= 4
    (<= 5 in rank 2)."""
    a = O.CARTAN[name]
    top = 6 if len(a) == 2 else 5
    return {f: O.weyl_dimension(name, f) for f in product(range(top), repeat=len(a)) if any(f)}


def _cone(rank: int, height: int):
    """Non-negative integer vectors with 0 <= sum <= height, by height."""
    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for x in range(remaining + 1):
            yield from rec(prefix + (x,), remaining - x, slots - 1)

    for h in range(height + 1):
        yield from rec((), h, rank)


def _composition(rng: random.Random, rank: int, height: int) -> tuple[int, ...]:
    """A random non-negative vector of the given height: every cold query
    asks for a table filled to the same depth."""
    cuts = sorted(rng.randint(0, height) for _ in range(rank - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [height]))


def _depth(name: str, fund) -> int:
    """Height of lam - w0(lam): the whole support lies within it."""
    a = O.CARTAN[name]
    lowest = tuple(-x for x in O.dominant_conjugate(a, tuple(-x for x in fund)))
    coords = O.solve_q(a, [x - y for x, y in zip(fund, lowest)])
    return int(sum(coords))


def _check_weyl_invariant(name: str, mults: dict) -> None:
    """mult(s_i mu) == mult(mu) wherever both weights were computed."""
    a = O.CARTAN[name]
    for mu, m in mults.items():
        for i in range(len(a)):
            nu = O.simple_reflection(a, i, mu)
            if nu in mults:
                O.expect(mults[nu] == m, f"{name}: mult{mu} = {m} but mult{nu} = {mults[nu]}")


def _stratified(rng: random.Random, pool: list, count: int) -> list:
    """``count`` items from a cost-sorted pool, one from each of ``count``
    contiguous bins, in random order: every run draws the same spread of
    costs.  A pool shorter than ``count`` is used more than once."""
    if count <= 0:
        return []
    if len(pool) < count:
        picks = (pool * (count // len(pool) + 1))[:count]
    else:
        edges = [len(pool) * i // count for i in range(count + 1)]
        picks = [rng.choice(pool[edges[i]:edges[i + 1]]) for i in range(count)]
    rng.shuffle(picks)
    return picks


class Workload:
    def __init__(self, seed: int, rounds: int):
        self.seed = seed
        self.queries: list[tuple] = []  # module keys of explicit multiplicity queries, for the reuse share
        rng = random.Random(seed)
        taken: dict = {}  # matrix -> highest weights already planned, so no two roles share a table

        def plan(name, role, count, transpose=False):
            a = O.transpose(O.CARTAN[name]) if transpose else O.CARTAN[name]
            used = taken.setdefault(tuple(map(tuple, a)), set())
            lo, hi = WINDOWS[role]
            pool = [f for d, f in sorted((d, f) for f, d in _dims(name).items()) if lo <= d <= hi and f not in used]
            picks = _stratified(rng, pool, count)
            used.update(picks)
            return picks

        even, odd = (rounds + 1) // 2, rounds // 2
        per3 = [len(range(i, rounds, 3)) for i in range(3)]
        self.sweep = plan("A3", "sweep", rounds)
        self.support = plan("A4", "support", rounds)
        self.small = {t: plan(t, "small", n) for t, n in zip(SMALL, per3)}
        self.cold = {t: plan(t, "cold", COLD_PER_TYPE * rounds) for t in FINITE}
        self.fixed = {t: plan(t, "cold", rounds, transpose=True) for t in SMALL}
        self.affine = {
            t: _stratified(rng, sorted((f for f in product(range(3), repeat=len(O.CARTAN[t])) if 1 <= sum(f) <= 3),
                                       key=lambda f: (sum(f), f)), n)
            for t, n in zip(AFFINE[1:], (even, odd))
        }
        self.tensor = {}
        for i, t in enumerate(FINITE):
            lo, hi = WINDOWS["tensor"]
            pool = [f for f, d in _dims(t).items() if lo <= d <= hi]
            pairs = sorted(((p, q) for p in pool for q in pool), key=lambda pq: (_dims(t)[pq[0]] * _dims(t)[pq[1]], pq))
            count = 2 * len(range(i, rounds, 5))
            # the middle pair of each bin: the run's heaviest cases are the same for every seed
            self.tensor[t] = [pairs[len(pairs) * (2 * j + 1) // (2 * count)] for j in range(count)]
            rng.shuffle(self.tensor[t])

    def make_round(self, index: int) -> list[Case]:
        rng = random.Random(self.seed * 1_000_003 + index)
        small = SMALL[index % 3]
        tensor = FINITE[index % 5]
        cases: list[Case] = []
        cases += self._sweep("A3", self.sweep[index])
        cases.append(self._support("A4", self.support[index]))
        cases.append(self._support(small, self.small[small][index // 3]))
        for name in FINITE:
            for j in range(COLD_PER_TYPE):
                cases += self._cold(rng, name, self.cold[name][COLD_PER_TYPE * index + j])
        cases += [self._tensor(tensor, *pair) for pair in self.tensor[tensor][2 * (index // 5):2 * (index // 5) + 2]]
        cases += [self._fixed_point(rng, name, self.fixed[name][index]) for name in SMALL]
        cases.append(self._strata_finite(rng, FINITE[(index + 2) % 5]))
        cases += self._affine_basic(index)
        cases.append(self._affine_support(AFFINE[1 + index % 2], self.affine[AFFINE[1 + index % 2]][index // 2]))
        # two A3~ tables in every round: the run's tail percentile falls inside
        # this population of equal cases, whatever the seed draws
        cases += [self._peterson("A3~"), self._peterson("A3~"), self._peterson(AFFINE[index % 2])]
        cases.append(self._strata_affine(rng, AFFINE[1 + (index + 1) % 2]))
        return cases

    # ------------------------------------------------------------ finite type

    def _sweep(self, name: str, fund) -> list[Case]:
        """weight_multiplicity at lam - beta for the first SWEEP_QUERIES beta
        in height order: one highest weight, many queries.  When the sweep
        reaches the depth of the whole support, its sum is the Weyl dimension."""
        a, gcm = O.CARTAN[name], named_gcm(name)
        lam = KMWeight.of(fund)
        betas = list(_cone(len(a), _depth(name, fund)))
        complete = len(betas) <= SWEEP_QUERIES
        mus = [tuple(x - y for x, y in zip(fund, O.root_combination(a, beta))) for beta in betas[:SWEEP_QUERIES]]
        got: dict = {}

        def case(mu, last: bool) -> Case:
            def check(m):
                got[mu] = m
                O.expect((m > 0) == O.is_weight_of(a, fund, mu), f"{name}{fund}: support membership of {mu}")
                if last and complete:
                    O.expect(sum(got.values()) == O.weyl_dimension(name, fund), f"{name}{fund}: sweep sum != Weyl dimension")
                if last:
                    _check_weyl_invariant(name, got)
            self.queries.append((name, fund, 0))
            return Case("weight_multiplicity", lambda: MU.weight_multiplicity(gcm, lam, KMWeight.of(mu)), check)

        return [case(mu, i == len(mus) - 1) for i, mu in enumerate(mus)]

    def _support(self, name: str, fund) -> Case:
        gcm = named_gcm(name)

        def check(pairs):
            mults = {mu.fund: m for mu, m in pairs}
            O.expect(len(mults) == len(pairs), "repeated weight in the support")
            O.expect(sum(mults.values()) == O.weyl_dimension(name, fund), f"{name}{fund}: support sum != Weyl dimension")
            _check_weyl_invariant(name, mults)

        self.queries.append((name, fund, 0))
        return Case("weight_support", lambda: MU.weight_support(gcm, KMWeight.of(fund)), check)

    def _cold(self, rng, name: str, fund) -> list[Case]:
        """One fresh highest weight queried at a weight and at its reflection."""
        a, gcm = O.CARTAN[name], named_gcm(name)
        beta = _composition(rng, len(a), QUERY_HEIGHT)
        mu = tuple(x - y for x, y in zip(fund, O.root_combination(a, beta)))
        nu = O.simple_reflection(a, rng.randrange(len(a)), mu)
        seen: list = []

        def check(m, weight):
            O.expect((m > 0) == O.is_weight_of(a, fund, weight), f"{name}{fund}: support membership of {weight}")
            seen.append(m)
            O.expect(len(seen) < 2 or seen[0] == seen[1], f"{name}{fund}: mult{mu} != mult{nu}")

        self.queries += [(name, fund, 0)] * 2
        lam = KMWeight.of(fund)
        return [
            Case("weight_multiplicity", lambda: MU.weight_multiplicity(gcm, lam, KMWeight.of(mu)), lambda m: check(m, mu)),
            Case("weight_multiplicity", lambda: MU.weight_multiplicity(gcm, lam, KMWeight.of(nu)), lambda m: check(m, nu)),
        ]

    def _tensor(self, name: str, l1, l2) -> Case:
        gcm, a = named_gcm(name), O.CARTAN[name]

        def check(comps):
            total = sum(m * O.weyl_dimension(name, nu.fund) for nu, m in comps.items())
            O.expect(total == O.weyl_dimension(name, l1) * O.weyl_dimension(name, l2), "sum of mult * dim != dim * dim")
            top = tuple(x + y for x, y in zip(l1, l2))
            O.expect(comps.get(KMWeight.of(top)) == 1, "the top component is missing or repeated")
            O.expect(all(min(nu.fund) >= 0 and O.in_root_cone(a, [x - y for x, y in zip(top, nu.fund)])
                         for nu in comps), "a component is not dominant below lam1 + lam2")

        return Case("tensor_decompose", lambda: MU.tensor_decompose(gcm, KMWeight.of(l1), KMWeight.of(l2)), check)

    def _fixed_point(self, rng, name: str, fund) -> Case:
        gcm = named_gcm(name)
        dual = O.transpose(O.CARTAN[name])
        beta = _composition(rng, len(dual), QUERY_HEIGHT)
        mu = tuple(x - y for x, y in zip(fund, O.root_combination(dual, beta)))
        mu = O.simple_reflection(dual, rng.randrange(len(dual)), mu)

        def check(nonempty):
            O.expect(nonempty == O.is_weight_of(dual, fund, mu), f"{name}: fixed point of ({fund}, {mu})")

        return Case("fixed_point_nonempty", lambda: Q.fixed_point_nonempty(gcm, KMWeight.of(fund), KMWeight.of(mu)), check)

    def _strata_finite(self, rng, name: str) -> Case:
        a, gcm = O.CARTAN[name], named_gcm(name)
        fund = tuple(rng.randint(0, 3) for _ in a)
        low = tuple(rng.randint(0, 2) for _ in a)
        mu = tuple(x - y for x, y in zip(fund, O.root_combination(a, low)))
        want = set()
        for u in product(*[range(x + 1) for x in low]):
            kappa = tuple(x - y for x, y in zip(fund, O.root_combination(a, u)))
            if min(kappa) >= 0:
                want.add(kappa)

        def check(strata):
            got = [k.fund for k in strata]
            O.expect(len(got) == len(set(got)) and set(got) == want, f"{name}: strata between {fund} and {mu}")

        return Case("strata_finite", lambda: Q.strata_finite(gcm, KMWeight.of(fund), KMWeight.of(mu)), check)

    # ------------------------------------------------------------ affine type

    def _affine_basic(self, index: int) -> list[Case]:
        """Multiplicities of the A1~ basic module V(Lambda_0 + k delta) at
        lam - n delta are the partition numbers p(n); k is fresh per round."""
        gcm = named_gcm("A1~")
        k = index
        lam = KMWeight.of((1, 0), k)
        self.queries += [("A1~", (1, 0), k)] * 8

        def case(n):
            def check(m):
                O.expect(m == O.partition_number(n), f"A1~ basic module: mult at lam - {n} delta = {m} != p({n})")
            return Case("weight_multiplicity", lambda: MU.weight_multiplicity(gcm, lam, KMWeight.of((1, 0), k - n)), check)

        return [case(n) for n in range(1, 9)]

    def _affine_support(self, name: str, fund) -> Case:
        gcm = named_gcm(name)
        self.queries.append((name, fund, 0))
        depth = 3

        def check(pairs):
            mults = {(mu.fund, mu.delta): m for mu, m in pairs}
            O.expect(len(mults) == len(pairs) and all(m > 0 for m in mults.values()), "bad affine support")
            O.expect(mults.get((fund, 0)) == 1, "highest weight missing")
            level = sum(fund)
            O.expect(all(sum(f) == level for f, _ in mults), "a weight has another level than lam")

        return Case("weight_support", lambda: MU.weight_support(gcm, KMWeight.of(fund), depth), check)

    def _peterson(self, name: str) -> Case:
        a, gcm = O.CARTAN[name], named_gcm(name)
        n = len(a)
        height = {1: 14, 2: 10, 3: 9}[n - 1]
        want = {}
        for beta in _cone(n, height):
            if not any(beta):
                continue
            norm = sum(a[i][j] * beta[i] * beta[j] for i in range(n) for j in range(n))
            if norm == 2:
                want[beta] = 1
            elif norm == 0 and len(set(beta)) == 1:  # k * delta, delta = (1, ..., 1)
                want[beta] = n - 1

        def check(table):
            O.expect(table.multiplicities == want, f"{name}: root multiplicities up to height {height}")

        return Case("root_multiplicities", lambda: MU.root_multiplicities(gcm, height), check)

    def _strata_affine(self, rng, name: str) -> Case:
        a, gcm = O.CARTAN[name], named_gcm(name)
        fund = tuple(rng.randint(0, 1) for _ in a)
        if not any(fund):
            fund = (1,) + fund[1:]
        low = tuple(rng.randint(0, 1) for _ in a)
        mu = KMWeight.of(tuple(x - y for x, y in zip(fund, O.root_combination(a, low))), -rng.randint(1, 2))
        bound = 2

        def check(strata):
            sizes: dict = {}
            for kappa, part in strata:
                O.expect(list(part) == sorted(part, reverse=True) and all(p > 0 for p in part), "not a partition")
                O.expect(min(kappa.fund) >= 0 and sum(kappa.fund) == sum(fund), "kappa is not dominant of the same level")
                sizes.setdefault(sum(part), {}).setdefault(part, []).append((kappa.fund, kappa.delta))
            for s, parts in sizes.items():
                O.expect(s <= bound and len(parts) == O.partition_number(s), f"partitions of {s} missing")
                first = sorted(next(iter(parts.values())))
                O.expect(all(sorted(v) == first for v in parts.values()), "strata differ between partitions of one size")

        return Case("strata_affine", lambda: Q.strata_affine(gcm, KMWeight.of(fund), mu, bound), check)
