"""hypertoric-duality: Coulomb/Higgs graded-dimension comparisons.

Each round runs ``coulomb_higgs_compare`` once per entry of a fixed schedule
of shapes (rows n, columns k, degree); the seed picks a distinct saturated
charge matrix for each.  Every output is checked against the Koszul count
(1 - t)^m * #(weight-zero monomials), which this module computes itself
from the dual charges after checking that they span ker(A^T) saturatedly.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import bench_oracles as O
from bench_harness import Case

from coulombkit import higgs, lattices
from coulombkit.lattices import IntMatrix

ROUND_S = 2.8
MIN_ROUNDS = 3

# (rows n, columns k, max degree, target size).  Rank-3 matrices come in the
# normal form whose first rows are the identity: a change of basis of the
# gauge torus brings any A with a unimodular 3 x 3 minor to it without
# changing the theory, and it keeps the Coulomb side's coweight search at its
# smallest box (the README gives the cost of other bases).  A case's cost
# follows the number of top-degree weight-zero monomials (the Higgs side's
# largest linear-algebra problem), so each shape takes the candidate whose
# number is nearest the shape's target: every seed then asks for nearly the
# same work, and the last four shapes, the run's tail, cost about the same.
SHAPES = [
    (3, 1, 4, 21), (4, 2, 3, 28), (3, 2, 4, 57), (5, 1, 3, 35), (5, 2, 3, 45),
    (4, 2, 4, 105), (4, 2, 4, 105), (5, 3, 3, 165), (4, 3, 3, 260),
]
ENTRIES = (-2, -1, -1, 0, 0, 1, 1, 2)
CANDIDATES = 9
REPEAT_AFTER = 2000  # draws without a new matrix before one may repeat


def _saturated(rows) -> bool:
    return O.rank_q(rows) == len(rows[0]) and O.maximal_minor_gcd(rows) == 1


def _higgs_size(rows, deg: int) -> int:
    """Weight-zero monomials of the top degree: the size of the Higgs side's
    largest linear-algebra problem."""
    kernel = O.kernel_q([list(c) for c in zip(*rows)])
    charges = [list(r) for r in zip(*kernel)]
    return O.weight_zero_counts(charges, 2 * deg)[-1]


class Workload:
    def __init__(self, seed: int, rounds: int):
        self.seed = seed
        self.seen: set = set()

    def _candidate(self, rng: random.Random, n: int, k: int):
        for attempt in itertools.count():
            if k == 3:
                rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1)) + tuple(
                    tuple(rng.choice((-1, 0, 1)) for _ in range(k)) for _ in range(n - k))
            else:
                rows = tuple(tuple(rng.choice(ENTRIES) for _ in range(k)) for _ in range(n))
            # a long run can use up a shape's distinct matrices ((4, 3, 3) has
            # 26); after that, repeats are allowed and find sympy's cache warm
            if any(not any(r) for r in rows) or (rows in self.seen and attempt < REPEAT_AFTER) or not _saturated(rows):
                continue
            return rows

    def _matrix(self, rng: random.Random, n: int, k: int, deg: int, target: int):
        """Of a few distinct candidates, the one whose size is nearest the
        target (the first drawn among equals)."""
        cands = []
        while len(cands) < CANDIDATES:
            rows = self._candidate(rng, n, k)
            if rows not in cands:
                cands.append(rows)
        rows = min(cands, key=lambda c: abs(_higgs_size(c, deg) - target))
        self.seen.add(rows)
        return rows

    def make_round(self, index: int) -> list[Case]:
        rng = random.Random(self.seed * 1_000_003 + index)
        return [self._case(self._matrix(rng, n, k, deg, target), deg) for n, k, deg, target in SHAPES]

    @staticmethod
    def _case(rows, deg: int) -> Case:
        a = IntMatrix(rows)

        def check(out):
            b, report = out
            brows = [list(r) for r in b.entries]
            n, k = len(rows), len(rows[0])
            O.expect(b.nrows == n and b.ncols == n - k, "dual sequence has the wrong shape")
            O.expect(all(sum(rows[i][j] * brows[i][c] for i in range(n)) == 0
                         for j in range(k) for c in range(n - k)), "A^T * dual_sequence(A) != 0")
            O.expect(n - k == 0 or O.maximal_minor_gcd(brows) == 1, "Smith diagonal of the dual is not all ones")
            O.expect(report.verdict, "verdict is false")
            want = O.koszul_table(brows, 2 * deg)
            for name, table in (("coulomb", report.coulomb), ("higgs", report.higgs)):
                got = [table.get(Fraction(t, 2), 0) for t in range(2 * deg + 1)]
                O.expect(got == want, f"{name} table {got} differs from the Koszul count {want}")

        return Case("coulomb_higgs_compare", lambda: (lattices.dual_sequence(a), higgs.coulomb_higgs_compare(a, deg)), check)
