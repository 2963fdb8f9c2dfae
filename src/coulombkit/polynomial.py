"""Sparse polynomials with exact rational coefficients, in pure Python.

A polynomial in the variables w_1 .. w_rank, hbar is a dict from exponent
tuples (one exponent per variable, hbar last) to integer numerators, over one
positive common denominator.  It is kept canonical: no zero numerators, and
gcd(denominator, numerators) = 1, so ``==`` and ``hash`` are structural.  An
integer polynomial has denominator 1 and never computes a gcd.  Values are
immutable: every operation returns a new polynomial.  ``str`` prints the
polynomial in the variables w1 .. w_rank, hbar, as the CLI's ``"result"``
strings show it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import add

from .cancel import check
from .errors import DomainError, LiftError

Monomial = tuple[int, ...]

_CHECK_EVERY = 1024  # steps of a shift, term pairs of a product or printed terms between two deadline checks


class Polynomial:
    """sum_m (num[m] / den) * w^m over exponent tuples m, hbar the last entry."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict[Monomial, int], den: int = 1):
        """``num`` and ``den`` must already be canonical; ``make`` normalizes."""
        self.num = num
        self.den = den

    @staticmethod
    def make(num: dict[Monomial, int], den: int = 1) -> "Polynomial":
        """The canonical polynomial num / den: zeros dropped, the sign in the
        numerators, the common factor of den and the numerators cancelled."""
        if not all(num.values()):
            num = {m: c for m, c in num.items() if c}
        if den < 0:
            num, den = {m: -c for m, c in num.items()}, -den
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num, den = {m: c // g for m, c in num.items()}, den // g
        return Polynomial(num, den)

    @staticmethod
    def constant(nvars: int, q) -> "Polynomial":
        """The constant ``q`` (an int or a Fraction) in ``nvars`` variables."""
        return Polynomial({(0,) * nvars: q.numerator} if q else {}, q.denominator)

    @staticmethod
    def variable(nvars: int, j: int) -> "Polynomial":
        return Polynomial({tuple(int(i == j) for i in range(nvars)): 1})

    @staticmethod
    def from_fractions(coeffs: dict[Monomial, Fraction]) -> "Polynomial":
        den = lcm(*(q.denominator for q in coeffs.values()))
        return Polynomial.make({m: q.numerator * (den // q.denominator) for m, q in coeffs.items()}, den)

    def __len__(self) -> int:
        return len(self.num)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((frozenset(self.num.items()), self.den))

    def __repr__(self) -> str:
        return f"Polynomial({self.num!r}, {self.den})"

    def __str__(self) -> str:
        """The text of the polynomial in w1 .. w_rank, hbar (names from the
        exponent-tuple length), e.g. ``2*w1**2*w2**3/3 - w1/2 + 1/3``.

        The generators are ordered by name (hbar, w1, w10, w11, w2, ...) and the
        terms by their exponents in that order, descending lex, with one
        exception: of two terms, a positive constant and a negative multiple of
        one variable's power, the constant comes first (``4 - 2*w1``).  The
        deadline is checked every ``_CHECK_EVERY`` terms."""
        if not self.num:
            return "0"
        nvars = len(next(iter(self.num)))
        names = [f"w{j}" for j in range(1, nvars)] + ["hbar"]
        order = sorted(range(nvars), key=names.__getitem__)
        terms = sorted(self.num.items(), key=lambda t: [t[0][j] for j in order], reverse=True)
        if len(terms) == 2:
            (m, c), (m0, c0) = terms
            if not any(m0) and c0 > 0 > c and sum(map(bool, m)) == 1:
                terms.reverse()
        out = []
        for i, (m, c) in enumerate(terms, 1):
            if not i % _CHECK_EVERY:
                check()
            g = gcd(c, self.den)
            n, d = abs(c) // g, self.den // g
            factors = [names[j] if m[j] == 1 else f"{names[j]}**{m[j]}" for j in order if m[j]]
            text = "*".join(([] if n == 1 and factors else [str(n)]) + factors) + (f"/{d}" if d != 1 else "")
            out.append(("- " if c < 0 else "+ ") + text)
        joined = " ".join(out)  # "+ a - b ...": the leading sign is written only when it is "-"
        return joined[2:] if joined[0] == "+" else "-" + joined[2:]

    # ------------------------------------------------------------ ring operations

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.num.items()}, self.den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not other.num:
            return self
        if not self.num:
            return other
        da, db = self.den, other.den
        if da == db:
            out = dict(self.num)
            for m, c in other.num.items():
                out[m] = out.get(m, 0) + c
            return Polynomial.make(out, da)
        den = lcm(da, db)
        fa, fb = den // da, den // db
        out = {m: c * fa for m, c in self.num.items()}
        for m, c in other.num.items():
            out[m] = out.get(m, 0) + c * fb
        return Polynomial.make(out, den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """The product; the deadline is checked once per term of ``self`` when
        there are at least ``_CHECK_EVERY`` term pairs."""
        out: dict[Monomial, int] = {}
        get = out.get
        checked = len(self.num) * len(other.num) >= _CHECK_EVERY
        for ma, ca in self.num.items():
            if checked:
                check()
            for mb, cb in other.num.items():
                m = tuple(map(add, ma, mb))
                out[m] = get(m, 0) + ca * cb
        return Polynomial.make(out, self.den * other.den)

    def __pow__(self, k: int) -> "Polynomial":
        """``self`` to the power k >= 1, by repeated squaring."""
        if k < 1:
            raise DomainError(f"a polynomial power must be at least 1, got {k}")
        result, base = None, self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def derivative(self, v) -> "Polynomial":
        """The directional derivative sum_j v_j dp/dx_j, v read as 0 past its length."""
        out: dict[Monomial, int] = {}
        for m, c in self.num.items():
            for j, l in enumerate(v):
                if l and m[j]:
                    key = m[:j] + (m[j] - 1,) + m[j + 1:]
                    out[key] = out.get(key, 0) + c * l * m[j]
        return Polynomial.make(out, self.den)

    # ------------------------------------------------------------ the shift and hbar

    def shift(self, lam) -> "Polynomial":
        """p(w + hbar * lam, hbar), monomial by monomial by the binomial theorem:
        w_j^a -> sum_k C(a, k) lam_j^k w_j^(a - k) hbar^k.  The shift and its
        inverse have integer matrices, so the numerators keep their gcd.  The
        deadline is checked every ``_CHECK_EVERY`` steps inside a monomial too,
        so one high power is cancellable."""
        moved = [(j, l) for j, l in enumerate(lam) if l]
        if not moved:
            return self
        out: dict[Monomial, int] = {}
        for monom, coeff in self.num.items():
            check()
            rows = [_binomial_row(j, a, l) for j, l in moved if (a := monom[j])]
            for i, choice in enumerate(product(*rows), 1):
                if not i % _CHECK_EVERY:
                    check()
                m, factor = list(monom), coeff
                for j, k, b in choice:
                    m[j] -= k
                    m[-1] += k
                    factor *= b
                m = tuple(m)
                out[m] = out.get(m, 0) + factor
        return Polynomial.make(out, self.den)

    def hbar_degree(self) -> int:
        """The degree in hbar; -1 for the zero polynomial."""
        return max((m[-1] for m in self.num), default=-1)

    def hbar_coefficient(self, k: int) -> "Polynomial":
        """The coefficient of hbar^k, a polynomial without hbar."""
        return Polynomial.make({m[:-1] + (0,): c for m, c in self.num.items() if m[-1] == k}, self.den)

    def at_hbar(self, value: "Polynomial") -> "Polynomial":
        """p(w, value) by Horner's rule over the hbar-degree pieces p_d(w) of p."""
        pieces: dict[int, dict[Monomial, int]] = {}
        for m, c in self.num.items():
            pieces.setdefault(m[-1], {})[m[:-1] + (0,)] = c
        acc = Polynomial({})
        for d in range(max(pieces, default=-1), -1, -1):
            acc = acc * value + Polynomial.make(pieces.get(d, {}), self.den)
        return acc

    # ------------------------------------------------------------ exact division

    def divide_linear(self, form: "Polynomial") -> "Polynomial":
        """The quotient p / form for a nonzero linear form sum_j c_j x_j; a
        nonzero remainder raises LiftError.

        With x the form's first variable, form = (c x + rest) / d and
        p = sum_k p_k x^k / den (p_k integer and free of x, K the top degree),
        the quotient is sum_k q_k x^k * d / den with c q_(k-1) = p_k - rest q_k.
        In integers Q_k = c^(K-k) q_k: Q_(k-1) = c^(K-k) p_k - rest Q_k from
        Q_K = 0 down, and c^K p_0 - rest Q_0 is the remainder."""
        x = min(m.index(1) for m in form.num)
        (c,) = (a for m, a in form.num.items() if m[x])
        rest = [(m, a) for m, a in form.num.items() if not m[x]]
        pieces: dict[int, dict[Monomial, int]] = {}
        for m, v in self.num.items():
            pieces.setdefault(m[x], {})[m[:x] + (0,) + m[x + 1:]] = v
        top = max(pieces, default=0)
        quotient: dict[Monomial, int] = {}  # over c^top
        q: dict[Monomial, int] = {}
        for k in range(top, -1, -1):
            scale = c ** (top - k)
            nxt = {m: v * scale for m, v in pieces.get(k, {}).items()}
            for m, v in q.items():
                for mr, a in rest:
                    key = tuple(map(add, m, mr))
                    nxt[key] = nxt.get(key, 0) - a * v
            q = {m: v for m, v in nxt.items() if v}
            if not k:
                if q:
                    raise LiftError("the polynomial is not divisible by the linear form")
                break
            f = c ** (k - 1)
            for m, v in q.items():
                quotient[m[:x] + (k - 1,) + m[x + 1:]] = v * f
        return Polynomial.make({m: v * form.den for m, v in quotient.items()}, self.den * c**top)


def _binomial_row(j: int, a: int, l: int) -> list[tuple[int, int, int]]:
    """(j, k, C(a, k) l^k) for k = 0 .. a, each entry from the one before:
    C(a, k + 1) l^(k + 1) = C(a, k) l^k (a - k) l / (k + 1), a division that is exact."""
    row, b = [], 1
    for k in range(a + 1):
        if not (k + 1) % _CHECK_EVERY:
            check()
        row.append((j, k, b))
        b = b * (a - k) * l // (k + 1)
    return row
