"""The symbolic API, the one module that imports sympy: ``from_expr`` reads the
sympy expressions that ``from_terms`` accepts, ``as_expr`` builds the values
that ``.terms`` and ``shift_polynomial`` return, and ``w_vars``, ``HBAR`` and
the helpers below return sympy values.  Other modules import this one only
inside functions, so importing the package, any computing module or the CLI
leaves sympy unloaded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import add, mul

import sympy
from sympy.polys.domains import QQ
from sympy.polys.polyerrors import CoercionFailed

from .abelian import AbelianTheory
from .errors import DomainError
from .higgs import HiggsTheory
from .lattices import as_integers
from .monopole import CoulombElement, classical_product
from .polynomial import Polynomial

HBAR = sympy.Symbol("hbar")


@lru_cache(maxsize=32)
def w_vars(rank: int) -> tuple[sympy.Symbol, ...]:
    """Equivariant parameters w_1 .. w_rank."""
    return sympy.symbols(f"w1:{rank + 1}")


@lru_cache(maxsize=32)
def _generators(rank: int) -> dict[sympy.Symbol, Polynomial]:
    """w_1 .. w_rank and hbar, each as a sympy symbol and as a polynomial."""
    gens = w_vars(rank) + (HBAR,)
    return {g: Polynomial.variable(rank + 1, j) for j, g in enumerate(gens)}


def from_expr(rank: int, value) -> Polynomial:
    """``value``, a polynomial sympy expression, as a polynomial in
    w_1 .. w_rank, hbar: rebuilt from its sums, products and integer powers of
    the generators, with every other leaf a rational constant, as sympy's
    ``PolyRing.from_expr`` reads it.  Strings are never parsed."""
    mapping = _generators(rank)

    def rebuild(expr) -> Polynomial:
        generator = mapping.get(expr)
        if generator is not None:
            return generator
        if expr.is_Add:
            return reduce(add, map(rebuild, expr.args))
        if expr.is_Mul:
            return reduce(mul, map(rebuild, expr.args))
        base, exp = expr.as_base_exp()
        if exp.is_Integer and exp > 1:
            return rebuild(base) ** int(exp)
        q = QQ.convert(expr)
        return Polynomial.constant(rank + 1, Fraction(int(q.numerator), int(q.denominator)))

    try:
        expr = sympy.sympify(value, strict=True)
        if isinstance(expr, sympy.Expr):
            return rebuild(expr)
    except (ValueError, TypeError, sympy.SympifyError, CoercionFailed):
        pass
    gens = ", ".join(map(str, mapping))
    raise DomainError(f"{value} is not a polynomial in {gens}")


def as_expr(rank: int, p: Polynomial) -> sympy.Expr:
    """``p`` as a sympy expression in w_1 .. w_rank, hbar: the Add of one Mul
    per term that sympy's ``PolyElement.as_expr`` builds."""
    gens = tuple(_generators(rank))
    return sympy.Add(*[
        sympy.Mul(sympy.Rational(c, p.den), *[sympy.Pow(g, e) for g, e in zip(gens, m) if e])
        for m, c in p.num.items()
    ])


def birationality_witness(th: AbelianTheory, lam) -> sympy.Expr:
    """r^lam * r^{-lam} = prod_i <rho_i, w>^{|<rho_i, lam>|}, a nonzero
    polynomial: every monopole class is invertible after inverting the w's."""
    lam = as_integers(lam, "coweight")
    up, down = (CoulombElement.monopole(th.rank, nu) for nu in (lam, tuple(-x for x in lam)))
    ((_, coeff),) = classical_product(th, up, down).polys
    return as_expr(th.rank, coeff)


def higgs_variables(n: int) -> tuple[tuple[sympy.Symbol, ...], tuple[sympy.Symbol, ...]]:
    """The hypermultiplet coordinates x_1 .. x_n and y_1 .. y_n."""
    return sympy.symbols(f"x1:{n + 1}"), sympy.symbols(f"y1:{n + 1}")


def moment_ideal_generators(th: HiggsTheory) -> list[sympy.Expr]:
    """One generator per torus factor: mu_j = sum_i B_ij x_i y_i."""
    xs, ys = higgs_variables(th.n)
    return [sympy.Add(*[th.charges[i][j] * xs[i] * ys[i] for i in range(th.n)]) for j in range(th.m)]
