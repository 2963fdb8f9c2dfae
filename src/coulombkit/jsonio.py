"""JSON encoding and decoding of library values for the CLI and fixtures.

All maps and lists are emitted in deterministic order; rational numbers are
strings like "3/2" so round-trips stay exact.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

from .cartan import GeneralizedCartanMatrix, KMWeight, NAMED_CARTAN_MATRICES, named_gcm, validate_and_symmetrize
from .difference_ops import HBAR, DifferenceOperator, w_vars
from .errors import DimensionError, DomainError
from .higgs import GradedDimensionTable
from .lattices import IntMatrix
from .monopole import AbelianTheory, CoulombElement
from .quiver import DimVectors, Quiver


def fraction_str(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_fraction(s) -> Fraction:
    return Fraction(s)


# ---------------------------------------------------------------- weights

def weight_to_json(w: KMWeight) -> dict:
    doc = {"fund": list(w.fund)}
    if w.delta:
        doc["delta"] = w.delta
    return doc


def weight_from_json(doc) -> KMWeight:
    if isinstance(doc, list):
        return KMWeight.of(doc)
    return KMWeight.of(doc["fund"], doc.get("delta", 0))


# ---------------------------------------------------------------- Cartan data

def gcm_from_json(doc) -> GeneralizedCartanMatrix:
    if isinstance(doc, str):
        return named_gcm(doc)
    if isinstance(doc, dict):
        doc = doc["matrix"]
    return validate_and_symmetrize(doc)


def gcm_to_json(gcm: GeneralizedCartanMatrix) -> dict:
    return {
        "matrix": [list(r) for r in gcm.entries],
        "symmetrizers": list(gcm.d),
        "tag": gcm.tag,
    }


# ---------------------------------------------------------------- polynomials

def _poly_to_json(expr, gens) -> list:
    expr = sympy.expand(sympy.sympify(expr))
    if not gens:
        return [{"coeff": fraction_str(Fraction(str(expr))), "powers": []}] if expr != 0 else []
    poly = sympy.Poly(expr, *gens)
    out = []
    for powers, coeff in sorted(poly.terms(), key=lambda t: t[0]):
        out.append({"coeff": fraction_str(Fraction(str(sympy.Rational(coeff)))), "powers": list(powers)})
    return out


def _poly_from_json(terms, gens, path):
    expr = sympy.Integer(0)
    for i, t in enumerate(terms):
        if len(t["powers"]) != len(gens):
            raise DimensionError(
                f"{path}/{i}/powers: {len(t['powers'])} exponents for {len(gens)} generators"
            )
        try:
            coeff = sympy.Rational(t["coeff"])
        except ZeroDivisionError:
            raise DomainError(f"{path}/{i}/coeff: zero denominator in {t['coeff']!r}") from None
        mono = sympy.Integer(1)
        for g, p in zip(gens, t["powers"]):
            mono *= g ** int(p)
        expr += coeff * mono
    return sympy.expand(expr)


# ---------------------------------------------------------------- elements

def element_to_json(a: CoulombElement) -> dict:
    gens = w_vars(a.rank)
    return {
        "rank": a.rank,
        "terms": [
            {"coweight": list(lam), "poly": _poly_to_json(poly, gens)}
            for lam, poly in a.terms
        ],
    }


def element_from_json(doc) -> CoulombElement:
    rank = int(doc["rank"])
    gens = w_vars(rank)
    terms = [
        (tuple(t["coweight"]), _poly_from_json(t["poly"], gens, f"/terms/{j}/poly"))
        for j, t in enumerate(doc["terms"])
    ]
    return CoulombElement.from_terms(rank, terms)


def operator_to_json(op: DifferenceOperator) -> dict:
    gens = w_vars(op.rank) + (HBAR,)
    return {
        "rank": op.rank,
        "terms": [
            {"coweight": list(lam), "poly": _poly_to_json(poly, gens)}
            for lam, poly in op.terms
        ],
    }


def operator_from_json(doc) -> DifferenceOperator:
    rank = int(doc["rank"])
    gens = w_vars(rank) + (HBAR,)
    terms = [
        (tuple(t["coweight"]), _poly_from_json(t["poly"], gens, f"/terms/{j}/poly"))
        for j, t in enumerate(doc["terms"])
    ]
    return DifferenceOperator.from_terms(rank, terms)


# ---------------------------------------------------------------- theories

def theory_from_json(doc) -> AbelianTheory:
    return AbelianTheory.of(int(doc["rank"]), doc.get("characters", []))


def theory_to_json(th: AbelianTheory) -> dict:
    return {"rank": th.rank, "characters": [list(c) for c in th.characters]}


def quiver_from_json(doc) -> tuple[Quiver, DimVectors]:
    q = Quiver.of(int(doc["vertices"]), doc.get("edges", []))
    d = DimVectors.of(doc.get("v", [0] * q.vertices), doc.get("w", [0] * q.vertices))
    return q, d


def matrix_from_json(doc) -> IntMatrix:
    if isinstance(doc, dict):
        doc = doc["matrix"]
    return IntMatrix.from_rows(doc)


# ---------------------------------------------------------------- tables

def table_to_json(table: GradedDimensionTable) -> list:
    return [[fraction_str(deg), dim] for deg, dim in sorted(table.items())]


def dims_to_table(dims: list[int]) -> GradedDimensionTable:
    return {Fraction(i, 2): d for i, d in enumerate(dims)}
