"""JSON encoding and decoding of library values for the CLI and fixtures.

All maps and lists are emitted in deterministic order; rational numbers are
strings like "3/2" so round-trips stay exact.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm

from .abelian import AbelianTheory
from .cartan import GeneralizedCartanMatrix, KMWeight, named_gcm, validate_and_symmetrize
from .difference_ops import DifferenceOperator
from .errors import DimensionError, DomainError
from .higgs import GradedDimensionTable
from .lattices import IntMatrix, as_integers
from .monopole import CoulombElement
from .polynomial import Polynomial
from .quiver import DimVectors, Quiver


def fraction_str(q) -> str:
    """An int or a Fraction as "n" or "n/d"."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


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

def _poly_to_json(poly: Polynomial, nvars: int) -> list:
    """Terms of a polynomial sorted by exponents; only the first ``nvars``
    exponents are written, so elements leave out hbar, the last variable."""
    den = poly.den
    out = []
    for monom, c in sorted(poly.num.items()):
        g = gcd(c, den)
        coeff = str(c // den) if g == den else f"{c // g}/{den // g}"
        out.append({"coeff": coeff, "powers": list(monom[:nvars])})
    return out


_COEFF = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # the schemas' coefficient pattern, read as two ints


def _poly_from_json(terms, rank: int, path) -> Polynomial:
    """An element's polynomial: ``rank`` exponents per term, and hbar, the last variable, at 0."""
    read = []
    for i, t in enumerate(terms):
        if len(t["powers"]) != rank:
            raise DimensionError(
                f"{path}/{i}/powers: {len(t['powers'])} exponents for {rank} generators"
            )
        try:
            if isinstance(c := t["coeff"], str) and (m := _COEFF.fullmatch(c)) and (d := int(m[2] or 1)):
                num = int(m[1])
            else:  # "1.5", " 2" or "1\n" is read, and a zero denominator refused, by Fraction as before
                num, d = (q := Fraction(c)).numerator, q.denominator
        except ZeroDivisionError:
            raise DomainError(f"{path}/{i}/coeff: zero denominator in {t['coeff']!r}") from None
        except ValueError:  # also raised past the interpreter's limit on int <-> str digits
            raise DomainError(
                f"{path}/{i}/coeff: not a fraction of integers of at most "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
        monom = as_integers(t["powers"], "exponent") + (0,)
        if min(monom, default=0) < 0:
            raise DomainError(f"{path}/{i}/powers: negative exponent in {t['powers']}")
        read.append((monom, num, d))
    den = lcm(*(d for _, _, d in read))  # the numerators are summed over one common denominator
    nums: dict[tuple, int] = {}
    for monom, num, d in read:
        nums[monom] = nums.get(monom, 0) + num * (den // d)
    return Polynomial.make(nums, den)


def _to_json(value, with_hbar: bool) -> dict:
    nvars = value.rank + with_hbar
    return {
        "rank": value.rank,
        "terms": [
            {"coweight": list(lam), "poly": _poly_to_json(poly, nvars)} for lam, poly in value.polys
        ],
    }


# ---------------------------------------------------------------- elements

def element_to_json(a: CoulombElement) -> dict:
    return _to_json(a, with_hbar=False)


def element_from_json(doc) -> CoulombElement:
    (rank,) = as_integers((doc["rank"],), "rank")
    terms = []
    for j, t in enumerate(doc["terms"]):
        # checked before any exponent tuple of an unbounded rank is built
        if len(t["coweight"]) != rank:
            raise DimensionError(f"/terms/{j}/coweight: {len(t['coweight'])} entries for rank {rank}")
        terms.append((tuple(t["coweight"]), _poly_from_json(t["poly"], rank, f"/terms/{j}/poly")))
    return CoulombElement.from_terms(rank, terms)


def operator_to_json(op: DifferenceOperator) -> dict:
    return _to_json(op, with_hbar=True)


# ---------------------------------------------------------------- theories

def theory_from_json(doc) -> AbelianTheory:
    return AbelianTheory.of(*as_integers((doc["rank"],), "rank"), doc.get("characters", []))


def quiver_from_json(doc) -> tuple[Quiver, DimVectors]:
    (n,) = as_integers((doc["vertices"],), "vertex count")
    if n > sys.maxsize:  # the default dimension vectors are lists of n zeros
        raise DomainError(f"/vertices: {n} vertices are more than a list can index")
    q = Quiver.of(n, doc.get("edges", []))
    d = DimVectors.of(doc.get("v", [0] * q.vertices), doc.get("w", [0] * q.vertices))
    return q, d


def matrix_from_json(doc) -> IntMatrix:
    if isinstance(doc, dict):
        doc = doc["matrix"]
    return IntMatrix.from_rows(doc)


# ---------------------------------------------------------------- tables

def table_to_json(table: GradedDimensionTable) -> list:
    return [[fraction_str(deg), dim] for deg, dim in sorted(table.items())]
