"""Round-trip and determinism checks for the JSON encodings."""

import json
from fractions import Fraction

import pytest
import sympy

from coulombkit import jsonio
from coulombkit.cartan import KMWeight, named_gcm
from coulombkit.difference_ops import DifferenceOperator
from coulombkit.errors import DomainError
from coulombkit.higgs import dims_to_table
from coulombkit.monopole import CoulombElement
from coulombkit.symbolic import HBAR, w_vars


def test_fraction_strings():
    assert jsonio.fraction_str(Fraction(3, 2)) == "3/2"
    assert jsonio.fraction_str(Fraction(4, 2)) == "2"
    assert jsonio.fraction_str(-1) == "-1"


def test_weight_roundtrip():
    w = KMWeight.of((1, -2), delta=3)
    assert jsonio.weight_from_json(jsonio.weight_to_json(w)) == w
    assert jsonio.weight_from_json([1, 0]) == KMWeight.of((1, 0))
    assert "delta" not in jsonio.weight_to_json(KMWeight.of((1, 0)))


def test_gcm_from_json_forms():
    assert jsonio.gcm_from_json("B2").entries == named_gcm("B2").entries
    assert jsonio.gcm_from_json([[2, -1], [-1, 2]]).tag == "finite"
    assert jsonio.gcm_from_json({"matrix": [[2, -2], [-2, 2]]}).tag == "affine"


def test_element_roundtrip():
    w1, w2 = w_vars(2)
    a = CoulombElement.from_terms(
        2, [((1, -1), w1**2 - sympy.Rational(1, 2) * w2), ((0, 0), 3)]
    )
    doc = jsonio.element_to_json(a)
    assert jsonio.element_from_json(doc).terms == a.terms
    # deterministic serialization
    assert json.dumps(doc) == json.dumps(jsonio.element_to_json(a))


def test_operator_encoding():
    # an operator's powers include hbar's, the last variable, which an element's leave out
    w = w_vars(1)[0]
    op = DifferenceOperator.from_terms(1, {(2,): (w - HBAR) ** 2, (0,): HBAR})
    assert jsonio.operator_to_json(op) == {"rank": 1, "terms": [
        {"coweight": [0], "poly": [{"coeff": "1", "powers": [0, 1]}]},
        {"coweight": [2], "poly": [{"coeff": "1", "powers": [0, 2]}, {"coeff": "-2", "powers": [1, 1]},
                                   {"coeff": "1", "powers": [2, 0]}]}]}


def test_negative_power_is_rejected():
    doc = {"rank": 1, "terms": [{"coweight": [0], "poly": [{"coeff": "1", "powers": [-1]}]}]}
    with pytest.raises(DomainError, match="/terms/0/poly/0/powers"):
        jsonio.element_from_json(doc)


def test_theory_roundtrip():
    doc = {"rank": 2, "characters": [[1, 0], [1, 1]]}
    th = jsonio.theory_from_json(doc)
    assert {"rank": th.rank, "characters": [list(c) for c in th.characters]} == doc


def test_table_serialization_sorted():
    table = {Fraction(1): 3, Fraction(0): 1, Fraction(1, 2): 0}
    assert jsonio.table_to_json(table) == [["0", 1], ["1/2", 0], ["1", 3]]
    assert dims_to_table([1, 0, 3]) == table
