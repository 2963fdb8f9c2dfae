"""Round-trip and determinism checks for the JSON encodings."""

import json
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coulombkit import jsonio
from coulombkit.cartan import KMWeight, named_gcm
from coulombkit.difference_ops import DifferenceOperator
from coulombkit.errors import DomainError
from coulombkit.higgs import dims_to_table
from coulombkit.monopole import CoulombElement
from coulombkit.polynomial import Polynomial
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


@pytest.mark.parametrize("read, noun", [
    (lambda: jsonio.element_from_json({"rank": 1.5, "terms": []}), "rank"),
    (lambda: jsonio.theory_from_json({"rank": 2.5}), "rank"),
    (lambda: jsonio.quiver_from_json({"vertices": 1.7}), "vertex count"),
    (lambda: jsonio.element_from_json(
        {"rank": 1, "terms": [{"coweight": [0], "poly": [{"coeff": "1", "powers": [1.5]}]}]}), "exponent"),
], ids=["element-rank", "theory-rank", "vertices", "powers"])
def test_counts_and_exponents_that_are_not_integers_are_domain_errors(read, noun):
    # each was read through int(): a rank of 1.5 was 1, 1.7 vertices were 1 and the power 1.5 was w1
    with pytest.raises(DomainError, match=f"^{noun} entries must be integers"):
        read()
    assert jsonio.theory_from_json({"rank": 2.0}).rank == 2
    assert jsonio.quiver_from_json({"vertices": 1.0})[0].vertices == 1
    power = lambda p: {"rank": 1, "terms": [{"coweight": [0], "poly": [{"coeff": "1", "powers": [p]}]}]}
    assert jsonio.element_from_json(power(1.0)) == jsonio.element_from_json(power(1))


def _decoded(text):
    """The constant polynomial that the coefficient ``text`` decodes to, or the message of its DomainError."""
    try:
        return jsonio._poly_from_json([{"coeff": text, "powers": []}], 0, "/p")
    except DomainError as exc:
        return str(exc)


def _by_fraction(text):
    """The same through ``Fraction(text)``, as every coefficient was read before."""
    try:
        return Polynomial.constant(1, Fraction(text))
    except ZeroDivisionError:
        return f"/p/0/coeff: zero denominator in {text!r}"
    except ValueError:
        return f"/p/0/coeff: not a fraction of integers of at most {sys.get_int_max_str_digits()} digits"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(st.text(), st.from_regex(r"-?[0-9]+(/[0-9]+)?", fullmatch=True)))
@example("1\n")
@example("-0")
@example("007/010")
@example("3/0")
@example("1.5")
@example(" 2")
@example("+1")
@example("٣")
@example("7" * 5000)
@example("-" + "7" * 5000 + "/2")
def test_a_coefficient_decodes_as_fraction_reads_it(text):
    assert _decoded(text) == _by_fraction(text)


def test_terms_on_one_monomial_are_summed_over_a_common_denominator():
    coeffs = [("1/2", [1]), ("1/3", [1]), ("-5/6", [1]), ("007/010", [0]), ("3/4", [2]), ("1/4", [2]), ("0", [3])]
    poly = jsonio._poly_from_json([{"coeff": c, "powers": p} for c, p in coeffs], 1, "/p")
    assert poly == Polynomial.from_fractions({(0, 0): Fraction(7, 10), (2, 0): Fraction(1)})
    assert (poly.num, poly.den) == ({(0, 0): 7, (2, 0): 10}, 10)


def test_theory_roundtrip():
    doc = {"rank": 2, "characters": [[1, 0], [1, 1]]}
    th = jsonio.theory_from_json(doc)
    assert {"rank": th.rank, "characters": [list(c) for c in th.characters]} == doc


def test_table_serialization_sorted():
    table = {Fraction(1): 3, Fraction(0): 1, Fraction(1, 2): 0}
    assert jsonio.table_to_json(table) == [["0", 1], ["1/2", 0], ["1", 3]]
    assert dims_to_table([1, 0, 3]) == table
