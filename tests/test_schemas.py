"""The compiled schema check in ``coulombkit.cli`` against jsonschema's
Draft 2020-12 validator, the oracle of its verdicts and of its wording."""

import json
import math
import time
from functools import cache
from importlib import resources

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_cli_fuzz import BAD_LEAVES, SCHEMAS, _slots, cartan, element, mutated, quiver, theory, vector, weight

from coulombkit import cli
from coulombkit.cancel import CancellationToken
from coulombkit.errors import Cancelled

KEYWORDS = {"type", "properties", "required", "additionalProperties", "items", "minimum",
            "minItems", "maxItems", "oneOf", "pattern"}
ANNOTATIONS = {"$schema", "$id", "title"}

# Draft 2020-12 integers that Python parses as floats, one of them below every minimum, and
# strings at the edges of the coefficient pattern ("$" also matches before a final newline)
LEAVES = st.one_of(BAD_LEAVES, st.sampled_from((1.0, -0.0, 2.0, -1.0, "1\n", "-3/4", "1/", "+1", "٣")))
# the property names of every schema, and one that none of them has
KEYS = ("rank", "terms", "coweight", "poly", "coeff", "powers", "matrix", "vertices", "edges",
        "v", "w", "characters", "names", "fund", "delta", "extra")


@st.composite
def matrix(draw):
    n, k = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    rows = draw(vector(n, vector(k)))
    return {"matrix": rows} if draw(st.booleans()) else rows


RANK = st.integers(0, 3)
DOCUMENTS = {
    "element": RANK.flatmap(element),
    "operator": RANK.flatmap(element),
    "gcm": cartan().map(lambda c: c[0]),
    "matrix": matrix(),
    "quiver": quiver(),
    "theory": RANK.flatmap(theory),
    "weight": RANK.flatmap(weight),
}


@st.composite
def rekeyed(draw, doc):
    """``doc`` with up to two objects given a key or losing one."""
    root = [doc]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        objects = [holder[key] for holder, key in _slots(root[0]) if isinstance(holder[key], dict)]
        if not objects:
            break
        obj = objects[draw(st.integers(0, len(objects) - 1))]
        if obj and draw(st.booleans()):
            del obj[draw(st.sampled_from(sorted(obj)))]
        else:
            obj[draw(st.sampled_from(KEYS))] = draw(st.one_of(LEAVES, st.lists(st.sampled_from(("a", "")), max_size=2)))
    return root[0]


@st.composite
def schema_and_document(draw):
    name = draw(st.sampled_from(SCHEMAS))
    return name, draw(rekeyed(draw(mutated(draw(DOCUMENTS[name]), LEAVES))))


# what validate_schema adds about a quiver that passes its schema
QUIVER_CHECKS = ("vertex index out of range", "length must equal the vertex count")


def compiled(schema, doc):
    """The verdict on ``doc`` and its failures under ``schema``, compiled as a shipped schema is."""
    errors = [(path, word()) for path, word in cli._compile(schema)(doc, [0])]
    return not errors, errors


@cache
def oracle(name):
    return jsonschema.Draft202012Validator(cli._schemas()[name])


@settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(schema_and_document())
def test_interpreter_agrees_with_jsonschema(case):
    name, doc = case
    errors = sorted(oracle(name).iter_errors(doc), key=lambda e: list(e.absolute_path))
    diags = cli.validate_schema(doc, name, "/x")
    if errors or name != "quiver":  # [] when valid, else worded as jsonschema words it, message for message
        assert diags == ["/x/" + "/".join(map(str, e.absolute_path)) + f": {e.message}" for e in errors], (name, doc)
    else:  # a quiver its schema accepts is then held to its vertex count
        assert all(d.endswith(QUIVER_CHECKS) for d in diags), (doc, diags)


@pytest.mark.parametrize(
    "schema, doc, valid",
    [
        ({"type": "integer"}, 1.0, True),
        ({"type": "integer"}, -0.0, True),
        ({"type": "integer"}, 10**30, True),
        ({"type": "integer"}, 2.5, False),
        ({"type": "integer"}, True, False),
        ({"type": "integer"}, math.nan, False),
        ({"type": "integer"}, math.inf, False),
        ({"type": "integer"}, "1", False),
        ({"type": "array"}, (1,), False),
        ({"type": "object"}, [], False),
        ({"minimum": 0}, True, True),
        ({"minimum": 0}, math.nan, True),
        ({"minimum": 0}, "x", True),
        ({"minimum": 0}, -0.0, True),
        ({"minimum": 0}, -1, False),
        ({"minimum": 0}, -math.inf, False),
        ({"pattern": "^-?[0-9]+(/[0-9]+)?$"}, "1\n", True),
        ({"pattern": "^-?[0-9]+(/[0-9]+)?$"}, "٣", False),
        ({"pattern": "[0-9]"}, "x1", True),
        ({"pattern": "[0-9]"}, 5, True),
        ({"minItems": 2, "maxItems": 2}, [1, 2], True),
        ({"minItems": 2, "maxItems": 2}, [1], False),
        ({"minItems": 2, "maxItems": 2}, {"a": 1}, True),
        ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, 1, False),
        ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, -1, True),
        ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, "x", True),
        ({"properties": {"a": {"type": "string"}}, "additionalProperties": False}, {"a": "x"}, True),
        ({"properties": {"a": {"type": "string"}}, "additionalProperties": False}, {"b": "x"}, False),
        ({"properties": {"a": {"type": "string"}}, "required": ["a"]}, {"a": 1}, False),
        ({"required": ["a"]}, [], True),
    ],
)
def test_draft_2020_12_where_python_types_differ(schema, doc, valid):
    errors = [(tuple(e.absolute_path), e.message) for e in jsonschema.Draft202012Validator(schema).iter_errors(doc)]
    assert (not errors) is valid
    assert compiled(schema, doc) == (valid, errors)


def _keywords(schema):
    """Every keyword of ``schema`` and of its subschemas."""
    if isinstance(schema, bool):
        return set()
    found = set(schema)
    subschemas = [*schema.get("properties", {}).values(), *schema.get("oneOf", [])]
    subschemas += [schema[key] for key in ("items", "additionalProperties") if key in schema]
    for sub in subschemas:
        found |= _keywords(sub)
    return found


def test_shipped_schemas_use_only_the_interpreted_keywords():
    files = [f for f in resources.files("coulombkit.schemas").iterdir() if f.name.endswith(".schema.json")]
    schemas = {f.name.removesuffix(".schema.json"): json.loads(f.read_text()) for f in files}
    assert sorted(schemas) == sorted(cli._schemas()) == sorted(SCHEMAS)
    used = set().union(*map(_keywords, schemas.values()))
    assert used == KEYWORDS | ANNOTATIONS


@pytest.mark.parametrize("doc", [3, 1, "x"])
def test_an_unknown_keyword_raises_whatever_the_document(doc, monkeypatch):
    with pytest.raises(ValueError, match="maximum"):
        compiled({"type": "integer", "maximum": 2}, doc)
    monkeypatch.setattr(cli, "_schemas", lambda: {"capped": {"items": {"type": "integer", "maximum": 2}}})
    with pytest.raises(ValueError, match="maximum"):
        cli.validate_schema([doc], "capped")


def test_a_large_valid_matrix_is_checked_quickly():
    n = 400
    a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    start = time.perf_counter()
    assert cli.validate_schema({"matrix": a}, "gcm") == []
    assert time.perf_counter() - start < 0.8


def test_the_schema_check_meets_an_expired_deadline():
    # a 300000-vertex linear quiver took 2.2 s to check with no deadline check; every 4096th array
    # item of a document checks it now, so a small document is still checked in full
    with CancellationToken(0):
        assert cli.validate_schema({"vertices": 3, "edges": [[0, 1], [1, 2]], "v": [1, 1, 1]}, "quiver") == []
    n = 300000
    doc = {"vertices": n, "edges": [[i, i + 1] for i in range(n - 1)], "v": [1] * n, "w": [2] + [0] * (n - 1)}
    start = time.perf_counter()
    with pytest.raises(Cancelled), CancellationToken(0):
        cli.validate_schema(doc, "quiver")
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("form", [list, lambda rows: {"matrix": rows}], ids=["rows", "object"])
def test_one_of_meets_an_expired_deadline_without_wording_its_branches(form):
    # a oneOf branch of the wrong type used to word its failure, the repr of the whole document, and
    # drop it: 1.17 s here.  No array holds 4096 items, so only the count across rows meets the deadline
    row = [0] * 3000
    doc = form([row] * 3000)
    start = time.perf_counter()
    with pytest.raises(Cancelled), CancellationToken(0):
        cli.validate_schema(doc, "gcm")
    assert time.perf_counter() - start < 0.1


def test_a_long_flat_array_meets_the_deadline_as_it_is_read(monkeypatch):
    # the count of array items passes a multiple of 4096 once per 4096 items of v, not once on entering it
    calls = []
    monkeypatch.setattr(cli, "check", lambda: calls.append(None))
    n = 100000
    assert cli.validate_schema({"vertices": n, "v": [0] * n}, "quiver") == []
    assert len(calls) >= n // 4096


def test_a_large_invalid_element_is_read_once():
    # each array on the failing path was read again for its failures, and each list or dict whose type and
    # length passed was read again in full: this poly took 7.0 s to check, and takes 0.1 s, as when valid
    n = 30000
    poly = [{"coeff": "1", "powers": [i]} for i in range(n)] + [{"coeff": "1.5", "powers": [n]}]
    start = time.perf_counter()
    assert cli.validate_schema({"rank": 1, "terms": [{"coweight": [0], "poly": poly}]}, "element") == [
        f"/terms/0/poly/{n}/coeff: '1.5' does not match '^-?[0-9]+(/[0-9]+)?$'"
    ]
    assert time.perf_counter() - start < 1.0
