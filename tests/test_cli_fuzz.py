"""Fuzz of the CLI input contract: every document, well-formed or not, ends in
a documented exit code with a message, and nothing escapes ``main``."""

import contextlib
import io
import json
import math
import sys

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coulombkit.cartan import NAMED_CARTAN_MATRICES
from coulombkit.cli import main

SCHEMAS = ("element", "gcm", "matrix", "operator", "quiver", "theory", "weight")

small = st.integers(-3, 3)
TWISTED = (((2, -1), (-4, 2)), ((2, -4), (-1, 2)))


def vector(rank, elements=small):
    return st.lists(elements, min_size=rank, max_size=rank)


@st.composite
def weight(draw, rank):
    fund = draw(vector(rank, st.integers(-1, 3)))
    if draw(st.booleans()):
        return fund
    doc = {"fund": fund}
    if draw(st.booleans()):
        doc["delta"] = draw(small)
    return doc


@st.composite
def cartan(draw):
    """(gcm document, rank): a name, or an explicit matrix, at ranks 0-3; the explicit ones
    include the twisted affine A2^(2) and its transpose, whose Kac labels differ from their
    dual labels."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(NAMED_CARTAN_MATRICES)))
        return name, len(NAMED_CARTAN_MATRICES[name])
    if draw(st.integers(0, 3)) == 0:
        m = [list(row) for row in draw(st.sampled_from(TWISTED))]  # a fresh copy: mutated() edits it
        return (m if draw(st.booleans()) else {"matrix": m}), 2
    n = draw(st.integers(0, 3))
    off = st.sampled_from((0, 0, -1, -1, -2, -3))
    m = [[2 if i == j else draw(off) for j in range(n)] for i in range(n)]
    return (m if draw(st.booleans()) else {"matrix": m}), n


@st.composite
def element(draw, rank):
    term = st.fixed_dictionaries(
        {
            "coweight": vector(rank, small),
            "poly": st.lists(
                st.fixed_dictionaries(
                    {
                        "coeff": st.sampled_from(("1", "-2", "3/2", "0")),
                        "powers": st.lists(st.integers(0, 2), min_size=0, max_size=4),
                    }
                ),
                max_size=2,
            ),
        }
    )
    return {"rank": rank, "terms": draw(st.lists(term, max_size=2))}


@st.composite
def theory(draw, rank):
    characters = draw(st.lists(vector(rank, st.integers(-2, 2)), max_size=4))
    return {"rank": rank, "characters": characters}


@st.composite
def quiver(draw):
    n = draw(st.integers(0, 3))
    doc = {"vertices": n}
    if n:
        doc["edges"] = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2), max_size=3))
    for key in ("v", "w"):
        if draw(st.booleans()):
            doc[key] = draw(vector(n, st.integers(0, 3)))
    return doc


@st.composite
def km_doc(draw, *weights):
    gcm, rank = draw(cartan())
    return {"cartan": gcm, **{key: draw(weight(rank)) for key in weights}}


@st.composite
def abelian_doc(draw, *elements):
    rank = draw(st.integers(0, 3))
    return {"theory": draw(theory(rank)), **{key: draw(element(rank)) for key in elements}}


@st.composite
def any_doc(draw):
    rank = draw(st.integers(0, 3))
    return draw(
        st.one_of(
            element(rank),
            cartan().map(lambda c: c[0]),
            vector(rank, vector(rank)),
            quiver(),
            theory(rank),
            weight(rank),
        )
    )


MAX_DEG = st.sampled_from(("0", "1/2", "1", "2", "-1", "1/3", "x"))

# each subcommand with the document and the flags it reads
COMMANDS = {
    ("km", "mult"): (km_doc("lambda", "mu"), {}),
    ("km", "tensor"): (km_doc("lambda1", "lambda2"), {}),
    ("km", "dual"): (km_doc(), {}),
    ("quiver", "slice"): (quiver(), {}),
    ("quiver", "strata"): (km_doc("lambda", "mu"), {"--depth": st.sampled_from(("0", "1", "3", "-1"))}),
    ("quiver", "satake"): (km_doc("lambda", "mu"), {}),
    ("abelian", "ring"): (abelian_doc("a", "b"), {}),
    ("abelian", "quantize"): (abelian_doc("element"), {}),
    ("abelian", "poisson"): (abelian_doc("a", "b"), {}),
    ("abelian", "hilbert"): (st.integers(0, 3).flatmap(theory), {"--max-deg": MAX_DEG}),
    ("hypertoric", "compare"): (
        st.tuples(st.integers(1, 4), st.integers(0, 2)).flatmap(lambda nk: vector(nk[0], vector(nk[1]))),
        {"--max-deg": MAX_DEG},
    ),
    ("jordan", "hilbert"): (
        st.fixed_dictionaries({"n": st.integers(0, 3), "ell": st.integers(-1, 3)}),
        {"--max-deg": MAX_DEG},
    ),
    ("validate",): (any_doc(), {"--schema": st.sampled_from(SCHEMAS + ("nope",))}),
}

BAD_LEAVES = st.sampled_from((True, False, 10**30 + 7, -(10**31), math.nan, math.inf, -math.inf, 1.5, [], None, "1"))


def _slots(doc):
    """Every (container, key) in the document, the root's holder first."""
    out, stack = [], [([doc], 0)]
    while stack:
        holder, key = stack.pop()
        out.append((holder, key))
        value = holder[key]
        if isinstance(value, dict):
            stack += [(value, k) for k in value]
        elif isinstance(value, list):
            stack += [(value, i) for i in range(len(value))]
    return out


@st.composite
def mutated(draw, doc, leaves=BAD_LEAVES):
    """The document with up to three slots replaced by one of ``leaves``,
    emptied, or made a wrong length (an entry dropped or repeated)."""
    root = [doc]
    for _ in range(draw(st.integers(0, 3))):
        slots = _slots(root[0])
        holder, key = slots[draw(st.integers(0, len(slots) - 1))]
        value = holder[key]
        kind = draw(st.sampled_from(("leaf", "empty", "drop", "repeat")))
        if kind == "leaf" or not isinstance(value, (list, dict)):
            holder[key] = draw(leaves)
        elif kind == "empty":
            holder[key] = type(value)()
        elif isinstance(value, list) and value:
            if kind == "drop":
                del value[draw(st.integers(0, len(value) - 1))]
            else:
                value.append(value[draw(st.integers(0, len(value) - 1))])
    return root[0]


@st.composite
def invocations(draw):
    leaf = draw(st.sampled_from(sorted(COMMANDS)))
    doc_strategy, flags = COMMANDS[leaf]
    argv = [*leaf, "--timeout", "1"]
    for flag, values in flags.items():
        if draw(st.integers(0, 4)):  # mostly given, sometimes missing
            argv += [flag, draw(values)]
    return argv, draw(mutated(draw(doc_strategy)))


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations())
# a vertex count that cannot index a list once escaped as an OverflowError
@example((["quiver", "slice", "--timeout", "1"], {"vertices": 10**30 + 7}))
def test_cli_main_keeps_its_exit_code_contract(invocation):
    argv, doc = invocation
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2, 3), (argv, doc)
    if code in (1, 3):
        assert err.getvalue(), (argv, doc)
    if code == 2:
        assert out.getvalue(), (argv, doc)
