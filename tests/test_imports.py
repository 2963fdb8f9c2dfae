"""The package namespace is lazy, only the symbolic API loads sympy, only
``coulombkit.symbolic`` imports it, no CLI document loads jsonschema, every
module-level import is used, and the deadline reaches the library as a scope,
not as a parameter."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import coulombkit

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "coulombkit"

# Runs in a fresh interpreter: prints, after each step, whether sympy and jsonschema are loaded.
FRESH_INTERPRETER = textwrap.dedent(
    """
    import contextlib, io, json, sys

    steps = []

    def record(step, code=None):
        steps.append([step, code, "sympy" in sys.modules, "jsonschema" in sys.modules])

    import coulombkit
    record("import coulombkit")
    from coulombkit import cartan, lattices, multiplicities, quiver
    record("from coulombkit import multiplicities")
    from coulombkit import difference_ops, monopole
    record("from coulombkit import difference_ops, monopole")
    import coulombkit.cli
    record("import coulombkit.cli")
    from coulombkit import higgs
    record("from coulombkit import higgs")
    coulombkit.hilbert_series
    record("coulombkit.hilbert_series")

    theory = {"rank": 1, "characters": [[1], [1]]}
    x = {"rank": 1, "terms": [{"coweight": [1], "poly": [{"coeff": "1", "powers": [0]}]}]}
    y = {"rank": 1, "terms": [{"coweight": [-1], "poly": [{"coeff": "1", "powers": [0]}]}]}
    calls = [
        (["km", "mult"], {"cartan": "A2", "lambda": {"fund": [1, 1]}, "mu": {"fund": [0, 0]}}),
        (["km", "tensor"], {"cartan": "A2", "lambda1": {"fund": [1, 0]}, "lambda2": {"fund": [0, 1]}}),
        (["quiver", "satake"], {"cartan": "B2", "lambda": {"fund": [2, 1]}, "mu": {"fund": [0, 1]}}),
        (["jordan", "hilbert", "--max-deg", "2"], {"n": 2, "ell": 1}),
        (["validate", "--schema", "element"], {"rank": 1, "terms": []}),
        (["abelian", "hilbert", "--max-deg", "2"], {"rank": 1, "characters": [[1], [1]]}),
        (["hypertoric", "compare", "--max-deg", "2"], {"matrix": [[1], [1]]}),
        (["abelian", "ring"], {"theory": theory, "a": x, "b": y}),
        (["abelian", "quantize"], {"theory": theory, "element": x}),
        (["abelian", "poisson"], {"theory": theory, "a": x, "b": y}),
        (["validate", "--schema", "element"], {"rank": -1, "terms": []}),
    ]
    for argv, doc in calls:
        sys.stdin = io.StringIO(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            code = coulombkit.cli.main(argv)
        record(" ".join(argv[:2]), code)

    from coulombkit.polynomial import Polynomial
    op = coulombkit.DifferenceOperator.from_terms(1, [((1,), Polynomial({(2, 1): 3}, 2))])
    assert str(op) == "(3*hbar*w1**2/2)*e^[1]"
    record("str(DifferenceOperator)")
    coulombkit.DifferenceOperator.from_terms(2, {(1, 0): 3, (0, -1): Polynomial({(1, 0, 1): 2}, 3)})
    record("DifferenceOperator.from_terms(int, Polynomial)")
    coulombkit.HBAR
    record("coulombkit.HBAR")
    op.terms
    record("DifferenceOperator.terms")
    print(json.dumps(steps))
    """
)


@pytest.fixture(scope="module")
def steps():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_only_the_symbolic_api_loads_sympy(steps):
    assert [step[:3] for step in steps] == [
        ["import coulombkit", None, False],
        ["from coulombkit import multiplicities", None, False],
        ["from coulombkit import difference_ops, monopole", None, False],
        ["import coulombkit.cli", None, False],
        ["from coulombkit import higgs", None, False],
        ["coulombkit.hilbert_series", None, False],
        ["km mult", 0, False],
        ["km tensor", 0, False],
        ["quiver satake", 0, False],
        ["jordan hilbert", 0, False],
        ["validate --schema", 0, False],
        ["abelian hilbert", 0, False],
        ["hypertoric compare", 0, False],
        ["abelian ring", 0, False],
        ["abelian quantize", 0, False],
        ["abelian poisson", 0, False],
        ["validate --schema", 2, False],
        ["str(DifferenceOperator)", None, False],
        ["DifferenceOperator.from_terms(int, Polynomial)", None, False],
        ["coulombkit.HBAR", None, True],
        ["DifferenceOperator.terms", None, True],
    ]


def test_no_cli_document_loads_jsonschema(steps):
    assert [[name, code, jsonschema] for name, code, _, jsonschema in steps] == [
        ["import coulombkit", None, False],
        ["from coulombkit import multiplicities", None, False],
        ["from coulombkit import difference_ops, monopole", None, False],
        ["import coulombkit.cli", None, False],
        ["from coulombkit import higgs", None, False],
        ["coulombkit.hilbert_series", None, False],
        ["km mult", 0, False],
        ["km tensor", 0, False],
        ["quiver satake", 0, False],
        ["jordan hilbert", 0, False],
        ["validate --schema", 0, False],
        ["abelian hilbert", 0, False],
        ["hypertoric compare", 0, False],
        ["abelian ring", 0, False],
        ["abelian quantize", 0, False],
        ["abelian poisson", 0, False],
        ["validate --schema", 2, False],
        ["str(DifferenceOperator)", None, False],
        ["DifferenceOperator.from_terms(int, Polynomial)", None, False],
        ["coulombkit.HBAR", None, False],
        ["DifferenceOperator.terms", None, False],
    ]


def _module_level(nodes):
    """The nodes that run when their module is imported: all but function bodies."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        yield from _module_level(ast.iter_child_nodes(node))


def _imported_modules(node) -> list[str]:
    """The dotted paths an import statement imports, relative ones spelled
    from the package (``from .symbolic import as_expr`` gives
    ``coulombkit.symbolic`` and ``coulombkit.symbolic.as_expr``)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = ".".join(filter(None, ["coulombkit" if node.level else "", node.module]))
    return [module] + [f"{module}.{alias.name}" for alias in node.names]


def test_only_the_symbolic_module_names_sympy_or_imports_symbolic_on_load():
    """sympy is named in ``coulombkit/symbolic.py`` alone; every other module
    imports ``symbolic`` inside a function, so it loads sympy only on use; and
    no file uses sympy's sparse rings (the library computes in ``Polynomial``,
    the tests keep the rings as oracles)."""
    rings = {"ring", "rings", "PolyRing", "PolyElement"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        name = path.relative_to(SRC)
        if path.name != "symbolic.py" and "sympy" in text:
            found.append(f"{name}: names sympy")
        tree = ast.parse(text, str(path))
        for node in _module_level(tree.body):
            if "coulombkit.symbolic" in _imported_modules(node):
                found.append(f"{name}:{node.lineno}: imports coulombkit.symbolic outside a function")
        for node in ast.walk(tree):
            # dotted paths: sympy.polys.rings.ring imported, or sympy.ring read as an attribute
            paths = [ast.unparse(node)] if isinstance(node, ast.Attribute) else _imported_modules(node)
            if any(p.split(".")[0] == "sympy" and rings & set(p.split(".")) for p in paths):
                found.append(f"{name}:{node.lineno}: uses sympy's sparse rings")
    assert found == []


def test_every_module_level_import_is_used():
    """A name that a module imports at module level is read in that module, unless
    its import is marked ``# noqa: F401`` as a re-export."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in _module_level(tree.body):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                marked = "# noqa: F401" in lines[alias.lineno - 1] + lines[node.lineno - 1]
                if name not in read and not marked:
                    found.append(f"{path.relative_to(SRC)}:{alias.lineno}: {name}")
    assert found == []


def _calls_by_function(tree, name):
    """The name of the innermost function around each call of ``name``; None at module level."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == name:
                owners.append(owner)
            visit(child, owner)

    visit(tree, None)
    return owners


def test_the_deadline_is_ambient():
    """No function, method or lambda takes a ``token`` parameter, ``check``
    takes no argument, and ``cli.main`` is the one place that makes a token,
    the scope of the run's deadline."""
    found, makers = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
                if "token" in [p.arg for p in params]:
                    found.append(f"{path.relative_to(SRC)}:{node.lineno}")
        makers += [f"{path.name}:{owner}" for owner in _calls_by_function(tree, "CancellationToken")]
    assert found == []
    assert makers == ["cli.py:main"]
    from coulombkit.cancel import check

    assert inspect.signature(check).parameters == {}


def test_a_rejected_document_is_worded_without_jsonschema():
    # a None entry in sys.modules makes every import of jsonschema raise ImportError
    blocked = textwrap.dedent(
        """
        import sys
        sys.modules["jsonschema"] = None
        from coulombkit.cli import main
        sys.exit(main(["validate", "--schema", "element"]))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", blocked], input='{"rank":-1,"terms":[]}',
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, '{"diagnostics": ["/rank: -1 is less than the minimum of 0"]}\n', ""
    )


def test_every_public_name_is_its_submodule_attribute():
    for name in coulombkit.__all__:
        owner = importlib.import_module(f"coulombkit.{coulombkit._MODULE_OF[name]}")
        assert getattr(coulombkit, name) is getattr(owner, name), name
    assert len(coulombkit.__all__) == len(set(coulombkit.__all__)) == 68
    assert coulombkit.__version__ == "0.1.0"


def test_monopole_re_exports_the_abelian_names():
    from coulombkit import abelian, monopole

    assert monopole.AbelianTheory is abelian.AbelianTheory is coulombkit.AbelianTheory
    assert monopole.hilbert_series is abelian.hilbert_series is coulombkit.hilbert_series


def test_dir_lists_the_public_names():
    listed = dir(coulombkit)
    assert set(coulombkit.__all__) <= set(listed)
    assert {"monopole", "multiplicities", "__version__"} <= set(listed)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from coulombkit import *", namespace)
    for name in coulombkit.__all__:
        assert namespace[name] is getattr(coulombkit, name)


def test_submodules_are_package_attributes():
    assert coulombkit.multiplicities is importlib.import_module("coulombkit.multiplicities")
    assert coulombkit.errors.CartanError is coulombkit.CartanError


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        coulombkit.no_such_name
    with pytest.raises(ImportError):
        exec("from coulombkit import no_such_name", {})
