"""Exact computer algebra for abelian Coulomb branches, toric hyperkaehler
duality checks, and Kac-Moody weight combinatorics.

The public names are resolved lazily (PEP 562): a name is imported from its
defining submodule on first access.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining submodule -> the public names it exports at package level
_EXPORTS = {
    "abelian": ("AbelianTheory", "hilbert_series"),
    "cancel": ("CancellationToken",),
    "cartan": (
        "GeneralizedCartanMatrix",
        "KMWeight",
        "central_element_as_root_sum",
        "dominance_leq",
        "langlands_dual",
        "level",
        "named_gcm",
        "validate_and_symmetrize",
    ),
    "difference_ops": (
        "DifferenceOperator",
        "commutator",
        "multiply",
        "poisson_from_lifts",
        "shift_polynomial",
        "specialize_hbar",
    ),
    "errors": (
        "Cancelled",
        "CartanError",
        "CoulombKitError",
        "DimensionError",
        "DomainError",
        "LatticeError",
        "LiftError",
        "SymmetrizabilityError",
        "UnsupportedError",
    ),
    "higgs": ("HiggsTheory", "coulomb_higgs_compare", "invariant_hilbert"),
    "lattices": (
        "IntMatrix",
        "dual_sequence",
        "hermite_column_form",
        "integer_kernel",
        "pairing",
        "saturation",
        "smith_diagonal",
        "smith_normal_form",
    ),
    "monopole": (
        "CoulombElement",
        "classical_product",
        "element_from_operator",
        "grading_degree",
        "poisson",
        "quantize",
        "quantum_relation",
    ),
    "multiplicities": (
        "FreudenthalTable",
        "RootTable",
        "root_multiplicities",
        "tensor_decompose",
        "tensor_fixed_components",
        "tensor_weight_mult",
        "weight_multiplicity",
        "weight_support",
    ),
    "quiver": (
        "DimVectors",
        "Quiver",
        "cocharacter_split",
        "dims_from_weights",
        "fixed_point_nonempty",
        "gauge_data",
        "jordan_coulomb_hilbert",
        "mv_dimension",
        "parabolic_codim",
        "slice_params",
        "strata_affine",
        "strata_finite",
    ),
    "symbolic": ("HBAR", "birationality_witness", "moment_ideal_generators", "w_vars"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _EXPORTS:  # a submodule; importing it binds it on the package
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
