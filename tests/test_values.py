"""The value types: equal values compare equal and hash as the tuple of their fields, no
field can be assigned, and no instance carries a ``__dict__``.  Every one but the Cartan
datum is a tuple; the datum is a slotted class that hashes all but its nonzeros' dicts,
once, when it is built.  ``RootTable``, the one table grown in place, is no value."""

import pytest

from coulombkit.abelian import AbelianTheory
from coulombkit.cartan import NAMED_CARTAN_MATRICES, GeneralizedCartanMatrix, KMWeight, validate_and_symmetrize
from coulombkit.difference_ops import DifferenceOperator
from coulombkit.errors import DimensionError
from coulombkit.higgs import HiggsTheory, coulomb_higgs_compare
from coulombkit.lattices import IntMatrix
from coulombkit.monopole import CoulombElement
from coulombkit.quiver import DimVectors, Quiver, gauge_data, slice_params

QUIVER, DIMS = Quiver.linear(2), DimVectors.of((1, 0), (1, 1))

# each value built twice from scratch, with the first of its fields that its hash reads
VALUES = {
    "KMWeight": (lambda: KMWeight.of((1, 0), 2), 0),
    "GeneralizedCartanMatrix": (lambda: validate_and_symmetrize(NAMED_CARTAN_MATRICES["A2~"]), 1),
    "IntMatrix": (lambda: IntMatrix.from_rows([[1, 2], [3, 4]]), 0),
    "AbelianTheory": (lambda: AbelianTheory.of(1, [(1,), (1,)]), 0),
    "HiggsTheory": (lambda: HiggsTheory.of([[1], [-1]]), 0),
    "ComparisonReport": (lambda: coulomb_higgs_compare(IntMatrix.from_rows([[1], [1]]), 1), 0),
    "DifferenceOperator": (lambda: DifferenceOperator.from_terms(1, {(1,): 2}), 0),
    "CoulombElement": (lambda: CoulombElement.monopole(1, (1,), 2), 0),
    "Quiver": (lambda: Quiver.linear(3), 0),
    "DimVectors": (lambda: DimVectors.of((1, 0), (1, 1)), 0),
    "GaugeData": (lambda: gauge_data(QUIVER, DIMS), 0),
    "SliceParams": (lambda: slice_params(QUIVER, DIMS), 0),
}


def hash_or_error(value):
    """The hash of ``value``, or TypeError for a report, whose degree tables are dicts."""
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("name", VALUES)
def test_a_value_is_equal_hashed_by_its_fields_and_immutable(name):
    make, hashed_from = VALUES[name]
    first, second = make(), make()
    assert type(first).__name__ == name and first is not second and first == second
    fields = tuple(getattr(first, f) for f in type(first)._fields)
    assert hash_or_error(first) == hash_or_error(second) == hash_or_error(fields[hashed_from:])
    with pytest.raises(AttributeError):
        setattr(first, type(first)._fields[0], fields[0])
    with pytest.raises(AttributeError):
        first.extra = None
    assert not hasattr(first, "__dict__")


def test_the_datum_stores_its_hash_when_built():
    gcm = validate_and_symmetrize(NAMED_CARTAN_MATRICES["B3"])
    assert gcm._hash == hash((gcm.d, gcm.tag, gcm.null_vector, gcm.dual_labels, gcm.delta_split))
    with pytest.raises(AttributeError):
        del gcm.tag
    assert isinstance(gcm, GeneralizedCartanMatrix) and gcm.tag == "finite"


def test_a_ragged_matrix_is_refused():
    with pytest.raises(DimensionError, match="ragged rows"):
        IntMatrix(((1, 2), (3,)))
