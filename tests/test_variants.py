import pytest

from adjhier.bounded import BoundFunction
from adjhier.variants import HierarchySpec


def test_descriptor_roundtrip():
    specs = [
        HierarchySpec.plain(),
        HierarchySpec.atoms(3),
        HierarchySpec.bounded(BoundFunction("half")),
        HierarchySpec.bounded(BoundFunction("table", (0, 1, 1, 2))),
        HierarchySpec.min_bounded(),
    ]
    for spec in specs:
        assert HierarchySpec.from_descriptor(spec.descriptor()) == spec


def test_validation():
    with pytest.raises(ValueError):
        HierarchySpec("weird")
    with pytest.raises(ValueError):
        HierarchySpec.atoms(-1)
    with pytest.raises(ValueError):
        HierarchySpec("bounded")


def test_str_forms():
    assert str(HierarchySpec.plain()) == "plain"
    assert str(HierarchySpec.atoms(2)) == "atoms(u=2)"
    assert "half" in str(HierarchySpec.bounded(BoundFunction("half")))
