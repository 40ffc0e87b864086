"""The analytic bulk-load shape equals what bulk_load builds.

Every n in 0..3000 for the paged indexes' own shape (branching 16, leaves
of 16); every n up to 256 and every 37th beyond, to 3000, for the narrow
shapes, whose many small nodes make a bulk load per n slow.
"""

import pytest

from repro.btree import BPlusTree, bulk_load_shape
from repro.core.errors import InvalidParameterError

PAIRS = [(i, i) for i in range(3001)]


@pytest.mark.parametrize("fill", [0.5, 0.7, 1.0])
@pytest.mark.parametrize("leaf", ["2", "branching"])
@pytest.mark.parametrize("branching", [3, 4, 16])
def test_shape_matches_bulk_load(branching, leaf, fill):
    leaf_capacity = 2 if leaf == "2" else branching
    if leaf_capacity == 16:
        sizes = range(len(PAIRS))
    else:
        sizes = [*range(257), *range(257, len(PAIRS), 37), len(PAIRS) - 1]
    for n in sizes:
        tree = BPlusTree(branching=branching, leaf_capacity=leaf_capacity)
        tree.bulk_load(PAIRS[:n], fill=fill)
        assert bulk_load_shape(n, branching, leaf_capacity, fill) == (
            tree.height,
            tree.model_bytes(),
        ), n


def test_shape_rejects_what_the_tree_rejects():
    for kwargs in ({"branching": 2}, {"leaf_capacity": 1}, {"fill": 0.0}):
        with pytest.raises(InvalidParameterError):
            bulk_load_shape(10, **kwargs)
