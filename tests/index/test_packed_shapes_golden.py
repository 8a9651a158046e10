"""Tree shapes the Figure 6 golden never reaches are pinned, page byte
and answer for answer: empty, one leaf, a partial last leaf and slab,
all-duplicate points, fanouts 2 and 64, and equal- and mixed-height
merges (``tests/goldens/index.py``).
"""

import json

import numpy as np
import pytest

from repro.index.rtree import RTree
from tests.goldens.registry import changed, committed

GOLDEN_DOC = json.loads(committed("packed_shapes"))


@pytest.mark.parametrize("name", sorted(GOLDEN_DOC))
def test_shape_matches_recorded_golden(name):
    assert changed("packed_shapes", f"{name}/*") == []


def test_golden_is_worth_pinning():
    """The shapes differ where they claim to: heights 0, 1 and up to 9,
    and the merges' inputs are of equal and of unequal heights."""
    heights = {name: shape["height"] for name, shape in GOLDEN_DOC.items()}
    assert heights["empty"] == 0 and heights["one_leaf"] == 1
    assert heights["fanout_2"] > heights["fanout_64"]
    parts = (30, 2_000, 40_000)
    assert [RTree.bulk_load(np.zeros((n, 2))).height() for n in parts] == [1, 3, 4]
    assert all(shape["memory"] == shape["persisted"] for shape in GOLDEN_DOC.values())
