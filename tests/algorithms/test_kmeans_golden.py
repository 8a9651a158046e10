"""What k-means answers is pinned, bit for bit, on every engine path
(``tests/goldens/kmeans.py``): a kernel that moves one trace to another
cluster, reorders a block's rows or changes a counter changes a field.
"""

import json

import pytest

from tests.goldens.kmeans import BACKENDS
from tests.goldens.registry import changed, committed


def test_sequential_matches_recorded_golden():
    assert changed("kmeans", "sequential/*") == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_mapreduce_cells_match_recorded_golden(backend):
    assert changed("kmeans", f"mapreduce/*/{backend}/*") == []


def test_golden_is_worth_pinning():
    """The raw, combined and budgeted paths all ran and really differ in
    what they ship; otherwise the record pins one path twelve times."""
    golden = json.loads(committed("kmeans"))
    cells = golden["mapreduce"]
    for backend in BACKENDS:
        assert sum(f"/{backend}/" in name for name in cells) == 12, backend
    raw = cells["haversine/reducer/serial/unbudgeted"]["iterations"][0]
    combined = cells["haversine/combiner/serial/unbudgeted"]["iterations"][0]
    assert raw["map_output_records"] == 30_000 and raw["map_output_bytes"] == 480_000
    assert combined["shuffle_bytes"] < raw["shuffle_bytes"] / 10
    assert len({c["centroids_sha256"] for c in cells.values()}) > 2
    assert golden["sequential"]["haversine"] != golden["sequential"]["squared_euclidean"]
