"""What k-means answers is pinned, bit for bit, on every engine path.

The record was taken from the commit before nearest-centroid assignment
moved onto ``nearest_centroid`` and the mapper onto one stable gather; a
kernel that moves one trace to another cluster, reorders a block's rows
or changes a counter changes a digest here.  See
``make_kmeans_golden.py`` for what the golden holds and when it may be
re-recorded.
"""

import json

import pytest

from .make_kmeans_golden import BACKENDS, GOLDEN, record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def recorded():
    return json.loads(json.dumps(record()))


def test_sequential_matches_recorded_golden(golden, recorded):
    assert recorded["sequential"] == golden["sequential"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_mapreduce_cells_match_recorded_golden(golden, recorded, backend):
    cells = [name for name in golden["mapreduce"] if f"/{backend}/" in name]
    assert len(cells) == 12
    for name in cells:
        got, want = recorded["mapreduce"][name], golden["mapreduce"][name]
        # Iterations first: the earliest differing one explains a digest.
        for i, (g, w) in enumerate(zip(got["iterations"], want["iterations"])):
            assert g == w, f"{name}: iteration {i + 1}"
        assert got == want, name
    assert recorded["mapreduce"].keys() == golden["mapreduce"].keys()


def test_golden_is_worth_pinning(golden):
    """The raw, combined and budgeted paths all ran and really differ in
    what they ship; otherwise the record pins one path twelve times."""
    cells = golden["mapreduce"]
    raw = cells["haversine/reducer/serial/unbudgeted"]["iterations"][0]
    combined = cells["haversine/combiner/serial/unbudgeted"]["iterations"][0]
    assert raw["map_output_records"] == 30_000 and raw["map_output_bytes"] == 480_000
    assert combined["shuffle_bytes"] < raw["shuffle_bytes"] / 10
    assert len({c["centroids_sha256"] for c in cells.values()}) > 2
    assert golden["sequential"]["haversine"] != golden["sequential"]["squared_euclidean"]
