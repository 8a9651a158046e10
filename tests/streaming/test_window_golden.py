"""What the quasi-identifier binning answers is pinned, window by window
(``tests/goldens/windows.py``): a kernel that returns a different band,
row order or count changes a field.
"""

import json

import pytest

from repro.geo.trace import TraceArray
from repro.streaming.manager import _top_cells
from tests.goldens.registry import changed, committed


@pytest.fixture(scope="module")
def golden():
    return json.loads(committed("windows"))


def test_stream_windows_match_recorded_golden():
    assert changed("windows", "windows/*") == []


def test_corpus_metrics_match_recorded_golden():
    assert changed("windows", "corpus/*") == []


def test_golden_is_worth_pinning(golden):
    """Shared cells, singleton cells, cross-window links and bands of both
    signs all occur; otherwise the record pins a degenerate case."""
    risks = [w["risk"] for w in golden["windows"]]
    assert any(0 < r["risk"] < 1 for r in risks)
    assert any(r["median_anonymity"] > 1 for r in risks)
    assert sum(w["linked_users"] for w in golden["windows"]) > 0
    assert max(golden["corpus"]["home_work_anonymity"].values()) > 1
    assert all(golden["corpus"]["mixzone_anonymity_sets"][z] for z in ("0", "1"))


def test_top_cell_ties_break_to_the_smallest_cell():
    # u visits three cells twice each, the smallest last; v only one.
    lat = [10.02, 10.02, 10.01, 10.01, 10.0, 10.0, 10.02]
    lon = [20.0, 20.0, 20.02, 20.02, 20.01, 20.01, 20.0]
    array = TraceArray.from_columns(["u"] * 6 + ["v"], lat, lon, range(7))
    top = _top_cells(array, 500.0)
    cells = {(la, lo): _top_cells(TraceArray.from_columns(["x"], [la], [lo], [0]), 500.0)["x"]
             for la, lo in zip(lat, lon)}
    assert top == {"u": min(cells.values()), "v": cells[(10.02, 20.0)]}
    assert _top_cells(TraceArray.empty(), 500.0) == {}
