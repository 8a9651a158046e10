"""Property-based tests: the batched radius query's pruning rectangles,
built for all queries in one array pass, are bit for bit the per-query
rectangles — the one-row ``_radius_rect`` that ``query_radius`` prunes
with, and the ``math``-module helper the array form replaced (kept in
``tests/conftest.py``) — at the poles, at the ±180° clamp and for radii
from 0 to 5 km."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.rtree import _radius_rect, _radius_rects
from tests.conftest import radius_rect_oracle

#: Anywhere, plus the places the rectangle is clamped or widened:
#: exactly on and just inside both poles, the antimeridian on both sides.
latitudes = st.one_of(
    st.floats(min_value=-90.0, max_value=90.0),
    st.sampled_from([-90.0, -89.99999, -89.96, 0.0, -0.0, 89.96, 89.99999, 90.0]),
)
longitudes = st.one_of(
    st.floats(min_value=-180.0, max_value=180.0),
    st.sampled_from([-180.0, -179.99999, 0.0, 179.99999, 180.0]),
)
queries = st.lists(st.tuples(latitudes, longitudes), min_size=1, max_size=60)
radii = st.one_of(
    st.sampled_from([0.0, 1e-6, 5_000.0]),
    st.floats(min_value=0.0, max_value=5_000.0),
)


def _bits(rows) -> np.ndarray:
    return np.asarray(rows, dtype=np.float64).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(queries, radii)
def test_array_rectangles_equal_the_per_query_rectangles(points, radius):
    pts = np.array(points, dtype=np.float64)
    rects = _radius_rects(pts[:, 0], pts[:, 1], radius)
    assert rects.shape == (len(pts), 4) and rects.dtype == np.float64
    one_row = [_radius_rect(lat, lon, radius) for lat, lon in points]
    assert np.array_equal(
        _bits(rects),
        _bits([(r.min_lat, r.min_lon, r.max_lat, r.max_lon) for r in one_row]),
    )
    assert np.array_equal(_bits(rects), _bits([radius_rect_oracle(*p, radius) for p in points]))


@settings(max_examples=100, deadline=None)
@given(queries, radii)
def test_rectangles_cover_the_query_and_stay_on_the_globe(points, radius):
    pts = np.array(points, dtype=np.float64)
    rects = _radius_rects(pts[:, 0], pts[:, 1], radius)
    assert np.all(rects[:, 0] <= pts[:, 0]) and np.all(pts[:, 0] <= rects[:, 2])
    assert np.all(rects[:, 1] <= pts[:, 1]) and np.all(pts[:, 1] <= rects[:, 3])
    assert np.all(rects[:, [0, 2]] >= -90.0) and np.all(rects[:, [0, 2]] <= 90.0)
    assert np.all(rects[:, [1, 3]] >= -180.0) and np.all(rects[:, [1, 3]] <= 180.0)
    # A band that reaches a pole spans every longitude.
    polar = (rects[:, 0] == -90.0) | (rects[:, 2] == 90.0)
    assert np.all(rects[polar][:, [1, 3]] == [-180.0, 180.0])


def test_fixed_edge_cases():
    pts = np.array([[90.0, 0.0], [-90.0, 12.0], [10.0, 179.9999], [10.0, -179.9999], [0.0, 0.0]])
    for radius in (0.0, 1e-6, 5_000.0):
        rects = _radius_rects(pts[:, 0], pts[:, 1], radius)
        want = [radius_rect_oracle(lat, lon, radius) for lat, lon in pts.tolist()]
        assert np.array_equal(_bits(rects), _bits(want))
        assert tuple(rects[0, [1, 3]]) == tuple(rects[1, [1, 3]]) == (-180.0, 180.0)
    # Radius 0 is the exact point (no floor pad); 5 km clamps at ±180.
    assert np.array_equal(_radius_rects(pts[:, 0], pts[:, 1], 0.0)[4], [0.0, 0.0, 0.0, 0.0])
    wide = _radius_rects(pts[:, 0], pts[:, 1], 5_000.0)
    assert wide[2, 3] == 180.0 and wide[3, 1] == -180.0
    assert _radius_rects(np.empty(0), np.empty(0), 5_000.0).shape == (0, 4)
