"""Property-based tests: distance metric axioms."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.distance import haversine_km, squared_euclidean

lat = st.floats(min_value=-89.0, max_value=89.0, allow_nan=False)
lon = st.floats(min_value=-179.0, max_value=179.0, allow_nan=False)
coord = st.tuples(lat, lon)


@given(coord)
def test_haversine_identity(p):
    assert haversine_km(p[0], p[1], p[0], p[1]) == 0.0


@given(coord, coord)
def test_haversine_symmetry(p, q):
    d1 = haversine_km(p[0], p[1], q[0], q[1])
    d2 = haversine_km(q[0], q[1], p[0], p[1])
    assert np.isclose(d1, d2, rtol=1e-12, atol=1e-12)


@given(coord, coord)
def test_haversine_nonnegative_and_bounded(p, q):
    d = haversine_km(p[0], p[1], q[0], q[1])
    assert 0.0 <= d <= 6371.01 * np.pi


@settings(max_examples=200)
@given(coord, coord, coord)
def test_haversine_triangle_inequality(p, q, r):
    pq = haversine_km(p[0], p[1], q[0], q[1])
    qr = haversine_km(q[0], q[1], r[0], r[1])
    pr = haversine_km(p[0], p[1], r[0], r[1])
    assert pr <= pq + qr + 1e-6


@given(coord, coord, coord)
def test_squared_euclidean_preserves_nearest(p, a, b):
    """The order relationship the paper relies on: argmin under squared
    Euclidean equals argmin under Euclidean."""
    da = np.hypot(a[0] - p[0], a[1] - p[1])
    db = np.hypot(b[0] - p[0], b[1] - p[1])
    sa = squared_euclidean(p[0], p[1], a[0], a[1])
    sb = squared_euclidean(p[0], p[1], b[0], b[1])
    assert (da < db) == (sa < sb) or np.isclose(da, db)

