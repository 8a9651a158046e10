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



def _squared_euclidean_reference(lat1, lon1, lat2, lon2):
    """The five-temporary expression :func:`squared_euclidean` replaced."""
    dlat = np.asarray(lat2, dtype=np.float64) - np.asarray(lat1, dtype=np.float64)
    dlon = np.asarray(lon2, dtype=np.float64) - np.asarray(lon1, dtype=np.float64)
    out = dlat * dlat + dlon * dlon
    return out if out.ndim else float(out)


# Coordinates where the arithmetic is delicate: signed zeros, subnormals,
# the antimeridian, and the overflow edge of a square.
edge_float = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 180.0, -180.0, 1e200]),
    st.floats(min_value=-180.0, max_value=180.0, allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)
#: Shapes that broadcast together: scalars, 0-d, row, column and full.
_SHAPES = [(), (1,), (4,), (3, 1), (1, 4), (3, 4)]


@st.composite
def _operand(draw):
    shape = draw(st.sampled_from(_SHAPES))
    if not shape and draw(st.booleans()):
        return draw(edge_float)  # a plain Python float
    n = int(np.prod(shape))
    values = draw(st.lists(edge_float, min_size=n, max_size=n))
    return np.array(values, dtype=np.float64).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(_operand(), _operand(), _operand(), _operand())
def test_squared_euclidean_in_place_is_bit_identical(lat1, lon1, lat2, lon2):
    """The in-place kernel returns the reference expression's bits, its
    type (a ``float`` for scalar operands) and its broadcast shape."""
    with np.errstate(over="ignore", invalid="ignore"):
        want = _squared_euclidean_reference(lat1, lon1, lat2, lon2)
        got = squared_euclidean(lat1, lon1, lat2, lon2)
    assert type(got) is type(want)
    got_bits = np.asarray(got, dtype=np.float64).view(np.uint64)
    want_bits = np.asarray(want, dtype=np.float64).view(np.uint64)
    assert got_bits.shape == want_bits.shape
    assert (got_bits == want_bits).all()
