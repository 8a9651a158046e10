"""``repro.geo.grid``: the distinct-row kernel equals ``np.unique`` over
rows, and the grid equals the arithmetic it replaced, bit for bit.

``unique_rows == np.unique(axis=0)`` is a property of the NumPy build as
much as of this code (the shape of the row-wise inverse changed across
NumPy 2.0), so CI runs this file on the oldest supported NumPy too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.grid import grid_cells, time_windows, unique_rows
from repro.geo.synthetic import KM_PER_DEG_LAT

I64 = np.iinfo(np.int64)


def assert_equals_numpy(columns):
    rows, inverse, counts = unique_rows(*columns, return_inverse=True, return_counts=True)
    want_rows, want_inverse, want_counts = np.unique(
        np.stack(columns, 1), axis=0, return_inverse=True, return_counts=True
    )
    assert isinstance(rows, tuple) and len(rows) == len(columns)
    assert np.array_equal(np.stack(rows, 1), want_rows)
    assert inverse.dtype == np.intp and inverse.shape == (len(columns[0]),)
    assert np.array_equal(inverse, want_inverse.reshape(-1))
    assert np.array_equal(counts, want_counts)
    for got, column in zip(rows, columns):
        assert got.dtype == column.dtype
        assert np.array_equal(got[inverse], column)
    # The flag-less forms are the same values.
    assert all(map(np.array_equal, unique_rows(*columns), rows))
    assert np.array_equal(unique_rows(*columns, return_counts=True)[1], counts)
    assert np.array_equal(unique_rows(*columns, return_inverse=True)[1], inverse)


#: Few distinct values (so rows repeat), negatives, and extremes whose
#: packed single-int64 fold would overflow.
int_values = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([I64.min, I64.min + 1, -1, 0, I64.max - 1, I64.max]),
    st.integers(I64.min, I64.max),
)


@st.composite
def int_columns(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(0, 40))
    rows = draw(st.lists(st.tuples(*[int_values] * k), min_size=n, max_size=n))
    return list(np.array(rows, dtype=np.int64).reshape(n, k).T)


@settings(max_examples=200, deadline=None)
@given(columns=int_columns())
def test_unique_rows_equals_numpy_on_integer_columns(columns):
    assert_equals_numpy(columns)


float_values = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.5, -1.5, 5e-324, -np.inf, np.inf]),
    st.floats(allow_nan=False, width=64),
)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(float_values, float_values), max_size=30),
)
def test_unique_rows_equals_numpy_on_float_columns(rows):
    assert_equals_numpy(list(np.array(rows, dtype=np.float64).reshape(len(rows), 2).T))


@pytest.mark.parametrize(
    "columns",
    [
        [np.empty(0, dtype=np.int64)] * 3,
        [np.array([7], dtype=np.int64), np.array([-7], dtype=np.int64)],
        [np.full(50, 4, dtype=np.int64), np.full(50, -9, dtype=np.int64)],
        [np.array([I64.max, I64.min, I64.max, I64.min])] * 4,
        [np.array([0.0, -0.0, 0.0]), np.array([-0.0, 0.0, 1.0])],
        [np.array([3, 1, 3, 1], dtype=np.int32), np.array([2, 2, 2, 0], dtype=np.int64)],
    ],
    ids=["zero-rows", "single-row", "all-duplicate", "extremes", "signed-zero", "mixed-width"],
)
def test_unique_rows_edge_inputs(columns):
    assert_equals_numpy(columns)


def test_unique_rows_is_stable_on_a_window_sized_input():
    rs = np.random.RandomState(3)
    columns = [rs.randint(-5, 5, 8_333).astype(np.int64) for _ in range(4)]
    assert_equals_numpy(columns)


def replaced_arithmetic(lat, lon, cell_m):
    """The band-centre-cosine grid as every caller used to spell it."""
    m_per_deg_lat = KM_PER_DEG_LAT * 1000.0
    cell_lat = cell_m / m_per_deg_lat
    lat_band = np.floor(lat / cell_lat).astype(np.int64)
    cos_band = np.maximum(np.cos(np.radians((lat_band + 0.5) * cell_lat)), 1e-9)
    cell_lon = cell_m / (m_per_deg_lat * cos_band)
    lon_band = np.floor(lon / cell_lon).astype(np.int64)
    return lat_band, lon_band


@pytest.mark.parametrize("cell_m", [1.0, 50.0, 500.0, 20_000.0])
@pytest.mark.parametrize(
    "lat_range,lon_range",
    [
        ((-0.01, 0.01), (-0.01, 0.01)),
        ((89.8, 89.9), (-180.0, 180.0)),
        ((-89.9, -89.8), (-180.0, 180.0)),
        ((39.0, 41.0), (179.9, 180.1)),
        ((-41.0, -39.0), (-180.1, -179.9)),
        ((-90.0, 90.0), (-180.0, 180.0)),
    ],
    ids=["equator", "north-89.9", "south-89.9", "across+180", "across-180", "globe"],
)
def test_grid_cells_equals_the_arithmetic_it_replaced(cell_m, lat_range, lon_range):
    rs = np.random.RandomState(5)
    lat = np.append(rs.uniform(*lat_range, 2_000), lat_range)
    lon = np.append(rs.uniform(*lon_range, 2_000), lon_range)
    got = grid_cells(lat, lon, cell_m)
    want = replaced_arithmetic(lat, lon, cell_m)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert g.tobytes() == w.tobytes()


def test_grid_cells_of_nothing_is_nothing():
    lat_band, lon_band = grid_cells(np.empty(0), np.empty(0), 500.0)
    assert lat_band.shape == lon_band.shape == (0,)
    assert time_windows(np.empty(0), 60.0).shape == (0,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_cells_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="coordinates must be finite"):
        grid_cells(np.array([10.0, bad]), np.array([20.0, 20.0]), 500.0)
    with pytest.raises(ValueError, match="coordinates must be finite"):
        grid_cells(np.array([10.0, 10.0]), np.array([bad, 20.0]), 500.0)
    with pytest.raises(ValueError, match="timestamps must be finite"):
        time_windows(np.array([0.0, bad]), 3600.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_cell_and_window_sizes_must_be_positive_and_finite(bad):
    with pytest.raises(ValueError, match="cell_m must be positive"):
        grid_cells(np.array([10.0]), np.array([20.0]), bad)
    with pytest.raises(ValueError, match="window_s must be positive"):
        time_windows(np.array([0.0]), bad)


def test_time_windows_is_floor_division():
    ts = np.array([-0.5, 0.0, 3599.999, 3600.0, 1.2e9])
    assert time_windows(ts, 3600.0).tolist() == [-1, 0, 0, 1, 333333]
