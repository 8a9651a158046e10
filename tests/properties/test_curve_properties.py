"""Property-based tests: space-filling curve invariants, and the
table-driven Hilbert key equal to the rotate-and-fold it replaced (kept
in ``tests/conftest.py``) at every order."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.spacefilling import hilbert_key, normalize_to_grid, zorder_key
from tests.conftest import hilbert_key_oracle, hilbert_xy_from_key_oracle

orders = st.integers(min_value=1, max_value=8)


@st.composite
def grid_points(draw):
    order = draw(orders)
    n_cells = 1 << order
    n = draw(st.integers(min_value=1, max_value=64))
    xs = draw(
        st.lists(st.integers(0, n_cells - 1), min_size=n, max_size=n)
    )
    ys = draw(
        st.lists(st.integers(0, n_cells - 1), min_size=n, max_size=n)
    )
    return order, np.array(xs, dtype=float), np.array(ys, dtype=float)


@given(grid_points())
def test_hilbert_key_in_range(data):
    order, xs, ys = data
    n_cells = 1 << order
    bounds = (0.0, 0.0, float(n_cells - 1), float(n_cells - 1))
    keys = hilbert_key(xs, ys, bounds, order)
    assert np.all(keys < n_cells * n_cells)


@given(grid_points())
def test_hilbert_roundtrip(data):
    order, xs, ys = data
    n_cells = 1 << order
    bounds = (0.0, 0.0, float(n_cells - 1), float(n_cells - 1))
    gx, gy = normalize_to_grid(xs, ys, bounds, order)
    keys = hilbert_key(xs, ys, bounds, order)
    bx, by = hilbert_xy_from_key_oracle(keys, order)
    assert np.array_equal(bx, gx)
    assert np.array_equal(by, gy)


@given(grid_points())
def test_zorder_injective_on_distinct_cells(data):
    order, xs, ys = data
    n_cells = 1 << order
    bounds = (0.0, 0.0, float(n_cells - 1), float(n_cells - 1))
    keys = zorder_key(xs, ys, bounds, order)
    cells = set(zip(xs.astype(int).tolist(), ys.astype(int).tolist()))
    assert len(np.unique(keys)) == len(cells)


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-80, max_value=80, allow_nan=False),
            st.floats(min_value=-170, max_value=170, allow_nan=False),
        ),
        min_size=2,
        max_size=50,
    )
)
def test_curves_accept_arbitrary_float_coordinates(points):
    pts = np.array(points)
    bounds = (
        float(pts[:, 0].min()),
        float(pts[:, 1].min()),
        float(pts[:, 0].max()),
        float(pts[:, 1].max()),
    )
    for curve in (zorder_key, hilbert_key):
        keys = curve(pts[:, 0], pts[:, 1], bounds, 10)
        assert len(keys) == len(pts)
        assert np.all(keys <= np.uint64((1 << 20) - 1) * np.uint64(1 << 20))


@st.composite
def curve_inputs(draw):
    """Any order 1-31; arbitrary points plus the four grid corners (the
    all-zero and all-one bit patterns); bounds that may be degenerate on
    either axis; possibly no points at all."""
    order = draw(st.integers(min_value=1, max_value=31))
    coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    n = draw(st.integers(min_value=0, max_value=40))
    xs = draw(st.lists(coords, min_size=n, max_size=n))
    ys = draw(st.lists(coords, min_size=n, max_size=n))
    if xs and draw(st.booleans()):
        if draw(st.booleans()):
            xs = [xs[0]] * n  # degenerate x extent
        else:
            ys = [ys[0]] * n  # degenerate y extent
    if xs:
        min_x, max_x, min_y, max_y = min(xs), max(xs), min(ys), max(ys)
        if draw(st.booleans()):
            xs += [min_x, max_x, min_x, max_x]
            ys += [min_y, min_y, max_y, max_y]
    else:
        min_x, max_x = sorted(draw(st.lists(coords, min_size=2, max_size=2)))
        min_y, max_y = sorted(draw(st.lists(coords, min_size=2, max_size=2)))
    bounds = (min_x, min_y, max_x, max_y)
    return order, np.array(xs, dtype=float), np.array(ys, dtype=float), bounds


@settings(max_examples=300, deadline=None)
@given(curve_inputs())
def test_hilbert_table_equals_rotate_and_fold(data):
    order, xs, ys, bounds = data
    keys = hilbert_key(xs, ys, bounds, order)
    want = hilbert_key_oracle(xs, ys, bounds, order)
    assert keys.dtype == want.dtype == np.uint64
    assert np.array_equal(keys, want)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=31), st.data())
def test_hilbert_table_equals_rotate_and_fold_on_grid_cells(order, data):
    # Points on (or next to) whole grid cells, so high and low bits of
    # every level vary — including the corner cells, all zeros and all ones.
    top = (1 << order) - 1
    cells = st.lists(st.integers(min_value=0, max_value=top), min_size=1, max_size=30)
    gx = data.draw(cells)
    gy = data.draw(st.lists(st.integers(0, top), min_size=len(gx), max_size=len(gx)))
    gx = np.array(gx + [0, top, 0, top], dtype=float)
    gy = np.array(gy + [0, 0, top, top], dtype=float)
    bounds = (0.0, 0.0, float(top), float(top))
    want = hilbert_key_oracle(gx, gy, bounds, order)
    assert np.array_equal(hilbert_key(gx, gy, bounds, order), want)
