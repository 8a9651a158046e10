"""Unit tests for space-filling curves."""

import numpy as np
import pytest

from repro.index.spacefilling import (
    CURVES,
    get_curve,
    hilbert_key,
    morton_interleave,
    normalize_to_grid,
    zorder_key,
)
from tests.conftest import hilbert_key_oracle, hilbert_xy_from_key_oracle


def _full_grid(order):
    n = 1 << order
    xs, ys = np.meshgrid(np.arange(n), np.arange(n))
    bounds = (0.0, 0.0, float(n - 1), float(n - 1))
    return xs.ravel().astype(float), ys.ravel().astype(float), bounds, n


class TestNormalizeToGrid:
    def test_corners_map_to_extremes(self):
        gx, gy = normalize_to_grid(
            np.array([0.0, 10.0]), np.array([0.0, 10.0]), (0, 0, 10, 10), order=4
        )
        assert gx[0] == 0 and gy[0] == 0
        assert gx[1] == 15 and gy[1] == 15

    def test_degenerate_extent_collapses(self):
        gx, gy = normalize_to_grid(
            np.array([5.0, 5.0]), np.array([1.0, 2.0]), (5, 0, 5, 2), order=4
        )
        assert np.all(gx == 0)
        assert gy[0] != gy[1]

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            normalize_to_grid(np.zeros(1), np.zeros(1), (1, 0, 0, 1))

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            normalize_to_grid(np.zeros(1), np.zeros(1), (0, 0, 1, 1), order=0)
        with pytest.raises(ValueError):
            normalize_to_grid(np.zeros(1), np.zeros(1), (0, 0, 1, 1), order=32)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("curve", [zorder_key, hilbert_key])
    def test_non_finite_coordinates_rejected(self, curve, bad):
        # Unchecked, a NaN bound made the span "degenerate": every point's
        # cell on that axis became 0 and the curve lost an axis.
        xs, ys = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0])
        for column in (xs, ys):
            poisoned = column.copy()
            poisoned[1] = bad
            args = (poisoned, ys) if column is xs else (xs, poisoned)
            with pytest.raises(ValueError, match="coordinates must be finite"):
                curve(*args, (0.0, 0.0, 2.0, 2.0))
        for i in range(4):
            bounds = [0.0, 0.0, 2.0, 2.0]
            bounds[i] = bad
            with pytest.raises(ValueError, match="bounds must be finite"):
                curve(xs, ys, tuple(bounds))


class TestMorton:
    def test_interleave_known_values(self):
        # x=0b11, y=0b00 -> 0b0101 = 5 ; x=0b00, y=0b11 -> 0b1010 = 10.
        out = morton_interleave(
            np.array([3, 0], dtype=np.uint64), np.array([0, 3], dtype=np.uint64)
        )
        assert list(out) == [5, 10]

    def test_bijective_on_grid(self):
        xs, ys, bounds, n = _full_grid(4)
        keys = zorder_key(xs, ys, bounds, order=4)
        assert len(np.unique(keys)) == n * n

    def test_key_range(self):
        xs, ys, bounds, n = _full_grid(3)
        keys = zorder_key(xs, ys, bounds, order=3)
        assert keys.min() == 0
        assert keys.max() == n * n - 1


class TestHilbert:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 8])
    def test_full_grid_equals_rotate_and_fold(self, order):
        xs, ys, bounds, _ = _full_grid(order)
        keys = hilbert_key(xs, ys, bounds, order=order)
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, hilbert_key_oracle(xs, ys, bounds, order=order))

    @pytest.mark.parametrize("order", [1, 7, 16, 29, 31])
    def test_empty_input(self, order):
        keys = hilbert_key(np.empty(0), np.empty(0), (0.0, 0.0, 1.0, 1.0), order=order)
        assert keys.dtype == np.uint64 and keys.shape == (0,)

    @pytest.mark.parametrize("order", [1, 2, 4, 6])
    def test_bijective(self, order):
        xs, ys, bounds, n = _full_grid(order)
        keys = hilbert_key(xs, ys, bounds, order=order)
        assert len(np.unique(keys)) == n * n
        assert keys.max() == n * n - 1

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_roundtrip_with_inverse(self, order):
        xs, ys, bounds, n = _full_grid(order)
        gx, gy = normalize_to_grid(xs, ys, bounds, order)
        keys = hilbert_key(xs, ys, bounds, order=order)
        bx, by = hilbert_xy_from_key_oracle(keys, order=order)
        assert np.array_equal(bx, gx)
        assert np.array_equal(by, gy)

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_continuity(self, order):
        """Consecutive Hilbert keys index 4-adjacent cells — the locality
        property Z-order lacks."""
        xs, ys, bounds, _ = _full_grid(order)
        gx, gy = normalize_to_grid(xs, ys, bounds, order)
        keys = hilbert_key(xs, ys, bounds, order=order)
        idx = np.argsort(keys)
        steps = np.abs(np.diff(gx[idx].astype(int))) + np.abs(np.diff(gy[idx].astype(int)))
        assert np.all(steps == 1)

    def test_zorder_has_jumps_hilbert_does_not(self):
        xs, ys, bounds, _ = _full_grid(4)
        gx, gy = normalize_to_grid(xs, ys, bounds, 4)

        def max_step(keys):
            idx = np.argsort(keys)
            return int(
                (np.abs(np.diff(gx[idx].astype(int))) + np.abs(np.diff(gy[idx].astype(int)))).max()
            )

        assert max_step(zorder_key(xs, ys, bounds, 4)) > 1
        assert max_step(hilbert_key(xs, ys, bounds, 4)) == 1


class TestRegistry:
    def test_curves_registered(self):
        assert set(CURVES) == {"zorder", "hilbert"}

    def test_get_curve_aliases(self):
        assert get_curve("Z-order") is zorder_key
        assert get_curve("z") is zorder_key
        assert get_curve("HILBERT") is hilbert_key

    def test_unknown_curve(self):
        with pytest.raises(KeyError):
            get_curve("peano")
