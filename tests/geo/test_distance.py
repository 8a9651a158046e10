"""Unit tests for distance metrics."""

import numpy as np
import pytest

from repro.geo.distance import (
    EARTH_RADIUS_KM,
    METRIC_COST,
    METRICS,
    get_metric,
    haversine_km,
    haversine_m,
    pairwise,
    squared_euclidean,
)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(39.9, 116.4, 39.9, 116.4) == 0.0

    def test_known_distance_paris_london(self):
        # Paris (48.8566, 2.3522) to London (51.5074, -0.1278) ~ 343.5 km.
        d = haversine_km(48.8566, 2.3522, 51.5074, -0.1278)
        assert 340.0 < d < 347.0

    def test_one_degree_latitude(self):
        d = haversine_km(0.0, 0.0, 1.0, 0.0)
        assert d == pytest.approx(np.pi * EARTH_RADIUS_KM / 180.0, rel=1e-9)

    def test_antipodal(self):
        d = haversine_km(0.0, 0.0, 0.0, 180.0)
        assert d == pytest.approx(np.pi * EARTH_RADIUS_KM, rel=1e-9)

    def test_metres_variant(self):
        assert haversine_m(0.0, 0.0, 1.0, 0.0) == pytest.approx(
            haversine_km(0.0, 0.0, 1.0, 0.0) * 1000.0
        )

    def test_vectorized_broadcast(self):
        lats = np.array([0.0, 1.0, 2.0])
        d = haversine_km(0.0, 0.0, lats, 0.0)
        assert d.shape == (3,)
        assert d[0] == 0.0
        assert np.all(np.diff(d) > 0)

    def test_small_distance_precision(self):
        # ~11 m apart; haversine is famously stable here.
        d = haversine_m(39.9, 116.4, 39.9001, 116.4)
        assert d == pytest.approx(11.13, rel=0.01)


class TestPlanarMetrics:
    def test_squared_euclidean_matches_euclidean_squared(self):
        assert squared_euclidean(0.0, 0.0, 3.0, 4.0) == pytest.approx(25.0)

    def test_squared_preserves_order(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(50, 2))
        ref = np.zeros(2)
        d1 = np.hypot(a[:, 0] - ref[0], a[:, 1] - ref[1])
        d2 = squared_euclidean(ref[0], ref[1], a[:, 0], a[:, 1])
        assert np.array_equal(np.argsort(d1), np.argsort(d2))

    def test_scalar_returns_float(self):
        assert isinstance(squared_euclidean(0.0, 0.0, 1.0, 1.0), float)


class TestRegistry:
    def test_all_metrics_registered_with_costs(self):
        assert set(METRIC_COST) == set(METRICS)

    def test_get_metric_normalizes_names(self):
        assert get_metric("Haversine") is haversine_km
        assert get_metric("squared-euclidean") is squared_euclidean
        assert get_metric("SQUARED EUCLIDEAN") is squared_euclidean

    def test_get_metric_unknown(self):
        with pytest.raises(KeyError, match="unknown metric"):
            get_metric("chebyshev")

    def test_haversine_costs_more_than_squared_euclidean(self):
        # The premise behind the Table III iteration-time gap.
        assert METRIC_COST["haversine"] > METRIC_COST["squared_euclidean"]


class TestPairwise:
    def test_shape_and_values(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[0.0, 0.0], [0.0, 3.0], [4.0, 0.0]])
        d = pairwise("squared_euclidean", a, b)
        assert d.shape == (2, 3)
        assert d[0, 0] == 0.0
        assert d[0, 1] == 9.0
        assert d[0, 2] == 16.0

    def test_accepts_callable(self):
        a = np.array([[0.0, 0.0]])
        d = pairwise(squared_euclidean, a, a)
        assert d[0, 0] == 0.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            pairwise("squared_euclidean", np.zeros(3), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            pairwise("squared_euclidean", np.zeros((2, 3)), np.zeros((2, 2)))

    def test_haversine_pairwise_symmetric(self):
        pts = np.array([[39.9, 116.4], [40.0, 116.5], [39.8, 116.2]])
        d = pairwise("haversine", pts, pts)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)
