"""Unit tests for distance metrics."""

import numpy as np
import pytest

from repro.geo.distance import (
    EARTH_RADIUS_KM,
    METRIC_COST,
    METRICS,
    get_metric,
    haversine_arg,
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


def _recorded_haversine(lat1, lon1, lat2, lon2):
    """``haversine_km`` as the commit before ``haversine_arg`` had it,
    returning the argument too: the bits both must keep."""
    lat1, lon1, lat2, lon2 = map(np.radians, (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return a, 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def _coordinate_columns(n, seed, near=None):
    """(n, 2) rows over the globe, poles and date line in; every fifth
    row metres from (and one exactly on) its row of ``near``."""
    rs = np.random.RandomState(seed)
    rows = np.column_stack((rs.uniform(-90, 90, n), rs.uniform(-180, 180, n)))
    rows[:4] = [(90.0, 0.0), (-90.0, 180.0), (0.0, -180.0), (0.0, 180.0)]
    if near is not None:
        rows[4::5] = near[4 : len(rows) : 5] + rs.normal(0, 1e-5, rows[4::5].shape)
        rows[4] = near[4]
    return rows


class TestHaversineArgument:
    def test_bit_equal_to_the_argument_inside_haversine_km_in_both_orders(self):
        p = _coordinate_columns(500, 1)
        c = _coordinate_columns(13, 2, near=p)
        want, _ = _recorded_haversine(p[:, :1], p[:, 1:], c[:, 0], c[:, 1])
        point_major = haversine_arg(p[:, :1], p[:, 1:], c[:, 0], c[:, 1])
        centroid_major = haversine_arg(c[:, :1], c[:, 1:], p[:, 0], p[:, 1])
        assert np.array_equal(point_major, want)
        assert np.array_equal(centroid_major, want.T)  # sine is odd
        assert np.array_equal(pairwise(haversine_arg, c, p), want.T)

    def test_finishing_the_argument_gives_haversine_km(self):
        p = _coordinate_columns(300, 3)
        c = _coordinate_columns(300, 4, near=p)
        a = haversine_arg(p[:, 0], p[:, 1], c[:, 0], c[:, 1])
        finished = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
        assert np.array_equal(finished, haversine_km(p[:, 0], p[:, 1], c[:, 0], c[:, 1]))

    def test_one_array_operand_is_enough(self):
        c = _coordinate_columns(9, 5)
        want, _ = _recorded_haversine(39.9, 116.4, c[:, 0], c[:, 1])
        assert np.array_equal(haversine_arg(39.9, 116.4, c[:, 0], c[:, 1]), want)

    def test_haversine_km_keeps_its_recorded_bits(self):
        p = _coordinate_columns(400, 6)
        c = _coordinate_columns(400, 7, near=p)
        _, want = _recorded_haversine(p[:, 0], p[:, 1], c[:, 0], c[:, 1])
        assert np.array_equal(haversine_km(p[:, 0], p[:, 1], c[:, 0], c[:, 1]), want)
        _, matrix = _recorded_haversine(p[:, :1], p[:, 1:], c[:11, 0], c[:11, 1])
        assert np.array_equal(pairwise("haversine", p, c[:11]), matrix)
        for (la1, lo1), (la2, lo2) in zip(p[:50].tolist(), c[:50].tolist()):
            _, scalar = _recorded_haversine(la1, lo1, la2, lo2)
            got = haversine_km(la1, lo1, la2, lo2)
            assert got == scalar and np.ndim(got) == 0


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
