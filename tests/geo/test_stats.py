"""Unit tests for mobility statistics."""

import numpy as np
import pytest

from repro.geo.stats import (
    corpus_summary,
    radius_of_gyration_m,
    sampling_interval_stats,
    user_stats,
)
from repro.geo.trace import GeolocatedDataset, TraceArray


def _trail(lat, lon, ts, user="u"):
    return TraceArray.from_columns(
        [user], np.asarray(lat, float), np.asarray(lon, float), np.asarray(ts, float)
    )


class TestRadiusOfGyration:
    def test_stationary_user_zero(self):
        t = _trail([39.9] * 10, [116.4] * 10, np.arange(10.0))
        assert radius_of_gyration_m(t) == pytest.approx(0.0, abs=1e-6)

    def test_two_point_commuter(self):
        # Half time at each of two points 2.2 km apart: r_g = half that.
        lat = [39.90] * 50 + [39.92] * 50
        t = _trail(lat, [116.4] * 100, np.arange(100.0))
        rg = radius_of_gyration_m(t)
        from repro.geo.distance import haversine_m

        separation = float(haversine_m(39.90, 116.4, 39.92, 116.4))
        assert rg == pytest.approx(separation / 2, rel=0.01)

    def test_scale_invariance_direction(self):
        far = _trail([39.9, 40.1], [116.4, 116.4], [0.0, 1.0])
        near = _trail([39.9, 39.91], [116.4, 116.4], [0.0, 1.0])
        assert radius_of_gyration_m(far) > radius_of_gyration_m(near) * 10

    def test_empty(self):
        assert radius_of_gyration_m(TraceArray.empty()) == 0.0


class TestIntervalStats:
    def test_regular_logging(self):
        t = _trail([39.9] * 100, [116.4] * 100, np.arange(100.0) * 3.0)
        stats = sampling_interval_stats(t)
        assert stats["median_s"] == 3.0
        assert stats["n_gaps"] == 0

    def test_gaps_excluded_and_counted(self):
        ts = np.concatenate([np.arange(50.0) * 2.0, 10_000.0 + np.arange(50.0) * 2.0])
        t = _trail([39.9] * 100, [116.4] * 100, ts)
        stats = sampling_interval_stats(t)
        assert stats["median_s"] == 2.0
        assert stats["n_gaps"] == 1

    def test_single_trace(self):
        t = _trail([39.9], [116.4], [0.0])
        assert sampling_interval_stats(t)["median_s"] == 0.0


class TestSummaries:
    def test_user_stats_fields(self):
        t = _trail([39.9, 39.95], [116.4, 116.4], [0.0, 60.0], user="bob")
        s = user_stats(t)
        assert s.user_id == "bob"
        assert s.n_traces == 2
        assert s.duration_s == 60.0
        assert s.radius_of_gyration_m > 1000

    def test_corpus_summary(self, small_corpus):
        dataset, _ = small_corpus
        summary = corpus_summary(dataset)
        assert summary["n_users"] == dataset.num_users()
        assert summary["n_traces"] == len(dataset)
        # GeoLife-like logging: 1-5 s intervals.
        assert 1.0 <= summary["median_interval_s"] <= 5.0
        # City-scale ranging: hundreds of metres to ~15 km.
        assert 200 < summary["median_rg_m"] < 20_000

    def test_empty_corpus(self):
        summary = corpus_summary(GeolocatedDataset())
        assert summary["n_users"] == 0.0


def test_interval_stats_when_every_gap_is_a_logger_off_period():
    arr = TraceArray.from_columns(["u"], [40.0] * 3, [116.0] * 3, [0.0, 3600.0, 7200.0])
    assert sampling_interval_stats(arr) == {
        "median_s": 0.0, "p90_s": 0.0, "mean_s": 0.0, "n_gaps": 2.0,
    }
