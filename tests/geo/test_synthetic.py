"""Unit tests for the synthetic GeoLife-like generator."""

import numpy as np
import pytest

from repro.geo.distance import haversine_km, haversine_m
from repro.geo.synthetic import (
    SyntheticConfig,
    generate_dataset,
    generate_user,
)


class TestConfigValidation:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_users=0)
        with pytest.raises(ValueError):
            SyntheticConfig(days=0)

    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            SyntheticConfig(min_log_interval_s=5.0, max_log_interval_s=1.0)
        with pytest.raises(ValueError):
            SyntheticConfig(min_log_interval_s=0.0)


class TestGenerateUser:
    def test_deterministic_given_seed(self):
        cfg = SyntheticConfig(n_users=1, days=1, seed=9)
        a = generate_user(cfg, 0)
        b = generate_user(cfg, 0)
        assert len(a.trail) == len(b.trail)
        assert np.array_equal(a.trail.latitude, b.trail.latitude)

    def test_different_users_differ(self):
        cfg = SyntheticConfig(n_users=2, days=1, seed=9)
        a = generate_user(cfg, 0)
        b = generate_user(cfg, 1)
        assert a.home.coordinate != b.home.coordinate if hasattr(a.home, "coordinate") else True
        assert (a.home.latitude, a.home.longitude) != (b.home.latitude, b.home.longitude)

    def test_pois_within_city_radius(self):
        cfg = SyntheticConfig(n_users=1, days=1, seed=3, city_radius_km=10.0)
        user = generate_user(cfg, 0)
        for poi in user.pois:
            d = haversine_km(cfg.center_lat, cfg.center_lon, poi.latitude, poi.longitude)
            assert d <= cfg.city_radius_km * 1.05

    def test_home_and_work_labels(self):
        user = generate_user(SyntheticConfig(n_users=1, days=1, seed=3), 0)
        assert user.pois[0].label == "home"
        assert user.pois[1].label == "work"
        assert user.home is user.pois[0]

    def test_trail_sorted_when_days_overlap(self):
        """Dwells longer than a day push one day's log past the next day's
        start; the trail is still in time order."""
        cfg = SyntheticConfig(
            n_users=1, days=2, dwell_mean_s=60_000.0,
            min_log_interval_s=60.0, max_log_interval_s=120.0, seed=0,
        )
        assert np.all(np.diff(generate_user(cfg, 0).trail.timestamp) >= 0)

    def test_trail_sorted_and_dense(self):
        cfg = SyntheticConfig(n_users=1, days=1, seed=5)
        user = generate_user(cfg, 0)
        ts = user.trail.timestamp
        assert np.all(np.diff(ts) >= 0)
        gaps = np.diff(ts)
        logged = gaps[gaps <= cfg.max_log_interval_s + 1e-9]
        # The bulk of consecutive fixes respect the 1-5 s logging interval.
        assert len(logged) / len(gaps) > 0.95
        assert logged.min() >= cfg.min_log_interval_s - 1e-9

    def test_trail_has_dwell_and_movement(self):
        # Dwell vs movement is only visible above the GPS-jitter timescale,
        # so measure on 60 s-sampled traces — the granularity at which the
        # paper's preprocessing filter operates (Table IV).
        from repro.algorithms.sampling import sample_array

        cfg = SyntheticConfig(n_users=1, days=2, seed=5)
        user = generate_user(cfg, 0)
        arr = sample_array(user.trail, 60.0)
        step_m = np.asarray(
            haversine_m(
                arr.latitude[:-1], arr.longitude[:-1], arr.latitude[1:], arr.longitude[1:]
            )
        )
        dt = np.diff(arr.timestamp)
        speeds = step_m[dt > 0] / dt[dt > 0]
        stationary = float(np.mean(speeds < 0.2))
        moving = float(np.mean(speeds > 0.5))
        assert stationary > 0.2, "expected substantial dwell time"
        assert moving > 0.1, "expected substantial movement"

    def test_traces_near_pois_exist(self):
        cfg = SyntheticConfig(n_users=1, days=1, seed=7)
        user = generate_user(cfg, 0)
        arr = user.trail
        d_home = np.asarray(
            haversine_m(user.home.latitude, user.home.longitude, arr.latitude, arr.longitude)
        )
        assert (d_home < 25.0).sum() > 10, "user never dwells at home"


class TestGenerateDataset:
    def test_user_count_and_ids(self):
        cfg = SyntheticConfig(n_users=3, days=1, seed=2)
        ds, users = generate_dataset(cfg)
        assert len(ds.users) == 3
        assert [u.user_id for u in users] == ["000", "001", "002"]
        assert ds.users == ("000", "001", "002")

    def test_total_traces_match(self):
        cfg = SyntheticConfig(n_users=2, days=1, seed=2)
        ds, users = generate_dataset(cfg)
        assert len(ds) == sum(len(u.trail) for u in users)

    def test_scales_with_days(self):
        one = generate_dataset(SyntheticConfig(n_users=1, days=1, seed=4))[0]
        three = generate_dataset(SyntheticConfig(n_users=1, days=3, seed=4))[0]
        assert len(three) > 1.5 * len(one)


def test_segments_too_short_for_one_fix_are_empty():
    from repro.geo.synthetic import PointOfInterest, _log_timestamps, _trip_segment

    rng = np.random.default_rng(0)
    sparse = SyntheticConfig(n_users=1, days=1, min_log_interval_s=60.0, max_log_interval_s=61.0)
    assert len(_log_timestamps(rng, sparse, 100.0, 0.0)) == 0
    here = PointOfInterest("home", 40.0, 116.0)
    lat, lon, ts, duration = _trip_segment(rng, sparse, here, here, 100.0, 10.0)
    assert len(lat) == len(lon) == len(ts) == 0 and duration == 30.0
