"""Unit tests for stay/trip segmentation."""

import numpy as np
import pytest

from repro.geo.trace import TraceArray
from repro.geo.trajectory import segment_trail


def _build(segments, user="u"):
    """Build an array from (lat, lon, duration_s, interval_s) dwell specs
    and ('move', lat_from, lat_to, duration_s) movement specs."""
    lat, lon, ts = [], [], []
    t = 0.0
    for seg in segments:
        if seg[0] == "dwell":
            _, slat, slon, duration, interval = seg
            steps = int(duration / interval)
            for k in range(steps):
                lat.append(slat)
                lon.append(slon)
                ts.append(t)
                t += interval
        else:  # move
            _, lat_a, lat_b, duration = seg
            steps = max(int(duration / 10.0), 2)
            for k in range(steps):
                frac = k / (steps - 1)
                lat.append(lat_a + frac * (lat_b - lat_a))
                lon.append(116.4)
                ts.append(t)
                t += duration / steps
    return TraceArray.from_columns([user], np.array(lat), np.array(lon), np.array(ts))


class TestSegmentation:
    def test_two_stays_one_trip(self):
        arr = _build(
            [
                ("dwell", 39.90, 116.4, 1200, 30),
                ("move", 39.90, 39.95, 600),
                ("dwell", 39.95, 116.4, 1200, 30),
            ]
        )
        stays, trips = segment_trail(arr, roam_radius_m=100, min_stay_s=600)
        assert len(stays) == 2
        assert len(trips) == 1
        # Stay centres sit at the dwell points (the window may absorb the
        # first in-radius movement fixes, shifting the mean by metres).
        assert stays[0].latitude == pytest.approx(39.90, abs=1e-3)
        assert stays[1].latitude == pytest.approx(39.95, abs=1e-3)
        assert trips[0].start_ts >= stays[0].end_ts
        assert trips[0].distance_m > 4000

    def test_short_dwell_not_a_stay(self):
        arr = _build(
            [
                ("dwell", 39.90, 116.4, 120, 30),  # too short
                ("move", 39.90, 39.95, 600),
            ]
        )
        stays, trips = segment_trail(arr, roam_radius_m=100, min_stay_s=600)
        assert stays == []
        assert len(trips) == 1

    def test_stay_duration_and_counts(self):
        arr = _build([("dwell", 39.9, 116.4, 1800, 60)])
        stays, trips = segment_trail(arr, roam_radius_m=50, min_stay_s=900)
        assert len(stays) == 1
        assert stays[0].duration_s == pytest.approx(1740.0)  # (n-1)*60
        assert stays[0].n_traces == 30
        assert trips == []

    def test_logging_gap_splits_stay(self):
        a = _build([("dwell", 39.9, 116.4, 1200, 30)])
        b = TraceArray.from_columns(
            ["u"],
            np.full(40, 39.9),
            np.full(40, 116.4),
            10_000.0 + np.arange(40) * 30.0,  # hours later
        )
        arr = TraceArray.concatenate([a, b]).sort_by_time()
        stays, _ = segment_trail(arr, roam_radius_m=50, min_stay_s=600, max_gap_s=3600)
        assert len(stays) == 2

    def test_every_trace_in_exactly_one_segment(self):
        arr = _build(
            [
                ("dwell", 39.90, 116.4, 900, 30),
                ("move", 39.90, 39.93, 300),
                ("dwell", 39.93, 116.4, 900, 30),
                ("move", 39.93, 39.96, 300),
            ]
        )
        stays, trips = segment_trail(arr, roam_radius_m=80, min_stay_s=600)
        covered = sum(s.n_traces for s in stays) + sum(t.n_traces for t in trips)
        assert covered == len(arr)

    def test_empty_and_validation(self):
        assert segment_trail(TraceArray.empty()) == ([], [])
        with pytest.raises(ValueError):
            segment_trail(TraceArray.empty(), roam_radius_m=0)

    def test_synthetic_user_stays_near_pois(self, small_corpus):
        from repro.geo.distance import haversine_m

        dataset, users = small_corpus
        user = users[0]
        stays, trips = segment_trail(
            dataset.trail(user.user_id), roam_radius_m=100, min_stay_s=600
        )
        assert stays, "no stays found on a schedule-driven user"
        assert trips, "no trips found"
        # Most stays are at a ground-truth POI.
        poi_coords = [(p.latitude, p.longitude) for p in user.pois]
        near = sum(
            1
            for s in stays
            if min(float(haversine_m(s.latitude, s.longitude, la, lo)) for la, lo in poi_coords) < 150
        )
        assert near / len(stays) > 0.8

