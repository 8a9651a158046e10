"""Unit tests for mix zones."""

import numpy as np
import pytest

from repro.geo.trace import GeolocatedDataset, TraceArray
from repro.sanitization.mixzones import MixZone, MixZoneSanitizer


ZONE = MixZone(latitude=39.92, longitude=116.45, radius_m=500.0)


def _commuter(user="u", reps=2):
    """A trail crossing the zone `reps` times: A -> zone -> B -> zone -> A..."""
    lat, lon, ts = [], [], []
    t = 0.0
    waypoints = []
    for _ in range(reps):
        waypoints += [(39.90, 116.40), (39.92, 116.45), (39.94, 116.50)]
    for wlat, wlon in waypoints:
        for _ in range(5):
            lat.append(wlat)
            lon.append(wlon)
            ts.append(t)
            t += 60.0
    return TraceArray.from_columns([user], np.array(lat), np.array(lon), np.array(ts))


class TestMixZone:
    def test_contains(self):
        inside = ZONE.contains(np.array([39.92]), np.array([116.45]))
        outside = ZONE.contains(np.array([39.90]), np.array([116.40]))
        assert inside[0] and not outside[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            MixZone(0.0, 0.0, 0.0)


class TestSanitizer:
    def test_in_zone_traces_suppressed(self):
        out = MixZoneSanitizer([ZONE]).sanitize_dataset(GeolocatedDataset([_commuter()]))
        flat = out.flat()
        assert not ZONE.contains(flat.latitude, flat.longitude).any()

    def test_pseudonym_changes_across_zone(self):
        out = MixZoneSanitizer([ZONE]).sanitize_dataset(GeolocatedDataset([_commuter(reps=2)]))
        # 2 round trips x 2 crossings -> >= 3 segments -> >= 3 pseudonyms.
        assert out.num_users() >= 3
        assert all(u.startswith("pseud-") for u in out.user_ids)

    def test_segments_are_time_contiguous(self):
        out = MixZoneSanitizer([ZONE]).sanitize_dataset(GeolocatedDataset([_commuter()]))
        spans = sorted(
            (t.timestamp.min(), t.timestamp.max()) for t in out.trails()
        )
        for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
            assert a_hi < b_lo  # no pseudonym straddles a zone visit

    def test_no_zone_crossing_keeps_single_pseudonym(self):
        trail = TraceArray.from_columns(
            ["u"], np.full(10, 39.90), np.full(10, 116.40), np.arange(10.0) * 60
        )
        out = MixZoneSanitizer([ZONE]).sanitize_dataset(GeolocatedDataset([trail]))
        assert out.num_users() == 1
        assert len(out.flat()) == 10

    def test_deterministic_pseudonyms(self):
        ds = GeolocatedDataset([_commuter()])
        a = MixZoneSanitizer([ZONE], seed=9).sanitize_dataset(ds)
        b = MixZoneSanitizer([ZONE], seed=9).sanitize_dataset(ds)
        assert a.user_ids == b.user_ids

    def test_different_users_get_different_pseudonyms(self):
        ds = GeolocatedDataset([_commuter("a"), _commuter("b")])
        out = MixZoneSanitizer([ZONE]).sanitize_dataset(ds)
        assert out.num_users() >= 6  # 3+ segments each, all distinct

    def test_entirely_inside_zone_suppressed(self):
        trail = TraceArray.from_columns(
            ["u"], np.full(5, 39.92), np.full(5, 116.45), np.arange(5.0)
        )
        out = MixZoneSanitizer([ZONE]).sanitize_dataset(GeolocatedDataset([trail]))
        assert len(out.flat()) == 0

    def test_requires_zones(self):
        with pytest.raises(ValueError):
            MixZoneSanitizer([])
