"""Unit tests for privacy metrics."""

import numpy as np
import pytest

from repro.attacks.poi import PointOfInterestEstimate
from repro.geo.synthetic import PointOfInterest
from repro.geo.trace import GeolocatedDataset, TraceArray
from repro.metrics.privacy import (
    anonymity_set_sizes,
    mixzone_anonymity_sets,
    poi_recovery,
    privacy_report,
)
from repro.sanitization.mixzones import MixZone


def _estimate(lat, lon, n=10):
    return PointOfInterestEstimate(lat, lon, n, 0.0, np.zeros(24, dtype=int))


def _truth(lat, lon, label="home"):
    return PointOfInterest(label, lat, lon)


class TestPoiRecovery:
    def test_perfect_recovery(self):
        ex = [_estimate(39.9, 116.4), _estimate(39.95, 116.5)]
        gt = [_truth(39.9, 116.4), _truth(39.95, 116.5, "work")]
        r = poi_recovery(ex, gt, match_radius_m=50.0)
        assert r.precision == 1.0 and r.recall == 1.0 and r.f1 == 1.0
        assert r.n_matched == 2
        assert r.mean_match_error_m < 1.0

    def test_partial_recovery(self):
        ex = [_estimate(39.9, 116.4)]
        gt = [_truth(39.9, 116.4), _truth(39.95, 116.5, "work")]
        r = poi_recovery(ex, gt)
        assert r.precision == 1.0
        assert r.recall == 0.5
        assert r.f1 == pytest.approx(2 / 3)

    def test_false_positives_hurt_precision(self):
        ex = [_estimate(39.9, 116.4), _estimate(10.0, 10.0)]
        gt = [_truth(39.9, 116.4)]
        r = poi_recovery(ex, gt)
        assert r.precision == 0.5 and r.recall == 1.0

    def test_one_to_one_matching(self):
        # Two estimates near one truth: only one may match.
        ex = [_estimate(39.9, 116.4), _estimate(39.9001, 116.4)]
        gt = [_truth(39.9, 116.4)]
        r = poi_recovery(ex, gt, match_radius_m=100.0)
        assert r.n_matched == 1

    def test_radius_enforced(self):
        ex = [_estimate(39.9, 116.4)]
        gt = [_truth(39.91, 116.4)]  # ~1.1 km away
        r = poi_recovery(ex, gt, match_radius_m=150.0)
        assert r.n_matched == 0
        assert np.isnan(r.mean_match_error_m)

    def test_empty_inputs(self):
        r = poi_recovery([], [_truth(0, 0)])
        assert r.precision == 0.0 and r.recall == 0.0 and r.f1 == 0.0


class TestAnonymitySets:
    def _two_user_ds(self):
        def mk(u):
            return TraceArray.from_columns(
                [u], np.full(5, 39.9), np.full(5, 116.4), np.arange(5.0) * 60
            )

        return GeolocatedDataset([mk("a"), mk("b")])

    def test_shared_cell_counts_both_users(self):
        sizes = anonymity_set_sizes(self._two_user_ds(), cell_m=500, window_s=3600)
        assert list(sizes) == [2]

    def test_separate_cells_are_singletons(self):
        ds = GeolocatedDataset(
            [
                TraceArray.from_columns(["a"], np.full(3, 39.9), np.full(3, 116.4), np.arange(3.0)),
                TraceArray.from_columns(["b"], np.full(3, 45.0), np.full(3, 10.0), np.arange(3.0)),
            ]
        )
        sizes = anonymity_set_sizes(ds, cell_m=500, window_s=3600)
        assert list(sizes) == [1, 1]

    def test_empty(self):
        assert len(anonymity_set_sizes(GeolocatedDataset())) == 0


class TestMixzoneSets:
    def test_zone_traversal_counted_per_window(self):
        zone = MixZone(39.9, 116.4, 500.0)
        ds = GeolocatedDataset(
            [
                TraceArray.from_columns(["a"], np.full(3, 39.9), np.full(3, 116.4), np.arange(3.0)),
                TraceArray.from_columns(["b"], np.full(3, 39.9), np.full(3, 116.4), np.arange(3.0)),
                TraceArray.from_columns(["c"], np.full(3, 45.0), np.full(3, 10.0), np.arange(3.0)),
            ]
        )
        sets = mixzone_anonymity_sets(ds, [zone], window_s=3600.0)
        assert list(sets[0]) == [2]

    def test_unvisited_zone_empty(self):
        zone = MixZone(0.0, 0.0, 100.0)
        ds = GeolocatedDataset(
            [TraceArray.from_columns(["a"], np.full(3, 39.9), np.full(3, 116.4), np.arange(3.0))]
        )
        sets = mixzone_anonymity_sets(ds, [zone])
        assert len(sets[0]) == 0


class TestHomeWorkAnonymity:
    def _pairs(self):
        home_a = (39.900, 116.400)
        work_a = (39.950, 116.500)
        return {
            "alice": (home_a, work_a),
            "bob": ((39.9001, 116.4001), (39.9501, 116.5001)),  # same cells
            "carol": ((39.980, 116.300), work_a),  # different home
        }

    def test_shared_pair_counted(self):
        from repro.metrics.privacy import home_work_anonymity

        sets = home_work_anonymity(self._pairs(), cell_m=1000.0)
        assert sets["alice"] == 2
        assert sets["bob"] == 2
        assert sets["carol"] == 1

    def test_everyone_merges_at_region_scale(self):
        # Note: anonymity is not per-user monotone in cell size (absolute
        # grid boundaries can split neighbours at some scales), but at
        # region scale the whole city shares one pair cell.
        from repro.metrics.privacy import home_work_anonymity

        coarse = home_work_anonymity(self._pairs(), cell_m=200_000.0)
        assert all(size == 3 for size in coarse.values())

    def test_golle_partridge_claim_on_synthetic(self, small_corpus):
        """Distinct random homes/works: pairs are unique at 1 km cells —
        the quasi-identifier effect the paper warns about."""
        from repro.metrics.privacy import home_work_anonymity

        _, users = small_corpus
        pairs = {
            u.user_id: (
                (u.home.latitude, u.home.longitude),
                (u.pois[1].latitude, u.pois[1].longitude),
            )
            for u in users
        }
        sets = home_work_anonymity(pairs, cell_m=1000.0)
        assert all(size == 1 for size in sets.values())

    def test_validation(self):
        from repro.metrics.privacy import home_work_anonymity

        with pytest.raises(ValueError):
            home_work_anonymity({}, cell_m=0.0)


class TestPrivacyReport:
    def test_bundle(self):
        ex = [_estimate(39.9, 116.4)]
        gt = [_truth(39.9, 116.4)]
        report = privacy_report(
            ex, gt, deanonymization_rate=0.25, anonymity_sets=np.array([3, 5])
        )
        assert report.poi.recall == 1.0
        assert report.deanonymization_rate == 0.25
        assert report.min_anonymity_set == 3


class TestDivisionGuards:
    """The precision/recall divisions are guarded: empty denominators
    come back 0.0 and bump the module's warning counter instead of
    raising ZeroDivisionError."""

    def setup_method(self):
        from repro.metrics.privacy import reset_division_warnings

        reset_division_warnings()

    def test_no_extracted_pois(self):
        from repro.metrics.privacy import division_warnings

        r = poi_recovery([], [_truth(39.9, 116.4)])
        assert r.precision == 0.0 and r.recall == 0.0 and r.f1 == 0.0
        assert division_warnings() == 1  # precision's denominator only

    def test_no_true_pois(self):
        from repro.metrics.privacy import division_warnings

        r = poi_recovery([_estimate(39.9, 116.4)], [])
        assert r.precision == 0.0 and r.recall == 0.0
        assert division_warnings() == 1  # recall's denominator only

    def test_both_empty(self):
        from repro.metrics.privacy import division_warnings

        r = poi_recovery([], [])
        assert r.precision == 0.0 and r.recall == 0.0
        assert division_warnings() == 2

    def test_clean_inputs_do_not_warn(self):
        from repro.metrics.privacy import division_warnings

        poi_recovery([_estimate(39.9, 116.4)], [_truth(39.9, 116.4)])
        assert division_warnings() == 0

    def test_counter_resets(self):
        from repro.metrics.privacy import division_warnings, reset_division_warnings

        poi_recovery([], [])
        assert division_warnings() > 0
        reset_division_warnings()
        assert division_warnings() == 0
