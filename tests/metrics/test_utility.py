"""Unit tests for utility metrics."""

import numpy as np
import pytest

from repro.geo.trace import GeolocatedDataset, TraceArray
from repro.metrics.utility import (
    UtilityReport,
    coverage_ratio,
    spatial_distortion_m,
    trace_volume_ratio,
    utility_report,
)
from repro.sanitization.masks import GaussianMask


def _ds(n=200, seed=0):
    rng = np.random.default_rng(seed)
    return GeolocatedDataset(
        [
            TraceArray.from_columns(
                ["u"],
                39.9 + rng.normal(0, 0.01, n),
                116.4 + rng.normal(0, 0.01, n),
                np.arange(n, dtype=float),
            )
        ]
    )


class TestDistortion:
    def test_identity_has_zero_distortion(self):
        ds = _ds()
        mean, median = spatial_distortion_m(ds, ds)
        assert mean == 0.0 and median == 0.0

    def test_mask_distortion_tracks_sigma(self):
        ds = _ds(1000)
        masked = GaussianMask(100.0, seed=1).sanitize_dataset(ds)
        mean, median = spatial_distortion_m(ds, masked)
        assert mean == pytest.approx(100.0 * np.sqrt(np.pi / 2), rel=0.15)
        assert median > 0

    def test_unmatchable_returns_nan(self):
        ds = _ds()
        other = GeolocatedDataset(
            [
                TraceArray.from_columns(
                    ["different-user"], np.zeros(3), np.zeros(3), np.arange(3.0)
                )
            ]
        )
        mean, median = spatial_distortion_m(ds, other)
        assert np.isnan(mean) and np.isnan(median)


class TestVolume:
    def test_identity(self):
        ds = _ds()
        assert trace_volume_ratio(ds, ds) == 1.0

    def test_half_suppressed(self):
        ds = _ds(100)
        half = GeolocatedDataset.from_array(ds.flat()[:50])
        assert trace_volume_ratio(ds, half) == pytest.approx(0.5)

    def test_empty_original(self):
        assert trace_volume_ratio(GeolocatedDataset(), _ds()) == 0.0


class TestCoverage:
    def test_identity_full_coverage(self):
        ds = _ds()
        assert coverage_ratio(ds, ds) == 1.0

    def test_collapsing_everything_reduces_coverage(self):
        ds = _ds(500)
        flat = ds.flat()
        collapsed = GeolocatedDataset.from_array(
            flat.with_coordinates(np.full(len(flat), 39.9), np.full(len(flat), 116.4))
        )
        assert coverage_ratio(ds, collapsed, cell_m=200.0) < 0.2

    def test_empty_original_counts_as_covered(self):
        assert coverage_ratio(GeolocatedDataset(), _ds()) == 1.0


class TestRangeQueryError:
    def test_identity_zero_error(self):
        from repro.metrics.utility import range_query_error

        ds = _ds(500)
        assert range_query_error(ds, ds) == 0.0

    def test_empty_release_full_error(self):
        from repro.metrics.utility import range_query_error

        ds = _ds(500)
        empty = GeolocatedDataset()
        assert range_query_error(ds, empty) == pytest.approx(1.0)

    def test_small_noise_small_error(self):
        from repro.metrics.utility import range_query_error

        ds = _ds(2000)
        slightly = GaussianMask(30.0, seed=1).sanitize_dataset(ds)
        heavily = GaussianMask(2000.0, seed=1).sanitize_dataset(ds)
        err_small = range_query_error(ds, slightly, cell_m=1000.0)
        err_big = range_query_error(ds, heavily, cell_m=1000.0)
        assert err_small < err_big
        assert err_small < 0.35

    def test_deterministic_given_seed(self):
        from repro.metrics.utility import range_query_error

        ds = _ds(500)
        masked = GaussianMask(200.0, seed=2).sanitize_dataset(ds)
        a = range_query_error(ds, masked, seed=7)
        b = range_query_error(ds, masked, seed=7)
        assert a == b

    def test_empty_original(self):
        from repro.metrics.utility import range_query_error

        assert range_query_error(GeolocatedDataset(), _ds()) == 0.0


class TestReport:
    def test_bundles_all_metrics(self):
        ds = _ds()
        masked = GaussianMask(50.0, seed=2).sanitize_dataset(ds)
        report = utility_report(ds, masked)
        assert isinstance(report, UtilityReport)
        assert report.volume_ratio == 1.0
        assert report.mean_distortion_m > 0
