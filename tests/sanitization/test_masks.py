"""Unit tests for geographical masks."""

import numpy as np
import pytest

from repro.geo.distance import haversine_m
from repro.geo.trace import GeolocatedDataset, TraceArray
from repro.sanitization.masks import (
    DonutMask,
    GaussianMask,
    PlanarLaplaceMask,
    RoundingMask,
    UniformNoiseMask,
)
from repro.sanitization.mixzones import MixZone, MixZoneSanitizer
from repro.sanitization.pseudonyms import Pseudonymizer


def _array(n=500, seed=0):
    rng = np.random.default_rng(seed)
    return TraceArray.from_columns(
        ["u"],
        39.9 + rng.normal(0, 0.01, n),
        116.4 + rng.normal(0, 0.01, n),
        np.arange(n, dtype=float),
    )


def displacement(original, masked):
    return np.asarray(
        haversine_m(
            original.latitude, original.longitude, masked.latitude, masked.longitude
        )
    )


class TestGaussianMask:
    def test_displacement_scale(self):
        arr = _array(2000)
        masked = GaussianMask(sigma_m=100.0, seed=1).sanitize_array(arr)
        d = displacement(arr, masked)
        # 2-D isotropic Gaussian: mean displacement = sigma * sqrt(pi/2).
        assert d.mean() == pytest.approx(100.0 * np.sqrt(np.pi / 2), rel=0.1)

    def test_preserves_counts_users_timestamps(self):
        arr = _array()
        masked = GaussianMask(50.0, seed=2).sanitize_array(arr)
        assert len(masked) == len(arr)
        assert masked.users == arr.users
        assert np.array_equal(masked.timestamp, arr.timestamp)

    def test_zero_sigma_is_identity(self):
        arr = _array(10)
        masked = GaussianMask(0.0).sanitize_array(arr)
        assert np.array_equal(masked.latitude, arr.latitude)

    def test_deterministic_per_seed(self):
        arr = _array(50)
        a = GaussianMask(50.0, seed=3).sanitize_array(arr)
        b = GaussianMask(50.0, seed=3).sanitize_array(arr)
        c = GaussianMask(50.0, seed=4).sanitize_array(arr)
        assert np.array_equal(a.latitude, b.latitude)
        assert not np.array_equal(a.latitude, c.latitude)

    def test_chunk_invariant(self):
        """MapReduce contract: masking chunks separately must equal
        masking the whole array."""
        arr = _array(300)
        mask = GaussianMask(80.0, seed=5)
        whole = mask.sanitize_array(arr)
        split = [mask.sanitize_array(arr[:123]), mask.sanitize_array(arr[123:])]
        assert np.allclose(whole.latitude[:123], split[0].latitude)
        assert np.allclose(whole.latitude[123:], split[1].latitude)
        assert np.allclose(whole.longitude[123:], split[1].longitude)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            GaussianMask(-1.0)

    def test_empty_array(self):
        assert len(GaussianMask(10.0).sanitize_array(TraceArray.empty())) == 0


class TestUniformNoiseMask:
    def test_displacement_bounded_by_radius(self):
        arr = _array(2000)
        masked = UniformNoiseMask(radius_m=150.0, seed=1).sanitize_array(arr)
        d = displacement(arr, masked)
        assert d.max() <= 150.0 * 1.01
        # Uniform in a disc: mean displacement = 2R/3.
        assert d.mean() == pytest.approx(100.0, rel=0.1)

    def test_deterministic(self):
        arr = _array(50)
        a = UniformNoiseMask(100.0, seed=2).sanitize_array(arr)
        b = UniformNoiseMask(100.0, seed=2).sanitize_array(arr)
        assert np.array_equal(a.longitude, b.longitude)

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformNoiseMask(-5.0)


class TestDonutMask:
    def test_displacement_within_annulus(self):
        arr = _array(2000)
        masked = DonutMask(100.0, 250.0, seed=1).sanitize_array(arr)
        d = displacement(arr, masked)
        assert d.min() >= 100.0 * 0.98
        assert d.max() <= 250.0 * 1.02

    def test_guaranteed_minimum_unlike_gaussian(self):
        """The donut's raison d'etre: no point stays nearly unmoved."""
        arr = _array(2000)
        donut = displacement(arr, DonutMask(100.0, 250.0, seed=2).sanitize_array(arr))
        gauss = displacement(arr, GaussianMask(150.0, seed=2).sanitize_array(arr))
        assert donut.min() > 90.0
        assert gauss.min() < 50.0  # Gaussian leaves some points near home

    def test_deterministic_and_chunk_invariant(self):
        arr = _array(200)
        mask = DonutMask(50.0, 120.0, seed=3)
        whole = mask.sanitize_array(arr)
        split = mask.sanitize_array(arr[:80])
        assert np.allclose(whole.latitude[:80], split.latitude)

    def test_validation(self):
        with pytest.raises(ValueError):
            DonutMask(-1.0, 10.0)
        with pytest.raises(ValueError):
            DonutMask(20.0, 10.0)

    def test_zero_rmax_is_identity(self):
        arr = _array(10)
        out = DonutMask(0.0, 0.0).sanitize_array(arr)
        assert np.array_equal(out.latitude, arr.latitude)


class TestRoundingMask:
    def test_snaps_to_grid(self):
        arr = _array(500)
        masked = RoundingMask(cell_m=1000.0).sanitize_array(arr)
        # Many traces collapse onto few distinct coordinates (the spread
        # is ~1 km sigma, so 1 km cells leave only a handful of cells).
        distinct = len(set(zip(masked.latitude.tolist(), masked.longitude.tolist())))
        assert distinct < len(arr) / 5

    def test_displacement_bounded_by_cell_diagonal(self):
        arr = _array(500)
        cell = 200.0
        masked = RoundingMask(cell_m=cell).sanitize_array(arr)
        d = displacement(arr, masked)
        assert d.max() <= cell * np.sqrt(2) / 2 * 1.05

    def test_deterministic_and_chunk_invariant(self):
        arr = _array(200)
        mask = RoundingMask(cell_m=100.0)
        whole = mask.sanitize_array(arr)
        split0 = mask.sanitize_array(arr[:77])
        assert np.array_equal(whole.latitude[:77], split0.latitude)

    def test_idempotent(self):
        arr = _array(100)
        mask = RoundingMask(cell_m=100.0)
        once = mask.sanitize_array(arr)
        twice = mask.sanitize_array(once)
        assert np.allclose(once.latitude, twice.latitude)
        assert np.allclose(once.longitude, twice.longitude)

    def test_validation(self):
        with pytest.raises(ValueError):
            RoundingMask(0.0)


class TestPlanarLaplaceMask:
    def test_expected_displacement_is_two_over_epsilon(self):
        arr = _array(5000)
        eps = 0.02  # expected displacement 100 m
        masked = PlanarLaplaceMask(eps, seed=1).sanitize_array(arr)
        d = displacement(arr, masked)
        assert d.mean() == pytest.approx(2.0 / eps, rel=0.08)

    def test_radius_distribution_is_polar_laplace(self):
        """The radius CDF is 1 - (1 + eps*r) * exp(-eps*r); check the
        median against its closed(ish) form via empirical quantiles."""
        arr = _array(20_000)
        eps = 0.01
        masked = PlanarLaplaceMask(eps, seed=2).sanitize_array(arr)
        d = np.sort(displacement(arr, masked))
        # CDF at r: evaluate empirically at a couple of radii.
        for r in (100.0, 300.0):
            want = 1.0 - (1.0 + eps * r) * np.exp(-eps * r)
            got = np.searchsorted(d, r) / len(d)
            assert got == pytest.approx(want, abs=0.02)

    def test_deterministic_and_chunk_invariant(self):
        arr = _array(300)
        mask = PlanarLaplaceMask(0.02, seed=3)
        whole = mask.sanitize_array(arr)
        split = mask.sanitize_array(arr[:123])
        assert np.allclose(whole.latitude[:123], split.latitude)

    def test_smaller_epsilon_more_noise(self):
        arr = _array(3000)
        strong = displacement(arr, PlanarLaplaceMask(0.005, seed=4).sanitize_array(arr))
        weak = displacement(arr, PlanarLaplaceMask(0.05, seed=4).sanitize_array(arr))
        assert strong.mean() > weak.mean() * 5

    def test_validation(self):
        with pytest.raises(ValueError):
            PlanarLaplaceMask(0.0)
        with pytest.raises(ValueError):
            PlanarLaplaceMask(-1.0)

    def test_metadata_untouched(self):
        arr = _array(50)
        masked = PlanarLaplaceMask(0.01, seed=5).sanitize_array(arr)
        assert np.array_equal(masked.timestamp, arr.timestamp)
        assert masked.users == arr.users


class TestDatasetLevel:
    def test_sanitize_dataset_keeps_structure(self):
        arr = _array(100)
        ds = GeolocatedDataset([arr])
        out = GaussianMask(50.0, seed=1).sanitize_dataset(ds)
        assert out.user_ids == ["u"]
        assert len(out) == 100


@pytest.mark.parametrize(
    "mechanism",
    [
        PlanarLaplaceMask(epsilon=0.01, seed=1),
        RoundingMask(cell_m=500.0),
        Pseudonymizer(seed=1),
        MixZoneSanitizer([MixZone(39.92, 116.45, 500.0)]),
    ],
    ids=lambda m: type(m).__name__,
)
def test_an_empty_array_stays_empty(mechanism):
    empty = TraceArray.from_columns(["u"], [], [], [])
    assert len(mechanism.sanitize_array(empty)) == 0


def test_a_trail_sanitized_to_nothing_leaves_the_dataset():
    empty = TraceArray.from_columns(["u"], [], [], [])
    kept = TraceArray.from_columns(["v"], [40.0] * 3, [116.0] * 3, [0.0, 1.0, 2.0])
    out = RoundingMask(cell_m=500.0).sanitize_dataset(GeolocatedDataset([empty, kept]))
    assert out.user_ids == ["v"]
