"""Unit tests for POI extraction and home/work labelling."""

import numpy as np
import pytest

from repro.algorithms.djcluster import DJClusterParams, djcluster_sequential
from repro.attacks.poi import (
    NIGHT_HOURS,
    WORK_HOURS,
    PointOfInterestEstimate,
    extract_pois,
    label_home_work,
    poi_attack,
)
from repro.geo.distance import haversine_m
from repro.geo.trace import TraceArray


def _poi(label="poi", night=0.0, work=0.0, n=10):
    hist = np.zeros(24, dtype=int)
    n_night = int(n * night)
    n_work = int(n * work)
    for h in list(NIGHT_HOURS)[:1]:
        hist[h] = n_night
    hist[12] += n_work
    hist[19] += n - n_night - n_work
    return PointOfInterestEstimate(
        latitude=39.9,
        longitude=116.4,
        n_traces=n,
        dwell_time_s=0.0,
        hour_histogram=hist,
        label=label,
    )


class TestFractions:
    def test_night_fraction(self):
        p = _poi(night=0.6, n=10)
        assert p.night_fraction() == pytest.approx(0.6)

    def test_work_fraction(self):
        p = _poi(work=0.3, n=10)
        assert p.work_fraction() == pytest.approx(0.3)

    def test_empty_histogram(self):
        p = PointOfInterestEstimate(0, 0, 0, 0, np.zeros(24, dtype=int))
        assert p.night_fraction() == 0.0
        assert p.work_fraction() == 0.0

    def test_hour_sets_disjoint(self):
        assert not (NIGHT_HOURS & WORK_HOURS)


class TestLabelling:
    def test_home_is_nightiest(self):
        pois = [_poi(night=0.1, n=50), _poi(night=0.9, n=40), _poi(work=0.8, n=30)]
        label_home_work(pois)
        assert pois[1].label == "home"

    def test_work_is_workiest_non_home(self):
        pois = [_poi(night=0.9, n=50), _poi(work=0.9, n=30), _poi(n=20)]
        label_home_work(pois)
        assert pois[0].label == "home"
        assert pois[1].label == "work"
        assert pois[2].label == "poi"

    def test_single_poi_gets_home(self):
        pois = [_poi(night=0.5)]
        label_home_work(pois)
        assert pois[0].label == "home"

    def test_empty_list(self):
        assert label_home_work([]) == []

    def test_relabel_is_idempotent(self):
        pois = [_poi(night=0.9, n=40), _poi(work=0.8, n=30)]
        label_home_work(pois)
        first = [p.label for p in pois]
        label_home_work(pois)
        assert [p.label for p in pois] == first


class TestExtract:
    def _clustered(self, seed=0):
        rng = np.random.default_rng(seed)
        # A "home" blob at night hours and a "work" blob at midday.
        def blob(lat, lon, hours, n):
            ts = np.array([(h * 3600 + i * 60) for i, h in enumerate(np.random.default_rng(seed).choice(hours, n))], dtype=float)
            return (
                lat + rng.normal(0, 2e-5, n),
                lon + rng.normal(0, 2e-5, n),
                ts,
            )

        h = blob(39.90, 116.40, list(NIGHT_HOURS), 30)
        w = blob(39.95, 116.50, list(WORK_HOURS), 30)
        arr = TraceArray.from_columns(
            ["u"],
            np.concatenate([h[0], w[0]]),
            np.concatenate([h[1], w[1]]),
            np.concatenate([h[2], w[2]]),
        )
        return djcluster_sequential(arr, DJClusterParams(radius_m=50, min_pts=5), preprocess=False)

    def test_pois_sorted_by_support(self):
        res = self._clustered()
        pois = extract_pois(res)
        sizes = [p.n_traces for p in pois]
        assert sizes == sorted(sizes, reverse=True)

    def test_min_traces_filter(self):
        res = self._clustered()
        assert len(extract_pois(res, min_traces=10**6)) == 0

    def test_poi_centers_near_clusters(self):
        res = self._clustered()
        pois = extract_pois(res)
        assert len(pois) == 2
        for p in pois:
            d_home = haversine_m(p.latitude, p.longitude, 39.90, 116.40)
            d_work = haversine_m(p.latitude, p.longitude, 39.95, 116.50)
            assert min(d_home, d_work) < 30.0

    def test_full_attack_labels_home_and_work(self):
        res = self._clustered()
        # Run the end-to-end attack from the raw array.
        pois = poi_attack(res.preprocessed, DJClusterParams(radius_m=50, min_pts=5))
        labels = {p.label for p in pois}
        assert "home" in labels
        assert "work" in labels
        home = next(p for p in pois if p.label == "home")
        assert haversine_m(home.latitude, home.longitude, 39.90, 116.40) < 50.0


class TestKMeansExtractor:
    def _two_blob_array(self, seed=0):
        rng = np.random.default_rng(seed)
        lat = np.concatenate(
            [39.90 + rng.normal(0, 2e-5, 40), 39.95 + rng.normal(0, 2e-5, 40)]
        )
        lon = np.concatenate(
            [116.40 + rng.normal(0, 2e-5, 40), 116.50 + rng.normal(0, 2e-5, 40)]
        )
        ts = np.arange(80.0) * 60.0
        return TraceArray.from_columns(["u"], lat, lon, ts)

    def test_finds_blob_centers(self):
        from repro.attacks.poi import extract_pois_kmeans

        pois = extract_pois_kmeans(self._two_blob_array(), k=2, seed=3)
        assert len(pois) == 2
        for want in ((39.90, 116.40), (39.95, 116.50)):
            best = min(
                float(haversine_m(p.latitude, p.longitude, *want)) for p in pois
            )
            assert best < 30.0

    def test_min_traces_filters_clusters(self):
        from repro.attacks.poi import extract_pois_kmeans

        pois = extract_pois_kmeans(self._two_blob_array(), k=2, min_traces=1000)
        assert pois == []

    def test_too_few_points_returns_empty(self):
        from repro.attacks.poi import extract_pois_kmeans

        arr = TraceArray.from_columns(
            ["u"], np.array([39.9]), np.array([116.4]), np.array([0.0])
        )
        assert extract_pois_kmeans(arr, k=5) == []

    def test_preprocessing_applied_when_requested(self):
        from repro.attacks.poi import extract_pois_kmeans

        # Fast-moving traces between blobs would drag centroids without
        # the speed filter.
        arr = self._two_blob_array()
        moving_lat = np.linspace(39.90, 39.95, 20)
        moving = TraceArray.from_columns(
            ["u"], moving_lat, np.linspace(116.40, 116.50, 20),
            10_000.0 + np.arange(20.0) * 10.0,
        )
        noisy = TraceArray.concatenate([arr, moving])
        pois = extract_pois_kmeans(
            noisy, k=2, preprocess_params=DJClusterParams(), seed=1
        )
        for want in ((39.90, 116.40), (39.95, 116.50)):
            best = min(
                float(haversine_m(p.latitude, p.longitude, *want)) for p in pois
            )
            assert best < 50.0


class TestEndToEndOnSynthetic:
    def test_home_recovered_on_synthetic_user(self, small_corpus):
        from repro.algorithms.sampling import sample_array

        dataset, users = small_corpus
        user = users[0]
        sampled = sample_array(dataset.trail(user.user_id), 60.0)
        pois = poi_attack(sampled, DJClusterParams(radius_m=80, min_pts=6))
        assert pois, "no POIs extracted"
        best = min(
            haversine_m(p.latitude, p.longitude, user.home.latitude, user.home.longitude)
            for p in pois
        )
        assert best < 100.0, "home POI not recovered within 100 m"


class TestSegmentMeans:
    """``_segment_means`` is ``mean(axis=0)`` per segment, to the bit."""

    @staticmethod
    def _case(seed=0):
        rng = np.random.default_rng(seed)
        sizes = np.concatenate((np.arange(1, 41), [64, 65, 127, 200], rng.integers(1, 30, 60)))
        rng.shuffle(sizes)
        # Magnitudes far apart, so the summation order shows in the last bits.
        points = rng.uniform(-1.0, 1.0, (int(sizes.sum()) + 50, 2)) * 10.0 ** rng.integers(
            -8, 3, (int(sizes.sum()) + 50, 2)
        )
        points[:5] = [[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [-0.0, -0.0]]
        members = rng.permutation(len(points))[: int(sizes.sum())]
        members[:3] = [0, 3, 4]  # a segment of negative zeros leads
        lo = np.cumsum(sizes) - sizes
        return points, members, lo, sizes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_equal_to_mean_per_segment(self, seed):
        from repro.attacks.poi import _segment_means

        points, members, lo, sizes = self._case(seed)
        got = _segment_means(points, members, lo, sizes)
        want = np.array([points[members[s : s + m]].mean(axis=0) for s, m in zip(lo, sizes)])
        assert got.tobytes() == want.tobytes()

    def test_trap_is_armed(self):
        # A pairwise segmented sum lands elsewhere on this data, so the
        # test above would see a change of summation order.
        points, members, lo, sizes = self._case(0)
        pairwise = np.add.reduceat(points[members], lo, axis=0) / sizes[:, None]
        want = np.array([points[members[s : s + m]].mean(axis=0) for s, m in zip(lo, sizes)])
        assert pairwise.tobytes() != want.tobytes()

    def test_empty(self):
        from repro.attacks.poi import _segment_means

        got = _segment_means(np.zeros((3, 2)), np.zeros(0, dtype=np.int64), [], [])
        assert got.shape == (0, 2)
