"""Unit tests for k-means (Section VI, Figure 4, Tables II-III)."""

import numpy as np
import pytest

from repro.algorithms import kmeans
from repro.algorithms.kmeans import (
    CENTROIDS_CACHE_KEY,
    KMeansMapper,
    assign_points,
    kmeans_sequential,
    nearest_centroid,
    run_kmeans_mapreduce,
)
from repro.geo.distance import pairwise
from repro.geo.trace import TraceArray
from repro.mapreduce.bench import synthetic_corpus
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.config import Configuration
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import MapContext
from repro.mapreduce.runner import fresh_runner
from repro.mapreduce.types import ArrayPayload, Chunk


def three_blobs(n_per=100, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[39.90, 116.40], [39.95, 116.50], [39.85, 116.30]])
    pts = np.vstack(
        [c + rng.normal(0, 0.004, (n_per, 2)) for c in centers]
    )
    return pts, centers


class TestAssign:
    def test_assigns_to_nearest(self):
        centroids = np.array([[0.0, 0.0], [10.0, 10.0]])
        pts = np.array([[1.0, 1.0], [9.0, 9.0]])
        assert list(assign_points(pts, centroids, "squared_euclidean")) == [0, 1]

    def test_tie_breaks_to_lowest_index(self):
        centroids = np.array([[0.0, 0.0], [2.0, 0.0]])
        pts = np.array([[1.0, 0.0]])
        assert assign_points(pts, centroids, "squared_euclidean")[0] == 0

    def test_haversine_and_euclidean_can_agree_on_blobs(self):
        pts, centers = three_blobs()
        a = assign_points(pts, centers, "haversine")
        b = assign_points(pts, centers, "squared_euclidean")
        # Tight, well-separated blobs: both metrics give the same answer.
        assert np.array_equal(a, b)


class TestSequential:
    def test_recovers_blob_centers(self):
        pts, centers = three_blobs()
        res = kmeans_sequential(pts, 3, seed=7, max_iter=100)
        assert res.converged
        # Each true centre has a recovered centroid within ~0.002 degrees.
        d = np.abs(res.centroids[:, None, :] - centers[None, :, :]).sum(axis=2)
        assert d.min(axis=0).max() < 0.002

    def test_respects_max_iter(self):
        pts, _ = three_blobs()
        res = kmeans_sequential(pts, 3, seed=1, max_iter=2, convergence_delta=0.0)
        assert res.n_iterations <= 2

    def test_convergence_delta_zero_runs_until_stable(self):
        pts, _ = three_blobs(n_per=50)
        res = kmeans_sequential(pts, 3, seed=3, convergence_delta=0.0, max_iter=300)
        assert res.converged

    def test_initial_centroids_respected(self):
        pts, centers = three_blobs()
        res = kmeans_sequential(pts, 3, initial_centroids=centers, max_iter=50)
        assert res.converged
        assert res.n_iterations < 10  # warm start converges fast

    def test_k_larger_than_points_rejected(self):
        with pytest.raises(ValueError):
            kmeans_sequential(np.zeros((2, 2)), 5)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            kmeans_sequential(np.zeros(10), 2)
        with pytest.raises(ValueError):
            kmeans_sequential(np.zeros((10, 2)), 2, initial_centroids=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            kmeans_sequential(np.zeros((10, 2)), 2, max_iter=0)

    def test_unknown_metric_rejected(self):
        with pytest.raises(KeyError):
            kmeans_sequential(np.zeros((10, 2)), 2, metric="cosine")

    def test_empty_cluster_keeps_centroid(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0]])
        far = np.array([[0.0, 0.0], [50.0, 50.0]])
        res = kmeans_sequential(pts, 2, initial_centroids=far, max_iter=5)
        # The far centroid attracts nothing and must survive unchanged.
        assert np.allclose(res.centroids[1], [50.0, 50.0])

    def test_inertia_decreases_with_more_clusters(self):
        pts, _ = three_blobs()
        r1 = kmeans_sequential(pts, 1, seed=0)
        r3 = kmeans_sequential(pts, 3, seed=0)
        assert r3.inertia < r1.inertia

    def test_deterministic_given_seed(self):
        pts, _ = three_blobs()
        a = kmeans_sequential(pts, 3, seed=5)
        b = kmeans_sequential(pts, 3, seed=5)
        assert np.array_equal(a.centroids, b.centroids)


class TestKMeansPlusPlus:
    def test_deterministic_and_valid(self):
        pts, _ = three_blobs()
        a = kmeans_sequential(pts, 3, seed=5, init="kmeans++")
        b = kmeans_sequential(pts, 3, seed=5, init="kmeans++")
        assert np.array_equal(a.centroids, b.centroids)
        assert a.converged

    def test_seeds_spread_across_blobs(self):
        from repro.algorithms.kmeans import _init_centroids, assign_points

        pts, centers = three_blobs(n_per=200, seed=1)
        # With k=3 on three well-separated blobs, D^2-seeding lands one
        # seed per blob in the vast majority of draws.
        hits = 0
        for seed in range(20):
            init = _init_centroids(pts, 3, seed, "kmeans++")
            blob_of_seed = assign_points(init, centers, "squared_euclidean")
            hits += len(set(blob_of_seed.tolist())) == 3
        assert hits >= 16

    def test_no_worse_than_random_on_average(self):
        pts, _ = three_blobs(n_per=100, seed=2)
        rand = np.mean(
            [kmeans_sequential(pts, 3, seed=s, max_iter=30).inertia for s in range(12)]
        )
        pp = np.mean(
            [
                kmeans_sequential(pts, 3, seed=s, max_iter=30, init="kmeans++").inertia
                for s in range(12)
            ]
        )
        assert pp <= rand * 1.05

    def test_degenerate_duplicate_points(self):
        pts = np.zeros((10, 2))
        res = kmeans_sequential(pts, 3, seed=0, init="kmeans++", max_iter=5)
        assert res.centroids.shape == (3, 2)

    def test_unknown_init_rejected(self):
        pts, _ = three_blobs()
        with pytest.raises(ValueError, match="unknown init"):
            kmeans_sequential(pts, 3, init="farthest")

    def test_mr_driver_accepts_init(self, kmeans_env):
        runner, pts, _ = kmeans_env
        res = run_kmeans_mapreduce(
            runner, "traces", 3, seed=7, init="kmeans++", max_iter=5, workdir="w/pp"
        )
        assert res.centroids.shape == (3, 2)


@pytest.fixture()
def kmeans_env(runner):
    pts, centers = three_blobs(n_per=200, seed=4)
    arr = TraceArray.from_columns(
        ["u"], pts[:, 0], pts[:, 1], np.arange(len(pts), dtype=float)
    )
    runner.hdfs.chunk_size = 64 * 150  # 4 chunks
    runner.hdfs.put_trace_array("traces", arr)
    return runner, pts, centers


class TestMapReduce:
    def test_matches_sequential_exactly(self, kmeans_env):
        runner, pts, centers = kmeans_env
        init = pts[[0, 200, 400]]
        seq = kmeans_sequential(
            pts, 3, "squared_euclidean", 1e-12, 50, initial_centroids=init
        )
        mr = run_kmeans_mapreduce(
            runner, "traces", 3, "squared_euclidean", 1e-12, 50, initial_centroids=init
        )
        assert mr.converged == seq.converged
        assert mr.n_iterations == seq.n_iterations
        assert np.abs(mr.centroids - seq.centroids).max() < 1e-9

    def test_combiner_preserves_centroids(self, kmeans_env):
        runner, pts, _ = kmeans_env
        init = pts[[0, 200, 400]]
        plain = run_kmeans_mapreduce(
            runner, "traces", 3, initial_centroids=init, workdir="w/plain"
        )
        combined = run_kmeans_mapreduce(
            runner, "traces", 3, initial_centroids=init, use_combiner=True, workdir="w/comb"
        )
        assert np.abs(plain.centroids - combined.centroids).max() < 1e-9

    def test_combiner_shrinks_shuffle(self, kmeans_env):
        runner, pts, _ = kmeans_env
        init = pts[[0, 200, 400]]
        plain = run_kmeans_mapreduce(
            runner, "traces", 3, initial_centroids=init, max_iter=1, workdir="w/p"
        )
        combined = run_kmeans_mapreduce(
            runner, "traces", 3, initial_centroids=init, max_iter=1,
            use_combiner=True, workdir="w/c",
        )
        assert combined.history[0].shuffle_bytes < plain.history[0].shuffle_bytes / 10

    def test_iteration_history_recorded(self, kmeans_env):
        runner, pts, _ = kmeans_env
        res = run_kmeans_mapreduce(
            runner, "traces", 3, seed=2, max_iter=5, convergence_delta=0.0, workdir="w/h"
        )
        assert len(res.history) == res.n_iterations
        for i, stats in enumerate(res.history, start=1):
            assert stats.iteration == i
            assert stats.sim_seconds > 0
            assert stats.map_tasks == 4
        assert res.total_sim_seconds == pytest.approx(
            sum(s.sim_seconds for s in res.history)
        )

    def test_clusters_files_written_per_iteration(self, kmeans_env):
        """Figure 4's workflow: each iteration writes a clusters-i dir."""
        runner, pts, _ = kmeans_env
        res = run_kmeans_mapreduce(
            runner, "traces", 3, seed=2, max_iter=4, convergence_delta=0.0, workdir="w/f"
        )
        for i in range(1, res.n_iterations + 1):
            assert runner.hdfs.exists(f"w/f/clusters-{i}")
        records = runner.hdfs.read_records(f"w/f/clusters-{res.n_iterations}")
        assert {int(k) for k, _ in records} <= {0, 1, 2}
        for _, (lat, lon, count) in records:
            assert count > 0

    def test_haversine_iteration_costs_more_sim_time(self, kmeans_env):
        """Table III's metric effect, reproduced via the cost model."""
        runner, pts, _ = kmeans_env
        init = pts[[0, 200, 400]]
        sq = run_kmeans_mapreduce(
            runner, "traces", 3, "squared_euclidean", initial_centroids=init,
            max_iter=1, workdir="w/sq",
        )
        hv = run_kmeans_mapreduce(
            runner, "traces", 3, "haversine", initial_centroids=init,
            max_iter=1, workdir="w/hv",
        )
        assert hv.history[0].sim_seconds > sq.history[0].sim_seconds

    def test_unknown_distance_rejected(self, kmeans_env):
        runner, _, _ = kmeans_env
        with pytest.raises(KeyError):
            run_kmeans_mapreduce(runner, "traces", 3, distance="cosine")


class TestMapperBlocks:
    """The mapper's one sort-and-gather emits what one ``np.unique`` and a
    boolean mask per cluster emitted: same blocks, same rows in the same
    order, same modelled sizes."""

    @pytest.mark.parametrize("k", [1, 11, 300, 70_000])  # 70,000 > uint16: no radix sort
    def test_blocks_equal_the_mask_based_ones(self, k):
        rs = np.random.RandomState(k)
        n = 1_500 if k <= 300 else 150  # the oracle's (n, k) matrix stays small
        points = np.column_stack((rs.uniform(39, 41, n), rs.uniform(115, 117, n)))
        centroids = np.column_stack((rs.uniform(39, 41, k), rs.uniform(115, 117, k)))
        if k > 1:
            centroids[k // 2 :] += 30.0  # far away: empty clusters, also past the last used id
        cache = DistributedCache()
        cache.put(CENTROIDS_CACHE_KEY, centroids)
        conf = Configuration({"kmeans.distance": "squared_euclidean"})
        ctx = MapContext(conf, Counters(), cache, "m0", "n0")
        array = TraceArray.from_columns(["u"], points[:, 0], points[:, 1], np.arange(float(n)))
        mapper = KMeansMapper()
        mapper.setup(ctx)
        mapper.run(Chunk("c0", ArrayPayload(array)), ctx)

        assignment = np.argmin(pairwise("squared_euclidean", points, centroids), axis=1)
        want = [(int(cid), points[assignment == cid]) for cid in np.unique(assignment)]
        assert [key for key, _ in ctx.output] == [key for key, _ in want]
        assert all(type(key) is int for key, _ in ctx.output)
        for (_, got), (_, block) in zip(ctx.output, want):
            assert np.array_equal(got, block) and got.flags.c_contiguous
            assert np.array_equal(got.sum(axis=0), block.sum(axis=0))
        assert len(want) < k or k == 1
        assert ctx.output_records == n and ctx.output_nbytes == n * 16

    def test_empty_chunk_emits_nothing(self):
        cache = DistributedCache()
        cache.put(CENTROIDS_CACHE_KEY, np.zeros((3, 2)))
        ctx = MapContext(Configuration({}), Counters(), cache, "m0", "n0")
        mapper = KMeansMapper()
        mapper.setup(ctx)
        mapper.run(Chunk("c0", ArrayPayload(TraceArray.empty())), ctx)
        assert ctx.output == []


class TestCountArguments:
    """Unchecked, ``max_iter=0`` would return the initial centroids as a
    result, ``True`` act as 1, and ``k=0`` fail inside NumPy or the runner."""

    BAD = [
        ({"max_iter": 0}, "max_iter"),
        ({"max_iter": True}, "max_iter"),
        ({"max_iter": 2.0}, "max_iter"),
        ({"k": 0}, "k"),
        ({"k": True}, "k"),
        ({"k": 3.0}, "k"),
    ]

    @staticmethod
    def _call(driver, pts, runner, k=3, **kwargs):
        init = pts[: int(k)] if isinstance(k, int) else None
        if driver == "sequential":
            return kmeans_sequential(pts, k, initial_centroids=init, **kwargs)
        return run_kmeans_mapreduce(runner, "traces", k, initial_centroids=init, **kwargs)

    @pytest.mark.parametrize("driver", ["sequential", "mapreduce"])
    @pytest.mark.parametrize("kwargs, name", BAD)
    def test_both_drivers_reject_before_any_job(self, kmeans_env, driver, kwargs, name):
        runner, pts, _ = kmeans_env
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got "):
            self._call(driver, pts, runner, **kwargs)
        assert not runner.hdfs.exists("tmp/kmeans/clusters-1")
        assert len(runner.history.events) == 0

    @pytest.mark.parametrize("driver", ["sequential", "mapreduce"])
    def test_numpy_integers_are_integers(self, kmeans_env, driver):
        runner, pts, _ = kmeans_env
        res = self._call(driver, pts, runner, k=np.int64(3), max_iter=np.int32(2))
        assert res.centroids.shape == (3, 2) and 1 <= res.n_iterations <= 2

    @pytest.mark.parametrize("metric", ["haversine", "squared_euclidean"])
    def test_kernel_names_an_empty_centroid_set(self, metric):
        pts, _ = three_blobs(n_per=5)
        for call in (nearest_centroid, assign_points):
            with pytest.raises(ValueError, match="at least one centroid"):
                call(pts, np.empty((0, 2)), metric)


class TestExactRowFallback:
    """The unit-sphere key proves the winner on Table III's corpus, so the
    exact Haversine row is a near-tie path, not the common one."""

    @pytest.fixture()
    def fallback_rows(self, monkeypatch):
        rows = []
        exact = kmeans._exact_rows

        def counting(points, centroids):
            rows.append(len(points))
            return exact(points, centroids)

        monkeypatch.setattr(kmeans, "_exact_rows", counting)
        return rows

    @staticmethod
    def _corpus():
        # The e2e k-means workload's corpus at --scale 1 and its initial centroids.
        points = synthetic_corpus(200_000, seed=3).coordinates()
        return points, points[:11].copy()

    def test_a_benchmark_chunk_never_falls_back(self, fallback_rows):
        points, init = self._corpus()
        nearest_centroid(points[:8192], init, "haversine")
        assert fallback_rows == []

    def test_a_benchmark_run_almost_never_falls_back(self, fallback_rows):
        points, init = self._corpus()
        res = kmeans_sequential(
            points, 11, "haversine", convergence_delta=-1.0, max_iter=8, initial_centroids=init
        )
        # Eight assignment passes and the inertia pass: 1.8 M rows, of
        # which this corpus holds one genuine near-tie (two centroids
        # 0.4 mm apart in distance, 1.8e-14 apart in the argument).
        assert res.n_iterations == 8
        assert sum(fallback_rows) <= 1e-5 * 9 * len(points)

    def test_a_duplicated_centroid_sends_its_whole_cluster_to_the_exact_row(self, fallback_rows):
        points, init = self._corpus()
        chunk = points[:8192]
        init[4] = init[9]
        index, distance = nearest_centroid(chunk, init, "haversine")
        full = pairwise("haversine", chunk, init)
        assert np.array_equal(index, np.argmin(full, axis=1))
        assert np.array_equal(distance, full.min(axis=1))
        assert fallback_rows == [np.count_nonzero(index == 4)] and fallback_rows[0] > 0
        assert np.count_nonzero(index == 9) == 0

    @staticmethod
    def _check(point, centroids):
        points, centroids = np.array([point]), np.array(centroids)
        index, distance = nearest_centroid(points, centroids, "haversine")
        full = pairwise("haversine", points, centroids)
        assert np.array_equal(index, np.argmin(full, axis=1))
        assert np.array_equal(distance, full.min(axis=1))
        return index, distance

    def test_the_relative_tie_band_is_inside_the_band(self, fallback_rows):
        # a = 0.5 for both centroids, 5e-14 apart: beyond the absolute
        # band, within 2 * _TIE_BAND * a.
        self._check((0.0, 0.0), [(0.0, 90.0), (0.0, 90.0 + 5.7e-12)])
        assert fallback_rows == [1]

    @pytest.mark.parametrize("turns, rows", [(0, []), (10, [1])])
    def test_coordinates_beyond_180_widen_the_band(self, fallback_rows, turns, rows):
        # Arguments 1e-13 apart, the same place ten turns round: there
        # haversine_arg's subtraction error grows twentyfold.
        lon = 360.0 * turns
        self._check((0.0, lon), [(0.0, lon + 1.0), (0.0, lon + 1.0 + 6.6e-10)])
        assert fallback_rows == rows

    def test_a_point_on_a_centroid_past_the_pole_is_at_distance_zero(self):
        # (95°, 0°) is (85°, 180°), and its computed argument is -8.7e-19.
        index, distance = self._check((85.0, 180.0), [(0.0, 0.0), (95.0, 0.0)])
        assert index.tolist() == [1] and distance.tolist() == [0.0]


BAD = [np.nan, np.inf, -np.inf]
FINITE = "coordinates must be finite"


class TestNonFiniteCoordinates:
    """``argmin`` calls a NaN centroid every point's nearest, and a NaN
    point poisons its cluster's mean: both are errors, not answers."""

    @pytest.mark.parametrize("metric", ["haversine", "squared_euclidean"])
    @pytest.mark.parametrize("bad", BAD)
    def test_kernel_rejects_a_bad_point_or_centroid(self, metric, bad):
        pts, centers = three_blobs(n_per=20)
        poisoned = centers.copy()
        poisoned[1, 0] = bad
        for call in (nearest_centroid, assign_points):
            with pytest.raises(ValueError, match=FINITE):
                call(pts, poisoned, metric)
        pts[7, 1] = bad
        with pytest.raises(ValueError, match=FINITE):
            assign_points(pts, centers, metric)

    @pytest.mark.parametrize("metric", ["haversine", "squared_euclidean"])
    @pytest.mark.parametrize("bad", BAD)
    def test_sequential_driver_rejects_both(self, metric, bad):
        pts, centers = three_blobs(n_per=20)
        poisoned = centers.copy()
        poisoned[2, 1] = bad
        with pytest.raises(ValueError, match=FINITE):
            kmeans_sequential(pts, 3, metric, initial_centroids=poisoned)
        pts[0, 0] = bad
        with pytest.raises(ValueError, match=FINITE):
            kmeans_sequential(pts, 3, metric, seed=1)

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("metric", ["haversine", "squared_euclidean"])
    def test_mapreduce_driver_rejects_both_on_every_backend(self, backend, metric):
        pts, centers = three_blobs(n_per=200, seed=4)
        pts[301] = (np.nan, 116.0)
        array = TraceArray.from_columns(["u"], pts[:, 0], pts[:, 1], np.arange(600.0))
        with fresh_runner(
            {"traces": array}, chunk_size=64 * 150, backend=backend, max_workers=2
        ) as runner:
            # From inside a map task the error surfaces as itself.
            with pytest.raises(ValueError, match=FINITE):
                run_kmeans_mapreduce(runner, "traces", 3, metric, initial_centroids=centers)
            # Bad initial centroids are refused before any job runs.
            centers[0, 0] = np.inf
            with pytest.raises(ValueError, match=FINITE):
                run_kmeans_mapreduce(runner, "traces", 3, metric, initial_centroids=centers)
            assert not runner.hdfs.exists("tmp/kmeans/clusters-1")
