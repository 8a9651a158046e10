"""Unit tests for DJ-Cluster (Section VII, Figure 5, Table IV)."""

import math

import numpy as np
import pytest

from repro.algorithms.djcluster import (
    DJClusterParams,
    djcluster_sequential,
    filter_moving_traces,
    preprocess_array,
    remove_redundant_traces,
    run_djcluster_mapreduce,
    run_preprocessing_pipeline,
    trace_speeds,
    _merge_neighborhoods,
)
from repro.geo.trace import TraceArray
from repro.index.selfjoin import radius_self_join
from tests.conftest import UnionFind


def _array(lat, lon, ts, user="u"):
    return TraceArray.from_columns(
        [user], np.asarray(lat, float), np.asarray(lon, float), np.asarray(ts, float)
    )


def _cluster_blob(center_lat, center_lon, n, t0, rng, jitter=2e-5):
    return (
        center_lat + rng.normal(0, jitter, n),
        center_lon + rng.normal(0, jitter, n),
        t0 + np.arange(n) * 60.0,
    )


class TestParams:
    def test_defaults_match_paper_epsilon(self):
        p = DJClusterParams()
        # 0.2 m/s == 0.72 km/h, the threshold quoted in Section VII-A.
        assert p.speed_threshold_ms == pytest.approx(0.2)
        assert p.speed_threshold_ms * 3.6 == pytest.approx(0.72)

    def test_validation(self):
        with pytest.raises(ValueError):
            DJClusterParams(radius_m=0)
        with pytest.raises(ValueError):
            DJClusterParams(min_pts=0)
        with pytest.raises(ValueError):
            DJClusterParams(speed_threshold_ms=-1)
        with pytest.raises(ValueError):
            DJClusterParams(dedup_tolerance_m=-1)

    # Each was accepted: NaN speed kept no trace (0 clusters from 0 traces
    # after two jobs), 2.5 points acted as 3, True as 1, an infinite radius
    # failed inside a map task four jobs in, a one-entry node cannot split.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("speed_threshold_ms", math.nan),
            ("min_pts", 2.5),
            ("min_pts", True),
            ("radius_m", math.inf),
            ("dedup_tolerance_m", math.nan),
            ("rtree_max_entries", 1),
        ],
        ids=["nan-speed", "fractional-min-pts", "bool-min-pts", "inf-radius",
             "nan-dedup", "one-entry-nodes"],
    )
    def test_bad_parameter_is_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            DJClusterParams(**{field: value})


class TestSpeeds:
    def test_stationary_traces_have_low_speed(self):
        # Same point logged each minute: only jitterless zero movement.
        arr = _array([39.9] * 5, [116.4] * 5, np.arange(5) * 60.0)
        speeds = trace_speeds(arr)
        assert np.all(speeds == 0.0)

    def test_moving_trace_speed_estimate(self):
        # ~111 m per minute northward ~ 1.85 m/s.
        lat = 39.9 + np.arange(5) * 0.001
        arr = _array(lat, [116.4] * 5, np.arange(5) * 60.0)
        speeds = trace_speeds(arr)
        assert np.all(speeds[1:-1] > 1.5)
        # Interior speeds use the (prev, next) window.
        assert speeds[2] == pytest.approx(111.19 * 2 / 120.0, rel=0.01)

    def test_endpoints_use_one_sided_window(self):
        lat = 39.9 + np.arange(3) * 0.001
        arr = _array(lat, [116.4] * 3, np.arange(3) * 60.0)
        speeds = trace_speeds(arr)
        assert speeds[0] > 0 and speeds[-1] > 0

    def test_per_user_boundaries_respected(self):
        # Two users far apart; the user boundary must not create a
        # phantom "jump" speed.
        arr = TraceArray.from_columns(
            ["a", "a", "b", "b"],
            np.array([39.9, 39.9, 45.0, 45.0]),
            np.array([116.4, 116.4, 10.0, 10.0]),
            np.array([0.0, 60.0, 0.0, 60.0]),
        )
        speeds = trace_speeds(arr.sort_by_time())
        assert np.all(speeds == 0.0)

    def test_single_trace_is_stationary(self):
        arr = _array([39.9], [116.4], [0.0])
        assert trace_speeds(arr)[0] == 0.0

    def test_empty(self):
        assert len(trace_speeds(TraceArray.empty())) == 0


class TestSpeedFilter:
    def test_keeps_stationary_drops_moving(self):
        rng = np.random.default_rng(0)
        dwell = _cluster_blob(39.9, 116.4, 10, 0.0, rng)
        move_lat = 39.9 + 0.001 + np.arange(5) * 0.002  # fast movement
        arr = _array(
            np.concatenate([dwell[0], move_lat]),
            np.concatenate([dwell[1], np.full(5, 116.4)]),
            np.concatenate([dwell[2], 600.0 + np.arange(5) * 60.0]),
        )
        kept = filter_moving_traces(arr, 0.2)
        assert 8 <= len(kept) <= 12  # the dwell survives, the trip mostly not

    def test_threshold_zero_keeps_only_exact_repeats(self):
        arr = _array([39.9, 39.9, 39.9001], [116.4] * 3, [0.0, 60.0, 120.0])
        kept = filter_moving_traces(arr, 0.0)
        assert len(kept) < 3


class TestDedup:
    def test_collapses_redundant_run_to_first(self):
        arr = _array([39.9, 39.9, 39.9, 39.95], [116.4] * 4, [0, 60, 120, 180])
        out = remove_redundant_traces(arr, tolerance_m=2.0)
        assert len(out) == 2
        assert list(out.timestamp) == [0.0, 180.0]

    def test_tolerance_controls_aggressiveness(self):
        lat = 39.9 + np.arange(5) * 1e-5  # ~1.1 m steps
        arr = _array(lat, [116.4] * 5, np.arange(5) * 60.0)
        assert len(remove_redundant_traces(arr, 0.5)) == 5
        assert len(remove_redundant_traces(arr, 2.0)) == 1

    def test_different_users_never_merged(self):
        arr = TraceArray.from_columns(
            ["a", "b"], np.array([39.9, 39.9]), np.array([116.4, 116.4]),
            np.array([0.0, 1.0]),
        )
        assert len(remove_redundant_traces(arr, 10.0)) == 2

    def test_short_arrays(self):
        assert len(remove_redundant_traces(TraceArray.empty(), 1.0)) == 0
        one = _array([39.9], [116.4], [0.0])
        assert len(remove_redundant_traces(one, 1.0)) == 1


class TestPreprocessTableIVShape:
    def test_both_stage_counts_reported(self, small_array):
        from repro.algorithms.sampling import sample_array

        sampled = sample_array(small_array, 60.0)
        params = DJClusterParams()
        stationary, deduped = preprocess_array(sampled, params)
        # Table IV shape: the speed filter removes a large moving share;
        # dedup shaves a much smaller extra slice.
        assert 0.3 < len(stationary) / len(sampled) < 0.9
        assert len(deduped) <= len(stationary)
        removed_by_filter = len(sampled) - len(stationary)
        removed_by_dedup = len(stationary) - len(deduped)
        assert removed_by_filter > removed_by_dedup


class TestUnionFind:
    def test_components(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        uf.union(10, 11)
        uf.find(99)
        comps = {frozenset(c.tolist()) for c in uf.components()}
        assert comps == {frozenset({1, 2, 3}), frozenset({10, 11}), frozenset({99})}

    def test_merge_neighborhoods_joinable(self):
        hoods = [np.array([1, 2, 3]), np.array([3, 4]), np.array([10, 11])]
        clusters = _merge_neighborhoods(hoods)
        sigs = {frozenset(c.tolist()) for c in clusters}
        assert sigs == {frozenset({1, 2, 3, 4}), frozenset({10, 11})}

    def test_merge_empty(self):
        assert _merge_neighborhoods([]) == []
        assert _merge_neighborhoods([np.array([], dtype=np.int64)]) == []


class TestSequentialClustering:
    def _two_poi_array(self, n=40, seed=1):
        rng = np.random.default_rng(seed)
        a = _cluster_blob(39.90, 116.40, n, 0.0, rng)
        b = _cluster_blob(39.95, 116.50, n, 1e5, rng)
        noise_lat = np.array([39.80])  # isolated point
        return _array(
            np.concatenate([a[0], b[0], noise_lat]),
            np.concatenate([a[1], b[1], [116.2]]),
            np.concatenate([a[2], b[2], [2e5]]),
        )

    def test_finds_two_clusters_and_noise(self):
        arr = self._two_poi_array()
        params = DJClusterParams(radius_m=50, min_pts=5)
        res = djcluster_sequential(arr, params, preprocess=False)
        assert res.n_clusters == 2
        assert len(res.noise_ids) == 1
        assert set(res.labels.tolist()) == {-1, 0, 1}

    def test_clusters_non_overlapping_and_min_size(self):
        arr = self._two_poi_array()
        params = DJClusterParams(radius_m=50, min_pts=5)
        res = djcluster_sequential(arr, params, preprocess=False)
        seen = set()
        for ids in res.clusters:
            assert len(ids) >= params.min_pts
            as_set = set(ids.tolist())
            assert not (seen & as_set)
            seen |= as_set

    def test_every_trace_clustered_or_noise(self):
        arr = self._two_poi_array()
        res = djcluster_sequential(arr, DJClusterParams(radius_m=50, min_pts=5), preprocess=False)
        clustered = {int(i) for ids in res.clusters for i in ids}
        noise = set(res.noise_ids.tolist())
        assert clustered | noise == set(range(len(res.preprocessed)))
        assert not clustered & noise

    def test_min_pts_sensitivity(self):
        arr = self._two_poi_array(n=8)
        loose = djcluster_sequential(arr, DJClusterParams(radius_m=50, min_pts=3), preprocess=False)
        strict = djcluster_sequential(arr, DJClusterParams(radius_m=50, min_pts=50), preprocess=False)
        assert loose.n_clusters == 2
        assert strict.n_clusters == 0

    def test_centroids_near_blob_centers(self):
        arr = self._two_poi_array()
        res = djcluster_sequential(arr, DJClusterParams(radius_m=50, min_pts=5), preprocess=False)
        cents = res.cluster_centroids()
        want = np.array([[39.90, 116.40], [39.95, 116.50]])
        d = np.abs(cents[:, None, :] - want[None, :, :]).sum(axis=2)
        assert d.min(axis=1).max() < 1e-3

    def test_empty_input(self):
        res = djcluster_sequential(TraceArray.empty())
        assert res.n_clusters == 0
        assert len(res.noise_ids) == 0

    def test_selfjoin_and_rtree_paths_identical(self):
        arr = self._two_poi_array()
        params = DJClusterParams(radius_m=50, min_pts=5)
        fast = djcluster_sequential(arr, params, preprocess=False)
        paper = djcluster_sequential(arr, params, preprocess=False, use_rtree=True)
        assert fast.cluster_signature() == paper.cluster_signature()
        assert np.array_equal(fast.noise_ids, paper.noise_ids)


class TestMapReduceClustering:
    def test_pipeline_stages_chain(self, small_array, runner):
        from repro.algorithms.sampling import sample_array

        sampled = sample_array(small_array, 60.0)
        runner.hdfs.chunk_size = 64 * 400
        runner.hdfs.put_trace_array("sampled", sampled)
        params = DJClusterParams()
        result = run_preprocessing_pipeline(runner, "sampled", params, workdir="w/pre")
        assert [s.job_name for s in result.stages] == [
            "dj-filter-moving",
            "dj-remove-duplicates",
        ]
        n_stage1 = runner.hdfs.file_records("w/pre/stationary")
        n_stage2 = runner.hdfs.file_records("w/pre/preprocessed")
        assert n_stage2 <= n_stage1 <= len(sampled)

    def test_mr_equals_sequential_single_chunk(self, small_array, runner):
        from repro.algorithms.sampling import sample_array

        sampled = sample_array(small_array, 300.0)
        runner.hdfs.chunk_size = 64 * (len(sampled) + 1)
        runner.hdfs.put_trace_array("sampled", sampled)
        params = DJClusterParams(radius_m=80, min_pts=5)
        seq = djcluster_sequential(sampled, params)
        mr = run_djcluster_mapreduce(runner, "sampled", params, workdir="w/dj")
        assert mr.cluster_signature() == seq.cluster_signature()
        assert set(mr.noise_ids.tolist()) == set(seq.noise_ids.tolist())

    def test_stage_timings_reported(self, small_array, runner):
        from repro.algorithms.sampling import sample_array

        sampled = sample_array(small_array, 300.0)
        runner.hdfs.chunk_size = 64 * 500
        runner.hdfs.put_trace_array("sampled", sampled)
        mr = run_djcluster_mapreduce(
            runner, "sampled", DJClusterParams(radius_m=80, min_pts=5), workdir="w/t"
        )
        assert set(mr.stage_sim_seconds) == {
            "preprocessing",
            "rtree_build",
            "neighborhood_merge",
        }
        assert mr.sim_seconds == pytest.approx(sum(mr.stage_sim_seconds.values()))

    def test_noise_counter_incremented(self, small_array, runner):
        from repro.algorithms.sampling import sample_array

        sampled = sample_array(small_array, 300.0)
        runner.hdfs.chunk_size = 64 * 100  # several map tasks, one increment each
        runner.hdfs.put_trace_array("sampled", sampled)
        params = DJClusterParams(radius_m=30, min_pts=20)  # strict: most is noise
        mr = run_djcluster_mapreduce(runner, "sampled", params, workdir="w/n")
        assert len(mr.noise_ids) > 0
        finish = runner.history.job_finish("dj-neighborhood-merge")
        assert finish.data["n_map_tasks"] > 1
        counted = finish.data["counters"]["djcluster"]
        assert counted["traces_examined"] == len(mr.preprocessed)
        # A trace is noise to its mapper when its own neighborhood is
        # sparse; border points of a cluster still end up clustered.
        sparse = sum(
            len(hood) < params.min_pts
            for hood in radius_self_join(mr.preprocessed.coordinates(), params.radius_m)
        )
        assert counted["noise_traces"] == sparse >= len(mr.noise_ids)


def test_centroids_of_a_clusterless_result_are_an_empty_table():
    lonely = TraceArray.from_columns(["u"], [40.0], [116.0], [0.0])
    result = djcluster_sequential(lonely, DJClusterParams(min_pts=5))
    assert result.n_clusters == 0
    assert result.cluster_centroids().shape == (0, 2)
