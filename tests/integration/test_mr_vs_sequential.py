"""Cross-cutting equivalence: every MapReduced algorithm vs its
sequential reference, on the same data (single-chunk layouts avoid the
documented chunk-boundary artifacts of map-only jobs)."""

import numpy as np
import pytest

from repro.algorithms.djcluster import (
    DJClusterParams,
    djcluster_sequential,
    preprocess_array,
    run_djcluster_mapreduce,
    run_preprocessing_pipeline,
)
from repro.algorithms.kmeans import kmeans_sequential, run_kmeans_mapreduce
from repro.algorithms.sampling import run_sampling_job, sample_array
from repro.index.rtree import RTree
from repro.index.rtree_mr import build_rtree_mapreduce
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import JobRunner


@pytest.fixture(scope="module")
def sampled_data(small_corpus):
    dataset, _ = small_corpus
    return sample_array(dataset.sort_by_time(), 60.0)


@pytest.fixture()
def single_chunk_runner(sampled_data):
    hdfs = SimulatedHDFS(
        paper_cluster(5), chunk_size=64 * (len(sampled_data) + 1), seed=0
    )
    hdfs.put_trace_array("traces", sampled_data)
    return JobRunner(hdfs)


class TestSamplingEquivalence:
    @pytest.mark.parametrize("technique", ["upper", "middle"])
    @pytest.mark.parametrize("window", [60.0, 300.0, 600.0])
    def test_equal_for_all_parameters(self, small_corpus, technique, window):
        dataset, _ = small_corpus
        arr = dataset.sort_by_time()
        hdfs = SimulatedHDFS(paper_cluster(5), chunk_size=64 * (len(arr) + 1), seed=0)
        hdfs.put_trace_array("traces", arr)
        runner = JobRunner(hdfs)
        run_sampling_job(runner, "traces", "out", window, technique)
        mr = hdfs.read_trace_array("out").sort_by_time()
        seq = sample_array(arr, window, technique).sort_by_time()
        assert len(mr) == len(seq)
        assert np.allclose(mr.timestamp, seq.timestamp)
        assert np.allclose(mr.latitude, seq.latitude)
        assert np.allclose(mr.longitude, seq.longitude)


class TestPreprocessingEquivalence:
    def test_pipeline_equals_sequential_filters(self, sampled_data, single_chunk_runner):
        params = DJClusterParams()
        run_preprocessing_pipeline(
            single_chunk_runner, "traces", params, workdir="w"
        )
        hdfs = single_chunk_runner.hdfs
        stationary_seq, deduped_seq = preprocess_array(sampled_data, params)
        assert hdfs.file_records("w/stationary") == len(stationary_seq)
        mr_final = hdfs.read_trace_array("w/preprocessed").sort_by_time()
        seq_final = deduped_seq.sort_by_time()
        assert len(mr_final) == len(seq_final)
        assert np.allclose(mr_final.timestamp, seq_final.timestamp)


class TestKMeansEquivalence:
    @pytest.mark.parametrize("metric", ["squared_euclidean", "haversine"])
    def test_identical_trajectories(self, sampled_data, single_chunk_runner, metric):
        pts = sampled_data.coordinates()
        init = pts[np.random.default_rng(3).choice(len(pts), 5, replace=False)]
        seq = kmeans_sequential(
            pts, 5, metric, convergence_delta=1e-10, max_iter=40, initial_centroids=init
        )
        mr = run_kmeans_mapreduce(
            single_chunk_runner,
            "traces",
            5,
            metric,
            convergence_delta=1e-10,
            max_iter=40,
            initial_centroids=init,
        )
        assert mr.n_iterations == seq.n_iterations
        assert np.abs(mr.centroids - seq.centroids).max() < 1e-8
        assert mr.inertia == pytest.approx(seq.inertia, rel=1e-9)

    def test_multi_chunk_also_equivalent(self, sampled_data):
        """Chunking never changes k-means (it is not a map-only heuristic:
        reduce sees all partial data)."""
        hdfs = SimulatedHDFS(paper_cluster(5), chunk_size=64 * 200, seed=0)
        hdfs.put_trace_array("traces", sampled_data)
        runner = JobRunner(hdfs)
        assert len(hdfs.chunks("traces")) > 3
        pts = sampled_data.coordinates()
        init = pts[:4]
        seq = kmeans_sequential(pts, 4, convergence_delta=1e-10, max_iter=30, initial_centroids=init)
        mr = run_kmeans_mapreduce(
            runner, "traces", 4, convergence_delta=1e-10, max_iter=30, initial_centroids=init
        )
        assert np.abs(mr.centroids - seq.centroids).max() < 1e-8


class TestDJClusterEquivalence:
    def test_identical_clusters(self, sampled_data, single_chunk_runner):
        params = DJClusterParams(radius_m=80, min_pts=5)
        seq = djcluster_sequential(sampled_data, params)
        mr = run_djcluster_mapreduce(single_chunk_runner, "traces", params, workdir="dj")
        assert mr.cluster_signature() == seq.cluster_signature()
        assert np.array_equal(np.sort(mr.noise_ids), np.sort(seq.noise_ids))
        assert np.array_equal(mr.labels >= 0, seq.labels >= 0)

    @pytest.mark.parametrize("curve", ["zorder", "hilbert"])
    def test_curve_choice_does_not_change_clusters(
        self, sampled_data, single_chunk_runner, curve
    ):
        params = DJClusterParams(radius_m=80, min_pts=5)
        mr = run_djcluster_mapreduce(
            single_chunk_runner, "traces", params, rtree_curve=curve, workdir=f"dj-{curve}"
        )
        seq = djcluster_sequential(sampled_data, params)
        assert mr.cluster_signature() == seq.cluster_signature()


class TestRTreeEquivalence:
    def test_mr_tree_answers_like_local_tree(self, sampled_data, single_chunk_runner):
        build = build_rtree_mapreduce(single_chunk_runner, "traces", n_partitions=4)
        local = RTree.bulk_load(sampled_data.coordinates())
        for radius in (100.0, 1000.0):
            got = set(build.tree.query_radius(39.9, 116.4, radius).tolist())
            want = set(local.query_radius(39.9, 116.4, radius).tolist())
            assert got == want
