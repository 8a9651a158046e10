"""Integration: fault tolerance across the full stack.

The Hadoop behaviours Section III describes — replica failover and task
re-execution — must keep every GEPETO algorithm's *output* identical
under injected failures."""

import numpy as np
import pytest

from repro.algorithms.djcluster import DJClusterParams, run_djcluster_mapreduce
from repro.algorithms.kmeans import run_kmeans_mapreduce
from repro.algorithms.sampling import run_sampling_job, sample_array
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.counters import STANDARD
from repro.mapreduce.failures import ChaosSchedule
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.scheduler import RetryPolicy
from tests.conftest import crash_faults


@pytest.fixture(scope="module")
def sampled(small_corpus):
    dataset, _ = small_corpus
    return sample_array(dataset.sort_by_time(), 60.0)


def _hdfs(sampled, chunk_traces=300):
    hdfs = SimulatedHDFS(paper_cluster(6), chunk_size=64 * chunk_traces, seed=4)
    hdfs.put_trace_array("traces", sampled)
    return hdfs


class TestSamplingUnderFailures:
    def test_scripted_map_crashes_do_not_change_output(self, sampled):
        hdfs_clean = _hdfs(sampled)
        clean = JobRunner(hdfs_clean)
        run_sampling_job(clean, "traces", "out", 300.0)
        want = hdfs_clean.read_trace_array("out").sort_by_time()

        hdfs_flaky = _hdfs(sampled)
        chaos = ChaosSchedule(faults=crash_faults("map-0000", 2) + crash_faults("map-0002"))
        flaky = JobRunner(hdfs_flaky, chaos=chaos)
        res = run_sampling_job(flaky, "traces", "out", 300.0)
        got = hdfs_flaky.read_trace_array("out").sort_by_time()
        assert len(got) == len(want)
        assert np.allclose(got.timestamp, want.timestamp)
        assert res.counters.value(STANDARD.GROUP_SCHEDULER, STANDARD.FAILED_TASKS) == 3

    def test_random_failures_chaos_run(self, sampled):
        hdfs = _hdfs(sampled)
        runner = JobRunner(
            hdfs,
            chaos=ChaosSchedule(seed=9, crash_prob=0.15),
            retry_policy=RetryPolicy(max_attempts=12),
        )
        run_sampling_job(runner, "traces", "out", 300.0)
        seq = sample_array(sampled, 300.0)
        # Same count up to chunk-boundary artifacts.
        n_chunks = len(hdfs.chunks("traces"))
        assert abs(hdfs.file_records("out") - len(seq)) <= n_chunks


class TestKMeansUnderFailures:
    def test_iterations_survive_task_crashes(self, sampled):
        pts = sampled.coordinates()
        init = pts[:4]
        hdfs_a = _hdfs(sampled)
        clean = run_kmeans_mapreduce(
            JobRunner(hdfs_a), "traces", 4, initial_centroids=init, max_iter=5,
            convergence_delta=1e-10,
        )
        hdfs_b = _hdfs(sampled)
        flaky = run_kmeans_mapreduce(
            JobRunner(
                hdfs_b,
                chaos=ChaosSchedule(seed=5, crash_prob=0.1),
                retry_policy=RetryPolicy(max_attempts=12),
            ),
            "traces", 4, initial_centroids=init, max_iter=5, convergence_delta=1e-10,
        )
        assert np.abs(clean.centroids - flaky.centroids).max() < 1e-9


class TestThreadsWithFailures:
    def test_thread_pool_with_scripted_failures_deterministic(self, sampled):
        """Concurrent map tasks + injected crashes: output still equals
        the serial clean run (retries are per-task, merge is ordered)."""
        hdfs_a = _hdfs(sampled)
        clean = JobRunner(hdfs_a)
        run_sampling_job(clean, "traces", "out", 300.0)
        want = hdfs_a.read_trace_array("out").sort_by_time()

        hdfs_b = _hdfs(sampled)
        threads = JobRunner(
            hdfs_b,
            chaos=ChaosSchedule(faults=crash_faults("map-0001", 2)),
            executor="threads",
            max_workers=6,
        )
        run_sampling_job(threads, "traces", "out", 300.0)
        got = hdfs_b.read_trace_array("out").sort_by_time()
        assert len(got) == len(want)
        assert np.allclose(got.timestamp, want.timestamp)

    def test_thread_pool_with_random_failures_completes(self, sampled):
        hdfs = _hdfs(sampled)
        runner = JobRunner(
            hdfs,
            chaos=ChaosSchedule(seed=5, crash_prob=0.2),
            executor="threads",
            max_workers=8,
            retry_policy=RetryPolicy(max_attempts=15),
        )
        res = run_sampling_job(runner, "traces", "out", 300.0)
        assert hdfs.file_records("out") > 0
        assert res.counters.value(STANDARD.GROUP_SCHEDULER, STANDARD.FAILED_TASKS) > 0


class TestDatanodeLoss:
    def test_clustering_after_node_loss(self, sampled):
        hdfs = _hdfs(sampled)
        victim = hdfs.chunks("traces")[0].replicas[0]
        hdfs.kill_datanode(victim)
        runner = JobRunner(hdfs)
        params = DJClusterParams(radius_m=100, min_pts=5)
        res = run_djcluster_mapreduce(runner, "traces", params, workdir="dj")
        assert res.n_clusters > 0
        # No work was scheduled on the dead node anywhere in the run.
        assert victim in hdfs.dead_nodes

    def test_unrecoverable_when_all_replicas_dead(self, sampled):
        hdfs = SimulatedHDFS(paper_cluster(3), chunk_size=64 * 500, replication=2, seed=1)
        hdfs.put_trace_array("traces", sampled)
        for node in hdfs.chunks("traces")[0].replicas:
            hdfs.kill_datanode(node)
        runner = JobRunner(hdfs)
        with pytest.raises(IOError):
            run_sampling_job(runner, "traces", "out", 300.0)
