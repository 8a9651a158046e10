"""Shared fixture: one real traced deployment (sampling + k-means).

Module-scoped because the MR runs are the slow part; every test reads
the same immutable history.  A failure is injected for ``map-0001`` so
the attempt-ordering guarantees are exercised on a genuine retry.
"""

from __future__ import annotations

import pytest

from repro.algorithms.kmeans import run_kmeans_mapreduce
from repro.algorithms.sampling import run_sampling_job
from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.failures import ChaosSchedule
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import JobRunner
from tests.conftest import crash_faults


@pytest.fixture(scope="module")
def traced_run():
    """(runner, sampling JobResult, kmeans result) of a traced deployment."""
    dataset, _ = generate_dataset(SyntheticConfig(n_users=3, days=1, seed=9))
    array = dataset.sort_by_time()
    hdfs = SimulatedHDFS(paper_cluster(3), chunk_size=64 * 1024, seed=0)
    hdfs.put_trace_array("input/traces", array, record_bytes=64)
    runner = JobRunner(hdfs, chaos=ChaosSchedule(faults=crash_faults("map-0001")))
    sampling = run_sampling_job(
        runner, "input/traces", "out/sampled", window_s=60.0
    )
    kmeans = run_kmeans_mapreduce(
        runner, "input/traces", k=3, max_iter=2, seed=7,
        use_combiner=True, workdir="tmp/kmeans",
    )
    return runner, sampling, kmeans
