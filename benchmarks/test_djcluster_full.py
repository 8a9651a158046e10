"""Section VII end-to-end — the full MapReduced DJ-Cluster at Table IV
scale, including fault-tolerance overhead.

Runs the complete chain (preprocess -> R-tree -> neighborhood -> merge)
on the 10-minute sampled corpus (the scale the paper preprocesses down
to ~14 k traces), reports per-stage simulated time and cluster/noise
counts, and measures the simulated cost of injected task failures.
"""

import pytest

from benchmarks.conftest import make_runner, write_report
from repro.algorithms.djcluster import DJClusterParams, run_djcluster_mapreduce
from repro.algorithms.sampling import sample_array
from repro.mapreduce.failures import ChaosSchedule
from repro.mapreduce.scheduler import RetryPolicy

PARAMS = DJClusterParams(radius_m=100.0, min_pts=8)


@pytest.fixture(scope="module")
def sampled_10min(corpus_128mb):
    array, _ = corpus_128mb
    return sample_array(array, 600.0)


@pytest.fixture(scope="module")
def dj_result(sampled_10min):
    runner = make_runner(sampled_10min, n_workers=5, chunk_mb=1, path="in")
    res = run_djcluster_mapreduce(runner, "in", PARAMS, workdir="dj")
    clustered = sum(len(c) for c in res.clusters)
    lines = [
        "Section VII - full MapReduced DJ-Cluster (10-min sampled corpus)",
        f"input traces:        {len(sampled_10min):,}",
        f"after preprocessing: {len(res.preprocessed):,}",
        f"clusters:            {res.n_clusters}",
        f"clustered traces:    {clustered:,}",
        f"noise traces:        {len(res.noise_ids):,}",
    ]
    for stage, sim in res.stage_sim_seconds.items():
        lines.append(f"  {stage:<20} {sim:8.1f} simulated s")
    lines.append(f"  {'total':<20} {res.sim_seconds:8.1f} simulated s")
    print(write_report("djcluster_full", lines))
    return res


def test_full_djcluster_report(dj_result, sampled_10min):
    res = dj_result
    n_pre = len(res.preprocessed)
    clustered = sum(len(c) for c in res.clusters)
    assert res.n_clusters >= 100  # ~several POIs per each of 178 users
    assert clustered + len(res.noise_ids) == n_pre
    for cluster in res.clusters:
        assert len(cluster) >= PARAMS.min_pts


@pytest.fixture(scope="module")
def failure_overhead(sampled_10min, dj_result):
    flaky_runner = make_runner(
        sampled_10min,
        n_workers=5,
        chunk_mb=1,
        path="in",
        chaos=ChaosSchedule(seed=13, crash_prob=0.08),
        retry_policy=RetryPolicy(max_attempts=10),
    )
    flaky = run_djcluster_mapreduce(flaky_runner, "in", PARAMS, workdir="dj")
    lines = [
        "Fault-tolerance overhead - DJ-Cluster with 8% task failure rate",
        f"clean sim time: {dj_result.sim_seconds:.1f}s",
        f"flaky sim time: {flaky.sim_seconds:.1f}s",
        f"overhead: {flaky.sim_seconds - dj_result.sim_seconds:+.1f}s",
    ]
    print(write_report("ablation_failures", lines))
    return flaky


def test_failure_injection_overhead(failure_overhead, dj_result):
    # Results identical despite retries; time no cheaper.
    assert failure_overhead.cluster_signature() == dj_result.cluster_signature()
    assert failure_overhead.sim_seconds >= dj_result.sim_seconds


def test_benchmark_djcluster(benchmark, sampled_10min, dj_result, failure_overhead):
    """Wall-clock of one full MapReduced DJ-Cluster run.

    Depends on ``dj_result``/``failure_overhead`` so a
    ``--benchmark-only`` run still generates both Section VII reports.
    """

    def run():
        runner = make_runner(sampled_10min, n_workers=5, chunk_mb=1, path="b/in")
        return run_djcluster_mapreduce(runner, "b/in", PARAMS, workdir="b/dj")

    res = benchmark.pedantic(run, rounds=2, iterations=1)
    assert res.n_clusters > 0
