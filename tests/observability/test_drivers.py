"""Acceptance: every algorithm driver exports a loadable job history.

For each of the paper's three workloads, ``runner.history.save(path)``
must produce a JSON history file whose per-phase durations sum (plus the
retry penalty) to the job's reported ``JobTiming`` — the accounting
contract in docs/OBSERVABILITY.md.
"""

import pytest

from repro.algorithms.djcluster import DJClusterParams, run_djcluster_mapreduce
from repro.algorithms.kmeans import run_kmeans_mapreduce
from repro.algorithms.sampling import run_sampling_job, sample_array
from repro.observability.history import load_history


def _assert_accounting(history):
    assert history.validate() == []
    for job in history.jobs():
        timing = history.job_finish(job).payload.timing
        phases = history.phase_durations(job)
        assert sum(phases.values()) + timing.retry_penalty_s == pytest.approx(
            timing.total_s
        ), job


def test_sampling_history_export(small_array, runner, tmp_path):
    runner.hdfs.put_trace_array("traces", small_array)
    path = tmp_path / "sampling.json"
    result = run_sampling_job(runner, "traces", "out/sampled", window_s=60.0)
    runner.history.save(path)
    history = load_history(path)
    assert history.jobs() == [result.job_name]
    _assert_accounting(history)
    timing = history.job_finish(result.job_name).payload.timing
    assert timing.total_s == pytest.approx(result.timing.total_s)


def test_kmeans_history_export(small_array, runner, tmp_path):
    sampled = sample_array(small_array, 300.0)
    runner.hdfs.put_trace_array("traces", sampled)
    path = tmp_path / "kmeans.jsonl"
    result = run_kmeans_mapreduce(
        runner, "traces", k=3, max_iter=2, seed=5, workdir="w/km"
    )
    runner.history.save(path)
    history = load_history(path)
    assert history.jobs() == [
        f"kmeans-iter-{i}" for i in range(1, result.n_iterations + 1)
    ]
    _assert_accounting(history)


def test_djcluster_history_export(small_array, runner, tmp_path):
    sampled = sample_array(small_array, 300.0)
    runner.hdfs.chunk_size = 64 * 500
    runner.hdfs.put_trace_array("traces", sampled)
    path = tmp_path / "dj.json"
    result = run_djcluster_mapreduce(
        runner, "traces", DJClusterParams(radius_m=80, min_pts=5),
        workdir="w/dj",
    )
    runner.history.save(path)
    history = load_history(path)
    # Preprocessing pipeline (2 jobs) + neighborhood + merge stages.
    assert len(history.jobs()) >= 3
    _assert_accounting(history)
    notes = [e for e in history if e.kind == "driver_annotation"]
    assert notes and notes[-1].payload.n_clusters == result.n_clusters
    pipelines = [e for e in history if e.kind == "pipeline_finish"]
    assert pipelines and pipelines[0].job == "dj-preprocessing"
