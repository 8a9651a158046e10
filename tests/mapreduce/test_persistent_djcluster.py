"""DJ-Cluster on the shared persistent index: an execution detail.

The neighborhood phase reads the catalog-managed persistent R-tree.
That must be invisible to the answers: clusters, labels and noise must
equal ``djcluster_sequential`` over the same preprocessed rows — on every
execution backend, under a fixed chaos schedule, and under a memory
budget.  And because the index is shared, a second ``ensure`` over the
same preprocessed dataset version must be a zero-job catalog hit.
"""

import numpy as np
import pytest

from repro.algorithms.djcluster import (
    DJClusterParams,
    djcluster_sequential,
    run_djcluster_mapreduce,
)
from repro.mapreduce.chaos import INPUT_PATH, _inputs, default_schedule
from repro.mapreduce.config import BACKENDS
from repro.mapreduce.runner import fresh_runner
from repro.observability.events import EventKind

#: DJ-Cluster over the tiny chaos corpus: every point stationary enough
#: to survive the speed filter needs a reachable neighborhood, so loosen
#: the defaults to get non-trivial clusters from 3 users x 1 day.
PARAMS = DJClusterParams(radius_m=200.0, min_pts=4)


def _deployment(**kwargs):
    return fresh_runner(
        {INPUT_PATH: _inputs(["djcluster"])[1]},
        chunk_size=64 * 1024, n_workers=3, record_bytes=64, **kwargs,
    )


def _run(*, backend="serial", chaos=None, budget=None):
    runner = _deployment(backend=backend, max_workers=2, budget_mb=budget, chaos=chaos)
    try:
        result = run_djcluster_mapreduce(runner, INPUT_PATH, PARAMS)
        kinds = [e.kind for e in runner.history]
        return result, kinds
    finally:
        runner.close()


def _assert_identical(a, b):
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.noise_ids, b.noise_ids)
    assert len(a.clusters) == len(b.clusters)
    for x, y in zip(a.clusters, b.clusters):
        assert np.array_equal(x, y)
    assert np.array_equal(
        a.preprocessed.coordinates(), b.preprocessed.coordinates()
    )


def _assert_equals_sequential(mr):
    """The single-node clustering of the very rows the MR run clustered
    (its preprocessing is per chunk, so the oracle starts after it)."""
    assert mr.n_clusters > 0, "corpus produced no clusters — test is vacuous"
    _assert_identical(mr, djcluster_sequential(mr.preprocessed, PARAMS, preprocess=False))


@pytest.mark.parametrize("backend", BACKENDS)
def test_persistent_index_is_invisible_per_backend(backend):
    shared, kinds = _run(backend=backend)
    _assert_equals_sequential(shared)
    assert EventKind.INDEX_PUBLISH in kinds
    if backend != "serial":
        serial, _ = _run()
        _assert_identical(shared, serial)
        assert shared.stage_sim_seconds == serial.stage_sim_seconds


def test_persistent_index_is_invisible_under_chaos():
    shared, _ = _run(chaos=default_schedule(3))
    _assert_equals_sequential(shared)


def test_persistent_index_is_invisible_under_memory_budget():
    budgeted, kinds = _run(budget=0.01)
    _assert_equals_sequential(budgeted)
    _assert_identical(budgeted, _run()[0])
    assert EventKind.INDEX_PUBLISH in kinds


def test_second_ensure_over_same_version_is_zero_job_hit():
    from repro.index.persistent import IndexCatalog

    runner = _deployment()
    try:
        result = run_djcluster_mapreduce(runner, INPUT_PATH, PARAMS)
        assert result.preprocessed is not None
        catalog = IndexCatalog(runner.hdfs)
        (entry,) = catalog.entries()
        n_jobs = sum(1 for e in runner.history if e.kind == EventKind.JOB_START)
        index, built = catalog.ensure(
            runner,
            entry.input_path,
            n_partitions=entry.params["n_partitions"],
            max_entries=entry.params["max_entries"],
        )
        assert not built
        assert sum(1 for e in runner.history if e.kind == EventKind.JOB_START) == n_jobs
        assert [e.kind for e in runner.history].count(EventKind.INDEX_REUSE) == 1
        assert len(index.tree) == entry.n_points
        assert runner.history.validate() == []
    finally:
        runner.close()


def test_rerun_after_repreprocessing_rebuilds_not_reuses():
    """Re-running the driver rewrites the preprocessed dataset, bumping
    its namenode version: the catalog key changes, so the second run
    publishes a second index rather than unsafely reusing the first."""
    runner = _deployment()
    try:
        first = run_djcluster_mapreduce(runner, INPUT_PATH, PARAMS, workdir="tmp/dj-a")
        second = run_djcluster_mapreduce(runner, INPUT_PATH, PARAMS, workdir="tmp/dj-b")
        _assert_identical(first, second)
        kinds = [e.kind for e in runner.history]
        assert kinds.count(EventKind.INDEX_PUBLISH) == 2
        assert kinds.count(EventKind.INDEX_REUSE) == 0
    finally:
        runner.close()
