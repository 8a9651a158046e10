"""The execution-backend layer: factory wiring, worker validation,
cross-backend equivalence, and the process backend's shared-memory
chunk transport + cache broadcast."""

import os

import numpy as np
import pytest

from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.mapreduce.backends import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    create_backend,
)
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.config import BACKENDS, MapReduceConfig
from repro.mapreduce.counters import STANDARD
from repro.mapreduce.failures import ChaosSchedule, FailureInjector
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import JobSpec, Mapper, Reducer
from repro.mapreduce.runner import JobRunner


class WordCountMapper(Mapper):
    def map(self, key, value, ctx):
        for word in value.split():
            ctx.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class CountMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit("n", 1)


class PidMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(os.getpid(), 1)


class NearestPOIMapper(Mapper):
    """Reads traces from the chunk and centroids from the distributed
    cache — exercises both shm transports of the process backend."""

    def setup(self, ctx):
        self._coords = ctx.cache.get("poi_coords")

    def map(self, key, trace, ctx):
        d = np.hypot(
            self._coords[:, 0] - trace.latitude,
            self._coords[:, 1] - trace.longitude,
        )
        ctx.emit(int(np.argmin(d)), 1)


def _wordcount_hdfs():
    hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=64, seed=0)
    lines = ["a b a", "b c", "a c c"] * 4
    hdfs.put_records("in", list(enumerate(lines)), record_bytes=16)
    return hdfs


def _trace_hdfs():
    dataset, _ = generate_dataset(SyntheticConfig(n_users=2, days=1, seed=9))
    corpus = dataset.flat().sort_by_time()
    hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=64 * 1024, seed=0)
    hdfs.put_trace_array("input/traces", corpus)
    return hdfs


# -- factory and validation --------------------------------------------------

def test_create_backend_dispatch():
    assert isinstance(create_backend(MapReduceConfig("serial"), 4), SerialBackend)
    assert isinstance(create_backend(MapReduceConfig("threads"), 4), ThreadBackend)
    backend = create_backend(MapReduceConfig("processes"), 4)
    assert isinstance(backend, ProcessBackend)
    backend.close()


@pytest.mark.parametrize("workers", [0, -1, -7])
def test_runner_rejects_nonpositive_workers(workers):
    hdfs = _wordcount_hdfs()
    with pytest.raises(ValueError, match="max_workers"):
        JobRunner(hdfs, executor="threads", max_workers=workers)


def test_runner_rejects_bool_and_nonint_workers():
    hdfs = _wordcount_hdfs()
    with pytest.raises(ValueError, match="max_workers"):
        JobRunner(hdfs, executor="threads", max_workers=True)
    with pytest.raises(ValueError, match="max_workers"):
        JobRunner(hdfs, executor="processes", max_workers=2.5)


def test_runner_rejects_unknown_executor():
    hdfs = _wordcount_hdfs()
    with pytest.raises(ValueError, match="unknown executor backend"):
        JobRunner(hdfs, executor="greenlets")


# -- cross-backend equivalence -----------------------------------------------

def _run_wordcount(backend):
    hdfs = _wordcount_hdfs()
    workers = None if backend == "serial" else 2
    with JobRunner(hdfs, executor=backend, max_workers=workers) as runner:
        result = runner.run(
            JobSpec("wc", WordCountMapper, ["in"], "out",
                    reducer=SumReducer, num_reducers=3)
        )
        return sorted(hdfs.read_records("out")), result.counters


def test_wordcount_identical_across_backends():
    base_records, base_counters = _run_wordcount("serial")
    assert dict(base_records) == {"a": 12, "b": 8, "c": 12}
    for backend in BACKENDS[1:]:
        records, counters = _run_wordcount(backend)
        assert records == base_records, backend
        assert counters == base_counters, backend


def _run_poi_job(backend, n_jobs=2):
    """Two jobs on one runner: the second re-broadcasts an updated cache
    and re-reads the same chunks (segment reuse on the process pool)."""
    hdfs = _trace_hdfs()
    workers = None if backend == "serial" else 2
    outputs = []
    with JobRunner(hdfs, executor=backend, max_workers=workers) as runner:
        for i in range(n_jobs):
            coords = np.array(
                [[39.9 + 0.01 * i, 116.3], [40.0, 116.4 - 0.01 * i]]
            )
            runner.cache.replace("poi_coords", coords)
            result = runner.run(
                JobSpec(f"poi-{i}", NearestPOIMapper, ["input/traces"],
                        f"out/poi-{i}", reducer=SumReducer, num_reducers=2)
            )
            outputs.append(
                (sorted(hdfs.read_records(f"out/poi-{i}")), result.counters)
            )
    return outputs


def test_trace_array_jobs_identical_across_backends():
    base = _run_poi_job("serial")
    for backend in BACKENDS[1:]:
        got = _run_poi_job(backend)
        for (g_records, g_counters), (b_records, b_counters) in zip(got, base):
            assert g_records == b_records, backend
            assert g_counters == b_counters, backend


def _run_pid_job(**runner_kwargs):
    """Worker PIDs and result of a >1-chunk job on a 2-worker pool."""
    hdfs = _trace_hdfs()
    assert len(hdfs.chunks("input/traces")) > 1
    with JobRunner(
        hdfs, executor="processes", max_workers=2, **runner_kwargs
    ) as runner:
        result = runner.run(
            JobSpec("pids", PidMapper, ["input/traces"], "out/pids",
                    reducer=SumReducer, num_reducers=1)
        )
        stats = runner.spill_stats
    return [k for k, _ in hdfs.read_records("out/pids")], result, stats


def test_process_backend_uses_multiple_workers():
    """With >1 chunk and max_workers=2 the map phase really crosses the
    process boundary (worker PIDs differ from the driver's)."""
    pids, _, _ = _run_pid_job()
    assert all(pid != os.getpid() for pid in pids)


def test_probabilistic_injector_crosses_the_pool():
    """Hashed injector draws are pure, so they travel to the workers —
    a probabilistic injector must not pin the job to the driver."""
    pids, result, _ = _run_pid_job(
        failure_injector=FailureInjector(probability=0.3, seed=5),
        max_attempts=12,
    )
    assert all(pid != os.getpid() for pid in pids)
    assert result.counters.value(STANDARD.GROUP_SCHEDULER, STANDARD.FAILED_TASKS) > 0


def test_bad_nodes_run_spills_like_the_fault_free_run():
    """A bad node costs retries, not the memory budget: worker-side map
    spills happen exactly as in the fault-free run."""
    _, _, clean = _run_pid_job(memory_budget_mb=0.001)
    _, result, flaky = _run_pid_job(
        memory_budget_mb=0.001, chaos=ChaosSchedule(bad_nodes={"worker01"})
    )
    assert flaky.map_spills == clean.map_spills > 0
    assert result.counters.value(STANDARD.GROUP_SCHEDULER, STANDARD.FAILED_TASKS) > 0


# -- shared-memory lifecycle -------------------------------------------------

def test_process_backend_segments_unlinked_on_close():
    from multiprocessing import shared_memory

    hdfs = _trace_hdfs()
    runner = JobRunner(hdfs, executor="processes", max_workers=2)
    runner.run(
        JobSpec("count", CountMapper, ["input/traces"], "out/n",
                reducer=SumReducer, num_reducers=1)
    )
    backend = runner._backend
    names = [entry[1][0] for entry in backend._state.segments.values()]
    assert names, "expected shared-memory segments for the trace chunks"
    runner.close()
    runner.close()  # idempotent
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_process_backend_single_worker_runs_inline():
    """max_workers=1 short-circuits inline: no pool, no segments."""
    hdfs = _trace_hdfs()
    with JobRunner(hdfs, executor="processes", max_workers=1) as runner:
        runner.run(
            JobSpec("count", CountMapper, ["input/traces"], "out/n",
                    reducer=SumReducer, num_reducers=1)
        )
        assert runner._backend._state.pool is None
        assert not runner._backend._state.segments
