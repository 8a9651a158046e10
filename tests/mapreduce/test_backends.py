"""The execution-backend layer: factory wiring, worker validation,
cross-backend equivalence, and the process backend's transport —
shared-memory chunks + cache broadcast, batched dispatch, and what an
outcome and a message carry across the pool."""

import os
import pickle
import time

import numpy as np
import pytest

from repro.algorithms.kmeans import (
    CENTROIDS_CACHE_KEY,
    KMeansAggregation,
    KMeansCombiner,
    KMeansMapper,
    run_kmeans_mapreduce,
)
from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.geo.trace import TraceArray
from repro.mapreduce.backends import (
    MapTaskRequest,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    create_backend,
)
from repro.mapreduce.bench import synthetic_corpus
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.config import BACKENDS, MapReduceConfig
from repro.mapreduce.counters import STANDARD
from repro.mapreduce.failures import ChaosSchedule
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import ColumnBlock, Configuration, JobSpec, Mapper, Reducer
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.scheduler import RetryPolicy
from repro.mapreduce.spill import SpilledMapOutput, WorkerSpillSpec
from repro.mapreduce.types import ArrayPayload, Chunk, RecordPayload
from tests.conftest import crash_faults


class WordCountMapper(Mapper):
    def map(self, key, value, ctx):
        for word in value.split():
            ctx.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class CountMapper(Mapper):
    """One ``("n", 1)`` per trace of the chunk."""

    def run(self, chunk, ctx):
        for _ in range(len(chunk.trace_array())):
            ctx.emit("n", 1)


class PidMapper(Mapper):
    """One ``(worker pid, 1)`` per trace of the chunk."""

    def run(self, chunk, ctx):
        for _ in range(len(chunk.trace_array())):
            ctx.emit(os.getpid(), 1)


class NearestPOIMapper(Mapper):
    """Reads traces from the chunk and centroids from the distributed
    cache — exercises both shm transports of the process backend."""

    def setup(self, ctx):
        self._coords = ctx.cache.get("poi_coords")

    def run(self, chunk, ctx):
        array = chunk.trace_array()
        d = np.hypot(
            self._coords[None, :, 0] - array.latitude[:, None],
            self._coords[None, :, 1] - array.longitude[:, None],
        )
        for nearest in np.argmin(d, axis=1).tolist():
            ctx.emit(nearest, 1)


def _wordcount_hdfs():
    hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=64, seed=0)
    lines = ["a b a", "b c", "a c c"] * 4
    hdfs.put_records("in", list(enumerate(lines)), record_bytes=16)
    return hdfs


def _trace_hdfs():
    dataset, _ = generate_dataset(SyntheticConfig(n_users=2, days=1, seed=9))
    corpus = dataset.sort_by_time()
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


def test_releasing_segments_already_gone_is_harmless():
    """Shared-memory cleanup is best effort: a segment something else
    already closed or unlinked must not stop the rest of the release."""
    from repro.mapreduce.backends import _ProcessState, _release_process_state

    class Gone:
        def close(self):
            raise FileNotFoundError("already unlinked")

        unlink = close

    state = _ProcessState()
    state.segments["c0"] = (Gone(), None)
    state.cache_shm = Gone()
    _release_process_state(state)
    assert state.segments == {} and state.cache_shm is None
    backend = ProcessBackend(2)
    backend._state.cache_shm = Gone()
    backend.prepare_job(DistributedCache())
    assert not isinstance(backend._state.cache_shm, Gone)
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
    """Hashed crash draws are pure, so they travel to the workers — a
    probabilistic schedule must not pin the job to the driver."""
    pids, result, _ = _run_pid_job(
        chaos=ChaosSchedule(seed=5, crash_prob=0.3),
        retry_policy=RetryPolicy(max_attempts=12),
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


# -- transport: what crosses the pool -----------------------------------------
#
# Deterministic, no timing: sizes of pickled messages and outcomes, request
# order, and where a failure lands.

KMEANS_CHUNK_ROWS = 8_192  # one 512 KB chunk of 64-byte trace records


class EchoMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key, value)


class UserIdMapper(Mapper):
    def run(self, chunk, ctx):
        ctx.emit(chunk.chunk_id, list(chunk.trace_array().user_ids()))


class NapMapper(Mapper):
    """Long enough per chunk that an idle second worker takes a batch."""

    def run(self, chunk, ctx):
        time.sleep(0.05)
        ctx.emit("n", chunk.n_records)


def _map_request(task: int, chunk: Chunk, mapper, **fields) -> MapTaskRequest:
    defaults = dict(
        combiner=None, conf=Configuration(), cache=DistributedCache(),
        chaos=None, max_attempts=4,
    )
    return MapTaskRequest(
        f"map-{task:04d}", "worker01", chunk, mapper, **{**defaults, **fields}
    )


def _array_chunks(n_chunks: int, n_users: int, rows: int = KMEANS_CHUNK_ROWS):
    """``n_chunks`` slices of one corpus naming ``n_users`` users; like
    HDFS chunks, every slice carries the corpus's whole user table."""
    n = n_chunks * rows
    gen = np.random.default_rng(n_users)
    corpus = TraceArray.from_columns(
        [f"user-{i % n_users:05d}" for i in range(n)],
        39.9 + gen.normal(0, 0.05, n),
        116.4 + gen.normal(0, 0.05, n),
        np.arange(n, dtype=np.float64),
    )
    assert len(corpus.users) == n_users
    return [
        Chunk(f"chunk-{i}", ArrayPayload(corpus[i * rows:(i + 1) * rows], 64, i * rows))
        for i in range(n_chunks)
    ]


def _record_requests(n_tasks: int, **fields) -> list[MapTaskRequest]:
    return [
        _map_request(i, Chunk(f"rec-{i}", RecordPayload([(i, i * i)])), EchoMapper,
                     **fields)
        for i in range(n_tasks)
    ]


def _pooled_kmeans_outcomes(**fields):
    """Three k-means map tasks over 8,192-trace chunks, through a pool."""
    cache = DistributedCache()
    cache.replace(CENTROIDS_CACHE_KEY, np.array([[39.85, 116.35], [39.95, 116.45]]))
    conf = Configuration({"kmeans.distance": "haversine", "kmeans.k": 2})
    requests = [
        _map_request(i, chunk, KMeansMapper, conf=conf, cache=cache, **fields)
        for i, chunk in enumerate(_array_chunks(3, n_users=1))
    ]
    with ProcessBackend(2) as backend:
        backend.prepare_job(cache)
        outcomes = backend.run_map_tasks(requests)
    assert all(o.success and o.stamp[0] != os.getpid() for o in outcomes)
    return outcomes


@pytest.mark.parametrize("fields", [
    {"aggregation": KMeansAggregation()},
    {"combiner": KMeansCombiner},
], ids=["aggregated", "combined"])
def test_combined_outcome_crosses_without_the_superseded_output(fields):
    """The runner shuffles ``combined_output``; the raw point blocks it
    supersedes (131 KB per 8,192-trace chunk) must not ride along."""
    for outcome in _pooled_kmeans_outcomes(**fields):
        assert outcome.output is None
        assert len(outcome.combined_output) == 2
        assert len(pickle.dumps(outcome)) < 4096


def test_uncombined_outcome_still_returns_its_pairs():
    for outcome in _pooled_kmeans_outcomes():
        assert outcome.combined_output is None
        assert sum(len(block) for _, block in outcome.output) == KMEANS_CHUNK_ROWS


def test_spilled_outcome_keeps_its_handle_when_combined(tmp_path):
    """A budgeted task's handle comes back even though the envelopes
    supersede it: the runner's spill statistics count it."""
    spill = WorkerSpillSpec(str(tmp_path), threshold_bytes=1024)
    outcomes = _pooled_kmeans_outcomes(aggregation=KMeansAggregation(), spill=spill)
    for outcome in outcomes:
        assert isinstance(outcome.output, SpilledMapOutput)
        assert outcome.output.nbytes == KMEANS_CHUNK_ROWS * 16
        assert len(outcome.combined_output) == 2
        assert len(pickle.dumps(outcome)) < 4096
    assert len(os.listdir(tmp_path)) == len(outcomes)


@pytest.mark.parametrize("backend", BACKENDS)
def test_spill_stats_of_an_aggregated_budgeted_job(backend):
    """Dropping the superseded output must not drop the spill accounting
    (25 tasks x 8,192 traces x 16 B at the parent commit, any backend)."""
    hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=512 * 1024, seed=0)
    hdfs.put_trace_array("input/traces", synthetic_corpus(20_000, seed=1))
    with JobRunner(
        hdfs, executor=backend, max_workers=2, memory_budget_mb=0.05
    ) as runner:
        run_kmeans_mapreduce(
            runner, "input/traces", k=3, max_iter=1, use_aggregation=True
        )
        assert runner.spill_stats.map_spills == 3
        assert runner.spill_stats.map_spill_bytes == 20_000 * 16


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("budget", [None, 0.05], ids=["in-memory", "spilling"])
def test_a_superseded_column_block_is_never_cut_into_pairs(backend, budget, tmp_path, monkeypatch):
    """The envelopes supersede a k-means task's column block, so nothing
    cuts it into pairs; a task over the spill threshold still spills its
    pairs, cut exactly once.  The spy logs to a file so that pool workers,
    forked after it is installed, report too."""
    log = tmp_path / "cuts"
    pairs = ColumnBlock.pairs

    def spy(block):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return pairs(block)

    monkeypatch.setattr(ColumnBlock, "pairs", spy)
    hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=512 * 1024, seed=0)
    hdfs.put_trace_array("input/traces", synthetic_corpus(20_000, seed=1))
    with JobRunner(
        hdfs, executor=backend, max_workers=2, memory_budget_mb=budget
    ) as runner:
        run_kmeans_mapreduce(
            runner, "input/traces", k=3, max_iter=2, use_aggregation=True
        )
        spills = runner.spill_stats.map_spills if budget else 0
    cuts = log.read_text().split() if log.exists() else []
    assert len(cuts) == spills == (6 if budget else 0)
    if backend == "processes" and budget:
        assert os.getpid() not in set(map(int, cuts))


class _RecordingPool:
    """The backend's real pool, remembering each message's pickled form."""

    def __init__(self, pool):
        self._pool = pool
        self.messages: list[bytes] = []

    def apply_async(self, func, args):
        self.messages.append(pickle.dumps(args))
        return self._pool.apply_async(func, args)

    def __getattr__(self, name):
        return getattr(self._pool, name)


def _map_messages(n_users: int) -> tuple[list[bytes], list, list]:
    chunks = _array_chunks(4, n_users, rows=2_500)
    requests = [_map_request(i, c, UserIdMapper) for i, c in enumerate(chunks)]
    with ProcessBackend(2) as backend:
        pool = backend._state.pool = _RecordingPool(backend._ensure_pool())
        outcomes = backend.run_map_tasks(requests)
        outcomes += backend.run_map_tasks(requests)  # segments already published
    return pool.messages, outcomes, chunks


def test_map_message_size_is_independent_of_the_user_table():
    """A chunk ref is name + counts + ids; the user table (10 B per user,
    the *corpus's* whole table in every chunk) travels in the segment."""
    small, _, _ = _map_messages(n_users=100)
    large, outcomes, chunks = _map_messages(n_users=10_000)
    assert len(small) == len(large) == 4  # 2 waves x 1 batch per worker
    assert [len(m) for m in small] == [len(m) for m in large]
    assert max(len(m) for m in large) < 2048
    # ...and workers still name every row as the driver does.
    for outcome, chunk in zip(outcomes, chunks * 2):
        assert outcome.stamp[0] != os.getpid()
        assert outcome.output == [
            (chunk.chunk_id, list(chunk.trace_array().user_ids()))
        ]


@pytest.mark.parametrize("workers, n_tasks", [
    (2, 1), (2, 2), (2, 3), (2, 25), (4, 3), (3, 25),
])
def test_batches_preserve_request_order(workers, n_tasks):
    with ProcessBackend(workers) as backend:
        outcomes = backend.run_map_tasks(_record_requests(n_tasks))
    assert [o.output for o in outcomes] == [[(i, i * i)] for i in range(n_tasks)]


def test_failure_inside_a_batch_lands_on_its_task_only():
    """Tasks 3 (one scripted crash) and 7 (two) sit in the middle of the
    two 6-task batches."""
    chaos = ChaosSchedule(faults=crash_faults("map-0003") + crash_faults("map-0007", 2))
    requests = _record_requests(12, chaos=chaos)
    with ProcessBackend(2) as backend:
        pooled = backend.run_map_tasks(requests)
    assert pooled == SerialBackend().run_map_tasks(requests)
    assert {i: len(o.failures) for i, o in enumerate(pooled) if o.failures} == {
        3: 1, 7: 2,
    }
    assert all(o.success for o in pooled)


def test_wave_records_show_the_worker_side():
    hdfs = _trace_hdfs()
    n_chunks = len(hdfs.chunks("input/traces"))
    with JobRunner(hdfs, executor="processes", max_workers=2) as runner:
        result = runner.run(
            JobSpec("nap", NapMapper, ["input/traces"], "out/nap",
                    reducer=SumReducer, num_reducers=2)
        )
        history = runner.history.to_json()
    assert len(result.map_wave.workers) == 2
    assert os.getpid() not in result.map_wave.workers
    assert sum(w.tasks for w in result.map_wave.workers.values()) == n_chunks
    assert sum(w.tasks for w in result.reduce_wave.workers.values()) == 2
    for wave in (result.map_wave, result.reduce_wave):
        assert wave.wall_s > 0
        assert all(w.busy_s >= 0 and w.cpu_s >= 0 for w in wave.workers.values())
    # Wall-clock facts stay out of everything deterministic.
    for leak in ("_wave", "busy_s", "cpu_s", "stamp"):
        assert leak not in history
    assert "_wave" not in repr(result)
