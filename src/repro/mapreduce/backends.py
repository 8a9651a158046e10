"""Pluggable execution backends for the MapReduce runner.

The runner splits every task into two halves so that *where* a task runs
can never change *what* the job observes:

* a **pure attempt loop** (:func:`run_map_attempts` /
  :func:`run_reduce_attempts`) executes the user code with the retry
  budget.  It is the only code that instantiates and runs a mapper,
  combiner/pre-aggregation or reducer.  Every fault decision it consults
  — the :class:`~repro.mapreduce.failures.ChaosSchedule`'s scripted
  faults and counter-hashed draws — is a pure function of
  ``(task_id, attempt)``, so the outcome
  is identical whether the loop runs inline, on a thread, or in a worker
  process;
* a **driver-side narrative replay** (in :mod:`repro.mapreduce.runner`)
  walks the outcomes in task order and reconstructs the node
  assignments, blacklist evolution, backoffs and retry penalties.

Three backends implement the dispatch half:

``serial``
    Runs attempt loops inline.  The reference semantics.
``threads``
    A thread pool — concurrency for I/O-bound mappers, but GIL-bound for
    CPU work.
``processes``
    A persistent ``multiprocessing`` pool.  ``TraceArray`` chunk
    payloads travel through ``multiprocessing.shared_memory`` segments
    (workers reconstruct zero-copy NumPy views; the trace payload is
    never pickled), distributed-cache entries are broadcast once per
    job via a versioned shared-memory segment instead of once per task,
    and a wave crosses as one batch of requests per worker.

The one fault that depends on *where* an attempt lands — a chaos
schedule's ``bad_nodes`` — fires before any task code runs, so it never
reaches the attempt loop: the replay, which decides the node, records
such an attempt as failed and applies the loop's verdicts, in order, to
the attempts that reached a healthy node.  Tasks re-executed after a
node loss come back through the same backends as fault-free requests.
"""

from __future__ import annotations

import os
import pickle
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from multiprocessing import get_all_start_methods, get_context, resource_tracker
from multiprocessing import shared_memory
from time import perf_counter, thread_time
from typing import Any, Callable

from repro.geo.trace import TraceArray
from repro.mapreduce.cache import DistributedCache, FaultyCacheView
from repro.mapreduce.config import BACKENDS, MapReduceConfig
from repro.mapreduce.counters import Counters, STANDARD
from repro.mapreduce.failures import ChaosSchedule, TaskFailure
from repro.mapreduce.job import MapContext, ReduceContext
from repro.mapreduce.spill import (
    SpilledMapOutput,
    SpilledPartition,
    WorkerSpillSpec,
    as_groups,
    spill_map_output,
)
from repro.mapreduce.types import ArrayPayload, Chunk, concrete_payload

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "create_backend",
    "MapTaskRequest",
    "ReduceTaskRequest",
    "MapOutcome",
    "ReduceOutcome",
    "WaveRecord",
    "run_map_attempts",
    "run_reduce_attempts",
    "run_combiner",
]


# -- task requests and outcomes ---------------------------------------------


@dataclass
class MapTaskRequest:
    """Everything a map task's pure attempt loop needs."""

    task_id: str
    node: str  # planned node (context hint only; never a fault input)
    chunk: Chunk
    mapper: Callable[[], Any]
    combiner: Callable[[], Any] | None
    conf: Any
    cache: DistributedCache
    chaos: ChaosSchedule | None
    max_attempts: int
    #: When set (memory-budgeted runs), output larger than the budget is
    #: written to the spill directory *where the attempt ran* and the
    #: outcome carries a :class:`~repro.mapreduce.spill.SpilledMapOutput`
    #: handle instead of the pair list.
    spill: WorkerSpillSpec | None = None
    #: When set (the job's declared aggregation), the attempt loop folds
    #: the task's output into one aggregate envelope per key-group — the
    #: vectorized pre-aggregation that supersedes the object-level
    #: combiner — and the outcome's ``combined_output`` carries the
    #: envelope pairs.
    aggregation: Any | None = None


@dataclass
class ReduceTaskRequest:
    """Everything a reduce task's pure attempt loop needs.

    ``groups`` may be a :class:`~repro.mapreduce.spill.SpilledPartition`
    handle (external shuffle); the attempt loop loads it where it runs,
    so spilled reduce input crosses a process boundary as a path, not
    as data.
    """

    task_id: str
    groups: "list[tuple[Any, list[Any]]] | SpilledPartition"
    reducer: Callable[[], Any]
    conf: Any
    cache: DistributedCache
    chaos: ChaosSchedule | None
    max_attempts: int


#: Where and when an attempt loop ran: ``(pid, start, end, cpu_s)``, start
#: and end on ``perf_counter`` (one clock for the driver and its forked
#: workers), ``cpu_s`` the running thread's CPU time.  Wall-clock facts:
#: they feed :class:`WaveRecord` and nothing deterministic.
Stamp = tuple[int, float, float, float]


def _stamp(start: float, cpu_start: float) -> Stamp:
    return (os.getpid(), start, perf_counter(), thread_time() - cpu_start)


@dataclass
class MapOutcome:
    """Result of a map task's attempt loop (node-free; the driver's
    narrative replay adds node assignments and backoffs).

    An outcome carries what the runner reads, because on the process
    backend every byte of it is pickled through the result pipe.  The
    runner shuffles ``combined_output`` whenever it is set and ``output``
    only otherwise, so a combined task returns ``output=None`` — except a
    :class:`~repro.mapreduce.spill.SpilledMapOutput` handle, which the
    runner accounts in its spill statistics either way.
    """

    success: bool
    output: "list[tuple[Any, Any]] | SpilledMapOutput | None"
    counters: Counters | None
    #: ``(attempt, reason, fault kind)`` per failed attempt, in order;
    #: ``attempt`` counts the attempts that ran task code (the replay
    #: renumbers around bad-node bounces).
    failures: list[tuple[int, str, str]] = field(default_factory=list)
    #: The pre-aggregation's envelopes or the combiner's pairs; supersedes
    #: ``output`` as the task's contribution to the shuffle.
    combined_output: list[tuple[Any, Any]] | None = None
    combine_counters: Counters | None = None
    stamp: Stamp | None = field(default=None, compare=False, repr=False)


@dataclass
class ReduceOutcome:
    success: bool
    output: list[tuple[Any, Any]] | None
    counters: Counters | None
    failures: list[tuple[int, str, str]] = field(default_factory=list)
    stamp: Stamp | None = field(default=None, compare=False, repr=False)


@dataclass
class WorkerLoad:
    """What one worker process did in a wave."""

    tasks: int = 0
    busy_s: float = 0.0  # summed attempt-loop wall time
    cpu_s: float = 0.0


@dataclass
class WaveRecord:
    """Wall-clock picture of one phase's dispatch through a backend.

    Not deterministic and never part of a job's observable result: it
    must not reach the history, the counters, a signature or simulated
    time.  On the threads backend every task shares the driver's pid, so
    the one worker's ``busy_s`` sums overlapping intervals.
    """

    #: Driver-side seconds inside ``run_map_tasks`` / ``run_reduce_tasks``
    #: (summed when node loss sends a second wave through the map phase).
    wall_s: float = 0.0
    workers: dict[int, WorkerLoad] = field(default_factory=dict)  # by pid

    def add(
        self, wall_s: float, outcomes: "list[MapOutcome] | list[ReduceOutcome]"
    ) -> None:
        self.wall_s += wall_s
        for outcome in outcomes:
            pid, start, end, cpu_s = outcome.stamp
            load = self.workers.setdefault(pid, WorkerLoad())
            load.tasks += 1
            load.busy_s += end - start
            load.cpu_s += cpu_s


# -- the pure attempt loops --------------------------------------------------


def run_combiner(
    combiner_factory, conf, cache, task_output, task_id: str, node: str
) -> tuple[list[tuple[Any, Any]], Counters]:
    """Run the combiner over one map task's local output."""
    from repro.mapreduce.shuffle import group_sorted

    counters = Counters()
    ctx = ReduceContext(conf, counters, cache, f"{task_id}-combine", node)
    combiner = combiner_factory()
    groups = group_sorted(task_output)
    combiner.setup(ctx)
    combiner.run(groups, ctx)
    combiner.cleanup(ctx)
    counters.increment(
        STANDARD.GROUP_TASK, STANDARD.COMBINE_INPUT_RECORDS, len(task_output)
    )
    counters.increment(
        STANDARD.GROUP_TASK, STANDARD.COMBINE_OUTPUT_RECORDS, len(ctx.output)
    )
    return ctx.output, counters


def run_map_attempts(request: MapTaskRequest) -> MapOutcome:
    """Execute one map task's retry loop using only pure fault decisions.

    Per attempt: cache-fault wrapping, the chaos crash check, task
    counters on success — nothing node-dependent, which the driver
    replays afterwards.
    """
    start, cpu_start = perf_counter(), thread_time()
    chunk = request.chunk
    failures: list[tuple[int, str, str]] = []
    for attempt in range(1, request.max_attempts + 1):
        counters = Counters()
        cache = request.cache
        if request.chaos is not None and request.chaos.cache_load_fails(
            request.task_id, attempt
        ):
            cache = FaultyCacheView(request.cache, request.task_id, attempt)
        ctx = MapContext(request.conf, counters, cache, request.task_id, request.node)
        mapper = request.mapper()
        try:
            if request.chaos is not None:
                request.chaos.fail_attempt(request.task_id, attempt)
            mapper.setup(ctx)
            mapper.run(chunk, ctx)
            mapper.cleanup(ctx)
        except TaskFailure as exc:
            failures.append((attempt, exc.reason, exc.kind))
            continue
        counters.increment(
            STANDARD.GROUP_TASK, STANDARD.MAP_INPUT_RECORDS, chunk.n_records
        )
        counters.increment(
            STANDARD.GROUP_TASK, STANDARD.MAP_OUTPUT_RECORDS, ctx.output_records
        )
        counters.increment(
            STANDARD.GROUP_TASK, STANDARD.MAP_OUTPUT_BYTES, ctx.output_nbytes
        )
        counters.increment(
            STANDARD.GROUP_SCHEDULER, STANDARD.FAILED_TASKS, attempt - 1
        )
        combined_output = combine_counters = None
        if request.aggregation is not None:
            # Vectorized pre-aggregation supersedes the object combiner:
            # one envelope per key-group replaces the task's raw pairs.
            from repro.mapreduce.aggregation import preaggregate

            combined_output, combine_counters = preaggregate(
                request.aggregation, ctx.output, request.node, request.task_id
            )
        elif request.combiner is not None:
            combined_output, combine_counters = run_combiner(
                request.combiner,
                request.conf,
                request.cache,
                ctx.output,
                request.task_id,
                request.node,
            )
        output: "list[tuple[Any, Any]] | SpilledMapOutput | None" = ctx.output
        if (
            request.spill is not None
            and ctx.output_nbytes > request.spill.threshold_bytes
        ):
            # Over-budget output spills where the attempt ran (in real
            # Hadoop, the tasktracker's local disk); the driver — and the
            # processes backend's IPC — only ever sees the handle.
            output = spill_map_output(
                request.spill, request.task_id, ctx.output, ctx.output_nbytes
            )
        elif combined_output is not None:
            output = None  # superseded: the runner would never read it
        return MapOutcome(
            True,
            output,
            counters,
            failures,
            combined_output,
            combine_counters,
            _stamp(start, cpu_start),
        )
    return MapOutcome(False, None, None, failures, stamp=_stamp(start, cpu_start))


def run_reduce_attempts(request: ReduceTaskRequest) -> ReduceOutcome:
    """Execute one reduce task's retry loop using only pure fault
    decisions (the reduce twin of :func:`run_map_attempts`)."""
    start, cpu_start = perf_counter(), thread_time()
    failures: list[tuple[int, str, str]] = []
    groups = as_groups(request.groups)
    for attempt in range(1, request.max_attempts + 1):
        counters = Counters()
        ctx = ReduceContext(
            request.conf, counters, request.cache, request.task_id, ""
        )
        reducer = request.reducer()
        try:
            if request.chaos is not None:
                request.chaos.fail_attempt(request.task_id, attempt)
            reducer.setup(ctx)
            reducer.run(groups, ctx)
            reducer.cleanup(ctx)
        except TaskFailure as exc:
            failures.append((attempt, exc.reason, exc.kind))
            continue
        n_values = sum(len(v) for _, v in groups)
        counters.increment(
            STANDARD.GROUP_TASK, STANDARD.REDUCE_INPUT_GROUPS, len(groups)
        )
        counters.increment(
            STANDARD.GROUP_TASK, STANDARD.REDUCE_INPUT_RECORDS, n_values
        )
        counters.increment(
            STANDARD.GROUP_TASK, STANDARD.REDUCE_OUTPUT_RECORDS, ctx.output_records
        )
        counters.increment(
            STANDARD.GROUP_SCHEDULER, STANDARD.FAILED_TASKS, attempt - 1
        )
        return ReduceOutcome(
            True, ctx.output, counters, failures, _stamp(start, cpu_start)
        )
    return ReduceOutcome(False, None, None, failures, _stamp(start, cpu_start))


# -- backends ----------------------------------------------------------------


class ExecutionBackend:
    """Dispatches pure attempt loops; subclasses choose the medium."""

    name = "base"

    def prepare_job(self, cache: DistributedCache) -> None:
        """Called once per job before the map phase (cache broadcast)."""

    def run_map_tasks(self, requests: list[MapTaskRequest]) -> list[MapOutcome]:
        raise NotImplementedError

    def run_reduce_tasks(
        self, requests: list[ReduceTaskRequest]
    ) -> list[ReduceOutcome]:
        raise NotImplementedError

    def close(self) -> None:
        """Release pools and shared-memory segments."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Inline execution — the reference backend."""

    name = "serial"

    def run_map_tasks(self, requests):
        return [run_map_attempts(r) for r in requests]

    def run_reduce_tasks(self, requests):
        return [run_reduce_attempts(r) for r in requests]


class ThreadBackend(ExecutionBackend):
    """Thread-pool execution (shared address space, GIL-bound compute)."""

    name = "threads"

    def __init__(self, max_workers: int):
        self.max_workers = max(int(max_workers), 1)

    def run_map_tasks(self, requests):
        if len(requests) <= 1 or self.max_workers <= 1:
            return [run_map_attempts(r) for r in requests]
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(run_map_attempts, requests))

    def run_reduce_tasks(self, requests):
        if len(requests) <= 1 or self.max_workers <= 1:
            return [run_reduce_attempts(r) for r in requests]
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(run_reduce_attempts, requests))


# -- process backend ---------------------------------------------------------
#
# One rule: a byte crosses the process boundary only if the receiver reads
# it, and fixed per-message cost is paid per wave, not per task.
#
# Worker-side globals.  Workers attach each shared-memory segment once and
# keep the mapping (and the user table unpickled from its trailer) for the
# life of the pool; the distributed cache is unpickled once per broadcast
# version, not once per task.

_WORKER_SEGMENTS: dict[str, tuple[Any, TraceArray]] = {}
_WORKER_CACHE: tuple[int, DistributedCache] = (0, DistributedCache())


@dataclass(frozen=True)
class _SegmentRef:
    """A published :class:`TraceArray` chunk as it crosses to a worker:
    names, counts and ids — the same size whatever the corpus holds."""

    name: str
    n_traces: int
    #: Byte range of the pickled user table behind the packed records.
    users_span: tuple[int, int]
    record_bytes: int
    offset: int
    chunk_id: str
    replicas: tuple[str, ...]


def _untrack_shm(shm) -> None:
    """Stop the worker's resource tracker from owning the segment.

    On Python < 3.13 merely *attaching* registers the segment with the
    process's resource tracker, which would unlink (destroy) it when the
    worker exits — but the driver owns these segments.  That only
    applies to *spawned* workers, which run their own tracker; fork
    workers inherit the driver's tracker, where the attach-register is
    an idempotent set-add and the driver's own unlink performs the one
    unregister — unregistering here too would double-unregister and
    make the shared tracker log KeyErrors at interpreter exit.
    """
    if "fork" in get_all_start_methods():
        return
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _resolve_cache(token: tuple[int, str | None, int]) -> DistributedCache:
    global _WORKER_CACHE
    version, name, nbytes = token
    if version == 0 or name is None:
        return DistributedCache()
    if _WORKER_CACHE[0] != version:
        shm = shared_memory.SharedMemory(name=name)
        _untrack_shm(shm)
        try:
            entries = pickle.loads(bytes(shm.buf[:nbytes]))
        finally:
            shm.close()
        _WORKER_CACHE = (version, DistributedCache.from_snapshot(entries))
    return _WORKER_CACHE[1]


def _resolve_chunk(ref: _SegmentRef) -> Chunk:
    entry = _WORKER_SEGMENTS.get(ref.name)
    if entry is None:
        shm = shared_memory.SharedMemory(name=ref.name)
        _untrack_shm(shm)
        users = pickle.loads(shm.buf[slice(*ref.users_span)])
        entry = (shm, TraceArray.from_buffer(shm.buf, ref.n_traces, users))
        _WORKER_SEGMENTS[ref.name] = entry
    payload = ArrayPayload(entry[1], ref.record_bytes, ref.offset)
    return Chunk(ref.chunk_id, payload, ref.replicas)


def _pool_run_batch(message: tuple) -> "list[MapOutcome] | list[ReduceOutcome]":
    """The pool's one entry point: a contiguous slice of a wave's
    requests, in and out in request order.  The requests arrive without
    their cache and with published chunks as :class:`_SegmentRef`; both
    are resolved here, then the shared attempt loop runs each."""
    run_attempts, cache_token, requests = message
    cache = _resolve_cache(cache_token)
    outcomes = []
    for request in requests:
        request.cache = cache
        chunk = getattr(request, "chunk", None)  # reduce requests have none
        if isinstance(chunk, _SegmentRef):
            request.chunk = _resolve_chunk(chunk)
        outcomes.append(run_attempts(request))
    return outcomes


class _ProcessState:
    """Mutable resources a :class:`ProcessBackend` owns, separated out so
    a ``weakref.finalize`` can release them without referencing the
    backend itself."""

    def __init__(self) -> None:
        self.pool = None
        #: chunk_id -> (shm, (name, n_traces, users_span))
        self.segments: dict[str, tuple] = {}
        self.cache_shm = None


def _release_process_state(state: _ProcessState) -> None:
    if state.pool is not None:
        state.pool.terminate()
        state.pool.join()
        state.pool = None
    for shm, _ in state.segments.values():
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass
    state.segments.clear()
    if state.cache_shm is not None:
        try:
            state.cache_shm.close()
            state.cache_shm.unlink()
        except Exception:
            pass
        state.cache_shm = None


class ProcessBackend(ExecutionBackend):
    """Persistent process pool with shared-memory chunk transport.

    * Chunk payloads holding a :class:`TraceArray` are copied once into a
      named shared-memory segment keyed by ``chunk_id`` (chunk ids are
      unique for the life of an HDFS instance and payloads are
      immutable), the pickled user table behind the records; workers
      rebuild zero-copy views, so iterative drivers like k-means ship
      each chunk — and its user table — across the process boundary
      exactly once no matter how many jobs read it.
    * :meth:`prepare_job` pickles the distributed cache into a versioned
      segment; workers deserialize it once per version — once per worker
      per job, not once per task.
    * A wave crosses as one contiguous batch per worker, one message and
      one reply each: pickling shares what the batch's requests share
      (mapper, conf, chaos schedule, …), so job constants are sent once
      per batch, and an outcome carries only what the runner reads (see
      :class:`MapOutcome`).
    * The pool is forked lazily on first use and reused across jobs;
      :meth:`close` (or garbage collection, via ``weakref.finalize``)
      tears everything down and unlinks the segments.
    """

    name = "processes"

    def __init__(self, max_workers: int):
        self.max_workers = max(int(max_workers), 1)
        self._state = _ProcessState()
        self._cache_version = 0
        self._cache_token: tuple[int, str | None, int] = (0, None, 0)
        self._finalizer = weakref.finalize(
            self, _release_process_state, self._state
        )

    # -- resources --------------------------------------------------------
    def _ensure_pool(self):
        if self._state.pool is None:
            method = "fork" if "fork" in get_all_start_methods() else "spawn"
            self._state.pool = get_context(method).Pool(processes=self.max_workers)
        return self._state.pool

    def prepare_job(self, cache: DistributedCache) -> None:
        payload = pickle.dumps(cache.snapshot(), protocol=pickle.HIGHEST_PROTOCOL)
        if self._state.cache_shm is not None:
            try:
                self._state.cache_shm.close()
                self._state.cache_shm.unlink()
            except Exception:
                pass
            self._state.cache_shm = None
        self._cache_version += 1
        if len(cache) == 0:
            self._cache_token = (self._cache_version, None, 0)
            return
        shm = shared_memory.SharedMemory(create=True, size=max(1, len(payload)))
        shm.buf[: len(payload)] = payload
        self._state.cache_shm = shm
        self._cache_token = (self._cache_version, shm.name, len(payload))

    def _chunk_ref(self, chunk: Chunk) -> "Chunk | _SegmentRef":
        """What crosses in place of ``chunk``: a :class:`_SegmentRef` to
        its published segment, or — no :class:`TraceArray` inside — the
        chunk itself, pickled."""
        # Paged stubs hold a loader bound to the driver's PayloadStore
        # (which refuses to pickle); materialize before crossing to a
        # worker — the shared-memory path below never pickles the data
        # anyway, and the pickle path needs a concrete chunk.
        payload = concrete_payload(chunk.payload)
        if not isinstance(payload, ArrayPayload):
            if payload is not chunk.payload:
                chunk = Chunk(chunk.chunk_id, payload, chunk.replicas)
            return chunk
        entry = self._state.segments.get(chunk.chunk_id)
        if entry is None:
            array = payload.array
            users = pickle.dumps(array.users, protocol=pickle.HIGHEST_PROTOCOL)
            nbytes = array.data_nbytes
            shm = shared_memory.SharedMemory(create=True, size=nbytes + len(users))
            if nbytes:
                array.copy_data_into(shm.buf)
            shm.buf[nbytes : nbytes + len(users)] = users
            entry = (shm, (shm.name, len(array), (nbytes, nbytes + len(users))))
            self._state.segments[chunk.chunk_id] = entry
        return _SegmentRef(
            *entry[1],
            payload.record_bytes,
            payload.offset,
            chunk.chunk_id,
            chunk.replicas,
        )

    # -- dispatch ---------------------------------------------------------
    def _run_batches(self, run_attempts, requests, crossing):
        """Run ``requests`` through the pool as contiguous batches of
        ``crossing(request)`` — the request as it crosses: cache stripped,
        chunk as a ref; outcomes come back in request order.

        One batch per worker: the wave records (docs/PERFORMANCE.md, "The
        process backend's transport") price every further round trip per
        worker at 2-3 ms of a 60 ms wave, and finer batches re-balance
        only a worker running below half speed.
        """
        if len(requests) <= 1 or self.max_workers <= 1:
            return [run_attempts(r) for r in requests]
        requests = [crossing(r) for r in requests]
        pool = self._ensure_pool()
        n = min(len(requests), self.max_workers)
        cuts = [len(requests) * i // n for i in range(n + 1)]
        pending = [
            pool.apply_async(
                _pool_run_batch,
                ((run_attempts, self._cache_token, requests[lo:hi]),),
            )
            for lo, hi in zip(cuts, cuts[1:])
        ]
        for batch in pending:
            batch.wait()  # a raising batch must not leave siblings running
        return [outcome for batch in pending for outcome in batch.get()]

    def run_map_tasks(self, requests):
        return self._run_batches(
            run_map_attempts,
            requests,
            lambda r: replace(r, cache=None, chunk=self._chunk_ref(r.chunk)),
        )

    def run_reduce_tasks(self, requests):
        return self._run_batches(
            run_reduce_attempts, requests, lambda r: replace(r, cache=None)
        )

    def close(self) -> None:
        self._finalizer()


def create_backend(config: MapReduceConfig, n_workers: int) -> ExecutionBackend:
    """Build the backend named by ``config.backend``.

    ``n_workers`` is the resolved pool size (the runner applies the
    backend-specific default when ``config.max_workers`` is ``None``).
    """
    if config.backend == "serial":
        return SerialBackend()
    if config.backend == "threads":
        return ThreadBackend(n_workers)
    if config.backend == "processes":
        return ProcessBackend(n_workers)
    raise ValueError(
        f"unknown executor backend {config.backend!r}; "
        f"choose one of {', '.join(BACKENDS)}"
    )
