"""The multi-tenant job service: ``submit(job, tenant) → JobFuture``.

The paper's premise is many curators sharing one cluster for privacy
analyses over millions of traces, but :class:`~repro.mapreduce.runner.
JobRunner` is strictly one-job-at-a-time.  :class:`JobService` is the
control plane layered on top of it:

* **submit → future.**  ``submit(job, tenant=...)`` validates the tenant
  and its admission quota, snapshots the tenant's distributed cache, and
  enqueues the job; the returned :class:`JobFuture` exposes
  status/result, like ``concurrent.futures``.
* **Weighted fair share.**  A background dispatcher drains the queue in
  stride-scheduling order: each tenant carries a virtual time that grows
  by ``slot_seconds / weight`` per job it runs, and the next job always
  comes from the pending tenant with the smallest ``(vtime, name)`` — so
  a weight-2 tenant is dispatched twice as often as a weight-1 peer and
  no queued tenant starves.  The *simulated* task-granular interleave of
  everything that ran is re-planned over the shared slot pool by
  :func:`~repro.mapreduce.scheduler.plan_fair_share`, reusing the exact
  per-task durations the locality/cost model produced.
* **Determinism.**  The data plane stays serialized — one job executes
  at a time through one inner runner — so every tenant's outputs,
  counters and per-job timings are byte-identical to a solo
  ``JobRunner.run(job)`` of the same driver, on every backend and under
  a fixed chaos schedule.  Concurrency is simulated where it belongs:
  in the scheduler, on the simulated clock.
* **Result cache.**  À la Meta-MapReduce (arXiv:1508.01171): recomputing
  an identical (dataset version, job spec) pair is pure wasted data
  movement, so completed outputs are copied into ``.cache/<digest>`` on
  the simulated HDFS and an identical resubmission is served back with
  **zero map tasks executed**.  The key covers the input paths *and
  their namenode versions*, the mapper/reducer/combiner/partitioner
  identities, the job conf, reducer count, cost factors, and a
  fingerprint of the distributed-cache snapshot (so k-means iterations
  with fresh centroids never false-hit).  Jobs whose spec cannot be
  fingerprinted (lambda mappers, unhashable cache payloads like the
  DJ-Cluster index broadcast) are simply never cached.  Repeat *index
  builds* are deduplicated one layer down instead, by the
  :class:`~repro.index.persistent.IndexCatalog`, and served queries go
  through :meth:`TenantClient.query_engine` without submitting jobs at
  all (``docs/SERVING.md``).

Tenancy is threaded through observability: ``job_submit`` /
``job_dispatch`` / ``result_cache_hit`` / ``result_cache_store`` events
land in the shared :class:`~repro.observability.history.JobHistory`, and
``job_start`` events carry a ``tenant`` tag that `repro history` uses
for per-tenant accounting and Gantt filtering.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from collections import deque
from concurrent.futures import CancelledError
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

import numpy as np

from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.config import validate_tenants
from repro.mapreduce.counters import Counters
from repro.mapreduce.failures import ChaosSchedule
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import JobSpec
from repro.mapreduce.runner import JobResult, JobRunner
from repro.mapreduce.scheduler import (
    FairShareJob,
    FairSharePlan,
    MapPhasePlan,
    plan_fair_share,
)
from repro.mapreduce.simtime import CostModel, JobTiming
from repro.observability import events as ev
from repro.observability.history import JobHistory

__all__ = [
    "JobService",
    "JobFuture",
    "JobStatus",
    "TenantSpec",
    "TenantClient",
    "ResultCache",
    "ServiceReport",
    "QuotaExceededError",
    "UnknownTenantError",
    "result_cache_key",
]

#: Counter group for service-level bookkeeping.
SERVICE_GROUP = "org.apache.hadoop.mapred.JobService"
RESULT_CACHE_HITS = "RESULT_CACHE_HITS"

#: HDFS prefix the result cache stores job outputs under.
RESULT_CACHE_PREFIX = ".cache"


class QuotaExceededError(RuntimeError):
    """A tenant hit its admission quota (``max_queued``) at submit time."""


class UnknownTenantError(ValueError):
    """A submit named a tenant that is not in the service's roster."""


class JobStatus:
    """Lifecycle states of a submitted job (see :class:`JobFuture`)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's service-level agreement.

    ``weight`` is the fair-share weight (2.0 gets twice the slot-seconds
    of 1.0 under contention); ``max_queued`` is the admission quota —
    the most jobs the tenant may have queued or running at once
    (``None`` = unlimited).  :class:`JobService` builds one per tenant
    from its :func:`~repro.mapreduce.config.validate_tenants` roster.
    """

    name: str
    weight: float = 1.0
    max_queued: int | None = None


class JobFuture:
    """Handle to one submitted job: status / result.

    The contract mirrors ``concurrent.futures.Future``: ``result()``
    blocks until the job finishes and either returns its
    :class:`~repro.mapreduce.runner.JobResult` or re-raises the job's
    exception (``CancelledError`` for a submission still queued when the
    service closed without waiting — the data plane never aborts a
    running job mid-task).
    """

    def __init__(self, tenant: str, job_name: str) -> None:
        self.tenant = tenant
        self.job_name = job_name
        #: True once the result cache served this submission.
        self.cache_hit = False
        #: Global dispatch index (order the fair-share dispatcher picked
        #: jobs), or ``None`` while queued/cancelled.
        self.dispatch_index: int | None = None
        self._status = JobStatus.QUEUED
        self._result: JobResult | None = None
        self._exception: BaseException | None = None
        self._done = threading.Event()
        self._lock = threading.Lock()

    # -- inspection ---------------------------------------------------------
    @property
    def status(self) -> str:
        return self._status

    def result(self, timeout: float | None = None) -> JobResult:
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.job_name!r} still {self._status}")
        if self._status == JobStatus.CANCELLED:
            raise CancelledError(self.job_name)
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result

    # -- resolution (service-side) ------------------------------------------
    def _mark_running(self, dispatch_index: int) -> None:
        with self._lock:
            self._status = JobStatus.RUNNING
            self.dispatch_index = dispatch_index

    def _resolve(self, result: JobResult | None, exc: BaseException | None) -> None:
        with self._lock:
            if exc is not None:
                self._status = JobStatus.FAILED
                self._exception = exc
            else:
                self._status = JobStatus.DONE
                self._result = result
            self._done.set()

    def _mark_cancelled(self) -> bool:
        with self._lock:
            if self._status != JobStatus.QUEUED:
                return False
            self._status = JobStatus.CANCELLED
            self._done.set()
            return True


# ---------------------------------------------------------------------------
# Result-cache keying
# ---------------------------------------------------------------------------


def _fingerprint_value(value: Any) -> str | None:
    """A stable digest-able description of a plain value.

    Returns ``None`` for anything that cannot be fingerprinted reliably
    (arbitrary objects, e.g. an R-tree) — the caller must then treat the
    job as uncacheable rather than risk a false hit.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, np.ndarray):
        body = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"ndarray:{value.dtype}:{value.shape}:{body}"
    if isinstance(value, (list, tuple)):
        parts = [_fingerprint_value(v) for v in value]
        if any(p is None for p in parts):
            return None
        return f"seq:[{','.join(parts)}]"
    if isinstance(value, Mapping):
        parts = []
        for key in sorted(value, key=repr):
            fp = _fingerprint_value(value[key])
            if fp is None:
                return None
            parts.append(f"{key!r}={fp}")
        return f"map:{{{','.join(parts)}}}"
    return None


def _fingerprint_callable(obj: Any) -> str | None:
    """Identity of a mapper/reducer/combiner factory, if nameable.

    Classes fingerprint as their qualified name — the spec identity a
    resubmission shares.  Arbitrary closures don't (their behaviour can
    differ run to run), so jobs built on them are uncacheable.
    """
    if obj is None:
        return "none"
    if isinstance(obj, type):
        return f"{obj.__module__}.{obj.__qualname__}"
    return None


def result_cache_key(
    job: JobSpec, hdfs: SimulatedHDFS, cache_snapshot: dict[str, Any]
) -> str | None:
    """The (dataset version, job spec) digest, or ``None`` if uncacheable.

    Two submissions share a key iff they would provably compute the same
    output: same input files *at the same namenode versions*, same
    mapper/reducer/combiner/partitioner/aggregation identities, same
    conf, reducer count and cost factors, and the same distributed-cache
    snapshot content.  The job *name* and *output path* are deliberately
    excluded — resubmitting under a new name/output is exactly the hit
    case.
    """
    parts: list[str] = []
    for tag, factory in (
        ("mapper", job.mapper), ("reducer", job.reducer), ("combiner", job.combiner)
    ):
        fp = _fingerprint_callable(factory)
        if fp is None:
            return None
        parts.append(f"{tag}={fp}")
    # The partitioner and the aggregation (which may *be* the reduce)
    # are instances: their class names them, their state must be plain.
    for tag, instance in (
        ("partitioner", job.partitioner), ("aggregation", job.aggregation)
    ):
        if instance is None:
            parts.append(f"{tag}=none")
            continue
        state_fp = _fingerprint_value(getattr(instance, "__dict__", {}))
        if state_fp is None:
            return None
        parts.append(
            f"{tag}={type(instance).__module__}."
            f"{type(instance).__qualname__}:{state_fp}"
        )
    conf_fp = _fingerprint_value(job.conf.as_dict())
    if conf_fp is None:
        return None
    parts.append(f"conf={conf_fp}")
    for path in job.input_paths:
        parts.append(f"input={path}@v{hdfs.version(path)}")
    snapshot_fp = _fingerprint_value(cache_snapshot)
    if snapshot_fp is None:
        return None
    parts.append(f"cache={snapshot_fp}")
    parts.append(f"reducers={0 if job.map_only else job.num_reducers}")
    parts.append(f"cost={job.map_cost_factor}:{job.reduce_cost_factor}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:24]


class ResultCache:
    """Completed job outputs, stored on HDFS under ``.cache/<digest>``."""

    def __init__(self, hdfs: SimulatedHDFS, prefix: str = RESULT_CACHE_PREFIX):
        self.hdfs = hdfs
        self.prefix = prefix
        self._entries: dict[str, str] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str) -> str | None:
        """The cached output path for ``key``, if still present on HDFS."""
        path = self._entries.get(key)
        if path is not None and not self.hdfs.exists(path):
            del self._entries[key]  # someone deleted the cached copy
            return None
        return path

    def store(self, key: str, output_path: str) -> int | None:
        """Copy a finished job's output into the cache; returns bytes
        copied, or ``None`` if the key was already cached."""
        path = f"{self.prefix}/{key}"
        if self.hdfs.exists(path):
            self._entries[key] = path
            return None
        nbytes = self.hdfs.copy(output_path, path)
        self._entries[key] = path
        return nbytes

    def serve(self, key: str, output_path: str) -> int:
        """Materialize a hit: copy the cached output to ``output_path``."""
        source = self._entries[key]
        return self.hdfs.copy(source, output_path)


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


@dataclass
class _TenantState:
    spec: TenantSpec
    cache: DistributedCache = field(default_factory=DistributedCache)
    queue: deque = field(default_factory=deque)
    running: int = 0
    vtime: float = 0.0
    slot_seconds: float = 0.0
    jobs_done: int = 0
    cache_hits: int = 0

    @property
    def admitted(self) -> int:
        return len(self.queue) + self.running


@dataclass
class _Submission:
    order: int
    tenant: str
    job: JobSpec
    #: The tenant's distributed cache as it stood at submission.
    cache: DistributedCache
    future: JobFuture
    #: Extra JSON-safe labels stamped into the job's JOB_SUBMIT/JOB_START
    #: events (the streaming layer tags jobs with their window index).
    tags: dict[str, Any] | None = None


class TenantClient:
    """One tenant's runner-shaped view of the service.

    Exposes the attribute surface the algorithm drivers use
    (``run`` / ``hdfs`` / ``cluster`` / ``cache`` / ``history`` /
    ``cost_model``), so ``run_sampling_job(service.client("alice"), ...)``
    works unchanged — each ``run`` becomes a submit + blocking wait, and
    ``cache`` mutations touch only this tenant's distributed cache.
    Tenants must keep their HDFS paths disjoint (per-tenant workdirs);
    the service fails a job whose output path already exists, exactly
    like the runner.
    """

    def __init__(self, service: "JobService", tenant: str):
        if tenant not in service.tenants:
            raise UnknownTenantError(
                f"unknown tenant {tenant!r}; known tenants: "
                f"{', '.join(sorted(service.tenants))}"
            )
        self.service = service
        self.tenant = tenant
        #: Labels attached to every subsequent submit (JSON-safe values);
        #: the streaming manager sets ``{"window": i}`` around each
        #: window's jobs so histories can be rolled up per window.
        self.tags: dict[str, Any] | None = None

    @property
    def hdfs(self) -> SimulatedHDFS:
        return self.service.hdfs

    @property
    def cluster(self):
        return self.service.cluster

    @property
    def cost_model(self) -> CostModel:
        return self.service.cost_model

    @property
    def history(self) -> JobHistory:
        return self.service.history

    @property
    def cache(self) -> DistributedCache:
        return self.service._tenants[self.tenant].cache

    def submit(self, job: JobSpec) -> JobFuture:
        return self.service.submit(job, tenant=self.tenant, tags=self.tags)

    def run(self, job: JobSpec) -> JobResult:
        """Submit and block — the drop-in for ``JobRunner.run``."""
        return self.submit(job).result()

    def catalog(self):
        """The service-wide :class:`~repro.index.persistent.IndexCatalog`
        (indexes, like HDFS files, are shared across tenants)."""
        from repro.index.persistent import IndexCatalog

        return IndexCatalog(self.hdfs)

    def query_engine(self, path: str | None = None, key: str | None = None):
        """A :class:`~repro.index.persistent.QueryEngine` over a persisted
        index — point/range/radius/kNN with **zero map tasks per query**.

        ``path`` opens the index stored at an explicit HDFS path;
        ``key`` resolves it through the catalog.  Queries are charged to
        the shared simulated clock and traced as ``query_served`` events
        under the ``{tenant}:serving`` job tag.
        """
        from repro.index.persistent import PersistentRTree, QueryEngine

        if (path is None) == (key is None):
            raise ValueError("pass exactly one of path= or key=")
        index = (
            PersistentRTree.open(self.hdfs, path)
            if path is not None
            else self.catalog().open(key)
        )
        return QueryEngine(
            index,
            hdfs=self.hdfs,
            cost_model=self.cost_model,
            history=self.history,
            job=f"{self.tenant}:serving",
        )


@dataclass
class ServiceReport:
    """Multi-tenant accounting over everything the service ran.

    ``fairness`` holds each tenant's slot-second share over the
    *contended window* (the interval where every tenant still had work)
    against its weight share; the acceptance gate is
    ``max |deviation| <= 0.2``.  ``interleaved_makespan_s`` is the
    fair-share plan's simulated makespan; ``serial_s`` is the sum of the
    same jobs' solo task time — their ratio is the consolidation win the
    paper's shared-cluster premise banks on.
    """

    tenants: dict[str, dict[str, Any]]
    interleaved_makespan_s: float
    serial_s: float
    contended_window_s: float
    plan: FairSharePlan

    @property
    def speedup(self) -> float:
        if self.interleaved_makespan_s <= 0:
            return 1.0
        return self.serial_s / self.interleaved_makespan_s

    @property
    def max_abs_deviation(self) -> float:
        contending = [
            row for row in self.tenants.values() if row["contended_slot_s"] > 0
        ]
        if len(contending) < 2:
            return 0.0
        return max(abs(row["deviation"]) for row in contending)

    def render(self, width: int = 72) -> str:
        lines = ["multi-tenant service report", "=" * width]
        header = (
            f"{'tenant':<12} {'w':>4} {'jobs':>5} {'hits':>5} "
            f"{'slot-s':>10} {'share':>7} {'fair':>7} {'dev':>7}"
        )
        lines.append(header)
        lines.append("-" * width)
        for name in sorted(self.tenants):
            row = self.tenants[name]
            lines.append(
                f"{name:<12} {row['weight']:>4.1f} {row['jobs']:>5} "
                f"{row['cache_hits']:>5} {row['slot_seconds']:>10.1f} "
                f"{row['share']:>6.1%} {row['weight_share']:>6.1%} "
                f"{row['deviation']:>+6.1%}"
            )
        lines.append("-" * width)
        lines.append(
            f"interleaved makespan {self.interleaved_makespan_s:.1f}s  "
            f"vs serial {self.serial_s:.1f}s  "
            f"(speedup {self.speedup:.2f}x)  "
            f"contended window {self.contended_window_s:.1f}s  "
            f"max fairness deviation {self.max_abs_deviation:.1%}"
        )
        return "\n".join(lines)


class JobService:
    """Multi-tenant front end over one :class:`JobRunner` deployment.

    ``executor``, ``max_workers``, ``chaos``, ``memory_budget_mb`` and
    ``spill_dir`` configure the inner
    :class:`~repro.mapreduce.runner.JobRunner` (every other runner setting
    keeps its default); the service-level knobs are:

    ``tenants``
        The roster: ``{name: weight}`` or ``{name: {"weight": w,
        "max_queued": q}}``, validated by
        :func:`~repro.mapreduce.config.validate_tenants`.  ``None``
        declares the single tenant ``"default"`` with weight 1.
    ``result_cache``
        Enable the (dataset version, job spec) result cache
        (default ``True``).
    ``start``
        Start the dispatcher immediately (default).  ``start=False``
        leaves the service *paused*: submits queue up and nothing runs
        until :meth:`start` — how the benchmark builds a deterministic
        backlog before opening the floodgates.

    Use as a context manager (or call :meth:`close`) to stop the
    dispatcher and release backend resources.
    """

    def __init__(
        self,
        hdfs: SimulatedHDFS,
        tenants: Mapping[str, Any] | None = None,
        executor: str = "serial",
        max_workers: int | None = None,
        chaos: ChaosSchedule | None = None,
        memory_budget_mb: float | None = None,
        spill_dir: str | None = None,
        result_cache: bool = True,
        start: bool = True,
    ):
        # The runner's MapReduceConfig checks backend, workers and budget.
        normalized = (
            validate_tenants(tenants)
            if tenants is not None
            else {"default": {"weight": 1.0, "max_queued": None}}
        )
        self.hdfs = hdfs
        self.cluster = hdfs.cluster
        self._runner = JobRunner(
            hdfs,
            executor=executor,
            max_workers=max_workers,
            chaos=chaos,
            memory_budget_mb=memory_budget_mb,
            spill_dir=spill_dir,
        )
        self.cost_model = self._runner.cost_model
        self.history = self._runner.history
        self._tenants: dict[str, _TenantState] = {
            name: _TenantState(TenantSpec(name, k["weight"], k["max_queued"]))
            for name, k in normalized.items()
        }
        self.result_cache: ResultCache | None = (
            ResultCache(hdfs) if result_cache else None
        )
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._seq = itertools.count()
        self._dispatched = 0
        self._outstanding = 0
        self._stop = False
        self._started = start
        #: Completed work in dispatch order, for the fair-share replan:
        #: (tenant, weight, job name, order, map durations, reduce
        #: durations, solo task seconds, cache hit).
        self._completed: list[tuple] = []
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="jobservice-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # -- lifecycle ----------------------------------------------------------
    @property
    def tenants(self) -> dict[str, TenantSpec]:
        return {name: state.spec for name, state in self._tenants.items()}

    def client(self, tenant: str = "default") -> TenantClient:
        """A runner-shaped handle bound to one tenant."""
        return TenantClient(self, tenant)

    def start(self) -> None:
        """Open a paused service: the dispatcher begins draining."""
        with self._cond:
            self._started = True
            self._cond.notify_all()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until every accepted submission has resolved."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._outstanding == 0, timeout=timeout
            )

    def close(self, wait: bool = True) -> None:
        """Stop the dispatcher and release runner resources.

        ``wait=True`` (default) drains the queue first; ``wait=False``
        cancels everything still queued.
        """
        if wait:
            with self._cond:
                self._started = True
                self._cond.notify_all()
            self.wait()
        with self._cond:
            self._stop = True
            if not wait:
                for state in self._tenants.values():
                    while state.queue:
                        sub = state.queue.popleft()
                        if sub.future._mark_cancelled():
                            self._outstanding -= 1
            self._cond.notify_all()
        self._dispatcher.join(timeout=60)
        self._runner.close()

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc) -> None:
        self.close(wait=not any(exc))

    # -- submission ---------------------------------------------------------
    def submit(
        self,
        job: JobSpec,
        tenant: str = "default",
        tags: dict[str, Any] | None = None,
    ) -> JobFuture:
        """Queue ``job`` for ``tenant``; returns its :class:`JobFuture`.

        Raises :class:`UnknownTenantError` for tenants outside the
        roster and :class:`QuotaExceededError` when the tenant is at its
        ``max_queued`` admission quota.  The tenant's distributed cache
        is snapshotted *now* — later mutations (e.g. the next k-means
        iteration's centroids) don't leak into this job.  ``tags`` are
        JSON-safe labels stamped into the job's ``job_submit`` and
        ``job_start`` events (e.g. a streaming window index).
        """
        state = self._tenants.get(tenant)
        if state is None:
            raise UnknownTenantError(
                f"unknown tenant {tenant!r}; known tenants: "
                f"{', '.join(sorted(self._tenants))}"
            )
        spec = replace(job, name=f"{tenant}:{job.name}")
        future = JobFuture(tenant, spec.name)
        with self._cond:
            if self._stop:
                raise RuntimeError("service is closed")
            quota = state.spec.max_queued
            if quota is not None and state.admitted >= quota:
                raise QuotaExceededError(
                    f"tenant {tenant!r} has {state.admitted} jobs admitted, "
                    f"at its max_queued={quota} quota"
                )
            sub = _Submission(
                order=next(self._seq),
                tenant=tenant,
                job=spec,
                cache=state.cache.copy(),
                future=future,
                tags=dict(tags) if tags else None,
            )
            state.queue.append(sub)
            self._outstanding += 1
            queue_depth = sum(len(s.queue) for s in self._tenants.values())
            tags = sub.tags or {}
            self.history.emit(
                ev.JobSubmit(
                    tenant=tenant, queue_depth=queue_depth,
                    stream=tags.get("stream"), window=tags.get("window"),
                ),
                spec.name,
                self.history.clock,
            )
            self._cond.notify_all()
        return future

    # -- dispatch -----------------------------------------------------------
    def _pick_locked(self) -> _Submission:
        """The fair-share choice: min ``(vtime, name)`` tenant, FIFO jobs
        (the caller has seen a non-empty queue)."""
        pending = [s for s in self._tenants.values() if s.queue]
        state = min(pending, key=lambda s: (s.vtime, s.spec.name))
        return state.queue.popleft()

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: self._stop
                    or (self._started and any(s.queue for s in self._tenants.values()))
                )
                if self._stop and not any(s.queue for s in self._tenants.values()):
                    return
                sub = self._pick_locked()
                state = self._tenants[sub.tenant]
                state.running += 1
                index = self._dispatched
                self._dispatched += 1
                queued = sum(len(s.queue) for s in self._tenants.values())
            sub.future._mark_running(index)
            self.history.emit(
                ev.JobDispatch(tenant=sub.tenant, dispatch_index=index, queued=queued),
                sub.job.name,
                self.history.clock,
            )
            result: JobResult | None = None
            exc: BaseException | None = None
            cache_hit = False
            try:
                result, cache_hit = self._execute(sub)
            except BaseException as e:  # surfaced through the future
                exc = e
            with self._cond:
                state.running -= 1
                self._outstanding -= 1
                if result is not None:
                    slot_s = self._slot_seconds(result)
                    state.vtime += slot_s / state.spec.weight
                    state.slot_seconds += slot_s
                    state.jobs_done += 1
                    if cache_hit:
                        state.cache_hits += 1
                    self._completed.append((
                        sub.tenant,
                        state.spec.weight,
                        result.job_name,
                        sub.order,
                        tuple(
                            a.duration
                            for a in sorted(
                                (x for x in result.map_plan.assignments
                                 if not x.speculative),
                                key=lambda a: a.task_id,
                            )
                        ),
                        tuple(
                            p.duration
                            for p in sorted(
                                result.reduce_plan, key=lambda p: p.task_id
                            )
                        ),
                        result.timing.map_s + result.timing.reduce_s,
                        cache_hit,
                    ))
                self._cond.notify_all()
            sub.future.cache_hit = cache_hit
            sub.future._resolve(result, exc)

    @staticmethod
    def _slot_seconds(result: JobResult) -> float:
        """Slot-time a job consumed (primary map + reduce durations)."""
        maps = sum(
            a.duration for a in result.map_plan.assignments if not a.speculative
        )
        reduces = sum(p.duration for p in result.reduce_plan)
        return maps + reduces

    # -- execution ----------------------------------------------------------
    def _execute(self, sub: _Submission) -> tuple[JobResult, bool]:
        """Run one submission on the inner runner (dispatcher thread only).

        Installs the tenant's cache snapshot and tag, consults the
        result cache, executes on a miss, and stores cacheable outputs.
        """
        runner = self._runner
        runner.cache = sub.cache
        runner.tenant = sub.tenant
        runner.job_tags = sub.tags
        try:
            key = (
                result_cache_key(sub.job, self.hdfs, sub.cache.snapshot())
                if self.result_cache is not None
                else None
            )
            if key is not None and self.result_cache.lookup(key) is not None:
                return self._serve_cache_hit(sub, key), True
            result = runner.run(sub.job)
            if key is not None:
                nbytes = self.result_cache.store(key, sub.job.output_path)
                if nbytes is not None:
                    self.history.emit(
                        ev.ResultCacheStore(tenant=sub.tenant, key=key, nbytes=nbytes),
                        sub.job.name,
                        self.history.clock,
                    )
            if self.result_cache is not None:
                self.result_cache.misses += 1
            return result, False
        finally:
            runner.tenant = None
            runner.job_tags = None

    def _serve_cache_hit(self, sub: _Submission, key: str) -> JobResult:
        """Answer a submission from the result cache: zero tasks run.

        The hit is charged one job setup (the jobtracker round-trip a
        real Hadoop client still pays) and emits a normal
        ``job_start``/``job_finish`` pair around a ``result_cache_hit``
        event, so histories stay well-formed and the simulated clock
        advances consistently.
        """
        job = sub.job
        if self.hdfs.exists(job.output_path):
            raise FileExistsError(f"output path exists: {job.output_path}")
        assert self.result_cache is not None
        source = self.result_cache.lookup(key)
        self.result_cache.serve(key, job.output_path)
        self.result_cache.hits += 1
        counters = Counters()
        counters.increment(SERVICE_GROUP, RESULT_CACHE_HITS, 1)
        saved_maps = sum(
            len(self.hdfs.chunks(path)) for path in job.input_paths
        )
        timing = JobTiming(self.cost_model.job_setup_s, 0.0, 0.0)
        h = self.history
        t0 = h.clock
        tags = sub.tags or {}
        h.emit(
            ev.JobStart(
                input_paths=list(job.input_paths),
                output_path=job.output_path,
                n_chunks=0,
                map_only=job.map_only,
                num_reducers=0,
                combiner=job.combiner is not None,
                tenant=sub.tenant,
                stream=tags.get("stream"),
                window=tags.get("window"),
            ),
            job.name,
            t0,
        )
        h.emit(
            ev.ResultCacheHit(
                tenant=sub.tenant, key=key, source_path=source, saved_map_tasks=saved_maps
            ),
            job.name,
            t0,
        )
        h.emit(
            ev.JobFinish(
                timing=timing.payload(),
                counters=counters.to_dict(),
                n_map_tasks=0,
                n_reduce_tasks=0,
                output_path=job.output_path,
            ),
            job.name,
            t0 + timing.total_s,
        )
        h.advance(t0 + timing.total_s)
        return JobResult(
            job_name=job.name,
            output_path=job.output_path,
            counters=counters,
            timing=timing,
            map_plan=MapPhasePlan(assignments=[], makespan=0.0, waves=0),
            n_map_tasks=0,
            n_reduce_tasks=0,
            reduce_plan=[],
        )

    # -- accounting ---------------------------------------------------------
    def fair_share_plan(self) -> FairSharePlan:
        """Re-plan everything that ran as one task-granular interleave.

        Uses the per-task durations the solo plans produced, interleaved
        over the shared slot pool by stride scheduling — the simulated
        schedule the cluster would have run had all tenants' tasks
        contended for slots concurrently (the backlog model).
        """
        with self._lock:
            completed = list(self._completed)
        jobs = [
            FairShareJob(
                tenant=tenant, weight=weight, name=name, order=order,
                map_durations=maps, reduce_durations=reduces,
            )
            for tenant, weight, name, order, maps, reduces, _, _ in completed
        ]
        return plan_fair_share(jobs, self.cluster, dead_nodes=self.hdfs.dead_nodes)

    def report(self) -> ServiceReport:
        """Per-tenant accounting + the fair-share interleave metrics."""
        plan = self.fair_share_plan()
        with self._lock:
            completed = list(self._completed)
            states = {
                name: (s.spec.weight, s.jobs_done, s.cache_hits, s.slot_seconds)
                for name, s in self._tenants.items()
            }
        serial_s = sum(row[6] for row in completed)
        window = plan.contended_window()
        shares = plan.tenant_shares(window)
        deviations = plan.fairness_deviations(window)
        contended = plan.slot_seconds(window)
        total_weight = sum(w for w, _, _, _ in states.values()) or 1.0
        tenants: dict[str, dict[str, Any]] = {}
        for name, (weight, jobs_done, cache_hits, slot_seconds) in states.items():
            tenants[name] = {
                "weight": weight,
                "weight_share": weight / total_weight,
                "jobs": jobs_done,
                "cache_hits": cache_hits,
                "slot_seconds": slot_seconds,
                "contended_slot_s": contended.get(name, 0.0),
                "share": shares.get(name, 0.0),
                "deviation": deviations.get(name, 0.0),
            }
        return ServiceReport(
            tenants=tenants,
            interleaved_makespan_s=plan.makespan,
            serial_s=serial_s,
            contended_window_s=window,
            plan=plan,
        )
