"""The job runner: executes a :class:`~repro.mapreduce.job.JobSpec`.

Execution follows the Hadoop lifecycle from Section III end-to-end:

1. the namenode supplies the input chunks and their replica locations;
2. the jobtracker plans map tasks onto tasktracker slots with locality
   preference (:mod:`repro.mapreduce.scheduler`);
3. map tasks run on the configured execution backend (serial, thread
   pool, or shared-memory process pool — see
   :mod:`repro.mapreduce.backends`), each over one chunk, with chaos
   fault injection + retry on another replica holder;
4. the optional combiner (or pre-aggregation) folds each map task's
   local output where the task ran;
5. the shuffle partitions, transfers and sorts intermediate pairs;
6. reduce tasks aggregate their key groups; output lands in HDFS;
7. the cost model converts the executed DAG into simulated seconds.
"""

from __future__ import annotations

import functools
import os
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.geo.trace import TraceArray
from repro.mapreduce.aggregation import AggregationReducer
from repro.mapreduce.backends import (
    MapOutcome,
    MapTaskRequest,
    ReduceOutcome,
    ReduceTaskRequest,
    WaveRecord,
    create_backend,
)
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.config import MapReduceConfig
from repro.mapreduce.counters import Counters, STANDARD
from repro.mapreduce.failures import (
    ChaosSchedule,
    FailedAttempt,
    FaultKind,
    JobFailedError,
    TaskFailure,
)
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import ARRAY_OUTPUT_KEY, JobSpec
from repro.mapreduce.scheduler import (
    MapPhasePlan,
    NodeBlacklist,
    ReduceAssignment,
    RetryPolicy,
    TaskAssignment,
    plan_map_phase,
    plan_reduce_phase,
    record_locality,
)
from repro.mapreduce.shuffle import ShuffleResult, shuffle
from repro.mapreduce.simtime import CostModel, JobTiming
from repro.mapreduce.spill import (
    MB,
    SpillManager,
    SpilledMapOutput,
    WorkerSpillSpec,
    as_pairs,
)
from repro.mapreduce.types import Chunk, DEFAULT_RECORD_BYTES
from repro.observability import events as ev
from repro.observability.events import Phase
from repro.observability.history import JobHistory

__all__ = [
    "JobRunner", "JobResult", "JobLabels", "JobEvents", "fresh_hdfs", "fresh_runner",
]


@dataclass
class JobResult:
    """Everything a caller can observe about a finished job."""

    job_name: str
    output_path: str
    counters: Counters
    timing: JobTiming
    map_plan: MapPhasePlan
    n_map_tasks: int
    n_reduce_tasks: int
    #: Per-reduce-task placements (empty for map-only jobs).  The service
    #: layer's fair-share interleave replans these durations over the
    #: shared slot pool.
    reduce_plan: list[ReduceAssignment] = field(default_factory=list)
    #: Wall-clock records of the map and reduce dispatch (wave wall, and
    #: per worker process tasks / busy / CPU): where real time went, for
    #: profiling only.  Not deterministic, so excluded from comparison and
    #: never copied into the history, counters or simulated time.
    map_wave: WaveRecord | None = field(default=None, compare=False, repr=False)
    reduce_wave: WaveRecord | None = field(default=None, compare=False, repr=False)

    @property
    def sim_seconds(self) -> float:
        """Simulated job duration on the modelled cluster."""
        return self.timing.total_s

    def summary(self) -> str:
        """One-line jobtracker-style report (name, tasks, locality,
        shuffle volume, simulated timing breakdown)."""
        sched = self.counters.group(STANDARD.GROUP_SCHEDULER)
        local = sched.get(STANDARD.DATA_LOCAL_MAPS, 0)
        shuffle_mb = self.counters.value(
            STANDARD.GROUP_TASK, STANDARD.SHUFFLE_BYTES
        ) / (1024 * 1024)
        failed = sched.get(STANDARD.FAILED_TASKS, 0)
        parts = [
            f"{self.job_name}: {self.n_map_tasks} maps ({local} node-local)",
            f"{self.n_reduce_tasks} reduces" if self.n_reduce_tasks else "map-only",
            f"shuffle {shuffle_mb:.2f} MB",
            f"sim {self.sim_seconds:.1f}s "
            f"({self.timing.setup_s:.0f}+{self.timing.map_s:.1f}"
            f"+{self.timing.reduce_s:.1f})",
        ]
        if failed:
            parts.append(f"{failed} retried attempts")
        return "  ".join(parts)


class _NodeLoss(NamedTuple):
    """A mid-phase node loss: the victim, the map tasks re-run off it, and
    the ``node_lost`` / ``replica_healed`` events it leaves."""

    victim: str
    lost: list[TaskAssignment]
    event: ev.NodeLost
    healed: ev.ReplicaHealed


class _ReduceSide(NamedTuple):
    """What the shuffle and reduce phase of a job leave behind."""

    sh: ShuffleResult
    placements: list[ReduceAssignment]
    makespan: float
    failures: dict[str, list[FailedAttempt]]
    refetches: list[tuple[str, ev.ShuffleRefetch]]
    #: Shuffle spill runs and merges, priced.
    runs: list[tuple[str, ev.SpillStart]]
    merges: list[ev.SpillMerge]
    #: Recovery costs, in the order the job's retry penalty adds them.
    penalties: list[float]
    wave: WaveRecord


@dataclass(frozen=True)
class JobLabels:
    """Whom and what a job runs for, stamped into its ``job_submit`` and
    ``job_start`` events: the service tenant, and the stream and window
    of a streaming run.  ``JobLabels()`` (a solo run) stamps nothing."""

    tenant: str | None = None
    stream: str | None = None
    window: int | None = None


class JobEvents:
    """The one writer of a job's event stream, on the history's
    cumulative simulated clock.

    The execution is simulated, so a job's events are written after it
    succeeded, in chronological order from the clock origin ``t0``:
    ``job_start`` on construction, then for a run :meth:`setup`,
    :meth:`map_phase`, :meth:`reduce_phase` (jobs with reducers) and
    :meth:`blacklist`, for a result-cache hit one ``result_cache_hit``,
    and last :meth:`finish`, which closes the job and advances the
    clock.  Phase durations exactly mirror :class:`JobTiming`; a retried
    task's extra attempts are charged to the job's retry penalty, not the
    phase clock.
    """

    def __init__(
        self,
        history: JobHistory,
        job: JobSpec,
        labels: JobLabels,
        n_chunks: int,
        num_reducers: int,
    ):
        self.history = history
        self.job = job.name
        self.output_path = job.output_path
        self.t0 = history.clock
        #: The map phase's start and end on the clock (set by the phases).
        self.t_map = self.t_map_end = self.t0
        self.emit(
            ev.JobStart(
                input_paths=list(job.input_paths),
                output_path=job.output_path,
                n_chunks=n_chunks,
                map_only=job.map_only,
                num_reducers=num_reducers,
                combiner=job.combiner is not None,
                tenant=labels.tenant,
                stream=labels.stream,
                window=labels.window,
            ),
            self.t0,
        )

    def emit(
        self, payload: ev.Payload, ts: float, task: str | None = None, node: str | None = None
    ) -> None:
        self.history.emit(payload, self.job, ts, task=task, node=node)

    def setup(self, setup_s: float, cache_load: ev.CacheLoad | None) -> None:
        self.emit(ev.PhaseStart(phase=Phase.SETUP), self.t0)
        if cache_load is not None:
            self.emit(cache_load, self.t0)
        self.t_map = self.t0 + setup_s
        self.emit(ev.PhaseFinish(phase=Phase.SETUP, duration_s=setup_s), self.t_map)

    def map_phase(
        self,
        map_s: float,
        plan: MapPhasePlan,
        failures: Mapping[str, list[FailedAttempt]],
        node_loss: "_NodeLoss | None",
        spills: list[tuple[str, ev.SpillStart]],
    ) -> None:
        """The map tasks in start order, then the speculative copies, the
        node loss and the spills."""
        t_map = self.t_map
        self.t_map_end = t_map + map_s
        self.emit(ev.PhaseStart(phase=Phase.MAP), t_map)
        primary = sorted(
            (a for a in plan.assignments if not a.speculative),
            key=lambda a: (a.start_time, a.task_id),
        )
        for a in primary:
            self._task(
                Phase.MAP, a.task_id, a.node, t_map + a.start_time, a.duration,
                failures.get(a.task_id, ()), locality=a.locality,
                input_bytes=a.chunk.nbytes, input_records=a.chunk.n_records,
            )
        original = {a.task_id: a.node for a in primary}
        for a in plan.assignments:
            if not a.speculative:
                continue
            ts = t_map + a.start_time
            self.emit(
                ev.SpeculativeLaunch(
                    original_node=original.get(a.task_id), duration_s=a.duration
                ),
                ts, a.task_id, a.node,
            )
            self.emit(
                ev.TaskStart(phase=Phase.MAP, locality=a.locality, speculative=True),
                ts, a.task_id, a.node,
            )
            self.emit(
                ev.TaskFinish(
                    phase=Phase.MAP, duration_s=a.duration, locality=a.locality,
                    speculative=True,
                ),
                t_map + a.end_time, a.task_id, a.node,
            )
        if node_loss is not None:
            # The node died once its last map attempt had completed.
            ts = t_map + min(
                max((a.end_time for a in node_loss.lost), default=0.0), map_s
            )
            self.emit(node_loss.event, ts, node=node_loss.victim)
            if node_loss.healed.replicas:
                self.emit(node_loss.healed, ts)
        # Spill IO happens on Hadoop's background spill thread while the
        # map phase runs; everything is stamped at the phase end (the
        # simulated clock has no per-task sub-timeline for it).
        for task, spill in spills:
            self.emit(spill, self.t_map_end, task=task)
        self.emit(ev.PhaseFinish(phase=Phase.MAP, duration_s=map_s), self.t_map_end)

    def reduce_phase(
        self,
        reduce_s: float,
        sh: ShuffleResult,
        cross_node_bytes: int,
        merges: list[ev.SpillMerge],
        refetches: list[tuple[str, ev.ShuffleRefetch]],
        placements: list[ReduceAssignment],
        failures: Mapping[str, list[FailedAttempt]],
    ) -> None:
        """The shuffle, stamped at the map phase's end (it overlaps the
        reduce fetch in the cost model), then the reduce tasks."""
        t_reduce = self.t_map_end
        records: dict[str, int] = {}
        for r in range(sh.n_reducers):
            task = f"reduce-{r:04d}"
            records[task] = sh.records_for(r)
            transfer = ev.ShuffleTransfer(
                reducer=task,
                bytes=sh.partition_bytes[r],
                records=records[task],
                groups=sh.groups_for(r),
                # A pre-aggregated partition ships envelopes that each
                # stand for many mapper records; only that path sets the
                # true count, so every other history keeps its shape.
                raw_records=sh.raw_records_for(r) if sh.preagg is not None else None,
            )
            self.emit(transfer, t_reduce, task=task)
        if sh.preagg is not None:
            self.emit(replace(sh.preagg, cross_node_bytes=cross_node_bytes), t_reduce)
        for r, merge in enumerate(merges):
            self.emit(merge, t_reduce, task=f"reduce-{r:04d}")
        for task, refetch in refetches:
            self.emit(refetch, t_reduce, task=task)
        self.emit(ev.PhaseStart(phase=Phase.REDUCE), t_reduce)
        for p in sorted(placements, key=lambda p: (p.start_time, p.task_id)):
            self._task(
                Phase.REDUCE, p.task_id, p.node, t_reduce + p.start_time, p.duration,
                failures.get(p.task_id, ()), input_records=records.get(p.task_id, 0),
            )
        self.emit(
            ev.PhaseFinish(phase=Phase.REDUCE, duration_s=reduce_s), t_reduce + reduce_s
        )

    def blacklist(self, blacklist: NodeBlacklist) -> None:
        for node in sorted(blacklist.nodes()):
            self.emit(
                ev.NodeBlacklisted(
                    failures=blacklist.failure_count(node), threshold=blacklist.threshold
                ),
                self.t_map_end, node=node,
            )

    def finish(
        self, timing: JobTiming, counters: Counters, n_map_tasks: int, n_reduce_tasks: int
    ) -> None:
        end = self.t0 + timing.total_s
        self.emit(
            ev.JobFinish(
                timing=timing.payload(),
                counters=counters.to_dict(),
                n_map_tasks=n_map_tasks,
                n_reduce_tasks=n_reduce_tasks,
                output_path=self.output_path,
            ),
            end,
        )
        self.history.advance(end)

    def _task(
        self,
        phase: str,
        task: str,
        node: str,
        t_start: float,
        duration: float,
        failures: Sequence[FailedAttempt],
        locality: str = "",
        input_bytes: int | None = None,
        input_records: int | None = None,
    ) -> None:
        """One task: ``task_start``, per failed attempt ``fault_injected``
        -> ``attempt_failed`` -> ``attempt_retried``, then ``task_finish``.

        Attempts occupy the task's slot back to back, so attempt *i*
        fails at ``t_start + i * duration`` and the task finishes
        ``len(failures) * duration`` later than planned — after every
        event of its recovery, the order the history validates.
        """
        self.emit(
            ev.TaskStart(
                phase=phase, locality=locality, input_bytes=input_bytes,
                input_records=input_records,
            ),
            t_start, task, node,
        )
        attempts = 1 + len(failures)
        for f in failures:
            ts = t_start + f.attempt * duration
            self.emit(
                ev.FaultInjected(attempt=f.attempt, fault=f.kind, reason=f.reason),
                ts, task, f.node,
            )
            self.emit(ev.AttemptFailed(attempt=f.attempt, reason=f.reason), ts, task, f.node)
            self.emit(
                ev.AttemptRetried(
                    attempt=f.attempt + 1, backoff_s=f.backoff_s,
                    reason=f"re-dispatched after {f.kind}",
                ),
                ts, task,
            )
        self.emit(
            ev.TaskFinish(
                phase=phase, duration_s=duration, attempts=attempts,
                wasted_s=(attempts - 1) * duration, locality=locality,
            ),
            t_start + attempts * duration, task, node,
        )


class JobRunner:
    """Executes MapReduce jobs against a :class:`SimulatedHDFS` cluster.

    Parameters
    ----------
    hdfs:
        The filesystem (and, through it, the cluster topology).
    cost_model:
        Simulated-time constants; defaults to the Table III calibration.
    chaos:
        Optional :class:`~repro.mapreduce.failures.ChaosSchedule` — the
        deterministic chaos engine and the only way a fault enters a run:
        scripted or probabilistic attempt crashes, slow-node stragglers,
        cache-load and shuffle-fetch faults, and mid-phase node loss
        (tasktracker + datanode); all recovery costs are charged to the
        job's retry penalty.  Crashes are decided by the backends' attempt
        loop, where the attempt runs, except ``bad_nodes`` crashes, which
        the driver-side replay decides because it places attempts on
        nodes; tasks lost with a node re-run through the backend.
    retry_policy:
        Optional :class:`~repro.mapreduce.scheduler.RetryPolicy`: the
        attempt budget (failed attempts are retried on a different
        replica node where one exists), exponential backoff and the
        per-job node blacklist threshold.  Defaults to Hadoop's.
    executor:
        Execution backend: ``"serial"`` (default), ``"threads"`` (thread
        pool sized to the cluster's map slots), or ``"processes"`` (a
        persistent worker-process pool with shared-memory chunk
        transport; see :mod:`repro.mapreduce.backends` and
        docs/PERFORMANCE.md).  All backends produce byte-identical
        outputs, counters and histories.  Use :meth:`close` (or the
        context-manager protocol) to release process-backend resources
        promptly.
    max_workers:
        Worker-pool size cap; ``None`` picks the backend default.
        Validated by :class:`~repro.mapreduce.config.MapReduceConfig`
        (zero/negative counts are rejected with a clear error).
    memory_budget_mb / spill_dir:
        Out-of-core execution knob (``None`` = unbounded, the default).
        With a budget, map tasks spill over-budget output worker-side,
        the shuffle switches to an external merge sort when its buffer
        exceeds the budget, and each reduce task merges its partition's
        spilled run segments where it runs.  Outputs, counters and
        histories (minus the extra ``spill_*`` events and the reported
        ``spill_s``) are byte-identical to unbudgeted runs — the budget
        trades resident memory for local-disk IO, which the cost model
        charges as overlapped background time.  ``spill_dir`` overrides
        the private temp directory spill files live in.
    prefer_locality / speculative:
        Scheduler knobs (DESIGN.md locality ablation; straggler
        speculation).

    ``runner.history`` is the
    :class:`~repro.observability.history.JobHistory` receiving this
    deployment's structured trace events.  One collector spans every job
    the runner executes (successive jobs stack on one cumulative simulated
    clock), so a driver's per-iteration jobs land in a single exportable
    history.
    """

    def __init__(
        self,
        hdfs: SimulatedHDFS,
        cost_model: CostModel | None = None,
        executor: str = "serial",
        max_workers: int | None = None,
        prefer_locality: bool = True,
        speculative: bool = False,
        chaos: ChaosSchedule | None = None,
        retry_policy: RetryPolicy | None = None,
        memory_budget_mb: float | None = None,
        spill_dir: str | None = None,
    ):
        self.exec_config = MapReduceConfig(
            backend=executor,
            max_workers=max_workers,
            memory_budget_mb=memory_budget_mb,
        )
        self.hdfs = hdfs
        self.cluster = hdfs.cluster
        self.cost_model = cost_model or CostModel()
        #: The distributed cache visible to all tasks of all jobs run here.
        self.cache = DistributedCache()
        self.chaos = chaos
        self.retry_policy = retry_policy or RetryPolicy()
        #: Node losses already inflicted this deployment (the chaos
        #: schedule's ``max_node_losses`` budget spans all jobs run here).
        self._node_losses = 0
        self.executor = executor
        self.max_workers = max_workers
        if executor == "processes":
            workers = max_workers or max(os.cpu_count() or 1, 1)
        else:
            workers = max_workers or max(self.cluster.total_map_slots(), 1)
        self._backend = create_backend(self.exec_config, workers)
        self.memory_budget_mb = memory_budget_mb
        self._spill = (
            SpillManager(max(1, int(memory_budget_mb * MB)), spill_dir)
            if memory_budget_mb is not None
            else None
        )
        self.prefer_locality = prefer_locality
        self.speculative = speculative
        self.history = JobHistory()
        #: The labels stamped into each job's ``job_start``; set by the
        #: :class:`~repro.mapreduce.service.JobService` dispatcher and the
        #: streaming manager around the jobs they run.
        self.labels = JobLabels()
        #: Simulated one-time deployment overhead (HDFS install + upload);
        #: reported separately, as the paper does (~25 s).
        self.deploy_overhead_s = self.cost_model.deploy_overhead_s

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (process pool, shared memory).

        Safe to call more than once; a garbage-collected runner releases
        them too, but closing promptly avoids lingering worker processes
        between jobs."""
        self._backend.close()
        if self._spill is not None:
            self._spill.close()

    @property
    def spill_stats(self):
        """Out-of-core activity counters, or ``None`` when unbudgeted."""
        return self._spill.stats if self._spill is not None else None

    def __enter__(self) -> "JobRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- backend dispatch ----------------------------------------------------
    def _run_maps(
        self,
        job: JobSpec,
        assignments: list[TaskAssignment],
        spill_spec: WorkerSpillSpec | None,
        cleanup: ExitStack,
        wave: WaveRecord,
        inject_faults: bool = True,
    ) -> list[MapOutcome]:
        """Run ``assignments`` on the backend, one outcome each, in order.

        Spilled outputs are registered with ``cleanup`` as they come back
        so their files go away on every exit path of the job.  Envelopes
        and contexts are labelled with the *planned* node, so where an
        attempt (or a post-node-loss re-execution, which passes
        ``inject_faults=False``) really ran cannot reach the job output.
        ``wave`` gains the dispatch's wall-clock record.
        """
        start = perf_counter()
        outcomes = self._backend.run_map_tasks([
            MapTaskRequest(
                task_id=a.task_id,
                node=a.node,
                chunk=a.chunk,
                mapper=job.mapper,
                combiner=job.combiner,
                conf=job.conf,
                cache=self.cache,
                chaos=self.chaos if inject_faults else None,
                max_attempts=self.retry_policy.max_attempts,
                spill=spill_spec,
                aggregation=job.aggregation,
            )
            for a in assignments
        ])
        wave.add(perf_counter() - start, outcomes)
        for outcome in outcomes:
            if isinstance(outcome.output, SpilledMapOutput):
                cleanup.callback(outcome.output.delete)
        return outcomes

    def _replay_attempts(
        self,
        task_id: str,
        outcome: MapOutcome | ReduceOutcome,
        pick_node: Callable[[int, set[str]], str],
        blacklist: NodeBlacklist,
    ) -> list[FailedAttempt]:
        """Replay one task's failure narrative in the driver.

        ``pick_node(attempt, tried)`` places each attempt against the
        evolving shared blacklist.  An attempt placed on one of the chaos
        schedule's ``bad_nodes`` crashes before any task code runs, so it
        consumes retry budget here without consuming a verdict; attempts
        that reach a healthy node take the attempt loop's verdicts in
        order.  Returns the failed attempts and raises
        :class:`JobFailedError` when they exhaust the retry budget.
        Called in task order, so every backend sees the same blacklist
        evolution.
        """
        verdicts = iter(outcome.failures)
        tried: set[str] = set()
        failures: list[FailedAttempt] = []
        max_attempts = self.retry_policy.max_attempts
        for attempt in range(1, max_attempts + 1):
            node = pick_node(attempt, tried)
            crash = (
                self.chaos.bad_node_crash(task_id, attempt, node)
                if self.chaos is not None
                else None
            )
            if crash is not None:
                reason, kind = crash.reason, crash.kind
            else:
                verdict = next(verdicts, None)
                if verdict is None:
                    # The attempt loop counted the failures it saw;
                    # bounces never reached it.
                    outcome.counters.increment(
                        STANDARD.GROUP_SCHEDULER,
                        STANDARD.FAILED_TASKS,
                        len(failures) - len(outcome.failures),
                    )
                    return failures
                _, reason, kind = verdict
            tried.add(node)
            failures.append(FailedAttempt(
                attempt, node, reason, kind, float(self.retry_policy.backoff_s(attempt))
            ))
            blacklist.record_failure(node)
        last = failures[-1]
        raise JobFailedError(
            task_id, max_attempts, failures
        ) from TaskFailure(task_id, last.attempt, last.reason, last.kind)

    def _finalize_map_outcome(
        self,
        assignment: TaskAssignment,
        outcome: MapOutcome,
        blacklist: NodeBlacklist,
    ) -> list[FailedAttempt]:
        """Replay a map task: the planned node first, then
        :meth:`_retry_node` against the blacklist."""
        return self._replay_attempts(
            assignment.task_id,
            outcome,
            lambda attempt, tried: (
                assignment.node
                if attempt == 1
                else self._retry_node(assignment.chunk, tried, blacklist)
            ),
            blacklist,
        )

    def _finalize_reduce_outcome(
        self,
        task_id: str,
        outcome: ReduceOutcome,
        blacklist: NodeBlacklist,
        alive: list[str],
    ) -> list[FailedAttempt]:
        """Replay a reduce task: attempts rotate over the non-blacklisted
        alive workers."""

        def pick_node(attempt: int, tried: set[str]) -> str:
            usable = [
                n for n in alive if not blacklist.is_blacklisted(n)
            ] or alive
            return usable[(attempt - 1) % len(usable)]

        return self._replay_attempts(task_id, outcome, pick_node, blacklist)

    # -- map side -----------------------------------------------------------
    def _retry_node(
        self, chunk: Chunk, tried: set[str], blacklist: NodeBlacklist
    ) -> str:
        """Pick the node for a retry attempt: untried replica, else any.

        Blacklisted nodes are avoided whenever a non-blacklisted candidate
        exists (a fully-blacklisted cluster still dispatches — Hadoop's
        blacklist likewise degrades to best-effort rather than deadlock).
        """
        alive = [
            n.name
            for n in self.cluster.tasktrackers()
            if n.name not in self.hdfs.dead_nodes
        ]

        def usable(node: str) -> bool:
            return not blacklist.is_blacklisted(node)

        for only_usable in (True, False):
            for replica in chunk.replicas:
                if replica not in tried and replica in alive:
                    if not only_usable or usable(replica):
                        return replica
            untried = [
                n for n in alive
                if n not in tried and (not only_usable or usable(n))
            ]
            if untried:
                return untried[0]
        return next((n for n in alive if usable(n)), alive[0])

    # -- output side -----------------------------------------------------------
    def _write_output(self, path: str, records: list[tuple[Any, Any]]) -> None:
        """Write job output; columnar blocks keep the array fast path."""
        if records and all(k == ARRAY_OUTPUT_KEY for k, _ in records):
            arrays = [v for _, v in records if isinstance(v, TraceArray)]
            if len(arrays) == len(records):
                merged = TraceArray.concatenate(arrays)
                self.hdfs.put_trace_array(path, merged)
                return
        self.hdfs.put_records(path, records)

    # -- the whole job --------------------------------------------------------
    def run(self, job: JobSpec) -> JobResult:
        """Execute ``job`` and return its :class:`JobResult`.

        Raises ``FileExistsError`` if the output path exists (as Hadoop
        refuses to clobber output directories), ``FileNotFoundError`` for
        missing inputs, and ``RuntimeError`` when a task exhausts its
        retry budget.
        """
        if self.hdfs.exists(job.output_path):
            raise FileExistsError(f"output path exists: {job.output_path}")
        # Spill files (map output, shuffle runs) are released here
        # whether the job returns or raises.
        with ExitStack() as cleanup:
            return self._execute(job, cleanup)

    def _execute(self, job: JobSpec, cleanup: ExitStack) -> JobResult:
        job_seq = self._spill.next_job() if self._spill is not None else 0
        spill_spec = (
            self._spill.worker_spec(job_seq) if self._spill is not None else None
        )
        chunks = [c for path in job.input_paths for c in self.hdfs.chunks(path)]
        counters = Counters()
        counters.increment(STANDARD.GROUP_SCHEDULER, STANDARD.MAP_TASKS, len(chunks))

        blacklist = NodeBlacklist(self.retry_policy.blacklist_after)
        slowdown = (
            self.chaos.node_slowdown
            if self.chaos is not None and self.chaos.active()
            else None
        )
        plan = plan_map_phase(
            chunks,
            self.cluster,
            lambda c, loc: self.cost_model.map_task_time(c, loc, job.map_cost_factor),
            prefer_locality=self.prefer_locality,
            speculative=self.speculative,
            dead_nodes=self.hdfs.dead_nodes,
            node_slowdown=slowdown,
        )
        record_locality(counters, plan)

        primary = sorted(
            (a for a in plan.assignments if not a.speculative),
            key=lambda a: a.task_id,
        )

        self._backend.prepare_job(self.cache)
        map_wave = WaveRecord()
        outcomes = self._run_maps(job, primary, spill_spec, cleanup, map_wave)
        task_failures = [
            self._finalize_map_outcome(a, outcome, blacklist)
            for a, outcome in zip(primary, outcomes)
        ]

        # Mid-phase node loss: a tasktracker+datanode dies after its map
        # attempts completed; their outputs are gone and must re-execute on
        # surviving replica holders, and HDFS re-replicates the dead node's
        # chunks.  Patches ``outcomes`` and ``task_failures`` in place for
        # the lost tasks.
        node_loss = self._apply_node_loss(
            job,
            primary,
            outcomes,
            task_failures,
            lambda lost: self._run_maps(
                job, lost, spill_spec, cleanup, map_wave, inject_faults=False
            ),
        )
        if node_loss is not None:
            counters.increment(
                STANDARD.GROUP_SCHEDULER, STANDARD.NODES_LOST, 1
            )
            counters.increment(
                STANDARD.GROUP_SCHEDULER,
                STANDARD.REPLICAS_HEALED,
                node_loss.healed.replicas,
            )

        map_outputs: list[list[tuple[Any, Any]]] = []
        retry_penalty = 0.0
        map_failures: dict[str, list[FailedAttempt]] = {}
        spills: list[tuple[str, ev.SpillStart]] = []
        for assignment, outcome, failures in zip(primary, outcomes, task_failures):
            counters.merge(outcome.counters)
            # Each failed attempt costs its wasted slot time plus the
            # retry policy's re-dispatch backoff.
            retry_penalty += sum(assignment.duration + f.backoff_s for f in failures)
            output = outcome.output
            if isinstance(output, SpilledMapOutput):
                spills.append((assignment.task_id, ev.SpillStart(
                    source="map", records=output.n_records, bytes=output.nbytes,
                    write_s=self.cost_model.spill_write_time(output.nbytes),
                )))
                # Worker-side spills can't reach the driver's counters;
                # account for them as their handles come back.
                self._spill.stats.map_spills += 1
                self._spill.stats.map_spill_bytes += output.nbytes
            if outcome.combined_output is not None:
                counters.merge(outcome.combine_counters)
                output = outcome.combined_output
            map_outputs.append(output)
            if failures:
                map_failures[assignment.task_id] = failures
        if node_loss is not None:
            retry_penalty += node_loss.event.detect_s + node_loss.healed.rereplicate_s

        setup_s = self.cost_model.job_setup_s + self.cost_model.cache_broadcast_time(
            self.cache.nbytes()
        )

        blacklisted = sorted(blacklist.nodes())
        if blacklisted:
            counters.increment(
                STANDARD.GROUP_SCHEDULER,
                STANDARD.NODES_BLACKLISTED,
                len(blacklisted),
            )

        n_reduce_tasks = 0 if job.map_only else job.num_reducers
        spill_s = sum(s.write_s for _, s in spills)
        reduce: _ReduceSide | None = None
        if job.map_only:
            flat = [pair for output in map_outputs for pair in as_pairs(output)]
            self._write_output(job.output_path, flat)
        else:
            reduce = self._run_reduces(
                job, job_seq, map_outputs, primary, node_loss, blacklist, counters,
                cleanup, slowdown,
            )
            for penalty in reduce.penalties:
                retry_penalty += penalty
            spill_s = (
                spill_s
                + sum(s.write_s for _, s in reduce.runs)
                + sum(m.read_s for m in reduce.merges)
            )
        timing = JobTiming(
            setup_s,
            plan.makespan,
            reduce.makespan if reduce is not None else 0.0,
            retry_penalty,
            spill_s,
        )

        events = JobEvents(self.history, job, self.labels, len(chunks), n_reduce_tasks)
        cache_load = None
        if len(self.cache):
            cache_nbytes = self.cache.nbytes()
            cache_load = ev.CacheLoad(
                entries=sorted(self.cache),
                nbytes=cache_nbytes,
                broadcast_s=self.cost_model.cache_broadcast_time(cache_nbytes),
            )
        events.setup(timing.setup_s, cache_load)
        events.map_phase(
            timing.map_s, plan, map_failures, node_loss,
            spills + (reduce.runs if reduce is not None else []),
        )
        if reduce is not None:
            events.reduce_phase(
                timing.reduce_s, reduce.sh,
                counters.value(STANDARD.GROUP_TASK, STANDARD.SHUFFLE_CROSS_NODE_BYTES),
                reduce.merges, reduce.refetches, reduce.placements, reduce.failures,
            )
        events.blacklist(blacklist)
        events.finish(timing, counters, len(primary), n_reduce_tasks)
        return JobResult(
            job.name,
            job.output_path,
            counters,
            timing,
            plan,
            len(primary),
            n_reduce_tasks,
            reduce_plan=reduce.placements if reduce is not None else [],
            map_wave=map_wave,
            reduce_wave=reduce.wave if reduce is not None else None,
        )

    def _run_reduces(
        self,
        job: JobSpec,
        job_seq: int,
        map_outputs: list,
        primary: list[TaskAssignment],
        node_loss: "_NodeLoss | None",
        blacklist: NodeBlacklist,
        counters: Counters,
        cleanup: ExitStack,
        slowdown: Callable[[str], float] | None,
    ) -> "_ReduceSide":
        """Shuffle the map outputs, run and replay the reduce tasks, plan
        the reduce phase and write the job output."""
        n_blacklisted = len(blacklist.nodes())
        spiller = (
            self._spill.shuffle_spiller(job_seq, job.num_reducers)
            if self._spill is not None
            else None
        )
        sh = shuffle(
            map_outputs,
            job.partitioner,
            job.num_reducers,
            spiller=spiller,
            aggregation=job.aggregation,
        )
        cleanup.callback(sh.release)
        counters.increment(STANDARD.GROUP_TASK, STANDARD.SHUFFLE_BYTES, sh.shuffled_bytes)
        counters.increment(
            STANDARD.GROUP_SCHEDULER, STANDARD.REDUCE_TASKS, job.num_reducers
        )

        # Shuffle-fetch failures: a reducer's fetch of one map output times
        # out and is re-fetched (from the re-executed map's output or a
        # surviving replica after node loss).  Data already lives in the
        # shuffle result, so only simulated time and events are affected.
        penalties: list[float] = []
        refetches = self._plan_shuffle_refetches(sh, primary, node_loss)
        if refetches:
            counters.increment(
                STANDARD.GROUP_SCHEDULER,
                STANDARD.SHUFFLE_REFETCHES,
                len(refetches),
            )
            penalties.append(sum(r.refetch_s for _, r in refetches))

        reduce_output: list[tuple[Any, Any]] = []
        failures: dict[str, list[FailedAttempt]] = {}
        # A declared aggregation is the reduce (a partial pickles into
        # the process backend's worker messages).
        reduce_factory = (
            functools.partial(AggregationReducer, job.aggregation)
            if job.aggregation is not None
            else job.reducer
        )
        start = perf_counter()
        reduce_outcomes = self._backend.run_reduce_tasks([
            ReduceTaskRequest(
                task_id=f"reduce-{r:04d}",
                groups=sh.raw_partition(r),
                reducer=reduce_factory,
                conf=job.conf,
                cache=self.cache,
                chaos=self.chaos,
                max_attempts=self.retry_policy.max_attempts,
            )
            for r in range(sh.n_reducers)
        ])
        wave = WaveRecord()
        wave.add(perf_counter() - start, reduce_outcomes)
        alive = [
            n.name
            for n in self.cluster.tasktrackers()
            if n.name not in self.hdfs.dead_nodes
        ]
        for r, outcome in enumerate(reduce_outcomes):
            task_id = f"reduce-{r:04d}"
            r_failed = self._finalize_reduce_outcome(
                task_id, outcome, blacklist, alive
            )
            counters.merge(outcome.counters)
            reduce_output.extend(outcome.output)
            if r_failed:
                failures[task_id] = r_failed
                duration = self.cost_model.reduce_task_time(
                    sh.partition_bytes[r], job.reduce_cost_factor
                )
                penalties.extend(duration + f.backoff_s for f in r_failed)

        newly_blacklisted = len(blacklist.nodes()) - n_blacklisted
        if newly_blacklisted:
            counters.increment(
                STANDARD.GROUP_SCHEDULER,
                STANDARD.NODES_BLACKLISTED,
                newly_blacklisted,
            )

        placements, makespan = plan_reduce_phase(
            job.num_reducers,
            self.cluster,
            lambda r: self.cost_model.reduce_task_time(
                sh.partition_bytes[r], job.reduce_cost_factor
            ),
            dead_nodes=self.hdfs.dead_nodes,
            node_slowdown=slowdown,
        )
        if sh.node_bytes is not None:
            node_of = {p.task_id: p.node for p in placements}
            cross_total = sum(
                sh.partition_bytes[r]
                - sh.node_bytes[r].get(node_of[f"reduce-{r:04d}"], 0)
                for r in range(sh.n_reducers)
            )
            counters.increment(
                STANDARD.GROUP_TASK,
                STANDARD.SHUFFLE_CROSS_NODE_BYTES,
                cross_total,
            )
        self._write_output(job.output_path, reduce_output)
        cost = self.cost_model
        return _ReduceSide(
            sh=sh,
            placements=placements,
            makespan=makespan,
            failures=failures,
            refetches=refetches,
            runs=[
                ("shuffle", replace(run, write_s=cost.spill_write_time(run.bytes)))
                for run in sh.spill_runs
            ],
            merges=[
                replace(merge, read_s=cost.spill_read_time(merge.bytes))
                for merge in sh.spill_merges
            ],
            penalties=penalties,
            wave=wave,
        )

    def _apply_node_loss(
        self,
        job: JobSpec,
        primary: list[TaskAssignment],
        outcomes: list[MapOutcome],
        task_failures: list[list[FailedAttempt]],
        rerun: Callable[[list[TaskAssignment]], list[MapOutcome]],
    ) -> "_NodeLoss | None":
        """Inflict the chaos schedule's mid-phase node loss, if any.

        The victim (a tasktracker that is also a datanode) dies after its
        map attempts completed: their outputs vanish with it, so exactly
        those tasks go back through the backend via ``rerun`` as ordinary
        fault-free requests (``outcomes`` is patched in place — an
        outcome is *replaced*, not merged, so every re-executed record is
        accounted once; ``task_failures`` gains the ``node_loss`` record
        whose wasted slot the job is charged for, and the new outcome's
        ``FAILED_TASKS`` carries the task's whole chain), and the namenode
        re-replicates the dead datanode's chunks
        (:meth:`SimulatedHDFS.heal_report`).  The loss is declined when it
        would strand a chunk with zero replicas or leave fewer than two
        workers — chaos tests robustness, not unrecoverable data loss.
        """
        if self.chaos is None:
            return None
        datanode_names = {n.name for n in self.cluster.datanodes()}
        candidates = sorted(
            n.name
            for n in self.cluster.tasktrackers()
            if n.name not in self.hdfs.dead_nodes and n.name in datanode_names
        )
        if len(candidates) < 2 or self.hdfs.replication < 2:
            return None
        victim = self.chaos.node_loss_victim(job.name, candidates, self._node_losses)
        if victim is None:
            return None
        doomed = self.hdfs.dead_nodes | {victim}
        for path in self.hdfs.ls():
            for replicas in self.hdfs.replica_report(path).values():
                if all(r in doomed for r in replicas):
                    return None
        self._node_losses += 1
        self.hdfs.kill_datanode(victim)

        lost = [i for i, a in enumerate(primary) if a.node == victim]
        for i, outcome in zip(lost, rerun([primary[i] for i in lost])):
            outcomes[i] = outcome
            task_failures[i].append(FailedAttempt(
                len(task_failures[i]) + 1,
                victim,
                f"node {victim} lost mid-phase; map output re-dispatched",
                FaultKind.NODE_LOSS,
                0.0,
            ))
            outcome.counters.increment(
                STANDARD.GROUP_SCHEDULER,
                STANDARD.FAILED_TASKS,
                len(task_failures[i]),
            )

        healed = self.hdfs.heal_report()
        heal_bytes = sum(nbytes for _, _, nbytes in healed)
        lost_tasks = [primary[i] for i in lost]
        return _NodeLoss(
            victim,
            lost_tasks,
            ev.NodeLost(
                lost_tasks=sorted(a.task_id for a in lost_tasks),
                detect_s=self.cost_model.node_loss_detect_s,
            ),
            ev.ReplicaHealed(
                replicas=len(healed), nbytes=heal_bytes,
                rereplicate_s=self.cost_model.rereplication_time(heal_bytes),
            ),
        )

    def _plan_shuffle_refetches(
        self,
        sh: ShuffleResult,
        primary: list[TaskAssignment],
        node_loss: "_NodeLoss | None",
    ) -> list[tuple[str, ev.ShuffleRefetch]]:
        """Which reducers re-fetch map output, and at what simulated cost.

        Returns ``(reduce task id, shuffle_refetch)`` per re-fetch:
        chaos-scheduled fetch timeouts re-pull one map task's
        contribution (~1/n_maps of the partition); after node loss every
        reducer re-fetches the lost tasks' share from the re-executed
        outputs / surviving replicas.
        """
        refetches: list[tuple[str, ev.ShuffleRefetch]] = []
        if self.chaos is None:
            return refetches

        def refetch(nbytes: int, reason: str) -> ev.ShuffleRefetch:
            return ev.ShuffleRefetch(
                bytes=nbytes,
                refetch_s=self.cost_model.shuffle_refetch_time(nbytes),
                reason=reason,
            )

        n_maps = max(len(primary), 1)
        lost = node_loss.lost if node_loss is not None else []
        for r in range(sh.n_reducers):
            task_id = f"reduce-{r:04d}"
            for _ in range(self.chaos.shuffle_fetch_failures(task_id)):
                nbytes = sh.partition_bytes[r] // n_maps
                refetches.append((task_id, refetch(nbytes, "fetch timeout")))
            if lost:
                nbytes = int(sh.partition_bytes[r] * len(lost) / n_maps)
                refetches.append((task_id, refetch(
                    nbytes,
                    f"map outputs on {node_loss.victim} re-fetched after node loss",
                )))
        return refetches


def fresh_hdfs(
    datasets: Mapping[str, TraceArray | Iterable[TraceArray]],
    *,
    chunk_size: int,
    n_workers: int = 4,
    budget_mb: float | None = None,
    record_bytes: int = DEFAULT_RECORD_BYTES,
) -> SimulatedHDFS:
    """A fresh ``paper_cluster(n_workers)`` HDFS holding ``datasets``.

    Every benchmark cell, selfcheck and equivalence-matrix cell starts
    from one of these (through :func:`fresh_runner`, or a
    :class:`~repro.mapreduce.service.JobService` built on it), so none
    inherits another's chunk placement, shared-memory segments or
    caches.  ``chunk_size`` is in bytes.  A dataset given as an iterable
    of pieces is stream-ingested: the corpus is never materialized
    driver-side, so a budgeted cell's residency is governed by the chunk
    store alone.  ``budget_mb`` caps the chunk store (the paged path).
    """
    hdfs = SimulatedHDFS(
        paper_cluster(n_workers), chunk_size=chunk_size, seed=0, memory_budget_mb=budget_mb
    )
    for path, traces in datasets.items():
        put = hdfs.put_trace_array if isinstance(traces, TraceArray) else hdfs.put_trace_stream
        put(path, traces, record_bytes=record_bytes)
    return hdfs


def fresh_runner(
    datasets: Mapping[str, TraceArray | Iterable[TraceArray]],
    *,
    chunk_size: int,
    n_workers: int = 4,
    backend: str = "serial",
    max_workers: int | None = None,
    budget_mb: float | None = None,
    record_bytes: int = DEFAULT_RECORD_BYTES,
    **runner_kwargs: Any,
) -> JobRunner:
    """A :class:`JobRunner` on a :func:`fresh_hdfs` deployment; use it as
    a context manager.  ``budget_mb`` caps the chunk store and the runner
    alike (the paged/spill path), and the serial backend ignores
    ``max_workers``.
    """
    hdfs = fresh_hdfs(
        datasets, chunk_size=chunk_size, n_workers=n_workers, budget_mb=budget_mb,
        record_bytes=record_bytes,
    )
    workers = None if backend == "serial" else max_workers
    return JobRunner(
        hdfs, executor=backend, max_workers=workers, memory_budget_mb=budget_mb, **runner_kwargs
    )
