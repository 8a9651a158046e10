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
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping

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
    emit_map_phase_events,
    emit_reduce_phase_events,
    plan_map_phase,
    plan_reduce_phase,
    record_locality,
)
from repro.mapreduce.shuffle import (
    emit_shuffle_events,
    emit_shuffle_refetch_events,
    shuffle,
)
from repro.mapreduce.simtime import CostModel, JobTiming
from repro.mapreduce.spill import (
    MB,
    SpillManager,
    SpilledMapOutput,
    WorkerSpillSpec,
    as_pairs,
)
from repro.mapreduce.types import Chunk, DEFAULT_RECORD_BYTES
from repro.observability.events import EventKind, Phase
from repro.observability.history import JobHistory

__all__ = ["JobRunner", "JobResult", "fresh_hdfs", "fresh_runner"]


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
        exceeds the budget, and spilled reduce partitions are loaded by
        the reduce attempt where it runs.  Outputs, counters and
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
        #: Tenant label stamped into JOB_START events; ``None`` (solo
        #: deployments) keeps histories byte-identical to pre-service
        #: runs.  Set by the :class:`~repro.mapreduce.service.JobService`
        #: dispatcher around each job it executes.
        self.tenant: str | None = None
        #: Extra JSON-safe labels stamped into JOB_START alongside the
        #: tenant (e.g. the streaming window index); also set by the
        #: service dispatcher, ``None`` everywhere else.
        self.job_tags: dict | None = None
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
    ) -> list[tuple]:
        """Replay one task's failure narrative in the driver.

        ``pick_node(attempt, tried)`` places each attempt against the
        evolving shared blacklist.  An attempt placed on one of the chaos
        schedule's ``bad_nodes`` crashes before any task code runs, so it
        consumes retry budget here without consuming a verdict; attempts
        that reach a healthy node take the attempt loop's verdicts in
        order.  Returns the failed attempts as
        ``(attempt, node, reason, fault kind, backoff_s)`` and raises
        :class:`JobFailedError` when they exhaust the retry budget.
        Called in task order, so every backend sees the same blacklist
        evolution.
        """
        verdicts = iter(outcome.failures)
        tried: set[str] = set()
        failures: list[tuple] = []
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
            failures.append(
                (attempt, node, reason, kind, self.retry_policy.backoff_s(attempt))
            )
            blacklist.record_failure(node)
        attempt, _, reason, kind, _ = failures[-1]
        raise JobFailedError(
            task_id, max_attempts, failures
        ) from TaskFailure(task_id, attempt, reason, kind)

    def _finalize_map_outcome(
        self,
        assignment: TaskAssignment,
        outcome: MapOutcome,
        blacklist: NodeBlacklist,
    ) -> list[tuple]:
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
    ) -> list[tuple]:
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
        # Spill files (map output, shuffle partitions) are released here
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
                len(node_loss["healed"]),
            )

        map_outputs: list[list[tuple[Any, Any]]] = []
        retry_penalty = 0.0
        map_failures: dict[str, list[tuple]] = {}
        map_spills: list[dict[str, Any]] = []
        for assignment, outcome, failures in zip(primary, outcomes, task_failures):
            counters.merge(outcome.counters)
            # Each failed attempt costs its wasted slot time plus the
            # retry policy's re-dispatch backoff.
            retry_penalty += sum(assignment.duration + f[4] for f in failures)
            output = outcome.output
            if isinstance(output, SpilledMapOutput):
                map_spills.append({
                    "task": assignment.task_id,
                    "records": output.n_records,
                    "bytes": output.nbytes,
                    "write_s": self.cost_model.spill_write_time(output.nbytes),
                })
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
            retry_penalty += node_loss["recovery_s"]

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

        if job.map_only:
            flat = [pair for output in map_outputs for pair in as_pairs(output)]
            self._write_output(job.output_path, flat)
            spill_s = sum(s["write_s"] for s in map_spills)
            timing = JobTiming(setup_s, plan.makespan, 0.0, retry_penalty, spill_s)
            self._emit_history(
                job, len(chunks), plan, map_failures, None, None, None,
                timing, counters, len(primary), 0,
                recovery=self._recovery_info(node_loss, [], blacklist),
                spill=self._spill_info(map_spills, None),
            )
            return JobResult(
                job.name, job.output_path, counters, timing, plan, len(primary), 0,
                map_wave=map_wave,
            )

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
        refetches = self._plan_shuffle_refetches(job, sh, primary, node_loss)
        if refetches:
            counters.increment(
                STANDARD.GROUP_SCHEDULER,
                STANDARD.SHUFFLE_REFETCHES,
                len(refetches),
            )
            retry_penalty += sum(r[2] for r in refetches)

        reduce_output: list[tuple[Any, Any]] = []
        reduce_failures: dict[str, list[tuple]] = {}
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
        reduce_wave = WaveRecord()
        reduce_wave.add(perf_counter() - start, reduce_outcomes)
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
                reduce_failures[task_id] = r_failed
                duration = self.cost_model.reduce_task_time(
                    sh.partition_bytes[r], job.reduce_cost_factor
                )
                for failure in r_failed:
                    retry_penalty += duration + failure[4]

        blacklisted_now = sorted(blacklist.nodes())
        if len(blacklisted_now) > len(blacklisted):
            counters.increment(
                STANDARD.GROUP_SCHEDULER,
                STANDARD.NODES_BLACKLISTED,
                len(blacklisted_now) - len(blacklisted),
            )

        reduce_placements, reduce_makespan = plan_reduce_phase(
            job.num_reducers,
            self.cluster,
            lambda r: self.cost_model.reduce_task_time(
                sh.partition_bytes[r], job.reduce_cost_factor
            ),
            dead_nodes=self.hdfs.dead_nodes,
            node_slowdown=slowdown,
        )
        if sh.node_bytes is not None:
            node_of = {p.task_id: p.node for p in reduce_placements}
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
        spill_info = self._spill_info(map_spills, sh)
        spill_s = (
            sum(s["write_s"] for s in spill_info["map"])
            + sum(s["write_s"] for s in spill_info["runs"])
            + sum(s["read_s"] for s in spill_info["merges"])
            if spill_info is not None
            else 0.0
        )
        timing = JobTiming(
            setup_s, plan.makespan, reduce_makespan, retry_penalty, spill_s
        )
        self._emit_history(
            job, len(chunks), plan, map_failures, sh, reduce_placements,
            reduce_failures, timing, counters, len(primary), job.num_reducers,
            recovery=self._recovery_info(node_loss, refetches, blacklist),
            spill=spill_info,
        )
        return JobResult(
            job.name,
            job.output_path,
            counters,
            timing,
            plan,
            len(primary),
            job.num_reducers,
            reduce_plan=reduce_placements,
            map_wave=map_wave,
            reduce_wave=reduce_wave,
        )

    def _apply_node_loss(
        self,
        job: JobSpec,
        primary: list[TaskAssignment],
        outcomes: list[MapOutcome],
        task_failures: list[list[tuple]],
        rerun: Callable[[list[TaskAssignment]], list[MapOutcome]],
    ) -> dict[str, Any] | None:
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
            task_failures[i].append((
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
        rereplicate_s = self.cost_model.rereplication_time(heal_bytes)
        return {
            "victim": victim,
            "lost": [primary[i] for i in lost],
            "healed": healed,
            "heal_bytes": heal_bytes,
            "detect_s": self.cost_model.node_loss_detect_s,
            "rereplicate_s": rereplicate_s,
            "recovery_s": self.cost_model.node_loss_detect_s + rereplicate_s,
        }

    def _plan_shuffle_refetches(
        self,
        job: JobSpec,
        sh,
        primary: list[TaskAssignment],
        node_loss: dict[str, Any] | None,
    ) -> list[tuple[str, int, float, str]]:
        """Which reducers re-fetch map output, and at what simulated cost.

        Returns ``(reduce task id, bytes, refetch_s, reason)`` per
        re-fetch: chaos-scheduled fetch timeouts re-pull one map task's
        contribution (~1/n_maps of the partition); after node loss every
        reducer re-fetches the lost tasks' share from the re-executed
        outputs / surviving replicas.
        """
        refetches: list[tuple[str, int, float, str]] = []
        if self.chaos is None:
            return refetches
        n_maps = max(len(primary), 1)
        lost = node_loss["lost"] if node_loss is not None else []
        for r in range(sh.n_reducers):
            task_id = f"reduce-{r:04d}"
            for _ in range(self.chaos.shuffle_fetch_failures(task_id)):
                nbytes = sh.partition_bytes[r] // n_maps
                refetches.append((
                    task_id,
                    nbytes,
                    self.cost_model.shuffle_refetch_time(nbytes),
                    "fetch timeout",
                ))
            if lost:
                nbytes = int(sh.partition_bytes[r] * len(lost) / n_maps)
                refetches.append((
                    task_id,
                    nbytes,
                    self.cost_model.shuffle_refetch_time(nbytes),
                    f"map outputs on {node_loss['victim']} re-fetched "
                    f"after node loss",
                ))
        return refetches

    def _spill_info(
        self, map_spills: list[dict[str, Any]], sh
    ) -> dict[str, list[dict[str, Any]]] | None:
        """Bundle spill facts for history emission, with IO costs priced
        by the cost model; ``None`` when nothing spilled, so unbudgeted
        (and under-budget) histories stay byte-identical."""
        runs: list[dict[str, Any]] = []
        merges: list[dict[str, Any]] = []
        if sh is not None and sh.spilled:
            runs = [
                dict(ev, write_s=self.cost_model.spill_write_time(ev["bytes"]))
                for ev in sh.spill_runs
            ]
            merges = [
                dict(ev, read_s=self.cost_model.spill_read_time(ev["bytes"]))
                for ev in sh.spill_merges
            ]
        if not map_spills and not runs:
            return None
        return {"map": map_spills, "runs": runs, "merges": merges}

    @staticmethod
    def _recovery_info(
        node_loss: dict[str, Any] | None,
        refetches: list[tuple[str, int, float, str]],
        blacklist: NodeBlacklist,
    ) -> dict[str, Any] | None:
        """Bundle recovery facts for history emission; None when nothing
        happened, so fault-free histories stay byte-identical."""
        if node_loss is None and not refetches and not blacklist.nodes():
            return None
        return {
            "node_loss": node_loss,
            "refetches": refetches,
            "blacklist": blacklist,
        }

    def _emit_history(
        self,
        job: JobSpec,
        n_chunks: int,
        plan: MapPhasePlan,
        map_failures: dict[str, list[tuple]],
        sh,
        reduce_placements,
        reduce_failures: dict[str, list[tuple]] | None,
        timing: JobTiming,
        counters: Counters,
        n_map_tasks: int,
        n_reduce_tasks: int,
        recovery: dict[str, Any] | None = None,
        spill: dict[str, list[dict[str, Any]]] | None = None,
    ) -> None:
        """Emit the job's full event stream onto the cumulative sim clock.

        The execution is simulated, so events are materialized post-hoc in
        chronological order: job/setup at the clock origin, the map-phase
        task timeline, shuffle transfers, the reduce-phase timeline, and
        the closing ``job_finish`` carrying the timing breakdown and the
        final counter snapshot.  Phase durations exactly mirror
        :class:`JobTiming` (the acceptance invariant the history tests
        pin down); per-task retry extensions are charged to the job-wide
        retry penalty, not the phase clock.
        """
        h = self.history
        t0 = h.clock
        h.emit(
            EventKind.JOB_START,
            job.name,
            t0,
            input_paths=list(job.input_paths),
            output_path=job.output_path,
            n_chunks=n_chunks,
            map_only=job.map_only,
            num_reducers=0 if job.map_only else job.num_reducers,
            combiner=job.combiner is not None,
            **({"tenant": self.tenant} if self.tenant is not None else {}),
            **(self.job_tags or {}),
        )
        h.emit(EventKind.PHASE_START, job.name, t0, phase=Phase.SETUP)
        if len(self.cache):
            cache_nbytes = self.cache.nbytes()
            h.emit(
                EventKind.CACHE_LOAD,
                job.name,
                t0,
                entries=sorted(self.cache),
                nbytes=cache_nbytes,
                broadcast_s=self.cost_model.cache_broadcast_time(cache_nbytes),
            )
        h.emit(
            EventKind.PHASE_FINISH, job.name, t0 + timing.setup_s,
            phase=Phase.SETUP, duration_s=timing.setup_s,
        )
        t_map = t0 + timing.setup_s
        h.emit(EventKind.PHASE_START, job.name, t_map, phase=Phase.MAP)
        emit_map_phase_events(h, job.name, plan, t_map, map_failures)
        if recovery is not None and recovery["node_loss"] is not None:
            nl = recovery["node_loss"]
            # The node died once its last map attempt had completed.
            ts = t_map + min(
                max((a.end_time for a in nl["lost"]), default=0.0), timing.map_s
            )
            h.emit(
                EventKind.NODE_LOST,
                job.name,
                ts,
                node=nl["victim"],
                lost_tasks=sorted(a.task_id for a in nl["lost"]),
                detect_s=nl["detect_s"],
            )
            if nl["healed"]:
                h.emit(
                    EventKind.REPLICA_HEALED,
                    job.name,
                    ts,
                    replicas=len(nl["healed"]),
                    nbytes=nl["heal_bytes"],
                    rereplicate_s=nl["rereplicate_s"],
                )
        if spill is not None:
            # Spill IO happens on Hadoop's background spill thread while
            # the map phase runs; everything is stamped at the phase end
            # (the simulated clock has no per-task sub-timeline for it).
            ts = t_map + timing.map_s
            for s in spill["map"]:
                h.emit(
                    EventKind.SPILL_START, job.name, ts, task=s["task"],
                    source="map", records=s["records"], bytes=s["bytes"],
                    write_s=s["write_s"],
                )
            for s in spill["runs"]:
                h.emit(
                    EventKind.SPILL_START, job.name, ts, task="shuffle",
                    source="shuffle", run=s["run"], records=s["records"],
                    bytes=s["bytes"], write_s=s["write_s"],
                )
        h.emit(
            EventKind.PHASE_FINISH, job.name, t_map + timing.map_s,
            phase=Phase.MAP, duration_s=timing.map_s,
        )
        if sh is not None:
            t_reduce = t_map + timing.map_s
            emit_shuffle_events(h, job.name, sh, t_reduce)
            if sh.preagg is not None:
                # The metadata-only shuffle always records provenance, so
                # the job's cross-node counter is already settled.
                h.emit(
                    EventKind.SHUFFLE_PREAGG, job.name, t_reduce, **sh.preagg,
                    cross_node_bytes=counters.value(
                        STANDARD.GROUP_TASK, STANDARD.SHUFFLE_CROSS_NODE_BYTES
                    ),
                )
            if spill is not None:
                for s in spill["merges"]:
                    h.emit(
                        EventKind.SPILL_MERGE, job.name, t_reduce,
                        task=f"reduce-{s['partition']:04d}", runs=s["runs"],
                        records=s["records"], groups=s["groups"],
                        bytes=s["bytes"], read_s=s["read_s"],
                    )
            if recovery is not None:
                emit_shuffle_refetch_events(
                    h, job.name, recovery["refetches"], t_reduce
                )
            h.emit(EventKind.PHASE_START, job.name, t_reduce, phase=Phase.REDUCE)
            records = {
                f"reduce-{r:04d}": sh.records_for(r) for r in range(sh.n_reducers)
            }
            emit_reduce_phase_events(
                h, job.name, reduce_placements, t_reduce,
                reduce_failures or {}, records,
            )
            h.emit(
                EventKind.PHASE_FINISH, job.name, t_reduce + timing.reduce_s,
                phase=Phase.REDUCE, duration_s=timing.reduce_s,
            )
        if recovery is not None:
            blacklist = recovery["blacklist"]
            for node in sorted(blacklist.nodes()):
                h.emit(
                    EventKind.NODE_BLACKLISTED,
                    job.name,
                    t_map + timing.map_s,
                    node=node,
                    failures=blacklist.failure_count(node),
                    threshold=blacklist.threshold,
                )
        h.emit(
            EventKind.JOB_FINISH,
            job.name,
            t0 + timing.total_s,
            timing={
                "setup_s": timing.setup_s,
                "map_s": timing.map_s,
                "reduce_s": timing.reduce_s,
                "retry_penalty_s": timing.retry_penalty_s,
                "total_s": timing.total_s,
                # Background spill IO, excluded from total_s; keyed only
                # when spilling happened so unbudgeted histories don't
                # change shape.
                **({"spill_s": timing.spill_s} if timing.spill_s else {}),
            },
            counters=counters.to_dict(),
            n_map_tasks=n_map_tasks,
            n_reduce_tasks=n_reduce_tasks,
            output_path=job.output_path,
        )
        h.advance(t0 + timing.total_s)


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
