"""JobTracker scheduling: locality-aware dispatch of tasks to slots.

Implements the behaviour Section III describes: the jobtracker keeps the
data-layout information acquired from the namenode and, when a tasktracker
slot frees up, hands it a map task whose input chunk is **node-local** if
one remains, else **rack-local**, else any remaining task (a **remote**
read).  The scheduler is event-driven over simulated time, which also
yields the map-phase makespan the cost model needs, and supports optional
speculative re-execution of straggler tasks.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.checks import count, finite, non_negative, positive
from repro.mapreduce.cluster import ClusterSpec
from repro.mapreduce.counters import Counters, STANDARD
from repro.mapreduce.failures import MAX_TASK_ATTEMPTS, emit_attempt_failures
from repro.mapreduce.types import Chunk
from repro.observability import events as ev
from repro.observability.events import Phase
from repro.observability.history import JobHistory

__all__ = [
    "TaskAssignment",
    "MapPhasePlan",
    "ReduceAssignment",
    "RetryPolicy",
    "NodeBlacklist",
    "plan_map_phase",
    "plan_reduce_phase",
    "emit_map_phase_events",
    "emit_reduce_phase_events",
    "record_locality",
    "Locality",
    "FairShareJob",
    "FairShareTask",
    "FairSharePlan",
    "plan_fair_share",
]


class Locality:
    NODE_LOCAL = "node_local"
    RACK_LOCAL = "rack_local"
    REMOTE = "remote"


@dataclass(frozen=True)
class RetryPolicy:
    """How the jobtracker retries failed task attempts.

    Mirrors Hadoop's knobs: a capped attempt budget per task
    (``mapred.map.max.attempts``), exponential backoff before each
    re-dispatch (charged to the job's retry penalty, like the heartbeat
    round-trips a real jobtracker waits through), and a per-job node
    blacklist threshold (``mapred.max.tracker.failures``) after which a
    node stops receiving dispatches for the job.
    """

    max_attempts: int = MAX_TASK_ATTEMPTS
    backoff_base_s: float = 2.0
    backoff_factor: float = 2.0
    blacklist_after: int = 3

    def __post_init__(self) -> None:
        count("max_attempts", self.max_attempts, 1)
        count("blacklist_after", self.blacklist_after, 1)
        non_negative("backoff_base_s", self.backoff_base_s)
        if finite("backoff_factor", self.backoff_factor) < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor!r}")

    def backoff_s(self, failed_attempt: int) -> float:
        """Simulated wait before re-dispatching after ``failed_attempt``."""
        return self.backoff_base_s * self.backoff_factor ** (failed_attempt - 1)


class NodeBlacklist:
    """Per-job tracker of node failures and blacklist state (thread-safe)."""

    def __init__(self, threshold: int):
        self.threshold = count("threshold", threshold, 1)
        self._failures: dict[str, int] = {}
        self._blacklisted: set[str] = set()
        self._lock = threading.Lock()

    def record_failure(self, node: str) -> bool:
        """Count one failure on ``node``; True iff this crossed the threshold."""
        with self._lock:
            count = self._failures.get(node, 0) + 1
            self._failures[node] = count
            if count >= self.threshold and node not in self._blacklisted:
                self._blacklisted.add(node)
                return True
            return False

    def is_blacklisted(self, node: str) -> bool:
        with self._lock:
            return node in self._blacklisted

    def nodes(self) -> frozenset[str]:
        with self._lock:
            return frozenset(self._blacklisted)

    def failure_count(self, node: str) -> int:
        with self._lock:
            return self._failures.get(node, 0)


@dataclass(frozen=True)
class TaskAssignment:
    """One planned task attempt: which chunk runs where, and when."""

    task_id: str
    chunk: Chunk
    node: str
    locality: str
    start_time: float
    duration: float
    speculative: bool = False

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration


@dataclass(frozen=True)
class ReduceAssignment:
    """One planned reduce task: which partition runs where, and when."""

    task_id: str
    node: str
    start_time: float
    duration: float


@dataclass
class MapPhasePlan:
    """The scheduler's output for one job's map phase."""

    assignments: list[TaskAssignment]
    makespan: float
    waves: int

    def locality_counts(self) -> dict[str, int]:
        counts = {Locality.NODE_LOCAL: 0, Locality.RACK_LOCAL: 0, Locality.REMOTE: 0}
        for a in self.assignments:
            if not a.speculative:
                counts[a.locality] += 1
        return counts


def _classify_locality(cluster: ClusterSpec, node: str, chunk: Chunk) -> str:
    if node in chunk.replicas:
        return Locality.NODE_LOCAL
    node_rack = cluster.rack_of(node)
    replica_racks = {cluster.rack_of(r) for r in chunk.replicas if r in {n.name for n in cluster.nodes()}}
    if node_rack in replica_racks:
        return Locality.RACK_LOCAL
    return Locality.REMOTE


def plan_map_phase(
    chunks: Sequence[Chunk],
    cluster: ClusterSpec,
    task_time_fn: Callable[[Chunk, str], float],
    prefer_locality: bool = True,
    speculative: bool = False,
    straggler_factor: float = 1.5,
    dead_nodes: frozenset[str] = frozenset(),
    node_slowdown: Callable[[str], float] | None = None,
) -> MapPhasePlan:
    """Plan the map phase of one job over the cluster's map slots.

    ``task_time_fn(chunk, locality)`` models one attempt's duration (remote
    reads cost more).  ``prefer_locality=False`` disables the data-locality
    preference — the ablation knob for measuring how much locality buys.
    ``node_slowdown(node)`` returns a duration multiplier (>= 1) for tasks
    landing on that node — the chaos engine's straggler model, which is
    also what makes speculative execution actually fire in chaos runs.

    Returns the per-task assignments, the simulated makespan, and the
    number of scheduling *waves* (ceil(tasks / total slots), the quantity
    the paper uses when it reports ~5 waves for the 61-node sampling run).
    """
    workers = [n for n in cluster.tasktrackers() if n.name not in dead_nodes]
    if not workers:
        raise RuntimeError("no alive tasktrackers")
    total_slots = sum(n.map_slots for n in workers)
    if total_slots == 0:
        raise RuntimeError("cluster has zero map slots")

    # Min-heap of (free_time, tiebreak, node_name) — one entry per slot.
    counter = itertools.count()
    slots: list[tuple[float, int, str]] = []
    for node in workers:
        for _ in range(node.map_slots):
            heapq.heappush(slots, (0.0, next(counter), node.name))

    # Largest chunks first so stragglers start early (classic LPT packing;
    # Hadoop approximates this because big files enumerate first).
    remaining: list[tuple[int, Chunk]] = sorted(
        enumerate(chunks), key=lambda ic: -ic[1].nbytes
    )
    assignments: list[TaskAssignment] = []
    makespan = 0.0

    while remaining:
        free_time, _, node_name = heapq.heappop(slots)
        # Pick the task for this slot: node-local > rack-local > any.
        pick = 0
        if prefer_locality:
            node_rack = cluster.rack_of(node_name)
            best_rank = 3
            for i, (_, chunk) in enumerate(remaining):
                if node_name in chunk.replicas:
                    pick, best_rank = i, 0
                    break
                known = {n.name for n in cluster.nodes()}
                replica_racks = {
                    cluster.rack_of(r)
                    for r in chunk.replicas
                    if r in known and r not in dead_nodes
                }
                rank = 1 if node_rack in replica_racks else 2
                if rank < best_rank:
                    pick, best_rank = i, rank
        index, chunk = remaining.pop(pick)
        locality = _classify_locality(cluster, node_name, chunk)
        duration = task_time_fn(chunk, locality)
        if duration < 0:
            raise ValueError("task_time_fn returned a negative duration")
        if node_slowdown is not None:
            duration *= node_slowdown(node_name)
        assignment = TaskAssignment(
            task_id=f"map-{index:04d}",
            chunk=chunk,
            node=node_name,
            locality=locality,
            start_time=free_time,
            duration=duration,
        )
        assignments.append(assignment)
        makespan = max(makespan, assignment.end_time)
        heapq.heappush(slots, (assignment.end_time, next(counter), node_name))

    if speculative and assignments:
        ends = sorted(a.end_time for a in assignments)
        median_end = ends[len(ends) // 2]
        extra: list[TaskAssignment] = []
        for a in assignments:
            if a.end_time > straggler_factor * max(median_end, 1e-9):
                # Duplicate on the earliest-free slot of a different node.
                candidates = [(t, c, n) for (t, c, n) in slots if n != a.node]
                if not candidates:
                    continue
                free_time, _, node_name = min(candidates)
                locality = _classify_locality(cluster, node_name, a.chunk)
                duration = task_time_fn(a.chunk, locality)
                if node_slowdown is not None:
                    duration *= node_slowdown(node_name)
                dup = TaskAssignment(
                    task_id=a.task_id,
                    chunk=a.chunk,
                    node=node_name,
                    locality=locality,
                    start_time=free_time,
                    duration=duration,
                    speculative=True,
                )
                extra.append(dup)
        if extra:
            assignments.extend(extra)
            # Completion of a speculated task = min over its attempts.
            by_task: dict[str, float] = {}
            for a in assignments:
                end = a.end_time
                by_task[a.task_id] = min(by_task.get(a.task_id, float("inf")), end)
            makespan = max(by_task.values())

    waves = -(-len(chunks) // total_slots)  # ceil division
    return MapPhasePlan(assignments, makespan, waves)


def plan_reduce_phase(
    n_reducers: int,
    cluster: ClusterSpec,
    task_time_fn: Callable[[int], float],
    dead_nodes: frozenset[str] = frozenset(),
    node_slowdown: Callable[[str], float] | None = None,
) -> tuple[list[ReduceAssignment], float]:
    """Plan reduce tasks over reduce slots; returns (placements, makespan).

    Reducers "are spread across the same nodes as the mappers"
    (Section III); placement is round-robin over alive tasktrackers, and
    the makespan is an LPT list-schedule over the reduce slots.  Each
    placement carries its slot-packed start time and duration so the
    job-history layer can materialize per-reducer timelines.
    """
    workers = [n for n in cluster.tasktrackers() if n.name not in dead_nodes]
    if not workers:
        raise RuntimeError("no alive tasktrackers")
    counter = itertools.count()
    slots: list[tuple[float, int, str]] = []
    for node in workers:
        for _ in range(max(node.reduce_slots, 0)):
            heapq.heappush(slots, (0.0, next(counter), node.name))
    if not slots:
        raise RuntimeError("cluster has zero reduce slots")
    placements: list[ReduceAssignment] = []
    makespan = 0.0
    durations = sorted(
        ((task_time_fn(r), r) for r in range(n_reducers)), reverse=True
    )
    for duration, r in durations:
        free_time, _, node_name = heapq.heappop(slots)
        if node_slowdown is not None:
            duration *= node_slowdown(node_name)
        placements.append(
            ReduceAssignment(f"reduce-{r:04d}", node_name, free_time, duration)
        )
        end = free_time + duration
        makespan = max(makespan, end)
        heapq.heappush(slots, (end, next(counter), node_name))
    placements.sort(key=lambda p: p.task_id)
    return placements, makespan


def emit_map_phase_events(
    history: JobHistory,
    job_name: str,
    plan: MapPhasePlan,
    t0: float,
    failures_by_task: dict[str, list[tuple]] | None = None,
) -> None:
    """Emit the map phase's task timeline into a job history.

    ``t0`` is the phase start on the history's simulated clock; planned
    start/end times are relative to it.  ``failures_by_task`` maps a task
    id to its failed attempts ``(attempt, node, reason, kind, backoff_s)``
    (see :func:`~repro.mapreduce.failures.emit_attempt_failures`); attempts are
    modelled as back-to-back occupations of the task's slot, so a retried
    task finishes ``(attempts - 1) * duration`` later than planned — the
    same quantity the cost model charges as the job's retry penalty.
    """
    failures_by_task = failures_by_task or {}
    primary = sorted(
        (a for a in plan.assignments if not a.speculative),
        key=lambda a: (a.start_time, a.task_id),
    )
    for a in primary:
        history.emit(
            ev.TaskStart(
                phase=Phase.MAP, locality=a.locality, input_bytes=a.chunk.nbytes,
                input_records=a.chunk.n_records,
            ),
            job_name,
            t0 + a.start_time,
            task=a.task_id,
            node=a.node,
        )
        failures = failures_by_task.get(a.task_id, [])
        emit_attempt_failures(
            history, job_name, a.task_id, failures,
            t_start=t0 + a.start_time, attempt_duration=a.duration,
        )
        attempts = 1 + len(failures)
        history.emit(
            ev.TaskFinish(
                phase=Phase.MAP, duration_s=a.duration, attempts=attempts,
                wasted_s=(attempts - 1) * a.duration, locality=a.locality,
            ),
            job_name,
            t0 + a.start_time + attempts * a.duration,
            task=a.task_id,
            node=a.node,
        )
    for a in plan.assignments:
        if not a.speculative:
            continue
        original = next(
            (p for p in primary if p.task_id == a.task_id), None
        )
        history.emit(
            ev.SpeculativeLaunch(
                original_node=original.node if original else None, duration_s=a.duration
            ),
            job_name,
            t0 + a.start_time,
            task=a.task_id,
            node=a.node,
        )
        history.emit(
            ev.TaskStart(phase=Phase.MAP, locality=a.locality, speculative=True),
            job_name,
            t0 + a.start_time,
            task=a.task_id,
            node=a.node,
        )
        history.emit(
            ev.TaskFinish(
                phase=Phase.MAP, duration_s=a.duration, locality=a.locality, speculative=True
            ),
            job_name,
            t0 + a.end_time,
            task=a.task_id,
            node=a.node,
        )


def emit_reduce_phase_events(
    history: JobHistory,
    job_name: str,
    placements: Sequence[ReduceAssignment],
    t0: float,
    failures_by_task: dict[str, list[tuple]] | None = None,
    records_by_task: dict[str, int] | None = None,
) -> None:
    """Emit the reduce phase's task timeline (same model as the map side)."""
    failures_by_task = failures_by_task or {}
    records_by_task = records_by_task or {}
    for p in sorted(placements, key=lambda p: (p.start_time, p.task_id)):
        history.emit(
            ev.TaskStart(
                phase=Phase.REDUCE, input_records=records_by_task.get(p.task_id, 0)
            ),
            job_name,
            t0 + p.start_time,
            task=p.task_id,
            node=p.node,
        )
        failures = failures_by_task.get(p.task_id, [])
        emit_attempt_failures(
            history, job_name, p.task_id, failures,
            t_start=t0 + p.start_time, attempt_duration=p.duration,
        )
        attempts = 1 + len(failures)
        history.emit(
            ev.TaskFinish(
                phase=Phase.REDUCE, duration_s=p.duration, attempts=attempts,
                wasted_s=(attempts - 1) * p.duration,
            ),
            job_name,
            t0 + p.start_time + attempts * p.duration,
            task=p.task_id,
            node=p.node,
        )


# ---------------------------------------------------------------------------
# Weighted fair-share over the shared slot pool (the multi-tenant scheduler).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FairShareJob:
    """One completed job's task demand, as the fair-share planner sees it.

    ``map_durations``/``reduce_durations`` are the per-task simulated
    durations the single-job planners already computed (the service reads
    them off :class:`~repro.mapreduce.runner.JobResult`'s plans), so the
    interleave reuses the exact locality/cost modelling of the solo run.
    ``order`` is the global dispatch index — FIFO tiebreak within a
    tenant.
    """

    tenant: str
    weight: float
    name: str
    order: int
    map_durations: tuple[float, ...]
    reduce_durations: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        positive(f"job {self.name!r}: weight", self.weight)
        if any(d < 0 for d in (*self.map_durations, *self.reduce_durations)):
            raise ValueError(f"job {self.name!r}: negative task duration")


@dataclass(frozen=True)
class FairShareTask:
    """One task occupation on the interleaved multi-tenant timeline."""

    tenant: str
    job: str
    task_id: str
    phase: str
    node: str
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class FairSharePlan:
    """The interleaved schedule of many tenants' jobs over one slot pool."""

    tasks: list[FairShareTask]
    makespan: float
    weights: dict[str, float]

    def slot_seconds(self, window: float | None = None) -> dict[str, float]:
        """Per-tenant busy slot-seconds, optionally clipped to ``[0, window]``."""
        out = {t: 0.0 for t in self.weights}
        for task in self.tasks:
            end = task.end if window is None else min(task.end, window)
            start = task.start if window is None else min(task.start, window)
            out[task.tenant] += max(0.0, end - start)
        return out

    def contended_window(self) -> float:
        """End of the interval during which *every* tenant still has work.

        Fairness is only meaningful while tenants actually contend: once a
        tenant's last task ends, the survivors legitimately absorb its
        share.  The window is the earliest per-tenant last-task end.
        """
        last_end: dict[str, float] = {}
        for task in self.tasks:
            last_end[task.tenant] = max(last_end.get(task.tenant, 0.0), task.end)
        return min(last_end.values()) if last_end else 0.0

    def tenant_shares(self, window: float | None = None) -> dict[str, float]:
        """Each tenant's fraction of busy slot-seconds in the window.

        ``window=None`` uses :meth:`contended_window`.
        """
        if window is None:
            window = self.contended_window()
        used = self.slot_seconds(window)
        total = sum(used.values())
        if total <= 0:
            return {t: 0.0 for t in used}
        return {t: s / total for t, s in used.items()}

    def fairness_deviations(self, window: float | None = None) -> dict[str, float]:
        """Relative deviation of each tenant's share from its weight share.

        ``0.0`` is perfectly fair; ``+0.2`` means the tenant got 20% more
        slot-seconds than its weight entitles it to.  The acceptance gate
        is ``max(abs(deviation)) <= 0.2`` over the contended window.
        """
        shares = self.tenant_shares(window)
        total_weight = sum(self.weights.values())
        return {
            t: (shares[t] / (w / total_weight)) - 1.0 if w else 0.0
            for t, w in self.weights.items()
        }


def plan_fair_share(
    jobs: Sequence[FairShareJob],
    cluster: ClusterSpec,
    dead_nodes: frozenset[str] = frozenset(),
) -> FairSharePlan:
    """Interleave many tenants' jobs over the cluster's slots, fairly.

    Stride scheduling over *virtual time*: each tenant carries a vtime
    that advances by ``duration / weight`` for every slot-second it
    consumes, and whenever a slot frees the planner hands it to the
    pending tenant with the smallest ``(vtime, name)`` — so a weight-2
    tenant's clock runs at half speed and it receives twice the
    slot-seconds of a weight-1 peer while both have demand (the backlog
    model: all submitted jobs are assumed available from t=0, which is
    exactly the contention benchmark's shape).  Within a tenant, jobs
    drain FIFO by ``order`` and tasks in task-id order.

    Map and reduce slots are disjoint pools, so maps are packed first and
    each job's reduces become eligible only once its map phase ends —
    identical to the single-job planners' phase barrier.  Everything is
    deterministic: ties break on tenant name, job order, then slot index.
    """
    workers = [n for n in cluster.tasktrackers() if n.name not in dead_nodes]
    if not workers:
        raise RuntimeError("no alive tasktrackers")

    vtime: dict[str, float] = {}
    weights: dict[str, float] = {}
    for job in jobs:
        weights.setdefault(job.tenant, job.weight)
        vtime.setdefault(job.tenant, 0.0)
        if weights[job.tenant] != job.weight:
            raise ValueError(
                f"tenant {job.tenant!r} appears with conflicting weights"
            )

    def slot_heap(kind: str) -> list[tuple[float, int, str]]:
        counter = itertools.count()
        heap: list[tuple[float, int, str]] = []
        for node in workers:
            n_slots = node.map_slots if kind == Phase.MAP else node.reduce_slots
            for _ in range(max(n_slots, 0)):
                heapq.heappush(heap, (0.0, next(counter), node.name))
        return heap

    tasks: list[FairShareTask] = []
    makespan = 0.0

    def pick(pending: dict[int, FairShareJob]) -> FairShareJob:
        tenant = min(
            {j.tenant for j in pending.values()}, key=lambda t: (vtime[t], t)
        )
        order = min(o for o, j in pending.items() if j.tenant == tenant)
        return pending[order]

    def assign(job: FairShareJob, phase: str, index: int,
               start: float, duration: float, node: str) -> None:
        nonlocal makespan
        prefix = "map" if phase == Phase.MAP else "reduce"
        tasks.append(
            FairShareTask(
                tenant=job.tenant, job=job.name,
                task_id=f"{prefix}-{index:04d}", phase=phase,
                node=node, start=start, duration=duration,
            )
        )
        vtime[job.tenant] += duration / job.weight
        makespan = max(makespan, start + duration)

    # -- map pass: no preconditions, pack greedily under fair-share ---------
    map_slots = slot_heap(Phase.MAP)
    if any(job.map_durations for job in jobs) and not map_slots:
        raise RuntimeError("cluster has zero map slots")
    next_map = {job.order: 0 for job in jobs}
    pending_maps = {job.order: job for job in jobs if job.map_durations}
    map_done = {job.order: 0.0 for job in jobs}
    counter = itertools.count(len(map_slots))
    while pending_maps:
        free_time, _, node = heapq.heappop(map_slots)
        job = pick(pending_maps)
        index = next_map[job.order]
        duration = job.map_durations[index]
        assign(job, Phase.MAP, index, free_time, duration, node)
        map_done[job.order] = max(map_done[job.order], free_time + duration)
        next_map[job.order] += 1
        if next_map[job.order] >= len(job.map_durations):
            del pending_maps[job.order]
        heapq.heappush(map_slots, (free_time + duration, next(counter), node))

    # -- reduce pass: a job's reduces unlock when its map phase ends --------
    reduce_slots = slot_heap(Phase.REDUCE)
    pending_reduces = {job.order: job for job in jobs if job.reduce_durations}
    if pending_reduces and not reduce_slots:
        raise RuntimeError("cluster has zero reduce slots")
    next_reduce = {job.order: 0 for job in jobs}
    counter = itertools.count(len(reduce_slots))
    while pending_reduces:
        free_time, tiebreak, node = heapq.heappop(reduce_slots)
        eligible = {
            o: j for o, j in pending_reduces.items() if map_done[o] <= free_time
        }
        if not eligible:
            # The slot idles until the next map phase completes.
            wake = min(map_done[o] for o in pending_reduces)
            heapq.heappush(reduce_slots, (wake, tiebreak, node))
            continue
        job = pick(eligible)
        index = next_reduce[job.order]
        duration = job.reduce_durations[index]
        assign(job, Phase.REDUCE, index, free_time, duration, node)
        next_reduce[job.order] += 1
        if next_reduce[job.order] >= len(job.reduce_durations):
            del pending_reduces[job.order]
        heapq.heappush(reduce_slots, (free_time + duration, next(counter), node))

    return FairSharePlan(tasks=tasks, makespan=makespan, weights=weights)


def record_locality(counters: Counters, plan: MapPhasePlan) -> None:
    """Fold a plan's locality outcome into job counters."""
    counts = plan.locality_counts()
    counters.increment(STANDARD.GROUP_SCHEDULER, STANDARD.DATA_LOCAL_MAPS, counts[Locality.NODE_LOCAL])
    counters.increment(STANDARD.GROUP_SCHEDULER, STANDARD.RACK_LOCAL_MAPS, counts[Locality.RACK_LOCAL])
    counters.increment(STANDARD.GROUP_SCHEDULER, STANDARD.REMOTE_MAPS, counts[Locality.REMOTE])
    n_spec = sum(1 for a in plan.assignments if a.speculative)
    counters.increment(STANDARD.GROUP_SCHEDULER, STANDARD.SPECULATIVE_TASKS, n_spec)
