"""Failure injection: the deterministic chaos engine of the substrate.

Hadoop's jobtracker monitors tasks and re-executes failed attempts (up to
``mapred.map.max.attempts``, default 4), preferring a different node that
holds a replica of the input chunk.  This module provides the injection
half: :class:`ChaosSchedule`, a seeded, *counter-hashed* chaos schedule
covering the full fault taxonomy of a real deployment
(:class:`FaultKind`): task-attempt crashes, slow-node stragglers,
mid-phase node loss (tasktracker + its datanode), shuffle-fetch
failures, and distributed-cache load errors.  It is the only way a
fault enters a run: scripted :class:`Fault` entries target exact
attempts, probabilistic knobs draw the rest.

Determinism model (docs/CHAOS.md): every probabilistic decision is a
pure hash of ``(seed, fault kind, stable identifiers)`` through
the same splitmix64 pipeline as :mod:`repro.utils.hashrng` — never a
sequential RNG draw.  Whether ``map-0003``'s second attempt crashes does
not depend on how many other faults fired before it, so a schedule is
reproducible event-for-event under the same seed and is unperturbed by
where or in what order the backends run the attempts.

The backends' attempt loop catches :class:`TaskFailure` (and its subclass
:class:`CacheLoadFailure`); a task exhausting its attempt budget raises
:class:`JobFailedError` carrying the full failure chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.checks import count, finite, probability
from repro.utils.hashrng import hash_uniform

__all__ = [
    "TaskFailure",
    "CacheLoadFailure",
    "JobFailedError",
    "FailedAttempt",
    "FaultKind",
    "Fault",
    "ChaosSchedule",
    "MAX_TASK_ATTEMPTS",
]

#: Hadoop's default maximum attempts per task before the job fails.
MAX_TASK_ATTEMPTS = 4

#: FNV-1a 64-bit offset basis / prime (the token-string hash feeding
#: splitmix64; any good 64-bit string hash would do, FNV is dependency-free).
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


class FaultKind:
    """The closed fault taxonomy a :class:`ChaosSchedule` can inject."""

    TASK_CRASH = "task_crash"
    SLOW_NODE = "slow_node"
    NODE_LOSS = "node_loss"
    SHUFFLE_FETCH = "shuffle_fetch"
    CACHE_LOAD = "cache_load"
    #: A feed's micro-batch arrives after its window's watermark and is
    #: delivered during the next window (streaming layer).
    LATE_BATCH = "late_batch"
    #: A feed's micro-batch never arrives: its points are dropped and
    #: counted, no retry (streaming layer).
    LOST_BATCH = "lost_batch"
    #: A feed's micro-batch is delivered twice; the batcher deduplicates
    #: by (feed, window) sequence id so outputs are unchanged.
    DUP_BATCH = "dup_batch"

    ALL = (
        TASK_CRASH,
        SLOW_NODE,
        NODE_LOSS,
        SHUFFLE_FETCH,
        CACHE_LOAD,
        LATE_BATCH,
        LOST_BATCH,
        DUP_BATCH,
    )


class TaskFailure(RuntimeError):
    """Raised inside a task attempt to simulate a crash."""

    def __init__(
        self,
        task_id: str,
        attempt: int,
        reason: str = "injected failure",
        kind: str = FaultKind.TASK_CRASH,
    ):
        super().__init__(f"task {task_id} attempt {attempt}: {reason}")
        self.task_id = task_id
        self.attempt = attempt
        self.reason = reason
        self.kind = kind


class CacheLoadFailure(TaskFailure):
    """A task attempt could not localize the distributed cache."""

    def __init__(self, task_id: str, attempt: int, entry: str | None = None):
        what = f" ({entry!r})" if entry else ""
        super().__init__(
            task_id,
            attempt,
            reason=f"distributed cache load error{what}",
            kind=FaultKind.CACHE_LOAD,
        )
        self.entry = entry


class FailedAttempt(NamedTuple):
    """One failed attempt of a task: where it ran, why and how it failed,
    and the backoff before the next dispatch."""

    attempt: int
    node: str
    reason: str
    kind: str
    backoff_s: float


class JobFailedError(RuntimeError):
    """A task exhausted its retry budget and took the job down.

    Subclasses ``RuntimeError`` (the exception contract the runner always
    had) and carries the machine-readable failure chain so tests and the
    chaos report can show *why* the job failed, attempt by attempt.
    """

    def __init__(
        self,
        task_id: str,
        max_attempts: int,
        failures: Sequence[FailedAttempt] = (),
    ):
        self.task_id = task_id
        self.max_attempts = max_attempts
        self.failures = list(failures)
        message = f"task {task_id} failed {max_attempts} attempts"
        if self.failures:
            message += f" [{'; '.join(self.failure_chain)}]"
        super().__init__(message)

    @property
    def failure_chain(self) -> list[str]:
        return [f"attempt {f.attempt} on {f.node}: {f.reason}" for f in self.failures]


@dataclass(frozen=True)
class Fault:
    """One scripted fault in a :class:`ChaosSchedule`.

    ``task``/``node``/``job``/``attempt`` scope the fault to its target:
    task-scoped kinds (crash, cache load, shuffle fetch) match on
    ``(task, attempt)``; ``slow_node`` matches on ``node``; ``node_loss``
    matches on ``node`` and optionally restricts to one ``job`` name
    (``job=None`` = the first job where the node is still alive).  Feed
    kinds (late/lost/dup batch) match on ``(feed, window)``; leaving
    ``feed`` or ``window`` at ``None`` matches every feed or window.
    A fault that could never fire (a task-scoped kind without ``task``,
    ``slow_node`` without ``node``, ``attempt < 1``) is rejected.
    """

    kind: str
    task: str | None = None
    node: str | None = None
    attempt: int = 1
    job: str | None = None
    feed: str | None = None
    window: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FaultKind.ALL}"
            )
        task_scoped = (FaultKind.TASK_CRASH, FaultKind.CACHE_LOAD, FaultKind.SHUFFLE_FETCH)
        if self.kind in task_scoped and self.task is None:
            raise ValueError(f"a {self.kind} fault needs a task")
        if self.kind == FaultKind.SLOW_NODE and self.node is None:
            raise ValueError("a slow_node fault needs a node")
        count("attempt", self.attempt, 1)


def _hash_u01(seed: int, *tokens) -> float:
    """Uniform (0, 1) draw from a seed and stable identifier tokens.

    FNV-1a over the token string feeds the splitmix64 pipeline of
    :func:`repro.utils.hashrng.hash_uniform` — a counter-based draw whose
    value depends only on its inputs, never on draw order.
    """
    text = "\x1f".join(str(t) for t in (seed, *tokens))
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _U64
    return float(hash_uniform(np.array([h], dtype=np.uint64))[0])


@dataclass(frozen=True)
class ChaosSchedule:
    """A seeded, deterministic schedule of infrastructure faults.

    Probabilistic knobs (``*_prob``) and explicit :class:`Fault` scripts
    compose; every probabilistic decision hashes
    ``(seed, kind, target ids)``, so two runs with the same seed inject
    the *same* faults at the same points — the bit-reproducibility the
    equivalence-under-failure suite pins down.  Because decisions key on
    task/node identifiers rather than draw counters, a schedule is also
    insensitive to executor interleaving.

    ``bad_nodes`` models chronically failing hardware (bad disk): every
    attempt dispatched to such a node crashes before any task code runs,
    which is the scenario the scheduler's per-node blacklist exists for.
    Which node an attempt lands on is decided by the runner's driver-side
    replay, so that is where :meth:`bad_node_crash` is consulted.
    """

    seed: int = 0
    crash_prob: float = 0.0
    cache_load_prob: float = 0.0
    shuffle_fetch_prob: float = 0.0
    slow_node_prob: float = 0.0
    slow_factor: float = 3.0
    node_loss_prob: float = 0.0
    max_node_losses: int = 1
    late_batch_prob: float = 0.0
    lost_batch_prob: float = 0.0
    dup_batch_prob: float = 0.0
    bad_nodes: frozenset[str] = frozenset()
    faults: tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        for name in ("crash_prob", "cache_load_prob", "shuffle_fetch_prob",
                     "slow_node_prob", "node_loss_prob",
                     "late_batch_prob", "lost_batch_prob", "dup_batch_prob"):
            probability(name, getattr(self, name))
        # NaN would pass a bare comparison and break replays (NaN != NaN).
        if finite("slow_factor", self.slow_factor) < 1.0:
            raise ValueError(f"slow_factor must be >= 1, got {self.slow_factor!r}")
        count("max_node_losses", self.max_node_losses, 0)
        if isinstance(self.bad_nodes, (str, bytes)):
            # frozenset("worker02") is a set of characters: injects nothing.
            raise TypeError(
                f"bad_nodes must be a collection of node names, not a bare "
                f"{type(self.bad_nodes).__name__}: {self.bad_nodes!r}"
            )
        # Normalize collection types so schedules hash/compare cleanly.
        object.__setattr__(self, "bad_nodes", frozenset(self.bad_nodes))
        object.__setattr__(self, "faults", tuple(self.faults))

    # -- task crashes -------------------------------------------------------
    def fail_attempt(self, task_id: str, attempt: int) -> None:
        """Raise :class:`TaskFailure` if this attempt is doomed to crash."""
        for fault in self.faults:
            if (
                fault.kind == FaultKind.TASK_CRASH
                and fault.task == task_id
                and fault.attempt == attempt
            ):
                raise TaskFailure(task_id, attempt, "scripted chaos crash")
        if self.crash_prob > 0.0:
            if _hash_u01(self.seed, FaultKind.TASK_CRASH, task_id, attempt) < self.crash_prob:
                raise TaskFailure(task_id, attempt, "chaos crash")

    def bad_node_crash(
        self, task_id: str, attempt: int, node: str
    ) -> TaskFailure | None:
        """The crash an attempt dispatched to ``node`` suffers before any
        task code runs, or ``None`` on healthy hardware."""
        if node in self.bad_nodes:
            return TaskFailure(task_id, attempt, f"bad node {node}")
        return None

    # -- distributed-cache load errors --------------------------------------
    def cache_load_fails(self, task_id: str, attempt: int) -> bool:
        """Whether this attempt's cache localization fails."""
        for fault in self.faults:
            if (
                fault.kind == FaultKind.CACHE_LOAD
                and fault.task == task_id
                and fault.attempt == attempt
            ):
                return True
        return self.cache_load_prob > 0.0 and (
            _hash_u01(self.seed, FaultKind.CACHE_LOAD, task_id, attempt)
            < self.cache_load_prob
        )

    # -- shuffle-fetch failures ---------------------------------------------
    def shuffle_fetch_failures(self, task_id: str) -> int:
        """Number of failed (and re-fetched) shuffle fetches for a reducer."""
        count = sum(
            1
            for fault in self.faults
            if fault.kind == FaultKind.SHUFFLE_FETCH and fault.task == task_id
        )
        if self.shuffle_fetch_prob > 0.0 and (
            _hash_u01(self.seed, FaultKind.SHUFFLE_FETCH, task_id)
            < self.shuffle_fetch_prob
        ):
            count += 1
        return count

    # -- slow nodes ----------------------------------------------------------
    def node_slowdown(self, node: str) -> float:
        """Duration multiplier for tasks on ``node`` (1.0 = healthy)."""
        for fault in self.faults:
            if fault.kind == FaultKind.SLOW_NODE and fault.node == node:
                return self.slow_factor
        if self.slow_node_prob > 0.0 and (
            _hash_u01(self.seed, FaultKind.SLOW_NODE, node) < self.slow_node_prob
        ):
            return self.slow_factor
        return 1.0

    # -- node loss ------------------------------------------------------------
    def node_loss_victim(
        self, job_name: str, candidates: Sequence[str], losses_so_far: int
    ) -> str | None:
        """Node that dies during ``job_name``'s map phase, if any.

        ``candidates`` are the alive worker nodes eligible to die; the
        runner guards cluster viability (enough survivors + a surviving
        replica per chunk) before calling.  At most ``max_node_losses``
        nodes die per deployment.
        """
        if losses_so_far >= self.max_node_losses or not candidates:
            return None
        ordered = sorted(candidates)
        for fault in self.faults:
            if fault.kind != FaultKind.NODE_LOSS:
                continue
            if fault.job is not None and fault.job != job_name:
                continue
            if fault.node is None:
                return ordered[0]
            if fault.node in ordered:
                return fault.node
        if self.node_loss_prob > 0.0 and (
            _hash_u01(self.seed, FaultKind.NODE_LOSS, job_name) < self.node_loss_prob
        ):
            pick = _hash_u01(self.seed, FaultKind.NODE_LOSS, "victim", job_name)
            return ordered[min(int(pick * len(ordered)), len(ordered) - 1)]
        return None

    # -- feed faults (streaming micro-batches) --------------------------------
    def _batch_fault(self, kind: str, feed: str, window: int) -> bool:
        """Shared scripted + probabilistic decision for one feed batch.

        Keys on ``(seed, kind, feed, window)`` — stable identifiers of the
        batch itself — so the decision is independent of delivery order
        and identical between a streaming run and its batch replay.
        """
        for fault in self.faults:
            if fault.kind != kind:
                continue
            if fault.feed is not None and fault.feed != feed:
                continue
            if fault.window is not None and fault.window != window:
                continue
            return True
        prob = {
            FaultKind.LATE_BATCH: self.late_batch_prob,
            FaultKind.LOST_BATCH: self.lost_batch_prob,
            FaultKind.DUP_BATCH: self.dup_batch_prob,
        }[kind]
        return prob > 0.0 and _hash_u01(self.seed, kind, feed, window) < prob

    def batch_lost(self, feed: str, window: int) -> bool:
        """Whether this feed's batch for ``window`` never arrives."""
        return self._batch_fault(FaultKind.LOST_BATCH, feed, window)

    def batch_late(self, feed: str, window: int) -> bool:
        """Whether this feed's batch misses the watermark and slips into
        the next window's delivery."""
        return self._batch_fault(FaultKind.LATE_BATCH, feed, window)

    def batch_duplicated(self, feed: str, window: int) -> bool:
        """Whether this feed's batch is delivered twice."""
        return self._batch_fault(FaultKind.DUP_BATCH, feed, window)

    # -- introspection ---------------------------------------------------------
    def active(self) -> bool:
        """Whether this schedule can inject anything at all."""
        return bool(
            self.crash_prob
            or self.cache_load_prob
            or self.shuffle_fetch_prob
            or self.slow_node_prob
            or self.node_loss_prob
            or self.late_batch_prob
            or self.lost_batch_prob
            or self.dup_batch_prob
            or self.bad_nodes
            or self.faults
        )

    def describe(self) -> str:
        """One-line knob summary for the chaos report."""
        parts = [f"seed={self.seed}"]
        for label, value in (
            ("crash", self.crash_prob),
            ("cache", self.cache_load_prob),
            ("shuffle", self.shuffle_fetch_prob),
            ("slow", self.slow_node_prob),
            ("node-loss", self.node_loss_prob),
            ("late-batch", self.late_batch_prob),
            ("lost-batch", self.lost_batch_prob),
            ("dup-batch", self.dup_batch_prob),
        ):
            if value:
                parts.append(f"{label}={value:g}")
        if self.bad_nodes:
            parts.append(f"bad={','.join(sorted(self.bad_nodes))}")
        if self.faults:
            parts.append(f"{len(self.faults)} scripted fault(s)")
        return " ".join(parts)

