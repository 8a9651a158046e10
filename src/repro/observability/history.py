"""The :class:`JobHistory` collector and its on-disk formats.

A :class:`~repro.mapreduce.runner.JobRunner` owns one ``JobHistory`` for
its whole deployment lifetime: successive jobs (e.g. the per-iteration
k-means jobs) stack on one cumulative simulated clock, so a single
history file holds the full per-iteration trace of a driver run.

Two interchangeable file formats are supported, selected by extension in
:meth:`JobHistory.save`:

* ``*.json`` — one object ``{"version", "events": [...]}``;
* ``*.jsonl`` — a header line then one event object per line, for
  streaming consumers / very long histories.

Ordering guarantees (enforced by the runner, checked by
:meth:`JobHistory.validate`, relied on by the report layer):

* every ``task_finish`` is preceded (in ``seq`` order) by the matching
  ``task_start`` of the same job+task;
* every ``attempt_failed`` (and its chaos-engine companions
  ``fault_injected`` and ``attempt_retried``) of a task precedes that
  task's ``task_finish`` — failed attempts come before the successful
  attempt;
* every ``phase_finish``/``job_finish`` follows its start event, and a
  finish timestamp is never earlier than its start timestamp.
"""

from __future__ import annotations

import io
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.observability.events import (
    SCHEMA_VERSION, AttemptFailed, AttemptRetried, Event, FaultInjected, JobFinish, JobStart,
    Payload, PhaseFinish, PhaseStart, TaskFinish, TaskStart,
)

__all__ = ["JobHistory", "TaskSpan", "load_history"]


@dataclass(frozen=True)
class TaskSpan:
    """One task's materialized timeline, derived from its event pair."""

    job: str
    task: str
    node: str
    phase: str
    start: float
    end: float
    attempts: int = 1
    locality: str | None = None
    speculative: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class JobHistory:
    """Collects typed events on a cumulative simulated clock.

    The collector is append-only; ``seq`` numbers are assigned at emit
    time and define the authoritative event order.  ``clock`` is advanced
    by the runner after each job so that the next job's events start where
    the previous job ended.
    """

    def __init__(self) -> None:
        self.events: list[Event] = []
        self.clock: float = 0.0
        self._seq = 0
        # Guards seq assignment + append: a JobService's submit threads
        # emit job_submit events concurrently with the dispatcher.
        self._emit_lock = threading.Lock()

    # -- collection ---------------------------------------------------------
    def emit(
        self,
        payload: Payload,
        job: str,
        ts: float,
        task: str | None = None,
        node: str | None = None,
    ) -> Event:
        """Append one event; returns it (mainly for tests).  Thread-safe."""
        with self._emit_lock:
            event = Event(
                seq=self._seq, ts=float(ts), job=job, payload=payload, task=task, node=node,
            )
            self._seq += 1
            self.events.append(event)
            return event

    def advance(self, until: float) -> None:
        """Move the cumulative clock forward (never backwards)."""
        with self._emit_lock:
            self.clock = max(self.clock, float(until))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    # -- queries ------------------------------------------------------------
    def jobs(self) -> list[str]:
        """Job names in submission order."""
        return [e.job for e in self.events if isinstance(e.payload, JobStart)]

    def events_for(self, job: str) -> list[Event]:
        return [e for e in self.events if e.job == job]

    def job_start(self, job: str) -> Event:
        return self._single(job, JobStart)

    def job_finish(self, job: str) -> Event:
        return self._single(job, JobFinish)

    def _single(self, job: str, kind: type[Payload]) -> Event:
        for event in self.events:
            if event.job == job and isinstance(event.payload, kind):
                return event
        raise KeyError(f"no {kind.kind} event for job {job!r}")

    def phase_durations(self, job: str) -> dict[str, float]:
        """Phase name -> duration, from the job's ``phase_finish`` events."""
        return {
            e.payload.phase: float(e.payload.duration_s)
            for e in self.events_for(job)
            if isinstance(e.payload, PhaseFinish)
        }

    def task_spans(self, job: str) -> list[TaskSpan]:
        """Materialized per-task timelines, ordered by (start, task)."""
        starts: dict[tuple[str, bool], Event] = {}
        spans: list[TaskSpan] = []
        for event in self.events_for(job):
            p = event.payload
            if isinstance(p, TaskStart):
                starts[(event.task or "", p.speculative)] = event
            elif isinstance(p, TaskFinish):
                start = starts.get((event.task or "", p.speculative))
                if start is None:
                    raise ValueError(
                        f"task_finish without task_start: {event.job}/{event.task}"
                    )
                spans.append(
                    TaskSpan(
                        job=event.job,
                        task=event.task or "",
                        node=event.node or "",
                        phase=p.phase,
                        start=start.ts,
                        end=event.ts,
                        attempts=p.attempts or 1,
                        locality=p.locality or None,
                        speculative=p.speculative,
                    )
                )
        spans.sort(key=lambda s: (s.start, s.task, s.speculative))
        return spans

    # -- invariants ---------------------------------------------------------
    def validate(self) -> list[str]:
        """Check the ordering guarantees; returns violations ([] = ok)."""
        problems: list[str] = []
        last_seq = -1
        for event in self.events:
            if event.seq <= last_seq:
                problems.append(f"seq not strictly increasing at {event.seq}")
            last_seq = event.seq

        for job in self.jobs():
            events = self.events_for(job)
            problems.extend(self._validate_job(job, events))
        return problems

    @staticmethod
    def _validate_job(job: str, events: list[Event]) -> list[str]:
        problems: list[str] = []
        job_started: Event | None = None
        job_finished: Event | None = None
        phase_open: dict[str, Event] = {}
        # task key -> (start event, finish seen, failures pending)
        task_started: dict[tuple[str, bool], Event] = {}
        task_finished: set[tuple[str, bool]] = set()

        for event in events:
            p = event.payload
            if isinstance(p, JobStart):
                job_started = event
            elif isinstance(p, JobFinish):
                job_finished = event
                if job_started is None:
                    problems.append(f"{job}: job_finish before job_start")
                elif event.ts < job_started.ts:
                    problems.append(f"{job}: job_finish ts precedes job_start")
            elif isinstance(p, PhaseStart):
                phase_open[p.phase] = event
            elif isinstance(p, PhaseFinish):
                start = phase_open.pop(p.phase, None)
                if start is None:
                    problems.append(f"{job}: phase_finish({p.phase}) without start")
                elif event.ts < start.ts:
                    problems.append(f"{job}: phase {p.phase} finish ts precedes start")
            elif isinstance(p, TaskStart):
                task_started[(event.task or "", p.speculative)] = event
            elif isinstance(p, (AttemptFailed, FaultInjected, AttemptRetried)):
                key = (event.task or "", False)
                if key not in task_started:
                    problems.append(
                        f"{job}/{event.task}: {p.kind} before task_start"
                    )
                if key in task_finished:
                    problems.append(
                        f"{job}/{event.task}: {p.kind} after task_finish"
                    )
            elif isinstance(p, TaskFinish):
                key = (event.task or "", p.speculative)
                start = task_started.get(key)
                if start is None:
                    problems.append(f"{job}/{event.task}: task_finish without start")
                elif event.ts < start.ts:
                    problems.append(f"{job}/{event.task}: finish ts precedes start")
                task_finished.add(key)

        for (task, speculative), start in task_started.items():
            if (task, speculative) not in task_finished:
                problems.append(f"{job}/{task}: task_start without task_finish")
        for phase in phase_open:
            problems.append(f"{job}: phase {phase} never finished")
        if job_started is not None and job_finished is None:
            problems.append(f"{job}: job never finished")
        return problems

    # -- serialization ------------------------------------------------------
    def to_json_obj(self) -> dict[str, Any]:
        return {
            "version": SCHEMA_VERSION,
            "events": [e.to_dict() for e in self.events],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_obj(), indent=indent)

    def to_jsonl(self) -> str:
        buf = io.StringIO()
        buf.write(json.dumps({"version": SCHEMA_VERSION}) + "\n")
        for event in self.events:
            buf.write(json.dumps(event.to_dict()) + "\n")
        return buf.getvalue()

    def save(self, path: str | Path) -> Path:
        """Write the history file; ``.jsonl`` selects the line format."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix == ".jsonl":
            path.write_text(self.to_jsonl())
        else:
            path.write_text(self.to_json(indent=1))
        return path

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "JobHistory":
        history = cls()
        for event in events:
            history.events.append(event)
            history._seq = max(history._seq, event.seq + 1)
            history.clock = max(history.clock, event.ts)
        return history

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "JobHistory":
        version = obj.get("version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported history version {version!r} "
                f"(this reader understands {SCHEMA_VERSION})"
            )
        return cls.from_events(Event.from_dict(r) for r in obj.get("events", []))

    @classmethod
    def load(cls, path: str | Path) -> "JobHistory":
        """Read a ``.json`` or ``.jsonl`` history file."""
        path = Path(path)
        text = path.read_text()
        if path.suffix == ".jsonl":
            lines = [line for line in text.splitlines() if line.strip()]
            if not lines:
                raise ValueError(f"empty history file: {path}")
            header = json.loads(lines[0])
            return cls.from_json_obj(
                {
                    "version": header.get("version"),
                    "events": [json.loads(line) for line in lines[1:]],
                }
            )
        return cls.from_json_obj(json.loads(text))


def load_history(path: str | Path) -> JobHistory:
    """Convenience alias for :meth:`JobHistory.load`."""
    return JobHistory.load(path)
