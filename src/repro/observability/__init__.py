"""Structured job-history tracing for the MapReduce engine.

The paper's whole evaluation (Tables I, III, IV; Figures 2-6) consists of
*observing* job behaviour — iteration times, chunk-size effects, locality,
combiner savings.  This package is the first-class observability layer
that makes those observations without ad-hoc timing code:

* :mod:`repro.observability.events` — the typed event vocabulary: one
  frozen payload class per event kind (job/phase/task start+finish,
  attempt failures, speculative launches, shuffle transfers, cache loads,
  pipeline stages, driver annotations, ...).
* :mod:`repro.observability.history` — :class:`JobHistory`, the collector
  every :class:`~repro.mapreduce.runner.JobRunner` owns.  It receives
  events aligned to the :mod:`~repro.mapreduce.simtime` cost-model clock,
  materializes per-task timelines, validates ordering guarantees and
  round-trips through JSON/JSONL history files.
* :mod:`repro.observability.report` — derived metrics (phase critical
  path, straggler ranking, locality/combiner effectiveness, per-reducer
  shuffle bytes) and the text Gantt/summary renderer behind the
  ``repro history`` CLI subcommand.

This package deliberately imports nothing from :mod:`repro.mapreduce`
(events carry plain data), so the engine can depend on it without cycles.
The on-disk schema is documented in ``docs/OBSERVABILITY.md``.
"""

from repro.observability.events import Event, Payload, Phase, SCHEMA_VERSION
from repro.observability.history import JobHistory, TaskSpan, load_history
from repro.observability.report import (
    JobSummary,
    render_gantt,
    render_report,
    summarize,
    summarize_job,
)

__all__ = [
    "Event",
    "Payload",
    "Phase",
    "SCHEMA_VERSION",
    "JobHistory",
    "TaskSpan",
    "load_history",
    "JobSummary",
    "summarize",
    "summarize_job",
    "render_gantt",
    "render_report",
]
