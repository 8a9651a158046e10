"""Derived metrics and the text report behind ``repro history``.

The summary layer turns a raw event stream into the quantities the
paper's evaluation reasons about: where simulated time went (phase
critical path), which tasks dragged the makespan (straggler ranking),
how well the scheduler placed work (locality mix), what the combiner
saved (record reduction), and how evenly the shuffle spread over the
reducers (per-reducer bytes + skew).

Counter names are read from the serialized history with the literal
strings of the schema (``docs/OBSERVABILITY.md``) — this module never
imports the engine, so a saved history file is self-contained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.observability.events import EventKind, Phase
from repro.observability.history import JobHistory, TaskSpan

__all__ = [
    "JobSummary",
    "summarize",
    "summarize_job",
    "tenant_accounting",
    "window_accounting",
    "render_gantt",
    "render_report",
    "render_window_report",
]

#: A task is ranked as a straggler when its duration exceeds the phase
#: median by this factor (Hadoop's speculative-execution heuristic).
STRAGGLER_FACTOR = 1.5


@dataclass
class JobSummary:
    """Everything the report prints about one job."""

    name: str
    start_ts: float
    timing: dict[str, float]
    phases: dict[str, float]
    #: Owning tenant when the job ran through a JobService (None = solo run).
    tenant: str | None = None
    #: Streaming window tags stamped by the StreamingJobManager
    #: (None = not part of a streaming run).
    stream: str | None = None
    window: int | None = None
    #: True when the output was served from the service result cache.
    cache_hit: bool = False
    n_map_tasks: int = 0
    n_reduce_tasks: int = 0
    locality: dict[str, int] = field(default_factory=dict)
    stragglers: list[tuple[TaskSpan, float]] = field(default_factory=list)
    shuffle_bytes_per_reducer: dict[str, int] = field(default_factory=dict)
    #: Metadata-only shuffle accounting (the SHUFFLE_PREAGG event's data;
    #: None when the job shipped raw pairs).
    preagg: dict[str, int] | None = None
    combiner: dict[str, int] | None = None
    failed_attempts: int = 0
    speculative_launches: int = 0
    critical_path: list[tuple[str, str, float]] = field(default_factory=list)
    counters: dict[str, dict[str, int]] = field(default_factory=dict)
    # Chaos-engine recovery facts (all zero/empty on fault-free runs).
    faults: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    backoff_s: float = 0.0
    nodes_lost: list[str] = field(default_factory=list)
    nodes_blacklisted: list[str] = field(default_factory=list)
    replicas_healed: int = 0
    healed_bytes: int = 0
    shuffle_refetches: int = 0
    refetched_bytes: int = 0

    @property
    def total_s(self) -> float:
        return float(self.timing.get("total_s", 0.0))

    @property
    def shuffle_bytes(self) -> int:
        return sum(self.shuffle_bytes_per_reducer.values())

    @property
    def shuffle_skew(self) -> float:
        """max/mean per-reducer shuffle bytes (1.0 = perfectly balanced)."""
        loads = list(self.shuffle_bytes_per_reducer.values())
        if not loads or sum(loads) == 0:
            return 1.0
        mean = sum(loads) / len(loads)
        return max(loads) / mean

    @property
    def combiner_reduction(self) -> float | None:
        """input/output record ratio of the combiner, if one ran."""
        if not self.combiner or not self.combiner.get("output_records"):
            return None
        return self.combiner["input_records"] / self.combiner["output_records"]


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def _rank_stragglers(spans: list[TaskSpan]) -> list[tuple[TaskSpan, float]]:
    """(span, duration/median) for tasks beyond STRAGGLER_FACTOR, worst first."""
    ranked: list[tuple[TaskSpan, float]] = []
    for phase in (Phase.MAP, Phase.REDUCE):
        durations = [
            s.duration for s in spans if s.phase == phase and not s.speculative
        ]
        median = _median(durations)
        if median <= 0:
            continue
        for span in spans:
            if span.phase != phase or span.speculative:
                continue
            ratio = span.duration / median
            if ratio >= STRAGGLER_FACTOR:
                ranked.append((span, ratio))
    ranked.sort(key=lambda item: -item[1])
    return ranked


def _critical_path(
    timing: dict[str, float], spans: list[TaskSpan]
) -> list[tuple[str, str, float]]:
    """(phase, dominating element, seconds) chain that bounds the job.

    The simulated job time is sequential over phases, so the critical
    path is the setup block followed by each phase's longest task (the
    task that defines the phase makespan under the slot packing).
    """
    path: list[tuple[str, str, float]] = []
    if timing.get("setup_s"):
        path.append((Phase.SETUP, "job setup + cache broadcast", timing["setup_s"]))
    for phase in (Phase.MAP, Phase.REDUCE):
        candidates = [s for s in spans if s.phase == phase and not s.speculative]
        if not candidates:
            continue
        longest = max(candidates, key=lambda s: s.duration)
        path.append((phase, f"{longest.task} on {longest.node}", longest.duration))
    if timing.get("retry_penalty_s"):
        path.append(("retries", "wasted failed attempts", timing["retry_penalty_s"]))
    return path


def summarize_job(history: JobHistory, job: str) -> JobSummary:
    """Derive one job's metrics summary from its events."""
    start = history.job_start(job)
    finish = history.job_finish(job)
    timing = {k: float(v) for k, v in finish.data.get("timing", {}).items()}
    counters = finish.data.get("counters", {})
    spans = history.task_spans(job)

    locality: dict[str, int] = {}
    for span in spans:
        if span.phase == Phase.MAP and not span.speculative and span.locality:
            locality[span.locality] = locality.get(span.locality, 0) + 1

    shuffle: dict[str, int] = {}
    failed = 0
    speculative = 0
    faults: dict[str, int] = {}
    retries = 0
    backoff_s = 0.0
    nodes_lost: list[str] = []
    nodes_blacklisted: list[str] = []
    replicas_healed = 0
    healed_bytes = 0
    shuffle_refetches = 0
    refetched_bytes = 0
    cache_hit = False
    preagg: dict[str, int] | None = None
    for event in history.events_for(job):
        if event.kind == EventKind.RESULT_CACHE_HIT:
            cache_hit = True
        elif event.kind == EventKind.SHUFFLE_TRANSFER:
            shuffle[str(event.data.get("reducer", event.task))] = int(
                event.data.get("bytes", 0)
            )
        elif event.kind == EventKind.SHUFFLE_PREAGG:
            preagg = {k: int(v) for k, v in event.data.items()}
        elif event.kind == EventKind.ATTEMPT_FAILED:
            failed += 1
        elif event.kind == EventKind.SPECULATIVE_LAUNCH:
            speculative += 1
        elif event.kind == EventKind.FAULT_INJECTED:
            kind = str(event.data.get("fault", "unknown"))
            faults[kind] = faults.get(kind, 0) + 1
        elif event.kind == EventKind.ATTEMPT_RETRIED:
            retries += 1
            backoff_s += float(event.data.get("backoff_s", 0.0))
        elif event.kind == EventKind.NODE_LOST:
            nodes_lost.append(str(event.node))
        elif event.kind == EventKind.NODE_BLACKLISTED:
            nodes_blacklisted.append(str(event.node))
        elif event.kind == EventKind.REPLICA_HEALED:
            replicas_healed += int(event.data.get("replicas", 0))
            healed_bytes += int(event.data.get("nbytes", 0))
        elif event.kind == EventKind.SHUFFLE_REFETCH:
            shuffle_refetches += 1
            refetched_bytes += int(event.data.get("bytes", 0))

    task_group: dict[str, Any] = counters.get("task", {})
    combiner = None
    if task_group.get("combine_input_records"):
        combiner = {
            "input_records": int(task_group["combine_input_records"]),
            "output_records": int(task_group.get("combine_output_records", 0)),
        }

    return JobSummary(
        name=job,
        start_ts=start.ts,
        timing=timing,
        phases=history.phase_durations(job),
        tenant=start.data.get("tenant"),
        stream=start.data.get("stream"),
        window=(
            int(start.data["window"])
            if start.data.get("window") is not None
            else None
        ),
        cache_hit=cache_hit,
        n_map_tasks=int(finish.data.get("n_map_tasks", 0)),
        n_reduce_tasks=int(finish.data.get("n_reduce_tasks", 0)),
        locality=locality,
        stragglers=_rank_stragglers(spans),
        shuffle_bytes_per_reducer=shuffle,
        preagg=preagg,
        combiner=combiner,
        failed_attempts=failed,
        speculative_launches=speculative,
        critical_path=_critical_path(timing, spans),
        counters={g: dict(names) for g, names in counters.items()},
        faults=faults,
        retries=retries,
        backoff_s=backoff_s,
        nodes_lost=nodes_lost,
        nodes_blacklisted=nodes_blacklisted,
        replicas_healed=replicas_healed,
        healed_bytes=healed_bytes,
        shuffle_refetches=shuffle_refetches,
        refetched_bytes=refetched_bytes,
    )


def summarize(history: JobHistory) -> list[JobSummary]:
    """Summaries for every finished job, in submission order."""
    out = []
    for job in history.jobs():
        try:
            history.job_finish(job)
        except KeyError:
            continue  # job still running / truncated history
        out.append(summarize_job(history, job))
    return out


def tenant_accounting(
    summaries: list[JobSummary],
) -> dict[str, dict[str, Any]]:
    """Aggregate job summaries per tenant (empty if no job is tenant-tagged).

    For each tenant: job count, result-cache hits, simulated seconds the
    tenant's jobs occupied (cache hits cost only their setup charge), and
    map/reduce task counts.  Jobs without a tenant tag (solo ``run(job)``
    histories) are grouped under ``"-"`` only when tagged jobs are also
    present, so a pure solo history yields no accounting block.
    """
    if not any(s.tenant for s in summaries):
        return {}
    accounts: dict[str, dict[str, Any]] = {}
    for s in summaries:
        row = accounts.setdefault(
            s.tenant or "-",
            {
                "jobs": 0,
                "cache_hits": 0,
                "total_s": 0.0,
                "map_tasks": 0,
                "reduce_tasks": 0,
            },
        )
        row["jobs"] += 1
        row["cache_hits"] += int(s.cache_hit)
        row["total_s"] += s.total_s
        row["map_tasks"] += s.n_map_tasks
        row["reduce_tasks"] += s.n_reduce_tasks
    return accounts


def window_accounting(
    summaries: list[JobSummary],
) -> dict[tuple[str, int, str], dict[str, Any]]:
    """Aggregate job summaries per (stream, window, tenant).

    Streaming runs tag every job's ``job_start`` with its stream name
    and window index (``repro.streaming``); this rolls the per-job
    summaries up into one row per (stream, window, tenant) — job count,
    cache hits, simulated seconds, task counts — the ``repro history
    --window`` view.  Jobs without window tags (the batch world) are
    ignored; an empty dict means the history has no streaming run.
    """
    accounts: dict[tuple[str, int, str], dict[str, Any]] = {}
    for s in summaries:
        if s.window is None:
            continue
        key = (s.stream or "-", s.window, s.tenant or "-")
        row = accounts.setdefault(
            key,
            {
                "jobs": 0,
                "cache_hits": 0,
                "total_s": 0.0,
                "map_tasks": 0,
                "reduce_tasks": 0,
            },
        )
        row["jobs"] += 1
        row["cache_hits"] += int(s.cache_hit)
        row["total_s"] += s.total_s
        row["map_tasks"] += s.n_map_tasks
        row["reduce_tasks"] += s.n_reduce_tasks
    return accounts


def render_window_report(history: JobHistory, tenant: str | None = None) -> str:
    """The ``repro history --window`` view: per-window/per-tenant rollups.

    One row per (stream, window, tenant) plus the stream's control-plane
    counters (points, late/lost/dup) read from the ``window_close``
    events, so the operator sees the windowed workload without paging
    through every job block.
    """
    summaries = summarize(history)
    if tenant is not None:
        summaries = [s for s in summaries if s.tenant == tenant]
    accounts = window_accounting(summaries)
    if not accounts:
        return "history contains no window-tagged jobs (not a streaming run?)"
    closes: dict[tuple[str, int], dict[str, Any]] = {}
    for event in history.events:
        if event.kind == EventKind.WINDOW_CLOSE:
            stream = str(event.job).removesuffix("-ingest")
            closes[(stream, int(event.data.get("window", -1)))] = event.data
    lines = [
        "== per-window accounting " + "=" * 37,
        f"{'stream':<14} {'win':>4} {'tenant':<10} {'jobs':>5} {'hits':>5} "
        f"{'sim-s':>9} {'maps':>6} {'reduces':>8} {'points':>8} "
        f"{'late':>6} {'lost':>6} {'dup':>5}",
    ]
    for key in sorted(accounts):
        stream, window, who = key
        row = accounts[key]
        close = closes.get((stream, window), {})
        lines.append(
            f"{stream:<14} {window:>4} {who:<10} {row['jobs']:>5} "
            f"{row['cache_hits']:>5} {row['total_s']:>9.1f} "
            f"{row['map_tasks']:>6} {row['reduce_tasks']:>8} "
            f"{close.get('n_points', 0):>8} {close.get('late_points', 0):>6} "
            f"{close.get('lost_points', 0):>6} {close.get('dup_points', 0):>5}"
        )
    n_windows = len({(s, w) for s, w, _ in accounts})
    total = sum(r["total_s"] for r in accounts.values())
    jobs = sum(r["jobs"] for r in accounts.values())
    lines.append(
        f"{n_windows} window(s), {jobs} windowed job(s), "
        f"{total:.1f} simulated s total"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt_bytes(n: int) -> str:
    if n >= 1024 * 1024:
        return f"{n / (1024 * 1024):.2f} MB"
    if n >= 1024:
        return f"{n / 1024:.1f} KB"
    return f"{n} B"


def render_gantt(history: JobHistory, job: str, width: int = 48) -> str:
    """Text Gantt chart of one job's task timeline.

    One row per task attempt; bars are positioned on the job's simulated
    time axis (``#`` primary attempts, ``%`` speculative duplicates).
    A retried task's bar covers all its attempts, so it may extend past
    the phase makespan — the cost model charges that excess to the
    job-level retry penalty rather than the phase clock.
    """
    spans = history.task_spans(job)
    if not spans:
        return "(no tasks)"
    t0 = history.job_start(job).ts
    t1 = max(max(s.end for s in spans), history.job_finish(job).ts)
    extent = max(t1 - t0, 1e-9)
    name_w = max(len(s.task) for s in spans)
    node_w = max(len(s.node) for s in spans)
    lines = []
    for span in spans:
        lo = int(round((span.start - t0) / extent * width))
        hi = max(int(round((span.end - t0) / extent * width)), lo + 1)
        hi = min(hi, width)
        bar = " " * lo + ("%" if span.speculative else "#") * (hi - lo)
        bar = bar.ljust(width)
        suffix = f" {span.start - t0:>7.1f}s-{span.end - t0:.1f}s"
        flags = ""
        if span.attempts > 1:
            flags += f" x{span.attempts} attempts"
        if span.speculative:
            flags += " (speculative)"
        lines.append(
            f"  {span.task:<{name_w}} {span.node:<{node_w}} |{bar}|{suffix}{flags}"
        )
    return "\n".join(lines)


def _render_job(history: JobHistory, summary: JobSummary, gantt: bool, width: int) -> str:
    t = summary.timing
    header = summary.name
    if summary.tenant:
        header += f" [tenant {summary.tenant}]"
    if summary.cache_hit:
        header += " (result-cache hit)"
    lines = [
        f"== {header} " + "=" * max(4, 58 - len(header)),
        (
            f"  total {summary.total_s:.1f} sim s"
            f"  (setup {t.get('setup_s', 0.0):.1f}"
            f" + map {t.get('map_s', 0.0):.1f}"
            f" + reduce {t.get('reduce_s', 0.0):.1f}"
            f"; retries +{t.get('retry_penalty_s', 0.0):.1f})"
        ),
    ]
    loc = summary.locality
    loc_txt = ", ".join(
        f"{loc.get(kind, 0)} {label}"
        for kind, label in (
            ("node_local", "node-local"),
            ("rack_local", "rack-local"),
            ("remote", "remote"),
        )
    )
    reduces = (
        f"{summary.n_reduce_tasks} reduces" if summary.n_reduce_tasks else "map-only"
    )
    lines.append(f"  tasks: {summary.n_map_tasks} maps ({loc_txt}), {reduces}")
    if summary.shuffle_bytes_per_reducer:
        lines.append(
            f"  shuffle: {_fmt_bytes(summary.shuffle_bytes)} across "
            f"{len(summary.shuffle_bytes_per_reducer)} reducers "
            f"(skew max/mean {summary.shuffle_skew:.2f})"
        )
    if summary.preagg is not None:
        p = summary.preagg
        cross = p.get("cross_node_bytes")
        cross_txt = (
            f"; {_fmt_bytes(int(cross))} crossed nodes" if cross is not None else ""
        )
        lines.append(
            f"  pre-agg shuffle: {p.get('raw_records', 0):,} raw records as "
            f"{p.get('envelopes', 0):,} envelopes "
            f"({_fmt_bytes(p.get('envelope_bytes', 0))}{cross_txt})"
        )
    if summary.combiner_reduction is not None:
        c = summary.combiner
        lines.append(
            f"  combiner: {c['input_records']:,} -> {c['output_records']:,} "
            f"records ({summary.combiner_reduction:.0f}x reduction)"
        )
    if summary.failed_attempts or summary.speculative_launches:
        lines.append(
            f"  recovery: {summary.failed_attempts} failed attempts retried, "
            f"{summary.speculative_launches} speculative launches"
        )
    if summary.faults:
        kinds = ", ".join(f"{k} x{n}" for k, n in sorted(summary.faults.items()))
        backoff = (
            f"; backoff +{summary.backoff_s:.1f}s" if summary.backoff_s else ""
        )
        lines.append(f"  faults injected: {kinds}{backoff}")
    if summary.nodes_lost:
        lines.append(
            f"  node loss: {', '.join(summary.nodes_lost)} "
            f"({summary.replicas_healed} replicas healed, "
            f"{_fmt_bytes(summary.healed_bytes)} re-replicated)"
        )
    if summary.nodes_blacklisted:
        lines.append(f"  blacklisted: {', '.join(summary.nodes_blacklisted)}")
    if summary.shuffle_refetches:
        lines.append(
            f"  shuffle refetch: {summary.shuffle_refetches} fetch(es), "
            f"{_fmt_bytes(summary.refetched_bytes)} re-pulled"
        )
    if summary.critical_path:
        chain = " -> ".join(
            f"{what} ({phase} {seconds:.1f}s)"
            for phase, what, seconds in summary.critical_path
        )
        lines.append(f"  critical path: {chain}")
    if summary.stragglers:
        lines.append("  stragglers (duration vs phase median):")
        for span, ratio in summary.stragglers[:8]:
            loc_note = f" [{span.locality}]" if span.locality else ""
            lines.append(
                f"    {span.task}  {ratio:.1f}x  {span.duration:.1f}s  "
                f"{span.node}{loc_note}"
            )
    if gantt:
        lines.append("  timeline:")
        lines.append(render_gantt(history, summary.name, width=width))
    return "\n".join(lines)


def render_report(
    history: JobHistory,
    jobs: list[str] | None = None,
    gantt: bool = True,
    width: int = 48,
    tenant: str | None = None,
) -> str:
    """The full ``repro history`` report: one block per job + totals.

    ``tenant`` restricts the report to one tenant's jobs in a service
    history (jobs whose ``job_start`` carries that tenant tag).
    """
    summaries = summarize(history)
    if jobs is not None:
        wanted = set(jobs)
        summaries = [s for s in summaries if s.name in wanted]
    if tenant is not None:
        summaries = [s for s in summaries if s.tenant == tenant]
    if not summaries:
        return "history contains no finished jobs"
    blocks = [_render_job(history, s, gantt, width) for s in summaries]
    accounts = tenant_accounting(summaries)
    if accounts:
        acct_lines = ["== per-tenant accounting " + "=" * 37]
        name_w = max(len(t) for t in accounts)
        for name in sorted(accounts):
            row = accounts[name]
            acct_lines.append(
                f"  {name:<{name_w}}  {row['jobs']} job(s)"
                f"  ({row['cache_hits']} cache hit(s))"
                f"  {row['total_s']:.1f} sim s"
                f"  {row['map_tasks']} maps / {row['reduce_tasks']} reduces"
            )
        blocks.append("\n".join(acct_lines))
    total = sum(s.total_s for s in summaries)
    shuffle_total = sum(s.shuffle_bytes for s in summaries)
    blocks.append(
        f"{len(summaries)} job(s), {total:.1f} simulated s total, "
        f"shuffle {_fmt_bytes(shuffle_total)}, {len(history)} events"
    )
    return "\n\n".join(blocks)
