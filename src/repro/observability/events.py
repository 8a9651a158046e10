"""The typed event vocabulary of the job-history layer.

An :class:`Event` is one observation about the MapReduce lifecycle, with a
timestamp on the **simulated clock** (the same cost-model seconds the
paper's Table III reports).  Events are intentionally plain data — a kind,
a job name, optional task/node, and a JSON-safe ``data`` payload — so a
history file written today stays readable regardless of how the engine's
internal classes evolve.  The full schema is documented in
``docs/OBSERVABILITY.md``; :data:`SCHEMA_VERSION` gates compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["Event", "EventKind", "Phase", "SCHEMA_VERSION"]

#: Version stamp written into every history file.
SCHEMA_VERSION = 1


class EventKind:
    """Well-known event kinds (the closed vocabulary of the schema)."""

    #: A job was submitted; data: input_paths, output_path, n_chunks,
    #: map_only, num_reducers, combiner.
    JOB_START = "job_start"
    #: A job completed; data: timing {setup_s, map_s, reduce_s,
    #: retry_penalty_s, total_s}, counters (nested group->name->int),
    #: n_map_tasks, n_reduce_tasks.
    JOB_FINISH = "job_finish"
    #: A lifecycle phase (see :class:`Phase`) began; data: phase.
    PHASE_START = "phase_start"
    #: A phase ended; data: phase, duration_s.
    PHASE_FINISH = "phase_finish"
    #: A task attempt chain began on its planned node; data: phase,
    #: locality (map tasks), input_bytes, input_records, speculative.
    TASK_START = "task_start"
    #: A task's successful attempt finished; data: phase, duration_s,
    #: attempts, wasted_s, locality, speculative.
    TASK_FINISH = "task_finish"
    #: One attempt of a task crashed and will be retried; data: attempt,
    #: reason.  Always emitted before the owning task's TASK_FINISH.
    ATTEMPT_FAILED = "attempt_failed"
    #: The scheduler duplicated a straggler onto another node; data:
    #: original_node, duration_s.
    SPECULATIVE_LAUNCH = "speculative_launch"
    #: Intermediate data crossed the network to one reducer; data:
    #: reducer, bytes, records, groups.
    SHUFFLE_TRANSFER = "shuffle_transfer"
    #: The distributed cache was broadcast to the tasktrackers; data:
    #: entries, nbytes, broadcast_s.
    CACHE_LOAD = "cache_load"
    #: A multi-job pipeline began; data: n_stages.
    PIPELINE_START = "pipeline_start"
    #: A pipeline finished; data: stages (job names), sim_seconds.
    PIPELINE_FINISH = "pipeline_finish"
    #: A free-form annotation from an algorithm driver (e.g. one k-means
    #: iteration converging); data: driver-specific.
    DRIVER_ANNOTATION = "driver_annotation"
    #: The chaos engine crashed a task attempt; data: attempt, fault
    #: (one of :class:`repro.mapreduce.failures.FaultKind`), reason.
    #: Always emitted between the owning task's TASK_START and
    #: TASK_FINISH, immediately before the matching ATTEMPT_FAILED.
    FAULT_INJECTED = "fault_injected"
    #: The jobtracker re-dispatched a failed task attempt; data: attempt
    #: (the retry's number), backoff_s (exponential-backoff wait charged
    #: to the retry penalty), reason.  Emitted between TASK_START and
    #: TASK_FINISH, after the ATTEMPT_FAILED it answers.
    ATTEMPT_RETRIED = "attempt_retried"
    #: A node crossed the per-job failure threshold and stopped receiving
    #: task dispatches; data: failures, threshold.
    NODE_BLACKLISTED = "node_blacklisted"
    #: A tasktracker+datanode died mid-phase; data: lost_tasks (map tasks
    #: whose outputs vanished and were re-dispatched), detect_s.
    NODE_LOST = "node_lost"
    #: The namenode re-replicated under-replicated chunks after node
    #: loss; data: replicas, nbytes, rereplicate_s.
    REPLICA_HEALED = "replica_healed"
    #: A reducer re-fetched map output (fetch timeout, or the source node
    #: died and the re-executed map's output was read from a surviving
    #: replica); data: bytes, refetch_s, reason.
    SHUFFLE_REFETCH = "shuffle_refetch"
    #: The memory budget forced data to local disk: a map task spilled
    #: its output worker-side (``source="map"``; data: records, bytes,
    #: write_s) or the shuffle cut one sorted run (``source="shuffle"``;
    #: data: run, records, bytes, write_s).  Only budgeted runs emit
    #: these; they never change job outputs or counters.
    SPILL_START = "spill_start"
    #: The external shuffle k-way merged one reduce partition's spilled
    #: runs; data: runs, records, groups, bytes, read_s.
    SPILL_MERGE = "spill_merge"
    #: A tenant handed a job to the :class:`~repro.mapreduce.service.JobService`
    #: queue; data: tenant, queue_depth (jobs queued service-wide after
    #: this submit, this one included).  Emitted at submit time, before
    #: the fair-share dispatcher picks the job up.
    JOB_SUBMIT = "job_submit"
    #: The service's fair-share dispatcher pulled a queued job for
    #: execution; data: tenant, dispatch_index (0-based global dispatch
    #: order), queued (jobs still waiting service-wide).  Falls between
    #: the job's JOB_SUBMIT and JOB_START.
    JOB_DISPATCH = "job_dispatch"
    #: The result cache satisfied a submission without running any tasks;
    #: data: tenant, key (cache-key digest), source_path, saved_map_tasks.
    #: Replaces the whole JOB_START..JOB_FINISH task timeline except the
    #: job_start/job_finish pair itself.
    RESULT_CACHE_HIT = "result_cache_hit"
    #: A completed job's output was copied into the result cache for
    #: future identical submissions; data: tenant, key, nbytes.
    RESULT_CACHE_STORE = "result_cache_store"
    #: An R-tree built by MapReduce was persisted as node pages in HDFS
    #: and registered in the :class:`~repro.index.persistent.IndexCatalog`;
    #: data: key, path, input_path, dataset_version, n_points, n_pages,
    #: page_bytes, build_sim_seconds.
    INDEX_PUBLISH = "index_publish"
    #: The catalog answered an index request from an already-persisted
    #: build — zero jobs ran; data: key, path, input_path,
    #: dataset_version, n_points.
    INDEX_REUSE = "index_reuse"
    #: The serving path answered one point/range/radius/kNN query from
    #: persisted pages (zero map tasks); data: query, n_results,
    #: page_faults, fault_bytes, latency_s, plus query parameters.
    QUERY_SERVED = "query_served"
    #: The micro-batcher started accepting feed batches for one simtime
    #: window; data: window (index), t_start, t_end (event-time bounds).
    WINDOW_OPEN = "window_open"
    #: The micro-batcher advanced the stream's watermark: every batch
    #: with event time below it has been delivered, dropped (lost) or
    #: reassigned to the next window (late); data: window, watermark
    #: (event-time seconds).
    WATERMARK = "watermark"
    #: A window's dataset was sealed into HDFS via ``put_trace_stream``;
    #: data: window, path, n_points, late_points, lost_points,
    #: dup_points, n_feeds.
    WINDOW_CLOSE = "window_close"
    #: The per-window analysis jobs finished and the rolling risk score
    #: was appended to the :class:`~repro.streaming.RiskTimeline`; data:
    #: window, n_points, kmeans_iterations, warm_start, n_pois, risk,
    #: min_anonymity, latency_s (simulated close-to-result seconds).
    WINDOW_RESULT = "window_result"
    #: The metadata-only shuffle shipped pre-aggregated envelopes instead
    #: of raw pairs; data: envelopes (shipped after per-node coalescing),
    #: envelope_bytes, pre_coalesce_envelopes (map-side envelope count
    #: before transport coalescing), raw_records (mapper records the
    #: envelopes stand in for) and cross_node_bytes (the share that
    #: actually crossed nodes).  Emitted once per job, only when the
    #: metadata-only path ran.
    SHUFFLE_PREAGG = "shuffle_preagg"
    #: A linkage attack finished; data: driver, n_train_fingerprints,
    #: n_target_fingerprints, linked, success_rate, pairs_scored,
    #: pairs_exact (present whenever both sides had fingerprints to audit),
    #: cross_product, signature.  Emitted once per
    #: ``run_linkage_attack`` call, job-scoped like driver_annotation.
    ATTACK_RESULT = "attack_result"
    #: One (sanitizer × attack) cell of a privacy-vs-utility sweep
    #: finished; data: mechanism, tenant, success_rate, linked,
    #: n_targets, window_risk, distortion_m, volume_ratio, sim_seconds.
    #: Emitted by ``repro.attacks.sweep`` into the shared service
    #: history.
    SWEEP_CELL = "sweep_cell"

    @classmethod
    def all(cls) -> tuple[str, ...]:
        """Every known kind, in declaration order."""
        return tuple(
            v
            for k, v in vars(cls).items()
            if not k.startswith("_") and isinstance(v, str)
        )


#: :meth:`EventKind.all` as a set, built once: it rebuilds its tuple from
#: ``vars(cls)`` on every call, which was most of what an :class:`Event`
#: cost.  A kind this snapshot does not hold is looked up the slow way, so
#: one added to :class:`EventKind` after import is still known.
_KNOWN_KINDS = frozenset(EventKind.all())


class Phase:
    """Lifecycle phase names used by PHASE_* and TASK_* events."""

    SETUP = "setup"
    MAP = "map"
    REDUCE = "reduce"

    ORDER = (SETUP, MAP, REDUCE)


def _json_safe(value: Any) -> Any:
    """Coerce a payload value to JSON-serializable plain data."""
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    # numpy scalars and anything else with .item(); fall back to str.
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _json_safe(item())
        except (TypeError, ValueError):
            pass
    return str(value)


@dataclass(frozen=True)
class Event:
    """One observation in a job history.

    ``seq`` is the collector-assigned emission index — the authoritative
    order for the guarantees tested in ``tests/observability`` (ties on
    ``ts`` are broken by ``seq``).  ``ts`` is simulated seconds since the
    history's epoch (the runner's deployment), *not* wall clock.
    """

    seq: int
    ts: float
    kind: str
    job: str
    task: str | None = None
    node: str | None = None
    data: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KNOWN_KINDS and self.kind not in EventKind.all():
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.ts < 0:
            raise ValueError(f"event timestamp must be >= 0, got {self.ts}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe plain-dict form (the on-disk record)."""
        out: dict[str, Any] = {
            "seq": self.seq,
            "ts": round(float(self.ts), 6),
            "kind": self.kind,
            "job": self.job,
        }
        if self.task is not None:
            out["task"] = self.task
        if self.node is not None:
            out["node"] = self.node
        if self.data:
            out["data"] = _json_safe(self.data)
        return out

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "Event":
        try:
            return cls(
                seq=int(record["seq"]),
                ts=float(record["ts"]),
                kind=str(record["kind"]),
                job=str(record["job"]),
                task=record.get("task"),
                node=record.get("node"),
                data=dict(record.get("data", {})),
            )
        except KeyError as exc:
            raise ValueError(f"event record missing field {exc}") from None
