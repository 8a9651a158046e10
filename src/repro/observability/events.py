"""The typed event vocabulary of the job-history layer.

An :class:`Event` is one observation about the MapReduce lifecycle, with a
timestamp on the **simulated clock** (the same cost-model seconds the
paper's Table III reports): a job name, optional task/node, and a
:class:`Payload`.  Each event kind is one frozen payload class below, and
the class *is* the kind's schema: its fields, in declaration order, are
the keys of the on-disk ``data`` object, and a field still at its default
is left out.  The three ``driver_annotation`` classes are told apart by
their ``driver`` key.  What each field means is documented once, in
``docs/OBSERVABILITY.md``; :data:`SCHEMA_VERSION` gates compatibility.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, make_dataclass
from typing import Any, ClassVar, Mapping

__all__ = ["Event", "Payload", "PAYLOADS", "Phase", "SCHEMA_VERSION"]

#: Version stamp written into every history file.
SCHEMA_VERSION = 1


class Phase:
    """Lifecycle phase names used by PHASE_* and TASK_* events."""

    SETUP = "setup"
    MAP = "map"
    REDUCE = "reduce"

    ORDER = (SETUP, MAP, REDUCE)


def _json_safe(value: Any) -> Any:
    """Coerce a payload value to JSON-serializable plain data."""
    if isinstance(value, Payload):
        return value.to_dict()
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


class Payload:
    """The data of one event kind; every subclass is made by :func:`_record`."""

    __slots__ = ()
    kind: ClassVar[str]
    #: The ``driver`` key written first, for kinds that several drivers share.
    driver: ClassVar[str | None] = None
    #: ``(name, default)`` per field in declaration order; ``MISSING`` marks
    #: a required one.
    _fields: ClassVar[tuple[tuple[str, Any], ...]]
    #: The fields that hold a nested record, with its class.
    _nested: ClassVar[dict[str, type[Payload]]]

    def to_dict(self) -> dict[str, Any]:
        """The JSON-safe ``data`` object: declared order, defaults left out."""
        out: dict[str, Any] = {} if self.driver is None else {"driver": self.driver}
        for name, default in self._fields:
            value = getattr(self, name)
            if default is MISSING or value != default:
                out[name] = _json_safe(value)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Payload":
        """Rebuild from a ``data`` object; a key the class does not
        declare, or a required one that is absent, is a ``ValueError``."""
        data = dict(data)
        data.pop("driver", None)
        names = {name for name, _ in cls._fields}
        for key in data:
            if key not in names:
                raise ValueError(f"{cls.kind} has no field {key!r}")
        for name, default in cls._fields:
            if default is MISSING and name not in data:
                raise ValueError(f"{cls.kind} is missing field {name!r}")
        for name, record in cls._nested.items():
            data[name] = record.from_dict(data[name])
        return cls(**data)


#: kind -> {driver (None for single-class kinds) -> payload class}.
PAYLOADS: dict[str, dict[str | None, type[Payload]]] = {}


def _record(name: str, kind: str, driver: str | None = None, /, **types: Any) -> type:
    """A frozen payload class with one field per keyword, in order: its
    type, or ``(type, default)`` for a field left out at its default."""
    cls = make_dataclass(
        name,
        [
            (key, tp[0], field(default=tp[1])) if isinstance(tp, tuple) else (key, tp)
            for key, tp in types.items()
        ],
        bases=(Payload,), frozen=True, slots=True, kw_only=True,
    )
    cls.__module__, cls.kind, cls.driver = __name__, kind, driver
    cls._fields = tuple((f.name, f.default) for f in fields(cls))
    cls._nested = {
        f.name: f.type for f in fields(cls)
        if isinstance(f.type, type) and issubclass(f.type, Payload)
    }
    return cls


def _kind(name: str, kind: str, driver: str | None = None, /, **types: Any) -> type:
    """:func:`_record`, registered as the payload of ``kind`` events."""
    cls = _record(name, kind, driver, **types)
    PAYLOADS.setdefault(kind, {})[driver] = cls
    return cls


def _payload_class(kind: str, data: Mapping[str, Any]) -> type[Payload]:
    """The class of a ``kind`` event whose ``data`` is given."""
    classes = PAYLOADS.get(kind)
    if classes is None:
        raise ValueError(f"unknown event kind {kind!r}")
    if None in classes:
        return classes[None]
    driver = data.get("driver")
    if driver not in classes:
        raise ValueError(f"{kind} has no driver {driver!r}")
    return classes[driver]


#: The optional fields that are absent unless set.
_STR, _INT, _FLOAT = (str | None, None), (int | None, None), (float | None, None)
#: ``locality`` is "" when not recorded (reduce tasks), so a recorded null
#: stays distinguishable on disk.
_LOCALITY = (str | None, "")

# Job lifecycle.
JobStart = _kind(
    "JobStart", "job_start", input_paths=list[str], output_path=str, n_chunks=int,
    map_only=bool, num_reducers=int, combiner=bool, tenant=_STR, stream=_STR, window=_INT,
)
Timing = _record(
    "Timing", "job_finish timing", setup_s=float, map_s=float, reduce_s=float,
    retry_penalty_s=float, total_s=float, spill_s=(float, 0.0),
)
JobFinish = _kind(
    "JobFinish", "job_finish", timing=Timing, counters=dict[str, dict[str, int]],
    n_map_tasks=int, n_reduce_tasks=int, output_path=str,
)
PhaseStart = _kind("PhaseStart", "phase_start", phase=str)
PhaseFinish = _kind("PhaseFinish", "phase_finish", phase=str, duration_s=float)
TaskStart = _kind(
    "TaskStart", "task_start", phase=str, locality=_LOCALITY, input_bytes=_INT,
    input_records=_INT, speculative=(bool, False),
)
TaskFinish = _kind(
    "TaskFinish", "task_finish", phase=str, duration_s=float, attempts=_INT, wasted_s=_FLOAT,
    locality=_LOCALITY, speculative=(bool, False),
)
AttemptFailed = _kind("AttemptFailed", "attempt_failed", attempt=int, reason=str)
SpeculativeLaunch = _kind(
    "SpeculativeLaunch", "speculative_launch", original_node=str | None, duration_s=float,
)
ShuffleTransfer = _kind(
    "ShuffleTransfer", "shuffle_transfer", reducer=str, bytes=int, records=int, groups=int,
    raw_records=_INT,
)
CacheLoad = _kind("CacheLoad", "cache_load", entries=list[str], nbytes=int, broadcast_s=float)
PipelineStart = _kind("PipelineStart", "pipeline_start", n_stages=int)
PipelineFinish = _kind(
    "PipelineFinish", "pipeline_finish", stages=list[str], sim_seconds=float,
)

# Driver annotations, one class per driver.
KMeansIteration = _kind(
    "KMeansIteration", "driver_annotation", "kmeans", iteration=int,
    max_centroid_move=float, converged=bool, sim_seconds=float,
)
DJClusterRun = _kind(
    "DJClusterRun", "driver_annotation", "djcluster", n_clusters=int, n_noise=int,
    stage_sim_seconds=dict[str, float],
)
SamplingRun = _kind(
    "SamplingRun", "driver_annotation", "sampling", technique=str, window_s=float,
    records_kept=int,
)

# Chaos and recovery.
FaultInjected = _kind("FaultInjected", "fault_injected", attempt=int, fault=str, reason=str)
AttemptRetried = _kind(
    "AttemptRetried", "attempt_retried", attempt=int, backoff_s=float, reason=str,
)
NodeBlacklisted = _kind("NodeBlacklisted", "node_blacklisted", failures=int, threshold=int)
NodeLost = _kind("NodeLost", "node_lost", lost_tasks=list[str], detect_s=float)
ReplicaHealed = _kind(
    "ReplicaHealed", "replica_healed", replicas=int, nbytes=int, rereplicate_s=float,
)
ShuffleRefetch = _kind(
    "ShuffleRefetch", "shuffle_refetch", bytes=int, refetch_s=float, reason=str,
)

# Out-of-core and shuffle accounting.
SpillStart = _kind(
    "SpillStart", "spill_start", source=str, run=_INT, records=int, bytes=int, write_s=float,
)
SpillMerge = _kind(
    "SpillMerge", "spill_merge", runs=int, records=int, groups=int, bytes=int, read_s=float,
)
ShufflePreagg = _kind(
    "ShufflePreagg", "shuffle_preagg", envelopes=int, envelope_bytes=int,
    pre_coalesce_envelopes=int, raw_records=int, cross_node_bytes=_INT,
)

# The job service.
JobSubmit = _kind(
    "JobSubmit", "job_submit", tenant=str, queue_depth=int, stream=_STR, window=_INT,
)
JobDispatch = _kind(
    "JobDispatch", "job_dispatch", tenant=str, dispatch_index=int, queued=int,
)
ResultCacheHit = _kind(
    "ResultCacheHit", "result_cache_hit", tenant=str, key=str, source_path=str,
    saved_map_tasks=int,
)
ResultCacheStore = _kind(
    "ResultCacheStore", "result_cache_store", tenant=str, key=str, nbytes=int,
)

# The persistent index.
IndexPublish = _kind(
    "IndexPublish", "index_publish", key=str, path=str, input_path=str, dataset_version=int,
    n_points=int, n_pages=int, page_bytes=int, build_sim_seconds=float,
)
IndexReuse = _kind(
    "IndexReuse", "index_reuse", key=str, path=str, input_path=str, dataset_version=int,
    n_points=int,
)
QueryServed = _kind(
    "QueryServed", "query_served", query=str, n_results=int, page_faults=int,
    fault_bytes=int, latency_s=float, lat=_FLOAT, lon=_FLOAT, radius_m=_FLOAT, k=_INT,
    rect=(list[float] | None, None),
)

# Streaming.
WindowOpen = _kind("WindowOpen", "window_open", window=int, t_start=float, t_end=float)
Watermark = _kind("Watermark", "watermark", window=int, watermark=float)
WindowClose = _kind(
    "WindowClose", "window_close", window=int, path=str, n_points=int, n_feeds=int,
    late_points=int, lost_points=int, dup_points=int,
)
WindowResult = _kind(
    "WindowResult", "window_result", window=int, n_points=int, kmeans_iterations=int,
    warm_start=bool, n_pois=int, risk=float, min_anonymity=int, latency_s=float,
)

# Attacks.
AttackResult = _kind(
    "AttackResult", "attack_result", "linkage-attack", n_train_fingerprints=int,
    n_target_fingerprints=int, linked=int, success_rate=float, pairs_scored=int,
    cross_product=int, signature=str, pairs_exact=_INT,
)
SweepCell = _kind(
    "SweepCell", "sweep_cell", mechanism=str, tenant=str, success_rate=float, linked=int,
    n_targets=int, sim_seconds=float,
)


@dataclass(frozen=True, slots=True)
class Event:
    """One observation in a job history.

    ``seq`` is the collector-assigned emission index — the authoritative
    order for the guarantees tested in ``tests/observability`` (ties on
    ``ts`` are broken by ``seq``).  ``ts`` is simulated seconds since the
    history's epoch (the runner's deployment), *not* wall clock.
    """

    seq: int
    ts: float
    job: str
    payload: Payload
    task: str | None = None
    node: str | None = None

    def __post_init__(self) -> None:
        if self.ts < 0:
            raise ValueError(f"event timestamp must be >= 0, got {self.ts}")

    @property
    def kind(self) -> str:
        return self.payload.kind

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe plain-dict form (the on-disk record)."""
        out: dict[str, Any] = {
            "seq": self.seq,
            "ts": round(float(self.ts), 6),
            "kind": self.payload.kind,
            "job": self.job,
        }
        if self.task is not None:
            out["task"] = self.task
        if self.node is not None:
            out["node"] = self.node
        out["data"] = self.payload.to_dict()
        return out

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "Event":
        unknown = record.keys() - {"seq", "ts", "kind", "job", "task", "node", "data"}
        if unknown:
            raise ValueError(f"event record has unknown field {sorted(unknown)[0]!r}")
        try:
            kind, data = str(record["kind"]), record.get("data", {})
            if not isinstance(data, Mapping):
                raise ValueError(f"{kind} data is not an object: {data!r}")
            return cls(
                seq=int(record["seq"]),
                ts=float(record["ts"]),
                job=str(record["job"]),
                payload=_payload_class(kind, data).from_dict(data),
                task=record.get("task"),
                node=record.get("node"),
            )
        except KeyError as exc:
            raise ValueError(f"event record missing field {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed event record: {exc}") from None
