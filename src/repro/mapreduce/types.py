"""Data-plane types: chunk payloads and size accounting.

HDFS files are sequences of :class:`Chunk` objects.  A chunk carries an
opaque payload plus the record/byte counts the scheduler and cost model
need.  Two payload kinds cover everything the toolkit does:

* :class:`RecordPayload` — a list of ``(key, value)`` pairs, the classic
  Hadoop record-at-a-time representation (used by tests and small
  intermediate datasets).
* :class:`ArrayPayload` — a columnar :class:`~repro.geo.trace.TraceArray`
  slice.  Map *tasks* in Hadoop process a whole chunk anyway; vectorized
  mappers exploit that by operating on the chunk's array in one NumPy pass
  instead of a Python loop over millions of records (the HPC guides'
  "vectorize the hot loop" rule).  It has no record view: a mapper over
  traces overrides ``run`` and reads ``chunk.trace_array()``.
"""

from __future__ import annotations

import pickle
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from repro.geo.trace import TraceArray

__all__ = [
    "estimate_nbytes",
    "SIZED_WITHOUT_PICKLE",
    "RecordPayload",
    "ArrayPayload",
    "PagedPayload",
    "concrete_payload",
    "Chunk",
    "DEFAULT_RECORD_BYTES",
]

#: Modelled on-disk size of one GeoLife text record.  The paper's 128 MB
#: dataset holds 2,033,686 traces — 63 bytes per trace — so 64 bytes is the
#: faithful conversion between trace counts and HDFS bytes.
DEFAULT_RECORD_BYTES = 64


#: What :func:`estimate_nbytes` sizes without a pickle (nothing else gets
#: past its last cheap branch): callers that memoise sizes skip these.
SIZED_WITHOUT_PICKLE = (
    np.ndarray, TraceArray, bytes, bytearray, str, int, float, bool, type(None)
)


def estimate_nbytes(value: Any) -> int:
    """Best-effort serialized size of a record value.

    NumPy arrays report their buffer size; everything else pays one pickle.
    Used for shuffle-byte accounting, never on the per-trace hot path
    (vectorized mappers pass explicit sizes to ``emit``).
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, TraceArray):
        # Actual columnar footprint (packed rows + user side table), not a
        # flat per-record guess: a TraceArray crossing the shuffle moves
        # its 36-byte packed rows, and pricing them at DEFAULT_RECORD_BYTES
        # (the *text* record size) overstated transfer by ~78%.
        return value.data_nbytes + sum(
            len(u.encode("utf-8", errors="replace")) for u in value.users
        )
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8", errors="replace"))
    if isinstance(value, SIZED_WITHOUT_PICKLE):  # int, float, bool, None
        return 8
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return sys.getsizeof(value)


@dataclass
class RecordPayload:
    """A chunk payload holding explicit ``(key, value)`` records.

    ``size`` is the modelled byte count of ``records``: passed in by a
    writer that summed it while chunking, else computed by the first
    :meth:`nbytes` call and kept, so a record is sized (a pickle, for
    object values) once per payload, not once per question.  Payloads
    are immutable once written; ``size`` describes them as written.
    """

    records: list[tuple[Any, Any]]
    size: int | None = field(default=None, compare=False, repr=False)

    @property
    def n_records(self) -> int:
        return len(self.records)

    def nbytes(self) -> int:
        if self.size is None:
            self.size = sum(estimate_nbytes(k) + estimate_nbytes(v) for k, v in self.records)
        return self.size


@dataclass
class ArrayPayload:
    """A chunk payload holding a columnar slice of mobility traces.

    ``record_bytes`` is the modelled per-trace on-disk size used when this
    payload was chunked (so byte accounting matches the chunking decision).
    ``offset`` is the global row index of this slice's first trace within
    its file, letting vectorized mappers derive stable per-record ids
    (``offset + arange(n)``) without materializing per-record keys.
    """

    array: TraceArray
    record_bytes: int = DEFAULT_RECORD_BYTES
    offset: int = 0

    @property
    def n_records(self) -> int:
        return len(self.array)

    def nbytes(self) -> int:
        return len(self.array) * self.record_bytes


@dataclass
class PagedPayload:
    """A payload stub whose contents live in a budgeted store until read.

    Under ``mapreduce.memory_budget_mb`` the namenode keeps chunk
    payloads in a :class:`~repro.mapreduce.spill.PayloadStore` that pages
    them to disk LRU-style; chunks then carry this stub instead of the
    data.  The stub answers every *metadata* question (record count,
    modelled bytes) from hints captured at write time — so scheduling and
    cost modelling never touch disk — and forwards *data* access through
    ``load`` (which rehydrates and re-pins the payload in the store).
    Holders of the stub must not cache the loaded payload beyond one
    task's processing, or the budget stops meaning anything.
    """

    load: Callable[[], "RecordPayload | ArrayPayload"]
    kind: str  # "records" or "array"
    n_records_hint: int
    nbytes_hint: int
    record_bytes: int = 0
    offset: int = 0

    @property
    def n_records(self) -> int:
        return self.n_records_hint

    def nbytes(self) -> int:
        return self.nbytes_hint

    def materialize(self) -> "RecordPayload | ArrayPayload":
        """The concrete payload (rehydrated from disk if paged out)."""
        return self.load()


def concrete_payload(
    payload: "RecordPayload | ArrayPayload | PagedPayload",
) -> "RecordPayload | ArrayPayload":
    """``payload`` with any paging indirection removed."""
    if isinstance(payload, PagedPayload):
        return payload.materialize()
    return payload


@dataclass
class Chunk:
    """One HDFS chunk: payload plus the metadata the control plane needs.

    ``replicas`` is the ordered list of datanode names holding a copy (the
    first entry is the "primary", written locally per the rack-aware
    policy); it is filled in by the namenode at write time.
    """

    chunk_id: str
    payload: RecordPayload | ArrayPayload | PagedPayload
    replicas: tuple[str, ...] = ()

    @property
    def n_records(self) -> int:
        return self.payload.n_records

    @property
    def nbytes(self) -> int:
        return self.payload.nbytes()

    def records(self) -> Iterator[tuple[Any, Any]]:
        """The chunk's ``(key, value)`` records; ``TypeError`` for a chunk
        of traces, which a mapper reads through :meth:`trace_array`."""
        payload = concrete_payload(self.payload)
        if not isinstance(payload, RecordPayload):
            raise TypeError(
                f"chunk {self.chunk_id} holds traces, not records: "
                "override Mapper.run and read chunk.trace_array()"
            )
        return iter(payload.records)

    def trace_array(self) -> TraceArray:
        """The chunk's traces as a columnar array (vectorized-mapper path);
        ``TypeError`` for a chunk of records."""
        payload = concrete_payload(self.payload)
        if not isinstance(payload, ArrayPayload):
            raise TypeError(f"chunk {self.chunk_id} does not hold traces")
        return payload.array

