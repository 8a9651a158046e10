"""Mapper / Reducer / Partitioner base classes and the job description.

A MapReduce application on this substrate mirrors the Hadoop structure the
paper describes in Section IV: the developer supplies a *Mapper* class, a
*Reducer* class (optional — sampling and the DJ-Cluster preprocessing are
map-only, and a declared aggregation is its own reduce), optionally a
*Combiner* (a reducer run on each mapper's local output, as in the
k-means shuffle-volume optimization), and a *driver*
— here the declarative :class:`JobSpec` consumed by
:class:`~repro.mapreduce.runner.JobRunner`.

A map **task** processes one HDFS chunk.  The default ``run`` iterates the
chunk's records and calls ``map(key, value, ctx)`` per record, exactly like
Hadoop; vectorized mappers override ``run`` and process the chunk's
columnar :class:`~repro.geo.trace.TraceArray` in one NumPy pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.geo.trace import TraceArray
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.config import Configuration
from repro.mapreduce.counters import Counters
from repro.mapreduce.types import Chunk, DEFAULT_RECORD_BYTES, estimate_nbytes

__all__ = [
    "MapContext",
    "ReduceContext",
    "Mapper",
    "Reducer",
    "Partitioner",
    "HashPartitioner",
    "ConstantKeyPartitioner",
    "JobSpec",
    "ARRAY_OUTPUT_KEY",
]

#: Sentinel key marking a vectorized array emission (see MapContext.emit_array).
ARRAY_OUTPUT_KEY = "__trace_array__"


class _Context:
    """Shared plumbing between map and reduce contexts."""

    def __init__(
        self,
        conf: Configuration,
        counters: Counters,
        cache: DistributedCache,
        task_id: str,
        node: str,
    ):
        self.conf = conf
        self.counters = counters
        self.cache = cache
        self.task_id = task_id
        self.node = node
        self.output: list[tuple[Any, Any]] = []
        self.output_records = 0
        self.output_nbytes = 0

    def emit(self, key: Any, value: Any, nbytes: int | None = None, n_records: int = 1) -> None:
        """Emit an intermediate/output record.

        ``nbytes`` lets vectorized callers skip per-record size estimation;
        ``n_records`` lets a single block emission count as many logical
        records (for counter fidelity).
        """
        self.output.append((key, value))
        self.output_records += n_records
        self.output_nbytes += (
            nbytes if nbytes is not None else estimate_nbytes(key) + estimate_nbytes(value)
        )

    def emit_array(self, array: TraceArray, record_bytes: int = DEFAULT_RECORD_BYTES) -> None:
        """Emit a columnar block of traces as output.

        Used by map-only vectorized jobs (sampling, DJ preprocessing): the
        runner recognizes the sentinel key and writes array-payload chunks,
        so downstream jobs keep the columnar fast path.
        """
        self.emit(
            ARRAY_OUTPUT_KEY,
            array,
            nbytes=len(array) * record_bytes,
            n_records=len(array),
        )


class MapContext(_Context):
    """Context handed to mapper ``setup``/``map``/``run``/``cleanup``."""


class ReduceContext(_Context):
    """Context handed to reducer ``setup``/``reduce``/``cleanup``."""


class Mapper:
    """Base mapper.  Subclasses implement ``map`` or override ``run``."""

    def setup(self, ctx: MapContext) -> None:
        """Called once per task before any record (loads cache entries)."""

    def run(self, chunk: Chunk, ctx: MapContext) -> None:
        """Process one chunk.  Default: record-at-a-time ``map`` calls."""
        for key, value in chunk.records():
            self.map(key, value, ctx)

    def map(self, key: Any, value: Any, ctx: MapContext) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} must implement map() or override run()"
        )

    def cleanup(self, ctx: MapContext) -> None:
        """Called once per task after the last record."""


class Reducer:
    """Base reducer (also usable as a combiner)."""

    def setup(self, ctx: ReduceContext) -> None:
        """Called once per reduce task before the first key group."""

    def run(self, groups: Iterable[tuple[Any, list[Any]]], ctx: ReduceContext) -> None:
        for key, values in groups:
            self.reduce(key, values, ctx)

    def reduce(self, key: Any, values: list[Any], ctx: ReduceContext) -> None:
        raise NotImplementedError(f"{type(self).__name__} must implement reduce()")

    def cleanup(self, ctx: ReduceContext) -> None:
        """Called once per reduce task after the last key group."""


class Partitioner:
    """Routes an intermediate key to one of ``n_reducers`` partitions."""

    def partition(self, key: Any, n_reducers: int) -> int:
        raise NotImplementedError


class HashPartitioner(Partitioner):
    """Hadoop's default: stable hash of the key modulo reducer count.

    Uses a deterministic hash (not Python's randomized ``hash``) so runs
    are reproducible across processes.
    """

    @staticmethod
    def _stable_hash(key: Any) -> int:
        data = repr(key).encode("utf-8", errors="replace")
        h = 2166136261  # FNV-1a 32-bit
        for byte in data:
            h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
        return h

    def partition(self, key: Any, n_reducers: int) -> int:
        if n_reducers <= 0:
            raise ValueError("n_reducers must be positive")
        return self._stable_hash(key) % n_reducers


class ConstantKeyPartitioner(Partitioner):
    """Sends every key to partition 0 (the DJ-Cluster single-reducer merge)."""

    def partition(self, key: Any, n_reducers: int) -> int:
        return 0


def _as_factory(obj) -> Callable[[], Any]:
    """Accept a class or a zero-arg callable; return an instance factory."""
    if obj is None:
        return None
    if isinstance(obj, type):
        return obj
    if callable(obj):
        return obj
    raise TypeError(f"expected a class or factory callable, got {obj!r}")


@dataclass
class JobSpec:
    """Declarative description of one MapReduce job (the Hadoop *driver*).

    Parameters
    ----------
    name:
        Job name, used in task ids and reports.
    mapper:
        Mapper class (or zero-arg factory).  One fresh instance per task.
    reducer:
        Reducer class/factory.  ``None`` with no ``aggregation`` either
        makes a map-only job (sampling, DJ-Cluster preprocessing).
    combiner:
        Optional reducer class/factory applied to each map task's local
        output before the shuffle.
    aggregation:
        Optional :class:`~repro.mapreduce.aggregation.Aggregation`
        (class or instance) declaring the reduce as an associative
        monoid.  The declaration is the decision: map output is folded
        into fixed-size aggregate envelopes where the task ran (in place
        of any ``combiner``), the envelopes cross the metadata-only
        shuffle, and the reduce *is* the monoid's fold and ``finalize``
        — a ``reducer`` is neither needed nor consulted.
    input_paths:
        HDFS paths whose chunks feed the map phase.
    output_path:
        HDFS path the job writes (must not already exist, as in Hadoop).
    conf:
        Job configuration visible to all tasks.
    num_reducers:
        Reduce-task count (ignored for map-only jobs).
    partitioner:
        Intermediate-key router; defaults to :class:`HashPartitioner`.
    map_cost_factor / reduce_cost_factor:
        Relative per-byte compute weights consumed by the cost model —
        e.g. a Haversine k-means mapper is ~3x a squared-Euclidean one.
    """

    name: str
    mapper: Any
    input_paths: Sequence[str]
    output_path: str
    reducer: Any = None
    combiner: Any = None
    aggregation: Any = None
    conf: Configuration = field(default_factory=Configuration)
    num_reducers: int = 1
    partitioner: Partitioner = field(default_factory=HashPartitioner)
    map_cost_factor: float = 1.0
    reduce_cost_factor: float = 1.0

    def __post_init__(self) -> None:
        if not self.input_paths:
            raise ValueError(f"job {self.name!r} has no input paths")
        if self.num_reducers < 1:
            raise ValueError("num_reducers must be >= 1")
        self.mapper = _as_factory(self.mapper)
        self.reducer = _as_factory(self.reducer)
        self.combiner = _as_factory(self.combiner)
        if isinstance(self.aggregation, type):
            self.aggregation = self.aggregation()
        if self.combiner is not None and self.map_only:
            raise ValueError("a combiner requires a reduce phase")

    @property
    def map_only(self) -> bool:
        return self.reducer is None and self.aggregation is None
