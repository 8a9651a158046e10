"""Out-of-core execution: spill files, budgeted residency, external sort.

Hadoop runs datasets far larger than cluster RAM by keeping only a
bounded working set in memory and writing everything else to local disk:
map output spills as sorted runs when its in-memory buffer fills
(``io.sort.mb``), reducers merge the fetched runs from disk, and HDFS
itself is a disk-backed store.  This module gives the simulator the same
discipline under one knob, ``mapreduce.memory_budget_mb``:

* :class:`SpillDirectory` — a temp directory of spill files whose
  lifetime is tied to its owner (removed on ``cleanup()`` or GC);
* :class:`PayloadStore` — an LRU residency manager for HDFS chunk
  payloads: payloads page out to the spill directory when resident bytes
  exceed the budget and rehydrate transparently on read
  (:class:`~repro.mapreduce.types.PagedPayload` is the in-namespace stub);
* the **external-sort shuffle**: :class:`ShuffleSpiller` accumulates map
  output, cuts stably-sorted runs to disk whenever the in-flight buffer
  exceeds the budget, and :func:`merge_runs` k-way merges each reduce
  partition's segments back — reproducing the in-memory shuffle's
  stable-sort semantics byte for byte (see ``docs/PERFORMANCE.md``);
* worker-side map-output spill for the execution backends:
  :func:`spill_map_output` writes a task's output where the task ran, so
  the processes backend ships a tiny :class:`SpilledMapOutput` handle
  over IPC instead of the data itself.

Everything here is deliberately observable: :class:`SpillStats` counts
runs/pages/bytes, and the shuffle path records per-run and per-merge
facts as ``spill_start`` / ``spill_merge`` history payloads, whose
simulated IO charge the runner's cost model fills in.
"""

from __future__ import annotations

import heapq
import operator
import os
import pickle
import shutil
import tempfile
import threading
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.checks import positive
from repro.mapreduce.types import (
    ArrayPayload,
    PagedPayload,
    RecordPayload,
    estimate_nbytes,
)
from repro.observability.events import SpillMerge, SpillStart

__all__ = [
    "MB",
    "SpillStats",
    "SpillDirectory",
    "PayloadStore",
    "SpilledMapOutput",
    "SpilledPartition",
    "WorkerSpillSpec",
    "ShuffleSpiller",
    "SpillManager",
    "as_pairs",
    "as_groups",
    "resident_nbytes",
]

MB = 1024 * 1024

_PICKLE = pickle.HIGHEST_PROTOCOL


@dataclass
class SpillStats:
    """Counters of out-of-core activity (one instance per owner)."""

    runs_spilled: int = 0
    run_bytes: int = 0
    merges: int = 0
    merge_bytes: int = 0
    map_spills: int = 0
    map_spill_bytes: int = 0
    pages_out: int = 0
    page_out_bytes: int = 0
    pages_in: int = 0
    page_in_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


def _remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


class SpillDirectory:
    """A temp directory of spill files, removed when its owner is done.

    ``root=None`` creates a private ``mkdtemp``; an explicit root is
    created (and still removed on cleanup — the owner asked us to manage
    it).  A ``weakref.finalize`` guarantees removal even without an
    explicit :meth:`cleanup` call.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        if root is None:
            self.path = Path(tempfile.mkdtemp(prefix="repro-spill-"))
        else:
            self.path = Path(root)
            self.path.mkdir(parents=True, exist_ok=True)
        self._counter = 0
        self._finalizer = weakref.finalize(self, _remove_tree, str(self.path))

    def new_path(self, stem: str) -> Path:
        """A fresh, never-before-returned file path under the directory."""
        self._counter += 1
        return self.path / f"{stem}-{self._counter:06d}.spill"

    def cleanup(self) -> None:
        """Remove the directory and everything in it (idempotent)."""
        self._finalizer()


def resident_nbytes(payload: RecordPayload | ArrayPayload) -> int:
    """Actual in-memory footprint of a payload, for budget accounting.

    Modelled ``nbytes()`` prices records at their on-disk size; residency
    must instead charge what the payload occupies in RAM: the columnar
    buffer for arrays, the per-record estimate for record lists.
    """
    if isinstance(payload, ArrayPayload):
        return estimate_nbytes(payload.array)
    return payload.nbytes()


class PayloadStore:
    """LRU-pinned chunk-payload residency under a byte budget.

    The namenode registers every chunk payload here; the store keeps the
    most recently used payloads resident until their combined footprint
    exceeds the budget, then pages the least recently used ones out to
    the spill directory (one pickle file per chunk, written at most once
    — payloads are immutable, so a page-out after the first is free).
    Reads rehydrate transparently and re-pin the payload.  At least one
    payload stays resident regardless of budget, so a budget smaller
    than a single chunk degrades to "one chunk at a time" rather than
    thrashing to zero.  One lock covers ``put``, ``get`` and their
    paging: the threads backend reads chunks concurrently, and a re-pin
    or an eviction is a check-then-act on the shared LRU.
    """

    def __init__(
        self,
        budget_bytes: int,
        directory: SpillDirectory,
        stats: SpillStats | None = None,
    ):
        self.budget_bytes = int(positive("budget_bytes", budget_bytes))
        self.directory = directory
        self.stats = stats if stats is not None else SpillStats()
        self._resident: dict[str, RecordPayload | ArrayPayload] = {}
        self._resident_bytes = 0
        self._sizes: dict[str, int] = {}
        self._paged: dict[str, Path] = {}
        self._lock = threading.Lock()

    def put(self, chunk_id: str, payload: RecordPayload | ArrayPayload) -> None:
        size = resident_nbytes(payload)
        with self._lock:
            if chunk_id in self._sizes:
                raise ValueError(f"chunk {chunk_id} already registered")
            self._sizes[chunk_id] = size
            self._resident[chunk_id] = payload
            self._resident_bytes += size
            self._shrink()

    def get(self, chunk_id: str) -> RecordPayload | ArrayPayload:
        with self._lock:
            payload = self._resident.get(chunk_id)
            if payload is not None:
                # Re-pin: dicts iterate in insertion order, so re-inserting
                # moves the entry to the MRU end.
                del self._resident[chunk_id]
                self._resident[chunk_id] = payload
                return payload
            path = self._paged.get(chunk_id)
            if path is None:
                raise KeyError(f"unknown chunk {chunk_id}")
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            size = self._sizes[chunk_id]
            self.stats.pages_in += 1
            self.stats.page_in_bytes += size
            self._resident[chunk_id] = payload
            self._resident_bytes += size
            self._shrink()
            return payload

    def _shrink(self) -> None:
        """Page LRU payloads out until under budget (caller holds the lock).
        The payload just put or read is the MRU one, so it stays."""
        while self._resident_bytes > self.budget_bytes and len(self._resident) > 1:
            victim = next(iter(self._resident))  # LRU = oldest insertion
            payload = self._resident.pop(victim)
            size = self._sizes[victim]
            self._resident_bytes -= size
            if victim not in self._paged:
                path = self.directory.new_path(f"page-{victim}")
                with open(path, "wb") as fh:
                    pickle.dump(payload, fh, protocol=_PICKLE)
                self._paged[victim] = path
            self.stats.pages_out += 1
            self.stats.page_out_bytes += size

    def paged_stub(
        self, chunk_id: str, payload: RecordPayload | ArrayPayload
    ) -> PagedPayload:
        """A :class:`PagedPayload` for a payload registered under this store."""
        kind = "array" if isinstance(payload, ArrayPayload) else "records"
        return PagedPayload(
            load=_StoreLoader(self, chunk_id),
            kind=kind,
            n_records_hint=payload.n_records,
            nbytes_hint=payload.nbytes(),
            record_bytes=getattr(payload, "record_bytes", 0),
            offset=getattr(payload, "offset", 0),
        )


class _StoreLoader:
    """Picklable-by-refusal loader binding a chunk id to its store.

    A plain lambda would silently pickle (dragging the whole store along)
    if a paged chunk ever crossed a process boundary; this object makes
    that path an explicit error instead — the backends materialize
    payloads before shipping chunks (see ``ProcessBackend._chunk_ref``).
    """

    __slots__ = ("store", "chunk_id")

    def __init__(self, store: PayloadStore, chunk_id: str):
        self.store = store
        self.chunk_id = chunk_id

    def __call__(self) -> RecordPayload | ArrayPayload:
        return self.store.get(self.chunk_id)

    def __reduce__(self):
        raise pickle.PicklingError(
            f"paged chunk {self.chunk_id} cannot cross a process boundary; "
            "materialize the payload first (types.concrete_payload)"
        )


# -- worker-side map-output spill ---------------------------------------------


@dataclass(frozen=True)
class WorkerSpillSpec:
    """Instructions a task request carries: where and when to spill.

    Plain picklable data — the processes backend ships it to workers,
    which write spill files directly into ``directory`` (a shared local
    path) and return a :class:`SpilledMapOutput` handle instead of the
    output list itself.
    """

    directory: str
    threshold_bytes: int
    prefix: str = "job"


@dataclass(frozen=True)
class SpilledMapOutput:
    """Handle to one map task's output, spilled where the task ran."""

    path: str
    n_records: int
    nbytes: int

    def load(self) -> list[tuple[Any, Any]]:
        with open(self.path, "rb") as fh:
            return pickle.load(fh)

    def delete(self) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            pass


def spill_map_output(
    spec: WorkerSpillSpec,
    task_id: str,
    output: list[tuple[Any, Any]],
    output_nbytes: int,
) -> SpilledMapOutput:
    """Write one map task's output to the spill directory (worker-side)."""
    path = os.path.join(spec.directory, f"{spec.prefix}-{task_id}.mapout")
    with open(path, "wb") as fh:
        pickle.dump(output, fh, protocol=_PICKLE)
    return SpilledMapOutput(path, len(output), output_nbytes)


def as_pairs(output: Any) -> list[tuple[Any, Any]]:
    """A map task's output as a concrete pair list (loads spill handles)."""
    if isinstance(output, SpilledMapOutput):
        return output.load()
    return output


# -- external-sort shuffle -----------------------------------------------------


@dataclass(frozen=True)
class SpilledPartition:
    """Handle to one reduce partition's merged groups, resident on disk."""

    path: str
    n_groups: int
    n_records: int

    def load(self) -> list[tuple[Any, list[Any]]]:
        with open(self.path, "rb") as fh:
            return pickle.load(fh)

    def delete(self) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            pass


def as_groups(groups: Any) -> list[tuple[Any, list[Any]]]:
    """Reduce input as concrete groups (loads a spilled partition)."""
    if isinstance(groups, SpilledPartition):
        return groups.load()
    return groups


@dataclass
class _Run:
    """One spilled sorted run: per-partition segment index into a file.

    ``segments`` maps partition -> (file offset, records); each segment
    is an independently pickled list of ``(seq, key, value)`` triples in
    stable key order, where ``seq`` is the record's global arrival index
    (runs cover contiguous arrival windows, so stable k-way merging in
    run order reproduces arrival order within equal keys exactly).
    """

    path: Path
    segments: dict[int, tuple[int, int]]
    n_records: int
    nbytes: int

    def segment(self, partition: int) -> list[tuple[int, Any, Any]]:
        entry = self.segments.get(partition)
        if entry is None:
            return []
        offset, _ = entry
        with open(self.path, "rb") as fh:
            fh.seek(offset)
            return pickle.load(fh)

    def delete(self) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            pass


_key_of = operator.itemgetter(1)


def _sortable_with(kind: str | None, key: Any) -> str | None:
    """The key-stream kind after seeing ``key``, or ``None`` if the stream
    can no longer be externally sorted.

    External sorting needs one total order shared by the run sort, the
    k-way merge and the in-memory reference (`sorted`'s natural order).
    Real numbers (int/float/bool, NaN excluded) share one; strings
    another; anything else — or a mix — has no natural total order and
    the shuffle falls back to fully in-memory grouping.
    """
    if isinstance(key, (int, float)):
        if isinstance(key, float) and key != key:  # NaN
            return None
        new = "number"
    elif isinstance(key, str):
        new = "str"
    else:
        return None
    if kind is None or kind == new:
        return new
    return None


class ShuffleSpiller:
    """External-sort sink for the shuffle's routed map-output stream.

    Feed each map task's records in task order, already routed and sized
    by the shuffle's routing stage; whenever the in-flight buffer's bytes
    exceed the budget, the buffer is stably sorted by key and written as
    one run (per-partition pickled segments).  After the last task,
    either :meth:`merge` k-way merges every partition's segments into
    grouped reduce input, spilled per partition, or — no run was cut, or
    the keys cannot be stream-merged — :meth:`drain` hands the routed
    records back for in-memory grouping.

    Byte-for-byte equivalence with the in-memory shuffle holds because
    (a) runs cover contiguous arrival windows and are each stably
    sorted, (b) ``heapq.merge`` is stable across its inputs in run
    order, and (c) key-equality-implies-adjacency after sorting makes
    adjacent-run grouping identical to dict grouping.  Key streams
    without a shared natural total order (mixed str/number, NaN, exotic
    types) cannot be stream-merged; :attr:`disabled` flips on, no further
    run is cut, and ``drain`` restores exact arrival order from the
    spilled ``seq`` indices.
    """

    def __init__(
        self,
        budget_bytes: int,
        directory: SpillDirectory,
        n_reducers: int,
        stats: SpillStats,
        stem: str = "shuffle",
    ):
        self.budget_bytes = int(budget_bytes)
        self.directory = directory
        self.n_reducers = n_reducers
        self.stats = stats
        self.stem = stem
        self.runs: list[_Run] = []
        #: One ``spill_start`` per cut run, ``write_s`` not yet priced.
        self.run_events: list[SpillStart] = []
        self.disabled = False
        self._buffer: list[tuple[int, Any, Any]] = []
        self._buffer_bytes = 0
        self._parts: list[int] = []
        self._seq = 0
        self._kind: str | None = None
        self.partition_bytes = [0] * n_reducers

    def feed(self, routed: Iterable[tuple[int, int, Any, Any]]) -> None:
        """Buffer one map task's ``(partition, bytes, key, value)`` records;
        cut a run if over budget."""
        for part, nbytes, key, value in routed:
            self.partition_bytes[part] += nbytes
            self._buffer.append((self._seq, key, value))
            self._parts.append(part)
            self._buffer_bytes += nbytes
            self._seq += 1
            if not self.disabled:
                self._kind = _sortable_with(self._kind, key)
                if self._kind is None:
                    self.disabled = True
        if not self.disabled and self._buffer_bytes > self.budget_bytes:
            self._cut_run()

    def _cut_run(self) -> None:
        order = sorted(range(len(self._buffer)),
                       key=lambda i: _key_of(self._buffer[i]))
        # `sorted` is stable and the buffer is in arrival (seq) order, so
        # equal keys stay in arrival order within the run.
        by_part: dict[int, list[tuple[int, Any, Any]]] = {}
        for i in order:
            by_part.setdefault(self._parts[i], []).append(self._buffer[i])
        path = self.directory.new_path(self.stem)
        segments: dict[int, tuple[int, int]] = {}
        with open(path, "wb") as fh:
            for part in sorted(by_part):
                offset = fh.tell()
                pickle.dump(by_part[part], fh, protocol=_PICKLE)
                segments[part] = (offset, len(by_part[part]))
        run = _Run(path, segments, len(self._buffer), self._buffer_bytes)
        self.runs.append(run)
        self.stats.runs_spilled += 1
        self.stats.run_bytes += run.nbytes
        self.run_events.append(SpillStart(
            source="shuffle", run=len(self.runs) - 1, records=run.n_records,
            bytes=run.nbytes, write_s=0.0,
        ))
        self._buffer, self._parts, self._buffer_bytes = [], [], 0

    def spilled(self) -> bool:
        return bool(self.runs)

    def finish(self) -> None:
        """Flush the trailing buffer as the final run (only if spilling)."""
        if self.runs and not self.disabled and self._buffer:
            self._cut_run()

    def drain(self) -> list[list[tuple[Any, Any]]]:
        """Every fed record, per partition in arrival order (in-memory sink).

        Used when no run was cut — the buffer is simply handed over —
        and when the key stream turned out not to be externally sortable
        after runs were already cut: those are reloaded, and ``seq``
        indices restore arrival order across the sorted runs.
        """
        by_part: list[list[tuple[int, Any, Any]]] = [
            [] for _ in range(self.n_reducers)
        ]
        for run in self.runs:
            for part in run.segments:
                by_part[part].extend(run.segment(part))
            run.delete()
        self.runs = []
        for part, triple in zip(self._parts, self._buffer):
            by_part[part].append(triple)
        self._buffer, self._parts, self._buffer_bytes = [], [], 0
        for triples in by_part:
            triples.sort(key=operator.itemgetter(0))
        return [[(k, v) for _, k, v in triples] for triples in by_part]

    def merge(self) -> tuple[list[SpilledPartition], list[SpillMerge]]:
        """K-way merge every partition's run segments into grouped input.

        Returns per-partition :class:`SpilledPartition` handles plus one
        ``spill_merge`` payload per partition (``read_s`` not yet priced).
        Run files are deleted once merged; each partition's groups live in
        their own spill file until the reduce task (possibly in a worker
        process) loads them.
        """
        partitions: list[SpilledPartition] = []
        merge_events: list[SpillMerge] = []
        for part in range(self.n_reducers):
            streams = [run.segment(part) for run in self.runs]
            merged = heapq.merge(*streams, key=_key_of)
            groups: list[tuple[Any, list[Any]]] = []
            last_key: Any = None
            have_last = False
            n_records = 0
            for _, key, value in merged:
                n_records += 1
                if have_last and key == last_key:
                    groups[-1][1].append(value)
                else:
                    groups.append((key, [value]))
                    last_key, have_last = key, True
            path = self.directory.new_path(f"{self.stem}-part{part:04d}")
            with open(path, "wb") as fh:
                pickle.dump(groups, fh, protocol=_PICKLE)
            handle = SpilledPartition(str(path), len(groups), n_records)
            partitions.append(handle)
            self.stats.merges += 1
            self.stats.merge_bytes += self.partition_bytes[part]
            merge_events.append(SpillMerge(
                runs=sum(1 for s in streams if s), records=n_records, groups=len(groups),
                bytes=self.partition_bytes[part], read_s=0.0,
            ))
        for run in self.runs:
            run.delete()
        self.runs = []
        return partitions, merge_events


# -- per-runner coordination ---------------------------------------------------


class SpillManager:
    """One runner's out-of-core state: budget, spill dir, stats, job seq."""

    def __init__(self, budget_bytes: int, root: str | os.PathLike | None = None):
        self.budget_bytes = int(positive("budget_bytes", budget_bytes))
        self.directory = SpillDirectory(root)
        self.stats = SpillStats()
        self._job_seq = 0

    def next_job(self) -> int:
        self._job_seq += 1
        return self._job_seq

    def worker_spec(self, job_seq: int) -> WorkerSpillSpec:
        return WorkerSpillSpec(
            directory=str(self.directory.path),
            threshold_bytes=self.budget_bytes,
            prefix=f"j{job_seq:04d}",
        )

    def shuffle_spiller(self, job_seq: int, n_reducers: int) -> ShuffleSpiller:
        return ShuffleSpiller(
            self.budget_bytes,
            self.directory,
            n_reducers,
            self.stats,
            stem=f"j{job_seq:04d}-shuffle",
        )

    def close(self) -> None:
        self.directory.cleanup()
