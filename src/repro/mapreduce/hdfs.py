"""Simulated HDFS: chunked files, namenode metadata, rack-aware replicas.

Files are split into chunks of at most ``chunk_size`` modelled bytes
(64 MB by default, parametrable — the paper sweeps 32 vs 64 MB).  Replica
placement follows the policy described in Section III: the first copy is
written "locally" (on the writer's datanode), the second on a datanode in
the same rack, and the third on a datanode of a different rack chosen at
random.  The namenode keeps the file → chunks and chunk → datanodes maps
that the jobtracker later uses for locality-aware scheduling, and handles
datanode loss by serving the surviving replicas.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Sequence

import numpy as np

from repro.checks import count, positive
from repro.geo.trace import TraceArray
from repro.mapreduce.cluster import ClusterSpec
from repro.mapreduce.spill import PayloadStore, SpillDirectory, SpillStats
from repro.mapreduce.types import (
    ArrayPayload,
    Chunk,
    DEFAULT_RECORD_BYTES,
    RecordPayload,
    concrete_payload,
    estimate_nbytes,
)

__all__ = ["SimulatedHDFS", "MB"]

MB = 1024 * 1024


class SimulatedHDFS:
    """An in-memory stand-in for the Hadoop Distributed File System."""

    def __init__(
        self,
        cluster: ClusterSpec,
        chunk_size: int = 64 * MB,
        replication: int = 3,
        seed: int = 0,
        memory_budget_mb: float | None = None,
        spill_root: str | None = None,
    ):
        """``memory_budget_mb`` caps the chunk payloads kept resident in
        RAM: beyond it, least-recently-used payloads page out to a spill
        directory (``spill_root``, or a private temp dir) and rehydrate
        transparently on read — the disk-backed chunk store that lets a
        file exceed this machine's memory.  ``None`` keeps everything
        resident, the historical behaviour."""
        positive("chunk_size", chunk_size)
        count("replication", replication, 1)
        if memory_budget_mb is not None:
            positive("memory_budget_mb", memory_budget_mb)
        self.cluster = cluster
        self.chunk_size = chunk_size
        self.replication = replication
        self.memory_budget_mb = memory_budget_mb
        self._rng = np.random.default_rng(seed)
        self._files: dict[str, list[Chunk]] = {}
        self._versions: dict[str, int] = {}
        self._version_counter = itertools.count(1)
        self._dead_nodes: set[str] = set()
        self._chunk_counter = itertools.count()
        self._store: PayloadStore | None = None
        if memory_budget_mb is not None:
            self._store = PayloadStore(
                int(memory_budget_mb * MB), SpillDirectory(spill_root)
            )

    @property
    def spill_stats(self) -> SpillStats | None:
        """Paging counters of the budgeted chunk store (``None`` when
        running without a memory budget)."""
        return self._store.stats if self._store is not None else None

    # -- replica placement -------------------------------------------------
    def _alive_datanodes(self) -> list[str]:
        return [
            n.name
            for n in self.cluster.datanodes()
            if n.name not in self._dead_nodes
        ]

    def _place_replicas(self, writer: str | None) -> tuple[str, ...]:
        """Rack-aware replica placement (local / same-rack / other-rack)."""
        alive = self._alive_datanodes()
        if not alive:
            raise RuntimeError("no alive datanodes to place replicas on")
        if writer is None or writer not in alive:
            writer = alive[int(self._rng.integers(0, len(alive)))]
        placed = [writer]
        writer_rack = self.cluster.rack_of(writer)
        same_rack = [n for n in alive if n != writer and self.cluster.rack_of(n) == writer_rack]
        other_rack = [n for n in alive if self.cluster.rack_of(n) != writer_rack]
        if len(placed) < self.replication and same_rack:
            placed.append(same_rack[int(self._rng.integers(0, len(same_rack)))])
        if len(placed) < self.replication and other_rack:
            placed.append(other_rack[int(self._rng.integers(0, len(other_rack)))])
        # Fill any remaining replicas from whoever is left, at random.
        remaining = [n for n in alive if n not in placed]
        while len(placed) < self.replication and remaining:
            pick = int(self._rng.integers(0, len(remaining)))
            placed.append(remaining.pop(pick))
        return tuple(placed)

    # -- writes ------------------------------------------------------------
    def _new_chunk(self, payload: RecordPayload | ArrayPayload, writer: str | None) -> Chunk:
        cid = f"chunk-{next(self._chunk_counter):06d}"
        if self._store is not None:
            # Budgeted mode: the store owns residency; the chunk carries a
            # stub that answers metadata from hints and pages data in on
            # demand.  Registering may immediately page older payloads out.
            self._store.put(cid, payload)
            payload = self._store.paged_stub(cid, payload)
        return Chunk(cid, payload, replicas=self._place_replicas(writer))

    def put_records(
        self,
        path: str,
        records: Iterable[tuple[Any, Any]],
        writer: str | None = None,
        record_bytes: int | None = None,
    ) -> None:
        """Write key/value records as a chunked file.

        ``record_bytes`` overrides per-record size estimation with a flat
        modelled size (useful to control chunking deterministically).
        """
        self._check_absent(path)
        chunks: list[Chunk] = []
        current: list[tuple[Any, Any]] = []
        used = 0
        # A flat ``record_bytes`` only steers chunking; the running sum is
        # the payload's modelled size only when it sums the estimates.
        estimated = record_bytes is None
        for key, value in records:
            size = record_bytes if record_bytes is not None else (
                estimate_nbytes(key) + estimate_nbytes(value)
            )
            if current and used + size > self.chunk_size:
                payload = RecordPayload(current, used if estimated else None)
                chunks.append(self._new_chunk(payload, writer))
                current, used = [], 0
            current.append((key, value))
            used += size
        if current:
            payload = RecordPayload(current, used if estimated else None)
            chunks.append(self._new_chunk(payload, writer))
        self._commit(path, chunks)

    def put_trace_array(
        self,
        path: str,
        array: TraceArray,
        writer: str | None = None,
        record_bytes: int = DEFAULT_RECORD_BYTES,
    ) -> None:
        """Write a columnar trace array, chunked by modelled bytes.

        With the default 64-byte record model, 64 MB chunks hold ~1 M
        traces — matching the paper's 128 MB / 2,033,686-trace dataset.
        """
        self._check_absent(path)
        per_chunk = max(1, self.chunk_size // record_bytes)
        chunks = []
        for start in range(0, max(len(array), 1), per_chunk):
            piece = array[start : start + per_chunk]
            chunks.append(
                self._new_chunk(ArrayPayload(piece, record_bytes, offset=start), writer)
            )
        self._commit(path, chunks)

    def put_trace_stream(
        self,
        path: str,
        arrays: Iterable[TraceArray],
        writer: str | None = None,
        record_bytes: int = DEFAULT_RECORD_BYTES,
    ) -> int:
        """Write a *stream* of trace-array pieces as one chunked file.

        The out-of-core ingestion path: pieces (e.g. one PLT trajectory
        each, from :func:`repro.geo.geolife.stream_geolife_trails`) are
        re-chunked to ``chunk_size`` as they arrive, and under a memory
        budget each completed chunk can page straight out to disk — so
        neither the corpus nor more than ~one chunk of it is ever
        resident.  Chunk boundaries and offsets match what
        :meth:`put_trace_array` would produce for the concatenated
        stream.  Returns the number of traces written.
        """
        self._check_absent(path)
        per_chunk = max(1, self.chunk_size // record_bytes)
        chunks: list[Chunk] = []
        pending: list[TraceArray] = []
        pending_rows = 0
        offset = 0

        def cut(piece_rows: int) -> int:
            nonlocal pending, pending_rows, offset
            merged = TraceArray.concatenate(pending)
            start = 0
            while len(merged) - start >= piece_rows:
                # Copy the slice so the chunk owns its rows — a view would
                # pin the whole merged buffer and defeat paging.
                piece = merged[start : start + piece_rows].compact()
                chunks.append(
                    self._new_chunk(
                        ArrayPayload(piece, record_bytes, offset=offset), writer
                    )
                )
                offset += len(piece)
                start += piece_rows
            pending = [merged[start:].compact()] if start < len(merged) else []
            pending_rows = len(merged) - start
            return start

        for array in arrays:
            if len(array) == 0:
                continue
            pending.append(array)
            pending_rows += len(array)
            if pending_rows >= per_chunk:
                cut(per_chunk)
        if pending_rows or not chunks:
            merged = TraceArray.concatenate(pending) if pending else TraceArray.empty()
            chunks.append(
                self._new_chunk(
                    ArrayPayload(merged, record_bytes, offset=offset), writer
                )
            )
            offset += len(merged)
        self._commit(path, chunks)
        return offset

    def put_chunks(self, path: str, payloads: Sequence[RecordPayload | ArrayPayload], writer: str | None = None) -> None:
        """Write pre-chunked payloads (used by the runner for job output)."""
        self._check_absent(path)
        self._commit(path, [self._new_chunk(p, writer) for p in payloads])

    def _check_absent(self, path: str) -> None:
        if path in self._files:
            raise FileExistsError(f"HDFS path already exists: {path}")

    def _commit(self, path: str, chunks: list[Chunk]) -> None:
        """Install a file's chunks and stamp its namenode version."""
        self._files[path] = chunks
        self._versions[path] = next(self._version_counter)

    # -- reads -------------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    def ls(self) -> list[str]:
        return sorted(self._files)

    def _readable(self, path: str, chunk: Chunk) -> Chunk:
        alive = tuple(r for r in chunk.replicas if r not in self._dead_nodes)
        if not alive:
            raise IOError(f"chunk {chunk.chunk_id} of {path} lost all replicas")
        return Chunk(chunk.chunk_id, chunk.payload, alive)

    def chunks(self, path: str) -> list[Chunk]:
        """Readable chunks of a file; raises if any chunk lost all replicas."""
        if path not in self._files:
            raise FileNotFoundError(f"HDFS path not found: {path}")
        return [self._readable(path, chunk) for chunk in self._files[path]]

    def chunk(self, path: str, ordinal: int) -> Chunk:
        """``chunks(path)[ordinal]`` without listing the file: O(1),
        ``IndexError`` past either end, and only *this* chunk's replicas
        decide whether the read fails."""
        if path not in self._files:
            raise FileNotFoundError(f"HDFS path not found: {path}")
        stored = self._files[path]
        if not 0 <= ordinal < len(stored):
            raise IndexError(f"{path} has no chunk {ordinal} (of {len(stored)})")
        return self._readable(path, stored[ordinal])

    def read_records(self, path: str) -> list[tuple[Any, Any]]:
        """All records of a file, chunk order preserved."""
        return [rec for chunk in self.chunks(path) for rec in chunk.records()]

    def read_trace_array(self, path: str) -> TraceArray:
        """All traces of a file as one columnar array."""
        arrays = [chunk.trace_array() for chunk in self.chunks(path)]
        return TraceArray.concatenate(arrays)

    def file_nbytes(self, path: str) -> int:
        return sum(c.nbytes for c in self.chunks(path))

    def file_records(self, path: str) -> int:
        return sum(c.n_records for c in self.chunks(path))

    def version(self, path: str) -> int:
        """The file's namenode mutation stamp.

        A globally monotonic counter assigned at every write: two paths
        (or the same path across delete/re-create cycles) share a version
        only if they are literally the same committed write.  This is the
        "dataset version" half of the service-layer result-cache key — a
        job resubmitted against a rewritten input must miss.
        """
        if path not in self._files:
            raise FileNotFoundError(f"HDFS path not found: {path}")
        return self._versions[path]

    # -- mutation ------------------------------------------------------------
    def delete(self, path: str, missing_ok: bool = False) -> None:
        if path in self._files:
            del self._files[path]
            del self._versions[path]
        elif not missing_ok:
            raise FileNotFoundError(f"HDFS path not found: {path}")

    def copy(self, src: str, dst: str, writer: str | None = None) -> int:
        """Server-side copy: clone ``src``'s chunks under a new path.

        Chunk boundaries and payload contents are preserved exactly (the
        result cache relies on a cache-hit output being byte-identical to
        the original job's output); chunk ids and replica placements are
        fresh, like any other write.  Returns the modelled bytes copied.
        Payloads are materialized one chunk at a time, so budgeted
        deployments stay within ~one chunk of extra residency.
        """
        source = self.chunks(src)
        self._check_absent(dst)
        chunks = [
            self._new_chunk(concrete_payload(c.payload), writer) for c in source
        ]
        self._commit(dst, chunks)
        return sum(c.nbytes for c in chunks)

    # -- failures ------------------------------------------------------------
    def kill_datanode(self, node_name: str) -> None:
        """Mark a datanode dead; its replicas become unreadable."""
        if node_name not in {n.name for n in self.cluster.datanodes()}:
            raise KeyError(f"not a datanode: {node_name}")
        self._dead_nodes.add(node_name)

    def heal_report(self) -> list[tuple[str, str, int]]:
        """Re-replicate under-replicated chunks onto alive datanodes.

        Models the namenode's background re-replication after datanode
        loss: every chunk with fewer than ``replication`` alive replicas
        (but at least one) gains copies on alive nodes, preferring nodes
        on a different rack than the surviving replicas; chunks with zero
        alive replicas are left as-is (data loss — surfaced on the next
        read).  Returns one ``(chunk_id, node, nbytes)`` per new replica:
        the detail the chaos recovery path charges to the cost model and
        emits as ``replica_healed`` events."""
        alive = set(self._alive_datanodes())
        created: list[tuple[str, str, int]] = []
        for path, chunks in self._files.items():
            for i, chunk in enumerate(chunks):
                surviving = [r for r in chunk.replicas if r in alive]
                if not surviving or len(surviving) >= self.replication:
                    continue
                surviving_racks = {self.cluster.rack_of(r) for r in surviving}
                candidates = sorted(
                    alive - set(surviving),
                    key=lambda n: (self.cluster.rack_of(n) in surviving_racks, n),
                )
                while len(surviving) < self.replication and candidates:
                    pick = candidates.pop(0)
                    surviving.append(pick)
                    created.append((chunk.chunk_id, pick, chunk.nbytes))
                chunks[i] = Chunk(chunk.chunk_id, chunk.payload, tuple(surviving))
        return created

    @property
    def dead_nodes(self) -> frozenset[str]:
        return frozenset(self._dead_nodes)

    def replica_report(self, path: str) -> dict[str, tuple[str, ...]]:
        """chunk_id -> replica nodes, for replication-policy tests."""
        if path not in self._files:
            raise FileNotFoundError(f"HDFS path not found: {path}")
        return {c.chunk_id: c.replicas for c in self._files[path]}
