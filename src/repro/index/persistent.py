"""Persistent disk-backed R-tree pages in SimulatedHDFS + a serving path.

The paper's Figure-6 pipeline builds a global R-tree with MapReduce, but
the merged index only ever lived in driver memory: every analysis paid
the build again.  This module makes the index a first-class HDFS
artifact and puts a query path in front of it:

* **Node pages** — every tree node serializes to one checksummed block
  (``RTP1`` magic + CRC-32 + a fixed little-endian body), DFS-numbered
  with the root at page 0.  Pages are grouped into HDFS chunks, so under
  ``mapreduce.memory_budget_mb`` they ride the PR-4 ``PayloadStore``
  LRU: a million-point index serves queries while only the touched page
  groups are resident.
* :class:`PersistentRTree` — save/open of a bulk-loaded
  :class:`~repro.index.rtree.RTree`.  Opening builds a *facade* tree
  whose node handles are page ids, decoded once per visit; the facade
  runs ``RTree``'s own traversal code, so every answer (including kNN
  tie order) is byte-identical to the in-memory tree.
* :class:`IndexCatalog` — a namenode-side registry keyed by (dataset
  version, build parameters): ``ensure`` answers repeat builds with a
  zero-job catalog hit and records ``index_publish`` /
  ``index_reuse`` history events.
* :class:`QueryEngine` — point / range / radius / kNN serving with
  per-query simulated latency (dispatch + page-fault read time from the
  cost model) and ``query_served`` history events; no map task ever
  launches.
* :class:`PortableIndex` — a picklable, self-contained page set that
  crosses process-pool boundaries (paged chunks refuse to pickle), used
  to broadcast the shared index to DJ-Cluster's neighborhood mappers.

Corruption never produces garbage answers: a truncated block, a bad
checksum, or a missing catalog entry raises :class:`IndexCorruptError`.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, TYPE_CHECKING

import numpy as np

from repro.checks import finite, positive
from repro.index.rtree import DEFAULT_MAX_ENTRIES, NodeView, Rect, RTree
from repro.index.spacefilling import DEFAULT_ORDER
from repro.mapreduce.simtime import CostModel
from repro.mapreduce.types import RecordPayload, concrete_payload
from repro.observability.events import IndexPublish, IndexReuse, QueryServed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.hdfs import SimulatedHDFS
    from repro.mapreduce.runner import JobRunner
    from repro.observability.history import JobHistory

__all__ = [
    "IndexCorruptError",
    "PersistentRTree",
    "PortableIndex",
    "IndexCatalog",
    "CatalogEntry",
    "QueryEngine",
    "QUERY_DISPATCH_S",
    "INDEX_ROOT",
    "DEFAULT_PAGE_GROUP_BYTES",
]

#: Magic prefix of every serialized node page (version 1 of the format).
PAGE_MAGIC = b"RTP1"

#: Fixed header: magic + CRC-32 of the body.
_HEADER = struct.Struct("<4sI")

#: Body prefix: is_leaf flag + entry count, then the node MBR (4 f64).
_BODY_PREFIX = struct.Struct("<BI")

_MBR_BYTES = 4 * 8
_LEAF_ENTRY_BYTES = 8 + 16  # int64 id + (lat, lon) float64
_CHILD_ENTRY_BYTES = 8 + 32  # int64 page id + child MBR (4 f64)

#: Modelled bytes per page-group chunk.  Small groups (vs the 64 MB data
#: chunks) are what make the LRU useful: an 8 MB budget holds the hot
#: ~32 groups of a million-point index instead of thrashing whole files.
DEFAULT_PAGE_GROUP_BYTES = 256 * 1024

#: HDFS prefix under which the catalog stores its indexes.
INDEX_ROOT = ".index"

#: Simulated seconds to dispatch one query to the serving path (no job
#: setup, no map wave — the whole point of serving from a persisted
#: index).  Page faults add ``CostModel.spill_read_time`` on top.
QUERY_DISPATCH_S = 1e-3


class IndexCorruptError(RuntimeError):
    """A persisted index page or catalog entry failed validation."""


# -- page codec -------------------------------------------------------------


def _encode_page(is_leaf: bool, mbr: np.ndarray, keys, rows: np.ndarray) -> bytes:
    """One node block: a leaf's ids and points, or a parent's child page
    ids and child MBRs, after the node's own MBR."""
    body = (
        _BODY_PREFIX.pack(is_leaf, len(keys))
        + np.ascontiguousarray(mbr, dtype="<f8").tobytes()
        + np.ascontiguousarray(keys, dtype="<i8").tobytes()
        + np.ascontiguousarray(rows, dtype="<f8").tobytes()
    )
    return _HEADER.pack(PAGE_MAGIC, zlib.crc32(body) & 0xFFFFFFFF) + body


def decode_page(blob: bytes, page_id: int) -> NodeView:
    """Decode one node block, raising :class:`IndexCorruptError` on a
    short read, bad magic, checksum mismatch or inconsistent length.  Its
    ``children`` are the child page ids."""
    if len(blob) < _HEADER.size + _BODY_PREFIX.size + _MBR_BYTES:
        raise IndexCorruptError(
            f"page {page_id}: truncated block ({len(blob)} bytes)"
        )
    magic, crc = _HEADER.unpack_from(blob, 0)
    if magic != PAGE_MAGIC:
        raise IndexCorruptError(f"page {page_id}: bad magic {magic!r}")
    body = blob[_HEADER.size :]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise IndexCorruptError(f"page {page_id}: checksum mismatch")
    is_leaf, n = _BODY_PREFIX.unpack_from(body, 0)
    offset = _BODY_PREFIX.size
    mbr = np.frombuffer(body[offset : offset + _MBR_BYTES], dtype="<f8")
    offset += _MBR_BYTES
    per_entry = _LEAF_ENTRY_BYTES if is_leaf else _CHILD_ENTRY_BYTES
    if len(body) != offset + n * per_entry:
        raise IndexCorruptError(
            f"page {page_id}: body length {len(body)} does not match "
            f"{n} entries"
        )
    keys = np.frombuffer(body[offset : offset + 8 * n], dtype="<i8")
    if is_leaf:
        points = np.frombuffer(body[offset + 8 * n :], dtype="<f8").reshape(n, 2)
        return NodeView(True, mbr, ids=keys, points=points)
    child_mbrs = np.frombuffer(body[offset + 8 * n :], dtype="<f8").reshape(n, 4)
    return NodeView(False, mbr, children=keys.tolist(), child_mbrs=child_mbrs)


def _pages_from_tree(tree: RTree) -> list[bytes]:
    """The page blobs of a tree, numbered in DFS preorder (root at page 0)."""
    if tree._root is None:
        return []
    page_of, views, stack = {}, [], [tree._root]
    while stack:
        page_of[node := stack.pop()] = len(views)
        views.append(view := tree._resolve(node))
        if not view.is_leaf:
            stack.extend(reversed(view.children))
    return [
        _encode_page(True, view.mbr, view.ids, view.points)
        if view.is_leaf
        else _encode_page(False, view.mbr, [page_of[c] for c in view.children], view.child_mbrs)
        for view in views
    ]


# -- the facade: RTree over a page source ------------------------------------


class _PageSource:
    """Decodes pages on demand through a bounded decoded-page LRU.

    Residency of the *raw* page groups is governed by the HDFS payload
    store (when budgeted); this cache only bounds how many *decoded*
    nodes are alive at once, so a full-tree walk over a million points
    never materializes the whole index as Python objects.
    """

    def __init__(self, reader: Callable[[int], bytes], cache_pages: int = 128):
        self._reader = reader
        self._cache: OrderedDict[int, NodeView] = OrderedDict()
        self._cache_pages = max(1, cache_pages)

    def decoded(self, page_id: int) -> NodeView:
        try:
            page = self._cache[page_id]
            self._cache.move_to_end(page_id)
            return page
        except KeyError:
            pass
        page = decode_page(self._reader(page_id), page_id)
        self._cache[page_id] = page
        if len(self._cache) > self._cache_pages:
            self._cache.popitem(last=False)
        return page


class _PagedTree(RTree):
    """``RTree``'s own traversals over persisted pages.

    A handle is a page id and resolves through the decoded-page LRU, so
    pruning, refinement and tie-breaking are the in-memory tree's code:
    answers are byte-identical by construction rather than by
    reimplementation.  The height is the meta record's, so the scans'
    leaf-parent depth costs no page read.
    """

    def __init__(self, source: _PageSource, meta: dict[str, Any]):
        super().__init__(max_entries=int(meta["max_entries"]))
        self._resolve = source.decoded
        self._height = int(meta["height"])
        if int(meta["n_pages"]) > 0:
            self._root = int(meta["root"])
        self._size = int(meta["size"])


# -- HDFS-backed storage -----------------------------------------------------


class _HDFSPageReader:
    """Locates a page blob via the meta record's chunk-start table.

    ``chunk_starts[i]`` is the first page id stored in chunk ``i`` of the
    pages file, so a read is one bisect, one chunk lookup by ordinal and
    one record index — no payload scan, no listing of the file.  Under a
    memory budget, touching a paged-out group counts a page fault in the
    store's :class:`~repro.mapreduce.spill.SpillStats`.
    """

    def __init__(self, hdfs: "SimulatedHDFS", pages_path: str, chunk_starts, n_pages: int):
        self._hdfs = hdfs
        self._pages_path = pages_path
        self._chunk_starts = list(chunk_starts)
        self._n_pages = n_pages

    def __call__(self, page_id: int) -> bytes:
        if not 0 <= page_id < self._n_pages:
            raise IndexCorruptError(
                f"page {page_id} out of range (index has {self._n_pages} pages)"
            )
        ordinal = bisect.bisect_right(self._chunk_starts, page_id) - 1
        try:
            chunk = self._hdfs.chunk(self._pages_path, ordinal)
        except FileNotFoundError as exc:
            raise IndexCorruptError(
                f"pages file missing: {self._pages_path}"
            ) from exc
        except IndexError as exc:
            raise IndexCorruptError(
                f"page {page_id}: chunk ordinal {ordinal} missing from "
                f"{self._pages_path}"
            ) from exc
        payload = concrete_payload(chunk.payload)
        if not isinstance(payload, RecordPayload):
            raise IndexCorruptError(
                f"{self._pages_path}: chunk {ordinal} is not a record payload"
            )
        pos = page_id - self._chunk_starts[ordinal]
        if pos >= len(payload.records):
            raise IndexCorruptError(
                f"page {page_id} missing from chunk {ordinal} of "
                f"{self._pages_path}"
            )
        key, blob = payload.records[pos]
        if key != page_id or not isinstance(blob, (bytes, bytearray)):
            raise IndexCorruptError(
                f"page {page_id}: record mismatch in {self._pages_path} "
                f"(found key {key!r})"
            )
        return bytes(blob)


class _TreeQueries:
    """The index queries, delegating to ``self.tree``'s own code."""

    def query_point(self, lat: float, lon: float) -> np.ndarray:
        return self.tree.query_rect(Rect(lat, lon, lat, lon))

    def query_rect(self, rect: Rect) -> np.ndarray:
        return self.tree.query_rect(rect)

    def query_radius(self, lat: float, lon: float, radius_m: float) -> np.ndarray:
        return self.tree.query_radius(lat, lon, radius_m)

    def query_radius_batch(self, points: np.ndarray, radius_m: float) -> list[np.ndarray]:
        return self.tree.query_radius_batch(points, radius_m)

    def knn(self, lat: float, lon: float, k: int) -> list[tuple[int, float]]:
        return self.tree.knn(lat, lon, k)


class PersistentRTree(_TreeQueries):
    """A bulk-loaded R-tree persisted as checksummed node pages in HDFS.

    Layout under ``path``:

    * ``{path}/pages`` — ``(page_id, block_bytes)`` records, grouped
      into ~``group_bytes`` chunks (the paging unit under a budget);
    * ``{path}/meta`` — one record: root page, page/entry counts,
      height, fanout, and the per-chunk first-page table that makes a
      page read one bisect instead of a scan.
    """

    def __init__(self, hdfs: "SimulatedHDFS", path: str, meta: dict[str, Any]):
        self._hdfs = hdfs
        self.path = path
        self.meta = meta
        reader = _HDFSPageReader(
            hdfs, f"{path}/pages", meta["chunk_starts"], int(meta["n_pages"])
        )
        self._tree = _PagedTree(_PageSource(reader), meta)

    # -- lifecycle ----------------------------------------------------------
    @classmethod
    def save(
        cls,
        hdfs: "SimulatedHDFS",
        path: str,
        tree: RTree,
        group_bytes: int = DEFAULT_PAGE_GROUP_BYTES,
    ) -> "PersistentRTree":
        """Serialize ``tree`` under ``path`` and return the opened index."""
        positive("group_bytes", group_bytes)
        pages = _pages_from_tree(tree)
        payloads: list[RecordPayload] = []
        chunk_starts: list[int] = []
        current: list[tuple[int, bytes]] = []
        used = 0
        for page_id, blob in enumerate(pages):
            # estimate_nbytes of an (int, bytes) record: ``used`` is the
            # group's modelled size, handed to the payload below.
            size = 8 + len(blob)
            if current and used + size > group_bytes:
                payloads.append(RecordPayload(current, used))
                current, used = [], 0
            if not current:
                chunk_starts.append(page_id)
            current.append((page_id, blob))
            used += size
        if current:
            payloads.append(RecordPayload(current, used))
        hdfs.delete(f"{path}/pages", missing_ok=True)
        hdfs.delete(f"{path}/meta", missing_ok=True)
        hdfs.put_chunks(f"{path}/pages", payloads)
        meta = {
            "format": "rtree-pages-v1",
            "root": 0,
            "n_pages": len(pages),
            "size": len(tree),
            "height": tree.height(),
            "max_entries": tree.max_entries,
            "page_bytes": sum(len(b) for b in pages),
            "chunk_starts": chunk_starts,
        }
        hdfs.put_records(f"{path}/meta", [("meta", meta)])
        return cls(hdfs, path, meta)

    @classmethod
    def open(cls, hdfs: "SimulatedHDFS", path: str) -> "PersistentRTree":
        """Open a persisted index from its meta record (no page scans)."""
        try:
            records = hdfs.read_records(f"{path}/meta")
        except FileNotFoundError as exc:
            raise IndexCorruptError(f"no persisted index at {path}") from exc
        if not records or records[0][0] != "meta" or not isinstance(records[0][1], dict):
            raise IndexCorruptError(f"{path}/meta is not an index meta record")
        meta = records[0][1]
        if meta.get("format") != "rtree-pages-v1":
            raise IndexCorruptError(
                f"{path}: unknown index format {meta.get('format')!r}"
            )
        return cls(hdfs, path, meta)

    @property
    def tree(self) -> RTree:
        """The lazy facade tree (the full ``RTree`` query surface)."""
        return self._tree

    # -- portability ---------------------------------------------------------
    def to_portable(self) -> "PortableIndex":
        """Self-contained in-memory copy of the page set.

        Budgeted chunks deliberately refuse to pickle (their loader holds
        the driver's payload store), so the distributed-cache broadcast
        to process-pool workers ships this portable form instead.
        """
        blobs: list[bytes] = [b""] * int(self.meta["n_pages"])
        seen = 0
        for chunk in self._hdfs.chunks(f"{self.path}/pages"):
            for page_id, blob in chunk.records():
                if not 0 <= page_id < len(blobs):
                    raise IndexCorruptError(
                        f"page {page_id} out of range in {self.path}/pages"
                    )
                blobs[page_id] = bytes(blob)
                seen += 1
        if seen != len(blobs):
            raise IndexCorruptError(
                f"{self.path}: expected {len(blobs)} pages, found {seen}"
            )
        meta = {k: v for k, v in self.meta.items() if k != "chunk_starts"}
        return PortableIndex(meta, blobs)


class PortableIndex(_TreeQueries):
    """A picklable page set with the same lazy facade on top.

    Equality of answers with :class:`PersistentRTree` (and hence with
    the in-memory tree) is structural: both decode the same page bytes
    through the same facade.
    """

    def __init__(self, meta: dict[str, Any], blobs: list[bytes]):
        self._meta = meta
        self._blobs = blobs
        self._tree: RTree | None = None

    def __getstate__(self):
        return {"meta": self._meta, "blobs": self._blobs}

    def __setstate__(self, state):
        self._meta = state["meta"]
        self._blobs = state["blobs"]
        self._tree = None

    @property
    def tree(self) -> RTree:
        if self._tree is None:
            blobs = self._blobs
            self._tree = _PagedTree(_PageSource(lambda pid: blobs[pid]), self._meta)
        return self._tree


# -- catalog -----------------------------------------------------------------


@dataclass
class CatalogEntry:
    """One catalog row: what was indexed, how, and where it lives."""

    key: str
    path: str
    input_path: str
    dataset_version: int
    params: dict[str, Any]
    n_points: int
    build_sim_seconds: float = 0.0


class IndexCatalog:
    """HDFS-resident registry of persisted R-trees.

    The key digests (input path, namenode version of the input, build
    parameters): any rewrite of the dataset or change of build knobs
    yields a different key, so a catalog hit is always safe to reuse —
    the same contract the service-layer result cache makes.
    """

    def __init__(self, hdfs: "SimulatedHDFS", root: str = INDEX_ROOT):
        self._hdfs = hdfs
        self._root = root

    # -- keys ----------------------------------------------------------------
    def _params(self, n_partitions, curve, sample_per_chunk, max_entries, curve_order):
        return {
            "n_partitions": int(n_partitions),
            "curve": str(curve),
            "sample_per_chunk": int(sample_per_chunk),
            "max_entries": int(max_entries),
            "curve_order": int(curve_order),
        }

    def key_for(self, input_path: str, params: dict[str, Any]) -> str:
        version = self._hdfs.version(input_path)
        blob = json.dumps(
            {"input": input_path, "version": version, "params": params},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def path_for(self, key: str) -> str:
        return f"{self._root}/{key}"

    # -- lookup --------------------------------------------------------------
    def entry(self, key: str) -> CatalogEntry:
        """The catalog row for ``key``; :class:`IndexCorruptError` if the
        entry (or its index) is missing or dangling."""
        entry_path = f"{self.path_for(key)}/entry"
        if not self._hdfs.exists(entry_path):
            raise IndexCorruptError(f"no catalog entry for key {key}")
        data = self._hdfs.read_records(entry_path)[0][1]
        if not self._hdfs.exists(f"{self.path_for(key)}/meta"):
            raise IndexCorruptError(
                f"catalog entry {key} dangles: index pages/meta missing"
            )
        return CatalogEntry(**data)

    def entries(self) -> list[CatalogEntry]:
        out = []
        suffix = "/entry"
        prefix = f"{self._root}/"
        for path in self._hdfs.ls():
            if path.startswith(prefix) and path.endswith(suffix):
                key = path[len(prefix) : -len(suffix)]
                try:
                    out.append(self.entry(key))
                except IndexCorruptError:
                    continue
        return out

    def open(self, key: str) -> PersistentRTree:
        """Open a cataloged index; missing entries are a typed error,
        never a silent rebuild."""
        entry = self.entry(key)
        return PersistentRTree.open(self._hdfs, entry.path)

    # -- ensure --------------------------------------------------------------
    def ensure(
        self,
        runner: "JobRunner",
        input_path: str,
        n_partitions: int | None = None,
        curve: str = "hilbert",
        sample_per_chunk: int = 1024,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        curve_order: int = DEFAULT_ORDER,
        group_bytes: int = DEFAULT_PAGE_GROUP_BYTES,
        history: "JobHistory | None" = None,
        job: str = "index-catalog",
    ) -> tuple[PersistentRTree, bool]:
        """The cataloged index for (input, params), building it at most
        once per dataset version.

        Returns ``(index, built)``.  A hit opens the persisted pages with
        zero jobs and emits ``index_reuse``; a miss runs the Figure-6
        MapReduce build, persists the merged tree, registers the entry
        and emits ``index_publish``.
        """
        if n_partitions is None:
            n_partitions = max(1, runner.cluster.total_reduce_slots() // 2)
        params = self._params(
            n_partitions, curve, sample_per_chunk, max_entries, curve_order
        )
        key = self.key_for(input_path, params)
        h = history if history is not None else runner.history
        try:
            entry = self.entry(key)
        except IndexCorruptError:
            entry = None
        if entry is not None:
            index = PersistentRTree.open(self._hdfs, entry.path)
            if h is not None:
                h.emit(
                    IndexReuse(
                        key=key,
                        path=entry.path,
                        input_path=input_path,
                        dataset_version=entry.dataset_version,
                        n_points=entry.n_points,
                    ),
                    job,
                    h.clock,
                )
            return index, False

        from repro.index.rtree_mr import build_rtree_mapreduce

        path = self.path_for(key)
        build = build_rtree_mapreduce(
            runner,
            input_path,
            n_partitions=n_partitions,
            curve=curve,
            sample_per_chunk=sample_per_chunk,
            max_entries=max_entries,
            curve_order=curve_order,
            workdir=f"{path}.build",
        )
        index = PersistentRTree.save(
            self._hdfs, path, build.tree, group_bytes=group_bytes
        )
        entry = CatalogEntry(
            key=key,
            path=path,
            input_path=input_path,
            dataset_version=self._hdfs.version(input_path),
            params=params,
            n_points=len(build.tree),
            build_sim_seconds=build.sim_seconds,
        )
        self._hdfs.delete(f"{path}/entry", missing_ok=True)
        self._hdfs.put_records(f"{path}/entry", [("entry", entry.__dict__)])
        if h is not None:
            h.emit(
                IndexPublish(
                    key=key,
                    path=path,
                    input_path=input_path,
                    dataset_version=entry.dataset_version,
                    n_points=entry.n_points,
                    n_pages=int(index.meta["n_pages"]),
                    page_bytes=int(index.meta["page_bytes"]),
                    build_sim_seconds=build.sim_seconds,
                ),
                job,
                h.clock,
            )
        return index, True


# -- serving -----------------------------------------------------------------


@dataclass
class QueryStats:
    """Cumulative serving counters (all on the simulated clock)."""

    n_queries: int = 0
    page_faults: int = 0
    fault_bytes: int = 0
    latency_s: float = 0.0
    results: int = 0
    #: The latest query's ``query_served`` payload.
    last: QueryServed | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "n_queries": self.n_queries,
            "page_faults": self.page_faults,
            "fault_bytes": self.fault_bytes,
            "latency_s": self.latency_s,
            "results": self.results,
        }


class QueryEngine:
    """Point / range / radius / kNN serving over a persisted index.

    Zero map tasks per query: answers come straight from the page facade.
    Each query is charged ``QUERY_DISPATCH_S`` plus the cost model's
    local-disk read time for the bytes actually paged in (measured as the
    delta of the HDFS payload store's fault counters), advances the
    history clock by that latency, and emits one ``query_served`` event.
    """

    def __init__(
        self,
        index: PersistentRTree | PortableIndex,
        hdfs: "SimulatedHDFS | None" = None,
        cost_model: CostModel | None = None,
        history: "JobHistory | None" = None,
        job: str = "serving",
    ):
        self.index = index
        self._hdfs = hdfs if hdfs is not None else getattr(index, "_hdfs", None)
        self._cost_model = cost_model if cost_model is not None else CostModel()
        self._history = history
        self._job = job
        self.stats = QueryStats()

    # -- internals -----------------------------------------------------------
    def _fault_counters(self) -> tuple[int, int]:
        stats = self._hdfs.spill_stats if self._hdfs is not None else None
        if stats is None:
            return 0, 0
        return stats.pages_in, stats.page_in_bytes

    def _serve(self, run: Callable[[], Any], served: Callable[..., QueryServed]):
        """Answer one query; ``served`` is its ``query_served`` payload
        with the query's own fields bound."""
        before_faults, before_bytes = self._fault_counters()
        result = run()
        after_faults, after_bytes = self._fault_counters()
        faults = after_faults - before_faults
        fault_bytes = after_bytes - before_bytes
        latency = QUERY_DISPATCH_S + self._cost_model.spill_read_time(fault_bytes)
        count = len(result)
        self.stats.n_queries += 1
        self.stats.page_faults += faults
        self.stats.fault_bytes += fault_bytes
        self.stats.latency_s += latency
        self.stats.results += count
        self.stats.last = served(
            n_results=count, page_faults=faults, fault_bytes=fault_bytes, latency_s=latency
        )
        if self._history is not None:
            t0 = self._history.clock
            self._history.emit(self.stats.last, self._job, t0 + latency)
            self._history.advance(t0 + latency)
        return result

    # -- the query surface ---------------------------------------------------
    def point(self, lat: float, lon: float) -> np.ndarray:
        """Ids of entries at exactly (lat, lon)."""
        finite("lat", lat)
        finite("lon", lon)
        return self._serve(
            lambda: self.index.query_point(lat, lon),
            partial(QueryServed, query="point", lat=lat, lon=lon),
        )

    def range(
        self, min_lat: float, min_lon: float, max_lat: float, max_lon: float
    ) -> np.ndarray:
        """Ids of entries inside the inclusive rectangle."""
        finite("min_lat", min_lat)
        finite("min_lon", min_lon)
        finite("max_lat", max_lat)
        finite("max_lon", max_lon)
        rect = Rect(min_lat, min_lon, max_lat, max_lon)
        return self._serve(
            lambda: self.index.query_rect(rect),
            partial(QueryServed, query="range", rect=[float(x) for x in rect.as_array()]),
        )

    def radius(self, lat: float, lon: float, radius_m: float) -> np.ndarray:
        """Ids of entries within ``radius_m`` Haversine metres."""
        finite("lat", lat)
        finite("lon", lon)
        return self._serve(
            lambda: self.index.query_radius(lat, lon, radius_m),
            partial(QueryServed, query="radius", lat=lat, lon=lon, radius_m=radius_m),
        )

    def knn(self, lat: float, lon: float, k: int) -> list[tuple[int, float]]:
        """The ``k`` nearest entries as ``(id, metres)``, nearest first."""
        finite("lat", lat)
        finite("lon", lon)
        return self._serve(
            lambda: self.index.knn(lat, lon, k),
            partial(QueryServed, query="knn", lat=lat, lon=lon, k=k),
        )

    def report(self) -> dict[str, Any]:
        """Cumulative serving counters as a JSON-safe dict."""
        out = self.stats.as_dict()
        n = max(1, self.stats.n_queries)
        out["mean_latency_ms"] = 1000.0 * self.stats.latency_s / n
        return out
