"""Per-window analysis jobs and the rolling re-identification risk.

The :class:`StreamingJobManager` is the streaming control plane's driver
half: for every window the :class:`~repro.streaming.batcher.MicroBatcher`
seals, it runs the paper's analysis chain as ordinary MapReduce jobs —

1. **windowed sampling** (Section V) over the window dataset;
2. **incremental k-means** (Section VI): the window's clustering is
   warm-started from the previous window's centroids, so a stationary
   stream converges in a fraction of the cold-start iterations;
3. **windowed DJ-Cluster POIs** (Section VII) over the sampled output,
   reading catalog-ensured persistent R-tree indexes;
4. a **re-identification risk score**
   (:func:`repro.metrics.privacy.window_reidentification_risk`) plus a
   cross-window top-cell linkage count, appended to the
   :class:`RiskTimeline`.

``client`` is anything runner-shaped: a
:class:`~repro.mapreduce.service.TenantClient` (jobs flow through the
multi-tenant service as submit → future) or a plain
:class:`~repro.mapreduce.runner.JobRunner` (the equivalent batch-job
sequence).  The determinism contract is that both modes produce
byte-identical :meth:`WindowResult.signature` chains — the streaming
equivalence invariant ``tests/streaming`` pins down.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from repro.algorithms.djcluster import DJClusterParams, run_djcluster_mapreduce
from repro.algorithms.kmeans import run_kmeans_mapreduce
from repro.algorithms.sampling import run_sampling_job
from repro.geo.grid import grid_cells, unique_rows
from repro.geo.trace import TraceArray, digest
from repro.metrics.privacy import WindowRisk, window_reidentification_risk
from repro.observability import events as ev

from repro.streaming.batcher import MicroBatcher, WindowDataset
from repro.streaming.source import StreamSource

__all__ = [
    "StreamingJobManager",
    "WindowResult",
    "RiskTimeline",
    "StreamRunResult",
]

#: Event kinds that count as "served from a cache, zero tasks ran".
_CACHE_HITS = (ev.ResultCacheHit, ev.IndexReuse)


def _top_cells(array: TraceArray, cell_m: float) -> dict[str, tuple[int, int]]:
    """Each user's modal grid cell (most visited; ties break to the
    lexicographically smallest cell) — the linkage quasi-identifier."""
    lat_band, lon_band = grid_cells(array.latitude, array.longitude, cell_m)
    (user, lat_band, lon_band), counts = unique_rows(
        array.user_index, lat_band, lon_band, return_counts=True
    )
    # Stable, so equal counts keep the rows' (lat band, lon band) order.
    order = np.lexsort((-counts, user))
    first = np.ones(len(order), dtype=bool)
    first[1:] = user[order][1:] != user[order][:-1]
    top = order[first]
    return {
        array.users[u]: (la, lo)
        for u, la, lo in zip(
            user[top].tolist(), lat_band[top].tolist(), lon_band[top].tolist()
        )
    }


@dataclass
class WindowResult:
    """Everything one window's analysis produced, fingerprinted."""

    window: WindowDataset
    sampled_path: str
    sampled_signature: str
    n_sampled: int
    kmeans_iterations: int
    warm_start: bool
    converged: bool
    centroids: np.ndarray | None
    n_pois: int
    cluster_digest: str
    risk: WindowRisk
    linked_users: int
    latency_s: float
    cache_hits: int

    def signature(self) -> str:
        """Byte-identity fingerprint of the window's visible outputs."""
        doc = {
            "window": self.window.to_doc(),
            "sampled": self.sampled_signature,
            "n_sampled": self.n_sampled,
            "kmeans_iterations": self.kmeans_iterations,
            "warm_start": self.warm_start,
            "converged": self.converged,
            "n_pois": self.n_pois,
            "clusters": self.cluster_digest,
            "risk": self.risk.to_doc(),
            "linked_users": self.linked_users,
        }
        centroid_bytes = (
            np.ascontiguousarray(self.centroids).tobytes()
            if self.centroids is not None
            else b""
        )
        return digest(
            json.dumps(doc, sort_keys=True).encode(), centroid_bytes
        )

    def to_row(self) -> dict:
        row = self.window.to_doc()
        row.update(
            n_sampled=self.n_sampled,
            kmeans_iterations=self.kmeans_iterations,
            warm_start=self.warm_start,
            converged=self.converged,
            n_pois=self.n_pois,
            linked_users=self.linked_users,
            latency_s=round(self.latency_s, 6),
            cache_hits=self.cache_hits,
            signature=self.signature(),
        )
        row.update(self.risk.to_doc())
        return row


@dataclass
class RiskTimeline:
    """The stream's rolling privacy artifact: one row per closed window."""

    name: str
    window_s: float
    cell_m: float
    rows: list[dict] = field(default_factory=list)

    def append(self, result: WindowResult) -> None:
        self.rows.append(result.to_row())

    def to_doc(self) -> dict:
        return {
            "schema": 1,
            "name": self.name,
            "window_s": self.window_s,
            "cell_m": self.cell_m,
            "rows": self.rows,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "RiskTimeline":
        return cls(
            name=doc["name"],
            window_s=float(doc["window_s"]),
            cell_m=float(doc["cell_m"]),
            rows=list(doc["rows"]),
        )

    def render(self) -> str:
        """Fixed-width table of the timeline, one line per window."""
        header = (
            f"risk timeline: {self.name}  "
            f"(window={self.window_s:g}s, cell={self.cell_m:g}m)"
        )
        cols = (
            f"{'win':>4} {'points':>8} {'late':>6} {'lost':>6} {'dup':>6} "
            f"{'sampled':>8} {'k-it':>5} {'warm':>5} {'pois':>5} "
            f"{'risk':>6} {'minK':>5} {'linked':>7} {'lat(s)':>9} {'hits':>5}"
        )
        lines = [header, cols, "-" * len(cols)]
        for r in self.rows:
            lines.append(
                f"{r['window']:>4} {r['n_points']:>8} {r['late_points']:>6} "
                f"{r['lost_points']:>6} {r['dup_points']:>6} "
                f"{r['n_sampled']:>8} {r['kmeans_iterations']:>5} "
                f"{('yes' if r['warm_start'] else 'no'):>5} {r['n_pois']:>5} "
                f"{r['risk']:>6.3f} {r['min_anonymity']:>5} "
                f"{r['linked_users']:>7} {r['latency_s']:>9.2f} "
                f"{r['cache_hits']:>5}"
            )
        if self.rows:
            total_it = sum(r["kmeans_iterations"] for r in self.rows)
            total_late = sum(r["late_points"] for r in self.rows)
            total_lost = sum(r["lost_points"] for r in self.rows)
            lines.append(
                f"{len(self.rows)} windows, {total_it} k-means iterations, "
                f"{total_late} late / {total_lost} lost points"
            )
        return "\n".join(lines)


@dataclass
class StreamRunResult:
    """One full streaming run: datasets, per-window results, timeline."""

    timeline: RiskTimeline
    results: list[WindowResult]
    datasets: list[WindowDataset]

    def signature(self) -> str:
        """Digest over every window's output fingerprint, in order."""
        return digest(*(r.signature().encode() for r in self.results))

    @property
    def total_kmeans_iterations(self) -> int:
        return sum(r.kmeans_iterations for r in self.results)

    @property
    def total_cache_hits(self) -> int:
        return sum(r.cache_hits for r in self.results)

    @property
    def late_points(self) -> int:
        return sum(d.late_points for d in self.datasets)

    @property
    def lost_points(self) -> int:
        return sum(d.lost_points for d in self.datasets)


class StreamingJobManager:
    """Runs the per-window analysis chain over a stream's sealed windows.

    Windows are processed strictly in order; the k-means warm start makes
    window ``w``'s clustering depend on ``w-1``'s, which is exactly the
    incremental-analysis structure the streaming layer exists for.  All
    thresholds (``k``, DJ-Cluster parameters, risk binning) are fixed at
    construction so a run is a pure function of (corpus, window size,
    chaos schedule, these parameters).
    """

    def __init__(
        self,
        client,
        name: str = "stream",
        root: str = "streams",
        k: int = 4,
        max_iter: int = 12,
        seed: int = 0,
        sampling_window_s: float = 600.0,
        warm_start: bool = True,
        dj_params: DJClusterParams | None = None,
        risk_cell_m: float = 500.0,
        risk_window_s: float = 3600.0,
    ):
        self.client = client
        self.name = name
        self.root = root
        self.k = k
        self.max_iter = max_iter
        self.seed = seed
        self.sampling_window_s = sampling_window_s
        self.warm_start = warm_start
        self.dj_params = dj_params if dj_params is not None else DJClusterParams()
        self.risk_cell_m = risk_cell_m
        self.risk_window_s = risk_window_s
        self.batcher = MicroBatcher(
            client.hdfs, name=name, root=root, history=client.history,
            job=f"{name}-ingest",
        )
        self.results: list[WindowResult] = []
        self.timeline = RiskTimeline(
            name=name, window_s=0.0, cell_m=risk_cell_m
        )
        self._prev_centroids: np.ndarray | None = None
        self._prev_top_cells: dict[str, tuple[int, int]] = {}

    # -- one window ----------------------------------------------------------
    def process(self, dataset: WindowDataset) -> WindowResult:
        """Run the analysis chain over one sealed window."""
        client = self.client
        hdfs = client.hdfs
        history = client.history
        w = dataset.index
        wdir = f"{self.root}/{self.name}/work/w{w:04d}"
        clock0 = history.clock
        events0 = len(history)
        # A TenantClient stamps its labels into each submit, a JobRunner
        # into each job_start.
        labels = client.labels
        client.labels = replace(labels, stream=self.name, window=w)
        try:
            window_array = (
                hdfs.read_trace_array(dataset.path)
                if dataset.n_points
                else TraceArray.empty()
            )
            # 1. windowed sampling (skipped for an empty window: a
            # map-only job over zero records writes no output file).
            sampled_path = f"{wdir}/sampled"
            if dataset.n_points:
                hdfs.delete(sampled_path, missing_ok=True)
                run_sampling_job(
                    client,
                    dataset.path,
                    sampled_path,
                    self.sampling_window_s,
                    name=f"{self.name}-w{w:04d}-sample",
                )
                sampled = hdfs.read_trace_array(sampled_path)
            else:
                sampled = TraceArray.empty()
            # 2. incremental k-means, warm-started from the previous
            # window's centroids when available.
            warm = (
                self.warm_start
                and self._prev_centroids is not None
                and len(self._prev_centroids) == self.k
            )
            if dataset.n_points >= self.k:
                km = run_kmeans_mapreduce(
                    client,
                    dataset.path,
                    k=self.k,
                    max_iter=self.max_iter,
                    seed=self.seed + w,
                    initial_centroids=self._prev_centroids if warm else None,
                    use_combiner=True,
                    workdir=f"{wdir}/kmeans",
                    name_prefix=f"{self.name}-w{w:04d}-kmeans",
                )
                centroids = km.centroids
                iterations = km.n_iterations
                converged = km.converged
                self._prev_centroids = centroids
            else:
                # Too few points to cluster: carry the model forward.
                warm = False
                centroids = self._prev_centroids
                iterations = 0
                converged = False
            # 3. windowed DJ-Cluster POIs over the sampled output,
            # against the catalog-ensured persistent index.
            if len(sampled):
                dj = run_djcluster_mapreduce(
                    client,
                    sampled_path,
                    params=self.dj_params,
                    workdir=f"{wdir}/dj",
                    name_prefix=f"{self.name}-w{w:04d}-dj",
                )
                n_pois = dj.n_clusters
                cluster_digest = digest(
                    *(ids.tobytes() for ids in dj.clusters)
                )
            else:
                n_pois = 0
                cluster_digest = digest(b"")
            # 4. rolling re-identification risk + cross-window linkage.
            risk = window_reidentification_risk(
                window_array, cell_m=self.risk_cell_m, window_s=self.risk_window_s,
            )
            top = _top_cells(window_array, self.risk_cell_m)
            linked = sum(
                1 for user, cell in top.items()
                if self._prev_top_cells.get(user) == cell
            )
            self._prev_top_cells = top
        finally:
            client.labels = labels
        latency = history.clock - clock0
        result = WindowResult(
            window=dataset,
            sampled_path=sampled_path,
            sampled_signature=sampled.signature(),
            n_sampled=len(sampled),
            kmeans_iterations=iterations,
            warm_start=warm,
            converged=converged,
            centroids=centroids,
            n_pois=n_pois,
            cluster_digest=cluster_digest,
            risk=risk,
            linked_users=linked,
            latency_s=latency,
            cache_hits=sum(
                1 for e in history.events[events0:] if isinstance(e.payload, _CACHE_HITS)
            ),
        )
        self.results.append(result)
        self.timeline.append(result)
        if history is not None:
            history.emit(
                ev.WindowResult(
                    window=w,
                    n_points=dataset.n_points,
                    kmeans_iterations=iterations,
                    warm_start=warm,
                    n_pois=n_pois,
                    risk=risk.risk,
                    min_anonymity=risk.min_anonymity,
                    latency_s=latency,
                ),
                self.batcher.job,
                history.clock,
            )
        return result

    # -- whole stream --------------------------------------------------------
    def run(self, source: StreamSource) -> StreamRunResult:
        """Micro-batch the whole stream: seal, analyze, repeat."""
        self.timeline = RiskTimeline(
            name=self.name, window_s=float(source.window_s),
            cell_m=self.risk_cell_m,
        )
        self.results = []
        self._prev_centroids = None
        self._prev_top_cells = {}
        datasets: list[WindowDataset] = []
        for w in range(source.n_windows):
            dataset = self.batcher.close_window(source, w)
            datasets.append(dataset)
            self.process(dataset)
        return StreamRunResult(
            timeline=self.timeline,
            results=list(self.results),
            datasets=datasets,
        )
