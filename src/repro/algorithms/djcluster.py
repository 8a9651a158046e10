"""DJ-Cluster: density-joinable clustering (Section VII, Figure 5).

DJ-Cluster looks for dense neighborhoods of traces; density is defined by
a radius ``r`` and a minimum population ``MinPts``.  The algorithm runs in
three phases, each expressible in MapReduce:

1. **Preprocessing** — two pipelined map-only jobs: (a) discard *moving*
   traces, i.e. traces whose speed (distance between the previous and the
   next trace divided by the corresponding time difference) exceeds a
   small ε; (b) collapse sequences of redundant consecutive traces (same
   coordinate, different timestamps) to their first trace.
2. **Neighborhood identification** — a map phase: each mapper loads a
   pre-built R-tree from the distributed cache, computes each trace's
   ``r``-neighborhood, labels traces with fewer than ``MinPts`` neighbors
   as noise, and emits the dense neighborhoods under a constant key
   (Algorithm 4).
3. **Merging** — a single reducer joins all *joinable* neighborhoods
   (neighborhoods sharing at least one trace) into clusters
   (Algorithm 5).

The sequential reference implementation shares the same primitives, so
the MapReduce path is testably equivalent on single-chunk inputs.  By the
end, each trace is either assigned to a cluster or marked as noise, and
clusters are non-overlapping with at least ``MinPts`` traces each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.checks import count, non_negative, positive
from repro.geo.distance import haversine_m
from repro.geo.trace import TraceArray
from repro.index.persistent import IndexCatalog
from repro.index.rtree import RTree
from repro.mapreduce.config import Configuration
from repro.mapreduce.job import ConstantKeyPartitioner, JobSpec, Mapper, Reducer
from repro.mapreduce.pipeline import JobPipeline, PipelineResult
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.types import Chunk
from repro.observability.events import EventKind

__all__ = [
    "DJClusterParams",
    "DJClusterResult",
    "filter_moving_traces",
    "remove_redundant_traces",
    "preprocess_array",
    "djcluster_sequential",
    "run_preprocessing_pipeline",
    "run_djcluster_mapreduce",
    "RTREE_CACHE_KEY",
]

#: Distributed-cache key under which the driver publishes the R-tree.
RTREE_CACHE_KEY = "djcluster.rtree"


@dataclass(frozen=True)
class DJClusterParams:
    """DJ-Cluster parameters.

    ``speed_threshold_ms`` defaults to the paper's ε: 0.2 m/s, i.e.
    0.72 km/h.  ``dedup_tolerance_m`` bounds "almost the same spatial
    coordinate" for the redundancy filter; the 1 m default sits below
    typical GPS jitter, so — as in Table IV — duplicate removal shaves
    only a small slice beyond the speed filter.
    """

    radius_m: float = 100.0
    min_pts: int = 10
    speed_threshold_ms: float = 0.2
    dedup_tolerance_m: float = 1.0
    rtree_max_entries: int = 32

    def __post_init__(self) -> None:
        # Checked here, before any job runs: a NaN threshold keeps no trace
        # (NaN compares false), 2.5 points act as 3 and an infinite radius
        # fails only inside a map task, jobs later.
        positive("radius_m", self.radius_m)
        count("min_pts", self.min_pts, 1)
        non_negative("speed_threshold_ms", self.speed_threshold_ms)
        non_negative("dedup_tolerance_m", self.dedup_tolerance_m)
        count("rtree_max_entries", self.rtree_max_entries, 2)


# ---------------------------------------------------------------------------
# Preprocessing primitives (shared by sequential and MapReduce paths)
# ---------------------------------------------------------------------------

def trace_speeds(array: TraceArray) -> np.ndarray:
    """Per-trace speed in m/s over a (user, time)-sorted array.

    The speed of trace *i* is the distance between its previous and next
    same-user traces divided by the corresponding time difference; the
    first/last trace of a trail falls back to its single adjacent pair.
    Isolated traces (single-trace trails) get speed 0 (stationary).
    """
    n = len(array)
    if n == 0:
        return np.empty(0)
    lat, lon, ts, users = array.latitude, array.longitude, array.timestamp, array.user_index
    prev_idx = np.arange(n) - 1
    next_idx = np.arange(n) + 1
    has_prev = np.zeros(n, dtype=bool)
    has_next = np.zeros(n, dtype=bool)
    has_prev[1:] = users[1:] == users[:-1]
    has_next[:-1] = users[:-1] == users[1:]
    # Clamp the window ends onto the trace itself where a neighbor is
    # missing, producing the one-sided fallback for trail endpoints.
    lo = np.where(has_prev, prev_idx, np.arange(n))
    hi = np.where(has_next, next_idx, np.arange(n))
    dist = np.asarray(haversine_m(lat[lo], lon[lo], lat[hi], lon[hi]))
    dt = ts[hi] - ts[lo]
    speeds = np.zeros(n)
    moving_window = dt > 0
    speeds[moving_window] = dist[moving_window] / dt[moving_window]
    return speeds


def filter_moving_traces(array: TraceArray, speed_threshold_ms: float) -> TraceArray:
    """First preprocessing filter: keep stationary traces (speed <= ε)."""
    if len(array) == 0:
        return array
    ordered = array.sort_by_time()
    speeds = trace_speeds(ordered)
    return ordered[speeds <= speed_threshold_ms]


def remove_redundant_traces(array: TraceArray, tolerance_m: float) -> TraceArray:
    """Second filter: drop consecutive same-user traces within tolerance.

    Each run of redundant traces keeps only its first trace ("the role of
    the mapper is simply to output the first trace from a sequence of
    traces that are redundant").
    """
    n = len(array)
    if n <= 1:
        return array
    ordered = array.sort_by_time()
    lat, lon, users = ordered.latitude, ordered.longitude, ordered.user_index
    step = np.asarray(haversine_m(lat[:-1], lon[:-1], lat[1:], lon[1:]))
    same_user = users[1:] == users[:-1]
    keep = np.ones(n, dtype=bool)
    keep[1:] = ~(same_user & (step <= tolerance_m))
    return ordered[keep]


def preprocess_array(array: TraceArray, params: DJClusterParams) -> tuple[TraceArray, TraceArray]:
    """Run both filters; returns (after speed filter, after dedup).

    Both intermediate results are returned because Table IV reports the
    trace count after each filter separately.
    """
    stationary = filter_moving_traces(array, params.speed_threshold_ms)
    deduped = remove_redundant_traces(stationary, params.dedup_tolerance_m)
    return stationary, deduped


# ---------------------------------------------------------------------------
# Cluster merging (shared)
# ---------------------------------------------------------------------------

def _merge_neighborhoods(neighborhoods: list[np.ndarray]) -> list[np.ndarray]:
    """Join all joinable neighborhoods into non-overlapping clusters:
    :func:`_merge_flat` over a list of id arrays.  Clusters are ascending
    ``int64`` id arrays, ordered by their first id.
    """
    hoods = [hood for hood in neighborhoods if len(hood)]
    if not hoods:
        return []
    lengths = np.fromiter((len(hood) for hood in hoods), dtype=np.int64, count=len(hoods))
    return _split_clusters(*_merge_flat(np.concatenate(hoods), lengths))


def _split_clusters(members: np.ndarray, starts: np.ndarray) -> list[np.ndarray]:
    return np.split(members, starts[1:]) if len(starts) else []


def _merge_flat(flat: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of concatenated, non-empty neighborhoods.

    Algorithm 5's "merge all joinable neighborhoods with existing
    clusters or create new clusters" is connected components over the
    trace ids, every neighborhood (``lengths[i]`` consecutive ids of
    ``flat``) tying its members together.  Computed array-at-a-time: each
    round hooks the label of every member of a neighborhood onto the
    neighborhood's smallest label (an id's first label is the smallest id
    of its neighborhoods), then flattens the label forest by pointer
    jumping.  At the fixed point every neighborhood — hence every
    component — carries one label, its smallest id.  Returns ``(members,
    starts)``: the clustered ids, cluster after cluster in order of first
    id and ascending within each, and the offset at which each cluster
    starts.

    Every caller passes row numbers ``0 <= id < n``: ids that span no
    more than ``flat`` is long are labelled over that span directly, and
    the ids never seen are dropped at the end.  Wider (sparse) ids are
    first compacted to ``0..m-1`` by a sort.  Either way labels keep the
    ids' order, so the clusters are the same.
    """
    if len(flat) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    flat = flat.astype(np.int64, copy=False)
    low = int(flat.min())
    span = int(flat.max()) - low + 1
    if span <= len(flat):
        ids, members = None, flat - low if low else flat
    else:
        ids = np.unique(flat)
        members, span = np.searchsorted(ids, flat), len(ids)
    del flat
    # Narrow labels halve every per-round transient (they are all as long
    # as ``flat``), which is what bounds the reducer's peak memory; the
    # members stay ``intp``, the index type a gather reads without a cast.
    # Label ``span`` (its own label) marks an id no neighborhood holds.
    label_t = np.int32 if span < np.iinfo(np.int32).max else np.int64
    labels = np.full(span + 1, span, dtype=label_t)
    roots, lowest = members, np.minimum.reduceat(members, starts).astype(label_t)
    while True:
        np.minimum.at(labels, roots, np.repeat(lowest, lengths))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        roots = np.take(labels, members)
        lowest = np.minimum.reduceat(roots, starts)
        if np.array_equal(lowest, np.maximum.reduceat(roots, starts)):
            break
    seen = np.flatnonzero(labels[:-1] < span)
    labels = labels[seen]
    ids = seen + low if ids is None else ids
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return ids[order], np.concatenate(([0], cuts))


def _dense_clusters(
    points: np.ndarray, params: DJClusterParams, groups: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Phases 2 and 3 on arrays: the merged dense neighborhoods of the
    grid self-join, as :func:`_merge_flat` returns them.  With ``groups``
    no neighborhood, hence no cluster, spans two groups."""
    from repro.index.selfjoin import self_join_csr

    ids, counts = self_join_csr(points, params.radius_m, groups)
    dense = counts >= params.min_pts
    return _merge_flat(ids[np.repeat(dense, counts)], counts[dense])


# ---------------------------------------------------------------------------
# Sequential reference
# ---------------------------------------------------------------------------

@dataclass
class DJClusterResult:
    """Clustering outcome over the *preprocessed* trace array."""

    preprocessed: TraceArray
    clusters: list[np.ndarray]
    noise_ids: np.ndarray
    labels: np.ndarray
    params: DJClusterParams
    sim_seconds: float = 0.0
    stage_sim_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def cluster_centroids(self) -> np.ndarray:
        """(n_clusters, 2) mean coordinate of each cluster (POI candidates)."""
        points = self.preprocessed.coordinates()
        if not self.clusters:
            return np.empty((0, 2))
        return np.array([points[ids].mean(axis=0) for ids in self.clusters])

    def cluster_signature(self) -> set[frozenset]:
        """Order-independent cluster identity, for equivalence tests."""
        return {frozenset(int(i) for i in ids) for ids in self.clusters}


def _label_clusters(n: int, clusters: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    labels = np.full(n, -1, dtype=np.int64)
    for idx, ids in enumerate(clusters):
        labels[ids] = idx
    noise = np.flatnonzero(labels < 0)
    return labels, noise


def djcluster_sequential(
    array: TraceArray,
    params: DJClusterParams = DJClusterParams(),
    preprocess: bool = True,
    use_rtree: bool = False,
) -> DJClusterResult:
    """Single-node DJ-Cluster (GEPETO's original implementation).

    ``preprocess=False`` skips the filtering phases when the caller has
    already preprocessed the array (e.g. to reuse Table IV outputs).
    Neighborhoods default to the vectorized grid self-join (identical
    sets, far faster in Python); ``use_rtree=True`` switches to per-point
    R-tree queries — the paper's formulation, kept for cross-validation.
    """
    if preprocess:
        _, prepared = preprocess_array(array, params)
    else:
        prepared = array.sort_by_time()
    n = len(prepared)
    if n == 0:
        return DJClusterResult(prepared, [], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), params)
    points = prepared.coordinates()
    if use_rtree:
        tree = RTree.bulk_load(points, max_entries=params.rtree_max_entries)
        neighborhoods = []
        for i in range(n):
            hood = tree.query_radius(points[i, 0], points[i, 1], params.radius_m)
            if len(hood) >= params.min_pts:
                neighborhoods.append(hood)
        clusters = _merge_neighborhoods(neighborhoods)
    else:
        clusters = _split_clusters(*_dense_clusters(points, params))
    labels, noise = _label_clusters(n, clusters)
    return DJClusterResult(prepared, clusters, noise, labels, params)


# ---------------------------------------------------------------------------
# MapReduce adaptation
# ---------------------------------------------------------------------------

class SpeedFilterMapper(Mapper):
    """Preprocessing job 1: keep only stationary traces (map-only)."""

    def run(self, chunk: Chunk, ctx) -> None:
        threshold = ctx.conf.get_float("djcluster.speed_threshold_ms")
        kept = filter_moving_traces(chunk.trace_array(), threshold)
        if len(kept):
            ctx.emit_array(kept)


class DeduplicateMapper(Mapper):
    """Preprocessing job 2: collapse redundant consecutive traces."""

    def run(self, chunk: Chunk, ctx) -> None:
        tolerance = ctx.conf.get_float("djcluster.dedup_tolerance_m")
        kept = remove_redundant_traces(chunk.trace_array(), tolerance)
        if len(kept):
            ctx.emit_array(kept)


class NeighborhoodMapper(Mapper):
    """Phase 2 (Algorithm 4): emit each trace's dense neighborhood.

    The R-tree over the whole preprocessed dataset is loaded from the
    distributed cache during ``setup``; traces whose neighborhood has
    fewer than ``MinPts`` members are counted as noise and not emitted.
    The constant intermediate key routes every pair to the one reducer.
    """

    def setup(self, ctx) -> None:
        self._tree: RTree = ctx.cache.get(RTREE_CACHE_KEY)
        self._radius = ctx.conf.get_float("djcluster.radius_m")
        self._min_pts = ctx.conf.get_int("djcluster.min_pts")

    def run(self, chunk: Chunk, ctx) -> None:
        array = chunk.trace_array()
        points = array.coordinates()
        # One batched tree walk answers the whole chunk; the result arrays
        # are exactly the per-point query_radius sets, so emissions (and
        # therefore shuffle bytes, counters, histories) are unchanged.
        hoods = self._tree.query_radius_batch(points, self._radius)
        n_noise = 0
        for hood in hoods:
            if len(hood) >= self._min_pts:
                ctx.emit("all", hood, nbytes=int(hood.nbytes), n_records=1)
            else:
                n_noise += 1
        ctx.counters.increment("djcluster", "noise_traces", n_noise)
        ctx.counters.increment("djcluster", "traces_examined", len(points))


class MergeReducer(Reducer):
    """Phase 3 (Algorithm 5): merge joinable neighborhoods into clusters."""

    def reduce(self, key, values, ctx) -> None:
        clusters = _merge_neighborhoods(list(values))
        for idx, ids in enumerate(clusters):
            ctx.emit(idx, ids, nbytes=int(ids.nbytes))


def run_preprocessing_pipeline(
    runner: JobRunner,
    input_path: str,
    params: DJClusterParams,
    workdir: str = "tmp/djcluster",
    name_prefix: str = "dj",
) -> PipelineResult:
    """Figure 5's two pipelined map-only preprocessing jobs.

    ``runner`` is anything runner-shaped, including a
    :class:`~repro.mapreduce.service.TenantClient`; multi-tenant
    callers pass a per-tenant ``workdir`` so pipelines never collide on
    HDFS paths.  Note the jobs of a DJ-Cluster *clustering* run are
    uncacheable by the service's result cache (the R-tree handle in the
    distributed cache has no stable fingerprint) — correctness over hit
    rate (``docs/JOBSERVICE.md``).
    """
    conf = Configuration(
        {
            "djcluster.speed_threshold_ms": params.speed_threshold_ms,
            "djcluster.dedup_tolerance_m": params.dedup_tolerance_m,
        }
    )
    runner.hdfs.delete(f"{workdir}/stationary", missing_ok=True)
    runner.hdfs.delete(f"{workdir}/preprocessed", missing_ok=True)
    pipeline = JobPipeline(
        name=f"{name_prefix}-preprocessing",
        stages=[
            lambda src: JobSpec(
                name=f"{name_prefix}-filter-moving",
                mapper=SpeedFilterMapper,
                input_paths=[src],
                output_path=f"{workdir}/stationary",
                conf=conf,
                map_cost_factor=0.8,
            ),
            lambda src: JobSpec(
                name=f"{name_prefix}-remove-duplicates",
                mapper=DeduplicateMapper,
                input_paths=[src],
                output_path=f"{workdir}/preprocessed",
                conf=conf,
                map_cost_factor=0.5,
            ),
        ]
    )
    return pipeline.run(runner, input_path)


def run_djcluster_mapreduce(
    runner: JobRunner,
    input_path: str,
    params: DJClusterParams = DJClusterParams(),
    rtree_curve: str = "hilbert",
    workdir: str = "tmp/djcluster",
    name_prefix: str = "dj",
) -> DJClusterResult:
    """The full MapReduced DJ-Cluster: preprocessing, R-tree build,
    neighborhood map phase and single-reducer merge.

    Cluster ids reference rows of the returned ``preprocessed`` array.
    Every constituent job traces into ``runner.history`` and the driver
    annotates each stage boundary, so the exported history
    (``runner.history.save``) shows where the three
    phases spend their simulated time.

    The neighborhood phase reads the **shared persistent index**: the
    build goes through the
    :class:`~repro.index.persistent.IndexCatalog`, so a repeat run over
    the same preprocessed dataset version reuses the persisted pages
    with zero build jobs, and the mappers receive a portable page-set
    broadcast instead of a per-job pickled tree.  The facade answers are
    byte-identical to the in-memory tree (the differential suite in
    ``tests/index`` proves it), so clusters equal
    :func:`djcluster_sequential`'s.
    """
    hdfs = runner.hdfs
    pre = run_preprocessing_pipeline(
        runner, input_path, params, workdir, name_prefix=name_prefix
    )
    preprocessed_path = pre.output_path
    prepared = hdfs.read_trace_array(preprocessed_path)
    n = len(prepared)
    if n == 0:
        return DJClusterResult(
            prepared, [], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), params,
            sim_seconds=pre.sim_seconds, stage_sim_seconds={"preprocessing": pre.sim_seconds},
        )

    build_t0 = runner.history.clock
    index, _built = IndexCatalog(hdfs).ensure(
        runner,
        preprocessed_path,
        n_partitions=max(1, runner.cluster.total_reduce_slots() // 2),
        curve=rtree_curve,
        max_entries=params.rtree_max_entries,
    )
    runner.cache.replace(RTREE_CACHE_KEY, index.to_portable())
    rtree_sim_seconds = runner.history.clock - build_t0

    conf = Configuration(
        {
            "djcluster.radius_m": params.radius_m,
            "djcluster.min_pts": params.min_pts,
        }
    )
    cluster_out = f"{workdir}/clusters"
    hdfs.delete(cluster_out, missing_ok=True)
    res = runner.run(
        JobSpec(
            name=f"{name_prefix}-neighborhood-merge",
            mapper=NeighborhoodMapper,
            reducer=MergeReducer,
            input_paths=[preprocessed_path],
            output_path=cluster_out,
            conf=conf,
            num_reducers=1,
            partitioner=ConstantKeyPartitioner(),
            map_cost_factor=2.5,  # per-trace R-tree lookups beat a scan
        )
    )
    clusters = [np.asarray(ids, dtype=np.int64) for _, ids in hdfs.read_records(cluster_out)]
    clusters.sort(key=lambda ids: (int(ids[0]), len(ids)))
    labels, noise = _label_clusters(n, clusters)
    stage_sim = {
        "preprocessing": pre.sim_seconds,
        # Clock delta over the build step: the MapReduce build's two jobs
        # on a catalog miss, 0.0 on a catalog hit (the reuse win).
        "rtree_build": rtree_sim_seconds,
        "neighborhood_merge": res.sim_seconds,
    }
    runner.history.emit(
        EventKind.DRIVER_ANNOTATION,
        res.job_name,
        runner.history.clock,
        driver="djcluster",
        n_clusters=len(clusters),
        n_noise=int(len(noise)),
        stage_sim_seconds={k: float(v) for k, v in stage_sim.items()},
    )
    return DJClusterResult(
        prepared,
        clusters,
        noise,
        labels,
        params,
        sim_seconds=sum(stage_sim.values()),
        stage_sim_seconds=stage_sim,
    )
