"""k-means clustering, sequential and MapReduced (Section VI, Figure 4).

MapReducing k-means "amounts to MapReducing each iteration of the
algorithm, thus implementing each k-means iteration as a MapReduce job":

* the **initialization** randomly picks ``k`` traces as initial centroids
  — computationally cheap, performed by the driver on a single node;
* the **map** phase assigns each mobility trace to the closest centroid
  (Algorithm 1);
* the **reduce** phase computes the new centroid of each cluster by
  averaging its assigned points (Algorithm 2);
* the **driver** iterates, writing a new ``clusters-i`` directory per
  iteration, until centroids move less than ``convergencedelta`` or
  ``maxIter`` is reached (Algorithm 3, Table II's runtime arguments).

The optional **combiner** implements the related-work speed-up: partial
per-cluster sums computed mapper-side, so only ``k`` small records per map
task cross the shuffle instead of the whole dataset (ablation X3).

Mappers are vectorized: :func:`nearest_centroid` assigns a chunk's traces
at once, ranking candidates by a cheap key monotone in the distance
(Section VI's squared-Euclidean argument, applied to Haversine as the dot
product of unit vectors); one stable gather cuts the chunk into
per-cluster point blocks, emitted so the shuffle-byte accounting still
reflects the paper's per-trace intermediate volume.  The points never
move, so a stored chunk's unit vectors are derived once and kept on its
:class:`~repro.geo.trace.TraceArray`: a round pays trig only for the
``k`` centroids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.checks import count, finite_column
from repro.geo.distance import (
    _DOT_BAND,
    _TIE_BAND,
    EARTH_RADIUS_KM,
    METRIC_COST,
    get_metric,
    haversine_arg,
    haversine_km,
    pairwise,
    unit_vectors,
)
from repro.mapreduce.aggregation import Aggregation
from repro.mapreduce.config import Configuration
from repro.mapreduce.job import JobSpec, Mapper, Reducer
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.counters import STANDARD
from repro.mapreduce.types import Chunk, PagedPayload
from repro.observability.events import KMeansIteration

__all__ = [
    "nearest_centroid",
    "assign_points",
    "kmeans_sequential",
    "run_kmeans_mapreduce",
    "KMeansAggregation",
    "KMeansResult",
    "KMeansIterationStats",
    "CENTROIDS_CACHE_KEY",
]

#: Distributed-cache key the driver uses to publish current centroids.
CENTROIDS_CACHE_KEY = "kmeans.centroids"

#: Modelled bytes of one shuffled (cluster, trace) intermediate record.
_POINT_RECORD_BYTES = 16


# The near-tie bands, ``_TIE_BAND`` and ``_DOT_BAND``, and their proof
# live in ``repro.geo.distance``, beside the radius kernel they also bound.


def _first_true(mask: np.ndarray) -> np.ndarray:
    """Row of each column's first ``True`` in a ``(k, n)`` mask holding at
    least one per column: ``k - max(mask · [k, k-1, …, 1])``, the weighted
    max reducing down contiguous rows where ``argmax(axis=0)`` transposes
    and loops per column."""
    k = len(mask)
    weights = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))
    return k - (mask * weights[:, None]).max(axis=0).astype(np.intp)


def _exact_rows(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """The full ``haversine_km`` row of each point: the near-tie fallback,
    deliberately not through ``pairwise``."""
    lat, lon = points.T
    return haversine_km(lat[:, None], lon[:, None], centroids[:, 0], centroids[:, 1])


def _nearest(
    points: np.ndarray, centroids: np.ndarray, metric: str, finish: bool, units: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The kernel of both public functions.  With ``finish`` false the
    Haversine branch computes no distance beyond the near-tie rows' and
    returns ``None`` for them; ``units`` as the public functions take it."""
    points = finite_column(points, "coordinates")
    centroids = finite_column(centroids, "coordinates")
    if len(centroids) == 0:
        raise ValueError("nearest_centroid needs at least one centroid")
    fn = get_metric(metric)
    if fn is not haversine_km:
        key = pairwise(fn, centroids, points)
        best = key.min(axis=0)
        return _first_true(key == best), best
    if units is None:
        units = unit_vectors(points)
    elif units.shape != (3, len(points)):
        raise ValueError(f"units must be (3, {len(points)}), got {units.shape}")
    (cx, cy, cz), (px, py, pz) = unit_vectors(centroids)[:, :, None], units

    def cos_angle(*_):
        # cos θ = ĉ·p̂ of every (centroid, point) pair, three broadcast
        # multiply-adds: a ranking key only, larger is closer, ``a = (1 -
        # cos θ) / 2`` in exact arithmetic.  Called through ``pairwise``,
        # whose coordinates it ignores, so the e2e tracer counts the key.
        out = cx * px
        term = np.multiply(cy, py)
        out += term
        np.multiply(cz, pz, out=term)
        out += term
        return out

    key = pairwise(cos_angle, centroids, points)
    best = key.max(axis=0)
    index = _first_true(key == best)
    key[index, np.arange(len(points))] = -np.inf
    gap = (best - key.max(axis=0)) / 2.0
    a_best = np.clip((1.0 - best) / 2.0, 0.0, 1.0)
    scale = max(180.0, np.abs(points).max(initial=0.0), np.abs(centroids).max()) / 180.0
    close = np.flatnonzero(gap <= _DOT_BAND * scale + 2.0 * _TIE_BAND * a_best)
    distance = None
    if finish:
        a = haversine_arg(centroids[index, 0], centroids[index, 1], points[:, 0], points[:, 1])
        distance = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    if len(close):
        rows = _exact_rows(points[close], centroids)
        index[close] = np.argmin(rows, axis=1)
        if finish:
            distance[close] = rows.min(axis=1)
    return index, distance


def nearest_centroid(
    points: np.ndarray, centroids: np.ndarray, metric: str, *, units: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(index, distance)`` of the closest centroid for each (lat, lon) row.

    Bit for bit the position and value of each row's first minimum in
    ``pairwise(metric, points, centroids)`` — ties break toward the lowest
    centroid index — without building that matrix: candidates are ranked
    by a cheap monotone key evaluated centroid-major, so the reduction runs
    down contiguous rows, and only the winners are finished into
    distances.  Squared Euclidean is its own key; Haversine is ranked by
    the dot product of unit vectors (trig per point and per centroid, not
    per pair), and a point whose winner that product cannot prove takes
    its exact ``haversine_km`` row.  Non-finite coordinates are a
    ``ValueError``: a NaN centroid would otherwise be every point's
    nearest, a NaN point poison a mean.  So is an empty centroid set.

    ``units`` is the points' ``(3, n)``
    :func:`~repro.geo.distance.unit_vectors` when the caller keeps them
    (:meth:`TraceArray.unit_vectors`); Haversine derives them when it is
    omitted, squared Euclidean ignores it.
    """
    return _nearest(points, centroids, metric, True, units)


def assign_points(
    points: np.ndarray, centroids: np.ndarray, metric: str, *, units: np.ndarray | None = None
) -> np.ndarray:
    """Index of the closest centroid for each (lat, lon) row.

    :func:`nearest_centroid`'s index without its distances.  Ties break
    toward the lowest centroid index, which both the sequential and
    MapReduce paths share, so their assignments are bit-identical given
    identical centroids.
    """
    return _nearest(points, centroids, metric, False, units)[0]


def _update_centroids(
    points: np.ndarray, assignment: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Mean of each cluster's points; empty clusters keep their centroid."""
    k = len(centroids)
    sums = np.zeros((k, 2))
    np.add.at(sums, assignment, points)
    counts = np.bincount(assignment, minlength=k).astype(np.float64)
    new = centroids.copy()
    nonempty = counts > 0
    new[nonempty] = sums[nonempty] / counts[nonempty, None]
    return new


def _init_centroids(
    points: np.ndarray, k: int, seed: int, method: str = "random", metric: str = "squared_euclidean"
) -> np.ndarray:
    """Pick k initial centroids.

    ``"random"`` is the paper's initialization (k distinct input points,
    chosen uniformly — cheap, done by the driver on a single node).
    ``"kmeans++"`` is the D² seeding of Arthur & Vassilvitskii: each next
    centroid is drawn proportionally to its squared distance from the
    closest centroid so far — the classic fix for the paper's noted
    sensitivity of k-means "to changes in the input conditions".
    """
    if len(points) < k:
        raise ValueError(f"cannot pick {k} centroids from {len(points)} points")
    rng = np.random.default_rng(seed)
    if method == "random":
        idx = rng.choice(len(points), size=k, replace=False)
        return points[idx].copy()
    if method == "kmeans++":
        fn = get_metric(metric)
        chosen = [int(rng.integers(0, len(points)))]
        best_d = np.asarray(
            fn(points[:, 0], points[:, 1], points[chosen[0], 0], points[chosen[0], 1])
        )
        for _ in range(1, k):
            weights = np.maximum(best_d, 0.0)
            total = weights.sum()
            if total <= 0:  # all points coincide with a centroid
                remaining = np.setdiff1d(np.arange(len(points)), chosen)
                pick = int(rng.choice(remaining))
            else:
                pick = int(rng.choice(len(points), p=weights / total))
            chosen.append(pick)
            d_new = np.asarray(
                fn(points[:, 0], points[:, 1], points[pick, 0], points[pick, 1])
            )
            best_d = np.minimum(best_d, d_new)
        return points[chosen].copy()
    raise ValueError(f"unknown init method {method!r}; known: random, kmeans++")


@dataclass
class KMeansIterationStats:
    """Observability record for one MapReduce k-means iteration."""

    iteration: int
    sim_seconds: float
    shuffle_bytes: int
    max_centroid_move: float
    map_tasks: int
    #: Task attempts that crashed and were retried this iteration
    #: (nonzero only under failure injection / chaos schedules).
    failed_attempts: int = 0


@dataclass
class KMeansResult:
    """Final clustering plus per-iteration history."""

    centroids: np.ndarray
    n_iterations: int
    converged: bool
    inertia: float
    history: list[KMeansIterationStats] = field(default_factory=list)

    @property
    def total_sim_seconds(self) -> float:
        return sum(s.sim_seconds for s in self.history)

    @property
    def mean_iteration_sim_seconds(self) -> float:
        if not self.history:
            return 0.0
        return self.total_sim_seconds / len(self.history)


def _inertia(
    points: np.ndarray, centroids: np.ndarray, metric: str, units: np.ndarray | None = None
) -> float:
    return float(nearest_centroid(points, centroids, metric, units=units)[1].sum())


def _chunk_points(chunk: Chunk, metric: str) -> tuple[np.ndarray, np.ndarray | None]:
    """A stored chunk's coordinates and, for Haversine, its memoized unit
    vectors.  A paged chunk (a memory budget is set) gets ``None``: the
    kernel derives them per call, so the store's accounting stays the
    bound on what is resident."""
    array = chunk.trace_array()
    keep = get_metric(metric) is haversine_km and not isinstance(chunk.payload, PagedPayload)
    return array.coordinates(), array.unit_vectors() if keep else None


def _hdfs_inertia(hdfs, path: str, centroids: np.ndarray, metric: str) -> float:
    """Inertia of a stored corpus, one chunk resident at a time.

    The driver must never materialize the whole dataset: under a memory
    budget that would defeat the paged chunk store, and even unbudgeted
    the broadcasted full-corpus distance matrix dwarfs every other
    allocation of the run.  Chunk partials accumulate in float64, so the
    result matches the one-shot evaluation to rounding.
    """
    total = 0.0
    for chunk in hdfs.chunks(path):
        points, units = _chunk_points(chunk, metric)
        total += _inertia(points, centroids, metric, units)
    return total


def kmeans_sequential(
    points: np.ndarray,
    k: int,
    metric: str = "squared_euclidean",
    convergence_delta: float = 1e-4,
    max_iter: int = 150,
    seed: int = 0,
    initial_centroids: np.ndarray | None = None,
    init: str = "random",
) -> KMeansResult:
    """The classic single-node k-means (GEPETO's original implementation).

    ``convergence_delta`` bounds the largest centroid displacement (in the
    chosen metric) below which the clustering is declared stable, matching
    the ``convergencedelta`` runtime argument of Table II.  ``init``
    selects ``"random"`` (the paper) or ``"kmeans++"`` seeding.
    """
    # Both drivers check before any job: ``max_iter=0`` would return the
    # initial centroids as a result, ``True`` act as 1, ``k=0`` fail deep
    # in NumPy or the job runner.
    k, max_iter = count("k", k, 1), count("max_iter", max_iter, 1)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    get_metric(metric)
    centroids = (
        finite_column(initial_centroids, "coordinates").copy()
        if initial_centroids is not None
        else _init_centroids(points, k, seed, init, metric)
    )
    if centroids.shape != (k, 2):
        raise ValueError(f"initial centroids must be ({k}, 2)")
    # The points never move: their unit vectors are derived once, not per round.
    haversine = get_metric(metric) is haversine_km
    units = unit_vectors(finite_column(points, "coordinates")) if haversine else None
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        assignment = assign_points(points, centroids, metric, units=units)
        new_centroids = _update_centroids(points, assignment, centroids)
        move = _max_move(centroids, new_centroids, metric)
        centroids = new_centroids
        if move <= convergence_delta:
            converged = True
            break
    return KMeansResult(
        centroids=centroids,
        n_iterations=iteration,
        converged=converged,
        inertia=_inertia(points, centroids, metric, units),
    )


def _max_move(old: np.ndarray, new: np.ndarray, metric: str) -> float:
    fn = get_metric(metric)
    moves = fn(old[:, 0], old[:, 1], new[:, 0], new[:, 1])
    return float(np.max(np.atleast_1d(moves))) if len(old) else 0.0


class KMeansMapper(Mapper):
    """Assignment step (Algorithm 1), vectorized over the chunk.

    Loads current centroids from the distributed cache in ``setup`` (the
    paper's ``centroids <- load from file``), assigns every trace with one
    :func:`assign_points` call (Haversine against the unit vectors the
    chunk keeps across rounds), groups the chunk with one stable sort of
    the assignment and one gather, and emits each non-empty cluster's rows
    (ascending id, chunk order inside) as one point block whose modelled
    size equals the per-trace intermediate volume.
    """

    def setup(self, ctx) -> None:
        self._centroids = np.asarray(ctx.cache.get(CENTROIDS_CACHE_KEY), dtype=np.float64)
        self._metric = ctx.conf.get_str("kmeans.distance", "squared_euclidean")

    def run(self, chunk: Chunk, ctx) -> None:
        if chunk.n_records == 0:
            return
        points, units = _chunk_points(chunk, self._metric)
        k = len(self._centroids)
        assignment = assign_points(points, self._centroids, self._metric, units=units)
        # Ids of at most 16 bits take NumPy's stable radix sort.
        order = np.argsort(assignment.astype(np.min_scalar_type(k - 1)), kind="stable")
        grouped = points[order]
        counts = np.bincount(assignment, minlength=k)
        ends = np.cumsum(counts)
        for cid in np.flatnonzero(counts).tolist():
            block = grouped[ends[cid] - counts[cid] : ends[cid]]
            ctx.emit(
                cid,
                block,
                nbytes=len(block) * _POINT_RECORD_BYTES,
                n_records=len(block),
            )


class KMeansCombiner(Reducer):
    """Mapper-local partial sums (the related-work combiner speed-up).

    Folds each point block into ``(sum_lat_lon, count)`` so only one tiny
    record per (map task, cluster) reaches the shuffle.
    """

    def reduce(self, key, values, ctx) -> None:
        total = np.zeros(2)
        count = 0
        for block in values:
            total += block.sum(axis=0)
            count += len(block)
        ctx.emit(key, (total, count), nbytes=24)


class KMeansAggregation(Aggregation):
    """The update step declared as a monoid: ``(sum_lat_lon, count)``.

    The partial is exactly the combiner's record — a per-cluster
    coordinate sum plus a point count — but declared as an
    :class:`~repro.mapreduce.aggregation.Aggregation` the runner can
    pre-aggregate worker-side and ship through the metadata-only
    shuffle: one 24-byte envelope per (node, cluster) crosses the
    network instead of one record per (map task, cluster).
    ``finalize`` mirrors :class:`KMeansReducer` (including the
    empty-cluster skip), so a job emits the same records with the
    aggregation declared or with the reducer.
    """

    #: sum_lat + sum_lon (float64) + count, matching the combiner's
    #: modelled 24-byte record.
    envelope_nbytes = 24

    def lift(self, key, block):
        return (block.sum(axis=0), len(block))

    def merge(self, acc, partial):
        return (acc[0] + partial[0], acc[1] + partial[1])

    def finalize(self, key, acc, ctx) -> None:
        total, count = acc
        if count == 0:
            return
        centroid = total / count
        ctx.emit(int(key), (float(centroid[0]), float(centroid[1]), int(count)))

    def lift_pairs(self, pairs):
        # One block.sum per emitted block — the same NumPy reduction the
        # combiner performs, folded per cluster id in arrival order (the
        # mapper emits each cluster at most once per task, so this is
        # trivially bit-identical to the object loop).
        acc: dict[int, tuple] = {}
        for key, block in pairs:
            partial = (block.sum(axis=0), len(block))
            acc[key] = self.merge(acc[key], partial) if key in acc else partial
        return [(key, acc[key]) for key in sorted(acc)]


class KMeansReducer(Reducer):
    """Update step (Algorithm 2): average each cluster's points.

    Accepts both raw point blocks (no combiner) and ``(sum, count)``
    partials (combiner enabled).
    """

    def reduce(self, key, values, ctx) -> None:
        total = np.zeros(2)
        count = 0
        for value in values:
            if isinstance(value, tuple):
                partial_sum, partial_count = value
                total += partial_sum
                count += partial_count
            else:
                total += value.sum(axis=0)
                count += len(value)
        if count == 0:
            return
        centroid = total / count
        ctx.emit(int(key), (float(centroid[0]), float(centroid[1]), int(count)))


def run_kmeans_mapreduce(
    runner: JobRunner,
    input_path: str,
    k: int,
    distance: str = "squared_euclidean",
    convergence_delta: float = 1e-4,
    max_iter: int = 150,
    seed: int = 0,
    initial_centroids: np.ndarray | None = None,
    init: str = "random",
    use_combiner: bool = False,
    use_aggregation: bool = False,
    workdir: str = "tmp/kmeans",
    name_prefix: str = "kmeans",
) -> KMeansResult:
    """The k-means driver (Algorithm 3): one MapReduce job per iteration.

    Each iteration writes a ``{workdir}/clusters-{i}`` file holding the
    new centroids (Figure 4's per-iteration clusters directory) and
    republished them in the distributed cache for the next map phase.

    ``use_combiner`` enables the object-level combiner (ablation X3);
    ``use_aggregation`` declares :class:`KMeansAggregation` as each
    iteration's reduce instead of :class:`KMeansReducer`: map-side
    vectorized pre-aggregation and the metadata-only shuffle (the
    shuffle-byte minimization benchmark).  Declaring the aggregation or
    not *is* the ablation; with both knobs on, the pre-aggregation
    supersedes the combiner.

    Every iteration's job emits its full event stream into
    ``runner.history`` and the driver adds one ``driver_annotation``
    event per iteration (centroid movement, convergence), so the history
    file is the per-iteration trace Table III's analysis needs;
    ``runner.history.save(path)`` exports it (``.json``/``.jsonl``).

    ``runner`` may also be a
    :class:`~repro.mapreduce.service.TenantClient`: the per-iteration
    centroid publishes then touch only that tenant's distributed cache,
    and each iteration's job is snapshotted at submit time, so
    concurrent tenants iterating on the same input never see each
    other's centroids (``docs/JOBSERVICE.md``).

    ``name_prefix`` namespaces the per-iteration job names
    (``{name_prefix}-iter-{i}``) so several runs can share one history
    without colliding — the streaming layer passes a per-window prefix.
    """
    k, max_iter = count("k", k, 1), count("max_iter", max_iter, 1)
    get_metric(distance)
    hdfs = runner.hdfs
    if initial_centroids is not None:
        centroids = finite_column(initial_centroids, "coordinates").copy()
    else:
        # Seeding is the one step that wants the corpus in hand; with
        # explicit centroids the driver never materializes it at all.
        all_points = hdfs.read_trace_array(input_path).coordinates()
        centroids = _init_centroids(all_points, k, seed, init, distance)
        del all_points
    if centroids.shape != (k, 2):
        raise ValueError(f"initial centroids must be ({k}, 2)")

    conf = Configuration({"kmeans.distance": distance, "kmeans.k": k})
    cost_factor = METRIC_COST.get(distance, 1.0)
    history: list[KMeansIterationStats] = []
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        runner.cache.replace(CENTROIDS_CACHE_KEY, centroids)
        out_path = f"{workdir}/clusters-{iteration}"
        hdfs.delete(out_path, missing_ok=True)
        result = runner.run(
            JobSpec(
                name=f"{name_prefix}-iter-{iteration}",
                mapper=KMeansMapper,
                reducer=None if use_aggregation else KMeansReducer,
                combiner=KMeansCombiner if use_combiner else None,
                aggregation=KMeansAggregation if use_aggregation else None,
                input_paths=[input_path],
                output_path=out_path,
                conf=conf,
                num_reducers=min(k, runner.cluster.total_reduce_slots()),
                map_cost_factor=cost_factor,
            )
        )
        new_centroids = centroids.copy()
        for cid, (lat, lon, _count) in hdfs.read_records(out_path):
            new_centroids[int(cid)] = (lat, lon)
        move = _max_move(centroids, new_centroids, distance)
        centroids = new_centroids
        history.append(
            KMeansIterationStats(
                iteration=iteration,
                sim_seconds=result.sim_seconds,
                shuffle_bytes=result.counters.value(
                    STANDARD.GROUP_TASK, STANDARD.SHUFFLE_BYTES
                ),
                max_centroid_move=move,
                map_tasks=result.n_map_tasks,
                failed_attempts=result.counters.value(
                    STANDARD.GROUP_SCHEDULER, STANDARD.FAILED_TASKS
                ),
            )
        )
        converged_now = move <= convergence_delta
        runner.history.emit(
            KMeansIteration(
                iteration=iteration,
                max_centroid_move=float(move),
                converged=converged_now,
                sim_seconds=result.sim_seconds,
            ),
            result.job_name,
            runner.history.clock,
        )
        if converged_now:
            converged = True
            break
    return KMeansResult(
        centroids=centroids,
        n_iterations=iteration,
        converged=converged,
        inertia=_hdfs_inertia(hdfs, input_path, centroids, distance),
        history=history,
    )
