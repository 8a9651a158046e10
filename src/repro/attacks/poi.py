"""POI extraction: from clusters to labelled points of interest.

"Currently the clustering algorithms that we have implemented can be used
primarily to extract the POIs of an individual from his trail of mobility
traces" (Section VIII).  A POI estimate summarizes one cluster: its
centroid, how many traces support it, the total dwell time and the
hour-of-day visit histogram — enough to run the classic home/work
labelling heuristic (home: night-time mass; work: working-hours mass).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.djcluster import DJClusterParams, DJClusterResult, djcluster_sequential
from repro.geo.grid import ragged_arange
from repro.geo.trace import TraceArray

__all__ = [
    "PointOfInterestEstimate",
    "extract_pois",
    "extract_pois_kmeans",
    "label_home_work",
    "poi_attack",
    "NIGHT_HOURS",
    "WORK_HOURS",
]

#: Hours counted as "night" (home heuristic): 22:00–06:00 UTC-local.
NIGHT_HOURS = frozenset({22, 23, 0, 1, 2, 3, 4, 5})
#: Hours counted as "working hours" (work heuristic): 09:00–17:00.
WORK_HOURS = frozenset(range(9, 18))


@dataclass
class PointOfInterestEstimate:
    """One inferred POI of an individual."""

    latitude: float
    longitude: float
    n_traces: int
    dwell_time_s: float
    hour_histogram: np.ndarray  # 24 bins of trace counts
    label: str = "poi"
    cluster_index: int = -1

    @property
    def coordinate(self) -> tuple[float, float]:
        return (self.latitude, self.longitude)

    def night_fraction(self) -> float:
        total = self.hour_histogram.sum()
        if total == 0:
            return 0.0
        return float(sum(self.hour_histogram[h] for h in NIGHT_HOURS) / total)

    def work_fraction(self) -> float:
        total = self.hour_histogram.sum()
        if total == 0:
            return 0.0
        return float(sum(self.hour_histogram[h] for h in WORK_HOURS) / total)


def _hours_of(timestamps: np.ndarray) -> np.ndarray:
    """Hour-of-day (0–23, UTC) of each timestamp, vectorized."""
    return ((timestamps // 3600) % 24).astype(np.int64)


def _dwell_time(timestamps: np.ndarray, gap_s: float = 1800.0) -> float:
    """Total time spent in a cluster: sum of visit spans.

    Consecutive cluster timestamps more than ``gap_s`` apart start a new
    visit, so commuting away and returning does not inflate the dwell.
    """
    if len(timestamps) < 2:
        return 0.0
    ts = np.sort(timestamps)
    gaps = np.diff(ts)
    return float(gaps[gaps <= gap_s].sum())


def extract_pois(result: DJClusterResult, min_traces: int = 1) -> list[PointOfInterestEstimate]:
    """Summarize each cluster of a DJ-Cluster result as a POI estimate."""
    points = result.preprocessed.coordinates()
    timestamps = result.preprocessed.timestamp
    pois: list[PointOfInterestEstimate] = []
    for idx, ids in enumerate(result.clusters):
        if len(ids) < min_traces:
            continue
        center = points[ids].mean(axis=0)
        hours = _hours_of(timestamps[ids])
        histogram = np.bincount(hours, minlength=24)
        pois.append(
            PointOfInterestEstimate(
                latitude=float(center[0]),
                longitude=float(center[1]),
                n_traces=int(len(ids)),
                dwell_time_s=_dwell_time(timestamps[ids]),
                hour_histogram=histogram,
                cluster_index=idx,
            )
        )
    pois.sort(key=lambda p: -p.n_traces)
    return pois


def label_home_work(pois: list[PointOfInterestEstimate]) -> list[PointOfInterestEstimate]:
    """Label the most plausible home and work POIs in place.

    Home is the POI with the largest night-time trace mass; work is the
    remaining POI with the largest working-hours mass.  Other POIs keep
    the generic ``"poi"`` label.  Returns the same list for chaining.
    """
    if not pois:
        return pois
    for p in pois:
        p.label = "poi"
    by_night = max(pois, key=lambda p: (p.night_fraction() * p.n_traces, p.n_traces))
    by_night.label = "home"
    candidates = [p for p in pois if p is not by_night]
    if candidates:
        by_work = max(candidates, key=lambda p: (p.work_fraction() * p.n_traces, p.n_traces))
        if by_work.work_fraction() > 0:
            by_work.label = "work"
    return pois


def segmented_pois(
    prepared: TraceArray, members: np.ndarray, starts: np.ndarray, max_pois: int
) -> tuple[np.ndarray, list[str], np.ndarray, np.ndarray]:
    """:func:`extract_pois`, :func:`label_home_work` and a top-``max_pois``
    cut for the clusters of many users at once.

    Cluster *c* is rows ``members[starts[c]:starts[c + 1]]`` of the
    (user, time)-sorted ``prepared``, and no cluster spans two users.
    Returns ``(states, labels, owners, n_states)``: the kept POIs' mean
    coordinates and labels, user after user (``owners``, ascending user
    indices, ``n_states`` POIs each), a user's largest first and equal
    sizes in cluster order, like the stable sort.  Labels are chosen over
    all of a user's clusters *before* the cut, as the serial attack does.
    """
    sizes = np.diff(np.append(starts, len(members)))
    owner = prepared.user_index[members[starts]]
    histograms = np.bincount(
        np.repeat(np.arange(len(starts)), sizes) * 24 + _hours_of(prepared.timestamp[members]),
        minlength=24 * len(starts),
    ).reshape(-1, 24)
    order = np.lexsort((-sizes, owner))
    owner, sizes, histograms = owner[order], sizes[order], histograms[order]
    first = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
    rank = np.arange(len(owner)) - np.repeat(first, np.diff(np.append(first, len(owner))))
    night = histograms[:, sorted(NIGHT_HOURS)].sum(axis=1)
    work = histograms[:, sorted(WORK_HOURS)].sum(axis=1)
    # ``max(pois, key=(fraction * n, n))`` is the first maximum: the head
    # of each owner's clusters sorted by (-score, -n, rank).
    home = np.lexsort((rank, -sizes, -(night / sizes * sizes), owner))[first]
    is_home = np.zeros(len(owner), dtype=bool)
    is_home[home] = True
    runner_up = np.lexsort((rank, -sizes, -(work / sizes * sizes), is_home, owner))[first]
    labels = np.array(["poi"] * len(owner), dtype=object)
    labels[home] = "home"
    labels[runner_up[~is_home[runner_up] & (work[runner_up] > 0)]] = "work"
    keep = rank < max_pois
    # A POI is its cluster's mean coordinate.  (The dwell time, which the
    # chain never reads, is not computed at all.)
    states = _segment_means(prepared.coordinates(), members, starts[order[keep]], sizes[keep])
    return (states, labels[keep].tolist(), *np.unique(owner[keep], return_counts=True))


def _segment_means(
    points: np.ndarray, members: np.ndarray, lo: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """``points[members[lo[i]:lo[i] + sizes[i]]].mean(axis=0)`` for every
    segment *i* (``sizes`` >= 1), bit for bit, in one reduction per
    power-of-two size class.

    ``mean(axis=0)`` of an (m, 2) array adds its rows one after the
    other — the row axis is the outer loop of the reduction, never the
    pairwise-summed inner one — then divides by m.  A segmented
    ``add.reduceat`` runs along the segment instead, sums pairwise, and
    lands an ulp away.  Stacking a size class as (rows, segments, 2) and
    reducing over the leading axis keeps the row-after-row order; the
    rows a short segment lacks are -0.0, which adds to any float without
    changing a bit (signed zeros included).  A class holds sizes of one
    bit length, so the padding at most doubles the stacked rows.
    """
    points = np.asarray(points, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    means = np.empty((len(sizes), points.shape[1]))
    size_class = np.frexp(sizes)[1]  # the bit length of each size
    for bits in np.unique(size_class).tolist():
        segment = np.flatnonzero(size_class == bits)
        length = sizes[segment]
        # Row ``at`` of segment ``column`` is member ``lo + at``.
        column, at = ragged_arange(length)
        stack = np.full((int(length.max()), len(segment), points.shape[1]), -0.0)
        stack[at, column] = points[members[lo[segment][column] + at]]
        means[segment] = np.add.reduce(stack, axis=0) / length[:, None]
    return means


def poi_attack(
    trail: TraceArray,
    params: DJClusterParams = DJClusterParams(),
    min_traces: int = 1,
) -> list[PointOfInterestEstimate]:
    """The end-to-end POI inference attack on one individual's trail.

    Runs DJ-Cluster on the trail (with preprocessing) and labels the
    resulting POIs.  This is the sequential attack path; for dataset-scale
    attacks use the MapReduced DJ-Cluster and :func:`extract_pois`.
    """
    result = djcluster_sequential(trail, params)
    return label_home_work(extract_pois(result, min_traces=min_traces))


def extract_pois_kmeans(
    array: TraceArray,
    k: int,
    metric: str = "squared_euclidean",
    min_traces: int = 1,
    seed: int = 0,
    preprocess_params: DJClusterParams | None = None,
) -> list[PointOfInterestEstimate]:
    """POI extraction via k-means instead of DJ-Cluster.

    GEPETO's other clusterer applied to the same attack, kept for the
    comparison the paper motivates DJ-Cluster with: k-means needs ``k``
    known in advance, centroids are dragged by outliers and transit
    points, and there is no noise concept — every trace lands in some
    cluster.  The clusterer ablation bench quantifies the gap.

    ``preprocess_params`` optionally applies the same speed/dedup filters
    DJ-Cluster uses (recommended, else commute traces dominate).
    """
    from repro.algorithms.djcluster import preprocess_array
    from repro.algorithms.kmeans import assign_points, kmeans_sequential

    if preprocess_params is not None:
        _, array = preprocess_array(array, preprocess_params)
    array = array.sort_by_time()
    if len(array) < k:
        return []
    points = array.coordinates()
    result = kmeans_sequential(points, k, metric, seed=seed)
    assignment = assign_points(points, result.centroids, metric)
    timestamps = array.timestamp
    pois: list[PointOfInterestEstimate] = []
    for cid in range(k):
        members = np.flatnonzero(assignment == cid)
        if len(members) < min_traces:
            continue
        hours = _hours_of(timestamps[members])
        pois.append(
            PointOfInterestEstimate(
                latitude=float(result.centroids[cid, 0]),
                longitude=float(result.centroids[cid, 1]),
                n_traces=int(len(members)),
                dwell_time_s=_dwell_time(timestamps[members]),
                hour_histogram=np.bincount(hours, minlength=24),
                cluster_index=cid,
            )
        )
    pois.sort(key=lambda p: -p.n_traces)
    return pois
