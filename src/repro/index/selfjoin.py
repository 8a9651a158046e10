"""Vectorized radius self-join: every point's r-neighborhood at once.

DJ-Cluster's neighborhood phase queries the index once *per trace* —
``O(n log n)`` with an R-tree, but in Python the per-query constant
dominates.  When the query set *is* the indexed set (the self-join
case), a grid-hash join computes all neighborhoods array-at-a-time:
bucket points into radius-sized cells, sort them by one folded cell key,
find each row's 3x3 cell neighbourhood with binary searches over the
sorted keys, and refine the (row, candidate) pairs with flat Haversine
calls over bounded slabs.  No Python loop runs per cell or per point.

``groups`` partitions the rows (one group per user, say): a row's
neighborhood is then confined to rows of its own group.  The group is
the leading digit of the cell key, so rows of different groups never
meet as candidates, however close they lie.

Results are exactly the per-point ``RTree.query_radius`` sets (the
property tests assert it); the sequential DJ-Cluster uses this kernel,
while the MapReduce mapper keeps the paper's R-tree formulation.
"""

from __future__ import annotations

import numpy as np

from repro.geo.distance import haversine_m
from repro.geo.grid import unique_rows
# Below the true ~111,195 m/deg of the Haversine sphere, so a grid cell is
# at least radius-sized in both axes and no pair escapes the 3x3 join.
from repro.index.rtree import _M_PER_DEG_LAT, _check_radius_queries, _order_hits_by_query

__all__ = ["radius_self_join", "self_join_csr"]

#: (row, candidate) pairs refined per Haversine call: the join's
#: transients are a dozen arrays of this length whatever the cell
#: populations, and it makes ``ceil(candidates / _SLAB_PAIRS)`` calls.
_SLAB_PAIRS = 1 << 18


def radius_self_join(
    points: np.ndarray, radius_m: float, groups: np.ndarray | None = None
) -> list[np.ndarray]:
    """For each (lat, lon) row, the sorted indices within ``radius_m``.

    Each point's neighborhood includes itself.  With ``groups`` (one
    integer per row) it holds rows of the point's own group only.
    Arguments are validated exactly as :meth:`RTree.query_radius_batch`
    validates them.  The arrays are slices of one shared ``int64`` buffer.
    """
    ids, counts = self_join_csr(points, radius_m, groups)
    return np.split(ids, np.cumsum(counts)[:-1]) if len(counts) else []


def self_join_csr(
    points: np.ndarray, radius_m: float, groups: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`radius_self_join` unsplit: ``(ids, counts)``, row *i*'s
    neighborhood being the ``counts[i]`` ids after those of rows ``0..i-1``."""
    points = _check_radius_queries(points, radius_m)
    n = len(points)
    if groups is None:
        group = np.zeros(n, dtype=np.int64)
    else:
        groups = np.asarray(groups)
        if groups.shape != (n,) or not np.issubdtype(groups.dtype, np.integer):
            raise ValueError("groups must be one integer per point")
        # Dense ranks: arbitrary (huge, negative) labels fold like 0..g-1.
        group = np.unique(groups, return_inverse=True)[1].astype(np.int64).reshape(n)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    lat, lon = points[:, 0], points[:, 1]
    if radius_m == 0:
        # Exact-coordinate classes only (a pair an ulp apart is also at
        # Haversine distance 0): one cell per class, no two adjacent.
        lat_band = np.ones(n, dtype=np.int64)
        lon_band = 2 * unique_rows(lat, lon, return_inverse=True)[1] + 1
    else:
        # Cells only need to be *at least* radius-sized; a floor keeps the
        # integer band computation finite for degenerate tiny radii (the
        # exact refinement below still uses the true radius).
        bucket_m = max(radius_m, 1e-3)
        lat_band = np.floor(lat / (bucket_m / _M_PER_DEG_LAT)).astype(np.int64)
        # One *global* longitude cell width (sized for the dataset's worst
        # latitude) keeps the grid uniform, so any two points within the
        # radius differ by at most one band on each axis and the 3x3
        # neighbourhood join is exhaustive.
        min_cos = max(float(np.min(np.cos(np.radians(lat)))), 1e-9)
        lon_band = np.floor(lon / (bucket_m / (_M_PER_DEG_LAT * min_cos))).astype(np.int64)
        # Bands start at 1 and every axis keeps an empty band at both ends,
        # so a cell key +-1 (the lon neighbours) or +-n_lon (the lat
        # neighbours) is another cell of the same group or no cell at all.
        lat_band -= lat_band.min() - 1
        lon_band -= lon_band.min() - 1
    n_lat = int(lat_band.max()) + 2
    if (int(group.max()) + 1) * n_lat * (int(lon_band.max()) + 2) > np.iinfo(np.int64).max:
        # Tiny radius x wide extent x many groups: the (group, lat band,
        # lon band) fold cannot fit an int64 until each axis is squeezed
        # to at most 2n + 1 values.
        lat_band = _squeeze(lat_band)
        n_lat = int(lat_band.max()) + 2
        row = _squeeze(group * n_lat + lat_band)
        lon_band = _squeeze(lon_band)
    else:
        row = group * n_lat + lat_band
    n_lon = int(lon_band.max()) + 2
    key = row * n_lon + lon_band
    order = np.argsort(key, kind="stable")
    key, lat, lon = key[order], lat[order], lon[order]

    # From here a row is named by its place in cell order.  A lat band's
    # three lon neighbours have consecutive keys, hence form one run of
    # consecutive places: three runs per row, found by six binary
    # searches.  Candidate q of the join is the q-th entry of the
    # concatenation of those 3n runs.
    steps = np.array([[-n_lon], [0], [n_lon]])
    run_start = np.searchsorted(key, (key + steps - 1).ravel(), side="left")
    run_len = np.searchsorted(key, (key + steps + 1).ravel(), side="right") - run_start
    run_end = np.cumsum(run_len)
    # Place of a run's first candidate, less its number in the enumeration.
    run_shift = run_start - (run_end - run_len)
    total = int(run_end[-1])
    hit_rows: list[np.ndarray] = []
    hit_ids: list[np.ndarray] = []
    for lo in range(0, total, _SLAB_PAIRS):
        hi = min(lo + _SLAB_PAIRS, total)
        first, last = np.searchsorted(run_end, (lo, hi - 1), side="right")
        runs = np.arange(first, last + 1)
        inside = np.minimum(run_end[runs], hi) - np.maximum(run_end[runs] - run_len[runs], lo)
        rows = np.repeat(runs % n, inside)
        cand = np.repeat(run_shift[runs], inside) + np.arange(lo, hi)
        close = np.flatnonzero(
            haversine_m(lat[rows], lon[rows], lat[cand], lon[cand]) <= radius_m
        )
        hit_rows.append(order[rows[close]])
        hit_ids.append(order[cand[close]])
    return _order_hits_by_query(np.concatenate(hit_rows), np.concatenate(hit_ids), n)


def _squeeze(values: np.ndarray) -> np.ndarray:
    """Stand-ins from 1 up that keep equal values equal, values one apart
    one apart and every wider gap at two: adjacency survives, the span
    shrinks to at most twice the number of distinct values."""
    distinct, inverse = np.unique(values, return_inverse=True)
    squeezed = np.concatenate(([1], 1 + np.cumsum(np.minimum(np.diff(distinct), 2))))
    return squeezed[inverse.reshape(len(values))]
