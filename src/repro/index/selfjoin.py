"""Vectorized radius self-join: every point's r-neighborhood at once.

DJ-Cluster's neighborhood phase queries the index once *per trace* —
``O(n log n)`` with an R-tree, but in Python the per-query constant
dominates.  When the query set *is* the indexed set (the self-join
case), a grid-hash join computes all neighborhoods in a handful of
vectorized passes: bucket points into radius-sized cells, then for each
cell compare its members against the 3x3 cell neighbourhood with one
broadcasted Haversine evaluation.

Results are exactly the per-point ``RTree.query_radius`` sets (the
property tests assert it); the sequential DJ-Cluster uses this kernel,
while the MapReduce mapper keeps the paper's R-tree formulation.
"""

from __future__ import annotations

import numpy as np

from repro.geo.distance import haversine_m
from repro.index.rtree import _check_radius_queries

__all__ = ["radius_self_join"]

# Deliberately below the true ~111,195 m/deg of the Haversine sphere so a
# grid cell is always *at least* radius-sized in both axes; with the exact
# constant two in-radius points could straddle two band boundaries and
# escape the 3x3 neighbourhood join.
_M_PER_DEG_LAT = 111_000.0


def radius_self_join(points: np.ndarray, radius_m: float) -> list[np.ndarray]:
    """For each (lat, lon) row, the sorted indices within ``radius_m``.

    Each point's neighborhood includes itself.  Memory per cell-pair
    comparison is O(|cell| * |neighbourhood|), fine for the dwell-cluster
    densities mobility data exhibits.  Arguments are validated exactly
    as :meth:`RTree.query_radius_batch` validates them.
    """
    points = _check_radius_queries(points, radius_m)
    n = len(points)
    if n == 0:
        return []
    if radius_m == 0:
        # Exact-coordinate groups only.
        _, inverse = np.unique(points, axis=0, return_inverse=True)
        groups: dict[int, list[int]] = {}
        for i, g in enumerate(inverse):
            groups.setdefault(int(g), []).append(i)
        return [np.array(groups[int(inverse[i])], dtype=np.int64) for i in range(n)]

    lat, lon = points[:, 0], points[:, 1]
    # Cells only need to be *at least* radius-sized; a floor keeps the
    # integer band computation finite for degenerate tiny radii (the
    # exact refinement below still uses the true radius).
    bucket_m = max(radius_m, 1e-3)
    cell_lat = bucket_m / _M_PER_DEG_LAT
    lat_band = np.floor(lat / cell_lat).astype(np.int64)
    # One *global* longitude cell width (sized for the dataset's worst
    # latitude) keeps the grid uniform, so any two points within the
    # radius differ by at most one band on each axis and the 3x3
    # neighbourhood join is exhaustive.
    min_cos = max(float(np.min(np.cos(np.radians(lat)))), 1e-9)
    cell_lon = bucket_m / (_M_PER_DEG_LAT * min_cos)
    lon_band = np.floor(lon / cell_lon).astype(np.int64)

    # Bucket index: cell -> member row ids.
    order = np.lexsort((lon_band, lat_band))
    cells: dict[tuple[int, int], np.ndarray] = {}
    start = 0
    sorted_lat = lat_band[order]
    sorted_lon = lon_band[order]
    for i in range(1, n + 1):
        if i == n or sorted_lat[i] != sorted_lat[start] or sorted_lon[i] != sorted_lon[start]:
            cells[(int(sorted_lat[start]), int(sorted_lon[start]))] = order[start:i]
            start = i

    neighborhoods: list[np.ndarray | None] = [None] * n
    for (clat, clon), members in cells.items():
        candidates = [
            cells[(clat + dl, clon + dc)]
            for dl in (-1, 0, 1)
            for dc in (-1, 0, 1)
            if (clat + dl, clon + dc) in cells
        ]
        cand = np.concatenate(candidates)
        d = haversine_m(
            lat[members][:, None], lon[members][:, None],
            lat[cand][None, :], lon[cand][None, :],
        )
        close = np.atleast_2d(d) <= radius_m
        for row, point_id in enumerate(members):
            neighborhoods[int(point_id)] = np.sort(cand[close[row]])
    return neighborhoods  # type: ignore[return-value]
