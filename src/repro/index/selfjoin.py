"""Vectorized radius self-join: every point's r-neighborhood at once.

DJ-Cluster's neighborhood phase queries the index once *per trace* —
``O(n log n)`` with an R-tree, but in Python the per-query constant
dominates.  When the query set *is* the indexed set (the self-join
case), a grid-hash join computes all neighborhoods array-at-a-time:
bucket points' unit vectors into cubes at least a chord of the radius
wide, sort them by one folded cell key, find each row's 3x3x3 cube
neighbourhood with binary searches over the sorted keys, and refine the
(row, candidate) pairs with the unit-sphere radius kernel
(:func:`~repro.geo.distance.within_radius`) over bounded slabs.  No
Python loop runs per cell or per point.

The grid lives on the unit sphere, not in degrees, so it has no seam at
±180° and no latitude-dependent cell width: two points within the radius
are within one cube on every axis wherever they lie, and a point at a
pole widens no one else's cells.

``groups`` partitions the rows (one group per user, say): a row's
neighborhood is then confined to rows of its own group.  The group is
the leading digit of the cell key, so rows of different groups never
meet as candidates, however close they lie.

Results are exactly the per-point ``RTree.query_radius`` sets (the
property tests assert it); the sequential DJ-Cluster uses this kernel,
while the MapReduce mapper keeps the paper's R-tree formulation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geo.distance import unit_vectors, within_radius
from repro.geo.grid import unique_rows
from repro.index.rtree import _check_radius_queries, _order_hits_by_query

__all__ = ["radius_self_join", "self_join_csr"]

#: (row, candidate) pairs refined per radius-kernel call: the join's
#: transients are a dozen arrays of this length whatever the cell
#: populations, and it makes ``ceil(candidates / _SLAB_PAIRS)`` calls.
_SLAB_PAIRS = 1 << 18

#: The largest cell key a fold may produce.
_KEY_LIMIT = np.iinfo(np.int64).max


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
    points, band = _check_radius_queries(points, radius_m)
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
    vectors = unit_vectors(points)
    if radius_m == 0:
        # Exact-coordinate classes only (a pair an ulp apart may also be at
        # Haversine distance 0, but no pruning box admits it): one cell
        # per class, no two adjacent.
        cells = np.ones((3, n), dtype=np.int64)
        cells[2] = 2 * unique_rows(points[:, 0], points[:, 1], return_inverse=True)[1] + 1
        key, n_y, n_z = _fold(cells, group)
    else:
        # Cubes at least as wide as any coordinate of p̂ - q̂ for a pair the
        # kernel may keep, so such a pair differs by at most one cube on
        # each axis.  A wider cube keeps that promise, so a fold that
        # cannot fit an int64 even squeezed is retried with coarser cubes.
        side = band.chord
        while (folded := _fold(np.floor(vectors / side).astype(np.int64), group)) is None:
            side *= 2.0
        key, n_y, n_z = folded
    order = np.argsort(key, kind="stable")
    key, points, vectors = key[order], points[order], vectors[:, order]

    # From here a row is named by its place in cell order.  A cube's
    # three z neighbours have consecutive keys, hence form one run of
    # consecutive places: nine runs per cube, found by eighteen binary
    # searches over the occupied cubes and shared by the cube's rows.
    # Candidate q of the join is the q-th entry of the concatenation of
    # the 9n runs (step-major, then row).
    cell_start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1], [True])))
    cell_key = key[cell_start[:-1]]
    cell_of = np.repeat(np.arange(len(cell_key)), np.diff(cell_start))
    steps = (np.arange(-1, 2)[:, None] * (n_y * n_z) + np.arange(-1, 2) * n_z).reshape(9, 1)
    begin = cell_start[np.searchsorted(cell_key, cell_key + steps - 1, side="left")]
    end = cell_start[np.searchsorted(cell_key, cell_key + steps + 1, side="right")]
    run_start = begin[:, cell_of].ravel()
    run_len = (end - begin)[:, cell_of].ravel()
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
        close = np.flatnonzero(within_radius(band, vectors, points, rows, vectors, points, cand))
        hit_rows.append(order[rows[close]])
        hit_ids.append(order[cand[close]])
    return _order_hits_by_query(np.concatenate(hit_rows), np.concatenate(hit_ids), n)


def _fold(cells: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, int, int] | None:
    """One ``int64`` key per column of ``(3, n)`` integer cells, ordered by
    (group, x, y, z), and the key's y and z spans; ``None`` if it cannot
    fit.  Every axis is shifted to start at 1 and keeps an empty cell at
    both ends, so a key +-1 (z), +-n_z (y) or +-n_y n_z (x) is a
    neighbouring cell of the same group or no cell at all.  Consumes
    ``cells``."""
    cells -= cells.min(axis=1, keepdims=True) - 1
    spans = (cells.max(axis=1) + 2).tolist()
    if (int(group.max()) + 1) * math.prod(spans) > _KEY_LIMIT:
        # Tiny cubes x wide extent x many groups: squeeze each axis to at
        # most 2n + 1 values, the group folded into the x axis (a cube is
        # at least 2.8e-7 wide, so an axis spans under 10^7 cells and the
        # group fold itself fits).
        cells[0] = _squeeze(group * spans[0] + cells[0])
        cells[1] = _squeeze(cells[1])
        cells[2] = _squeeze(cells[2])
        spans = (cells.max(axis=1) + 2).tolist()
        if math.prod(spans) > _KEY_LIMIT:
            return None
    else:
        cells[0] += group * spans[0]
    x, y, z = cells
    n_y, n_z = spans[1], spans[2]
    return (x * n_y + y) * n_z + z, n_y, n_z


def _squeeze(values: np.ndarray) -> np.ndarray:
    """Stand-ins from 1 up that keep equal values equal, values one apart
    one apart and every wider gap at two: adjacency survives, the span
    shrinks to at most twice the number of distinct values."""
    distinct, inverse = np.unique(values, return_inverse=True)
    squeezed = np.concatenate(([1], 1 + np.cumsum(np.minimum(np.diff(distinct), 2))))
    return squeezed[inverse.reshape(len(values))]
