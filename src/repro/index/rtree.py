"""R-tree spatial index (Guttman 1984) over mobility-trace coordinates.

"R-Trees are data structures commonly used for indexing multidimensional
data ... At the leaf level each rectangle contains only a single datapoint
while higher levels aggregate an increasing number of datapoints.  When
querying an R-Tree only the bounding rectangles intersecting the current
query are traversed." (Section VII-C.)

This implementation provides both construction paths the reproduction
needs:

* **STR bulk load** (:meth:`RTree.bulk_load`) — sort-tile-recursive
  packing, used by the MapReduce phase-2 reducers to index a partition;
* **dynamic insert** with Guttman's quadratic split (:meth:`RTree.insert`)
  — the classic algorithm, used in tests as the reference behaviour;

plus the queries DJ-Cluster needs: rectangle search, radius search
(metres, Haversine-refined) and k-nearest-neighbours, and the phase-3
**merge** of small R-trees into a global index.

Hot-path note: each internal node keeps its children's MBRs in one
``(fanout, 4)`` NumPy array so that the overlap test per visited node is a
single vectorized comparison, not a per-child Python loop.  Traversals
walk child *handles* and resolve each one once: in memory a handle is the
node itself, on persisted pages it is a page id (``persistent.py``), so
one traversal code answers both.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.geo.distance import haversine_m
from repro.geo.grid import finite_column

__all__ = ["Rect", "RTree", "DEFAULT_MAX_ENTRIES"]

#: Default node fanout (Guttman's M).
DEFAULT_MAX_ENTRIES = 32

#: Metres per degree of latitude, for radius -> bounding-box conversion.
#: Deliberately *below* the true ~111,195 m/deg of the Haversine sphere so
#: the pruning rectangle is a strict superset of the query disc — the box
#: may only ever admit extra candidates (discarded by the exact Haversine
#: refinement), never exclude a true neighbour.
_M_PER_DEG_LAT = 111_000.0

#: Absolute floor (degrees) on the pruning rectangle's half-widths for
#: positive radii.  Degree deltas below ~1e-13 vanish when ``haversine_m``
#: converts to radians (the difference rounds away), so such point pairs
#: have Haversine distance exactly 0 and belong to *every* positive-radius
#: neighbourhood; the floor keeps them inside the box.  Zero radii skip the
#: floor: they must match exact-coordinate grouping.
_DEG_EPS = 1e-12


def _radius_rects(lat: np.ndarray, lon: np.ndarray, radius_m: float) -> np.ndarray:
    """Degree-space pruning rectangles covering the Haversine discs of
    radius ``radius_m`` around each ``(lat, lon)``, as ``(n, 4)`` rows of
    ``(min_lat, min_lon, max_lat, max_lon)``.

    Conservative by construction: longitude width uses the smallest
    cosine over the rectangle's latitude band (widest meridian
    convergence), and a band touching a pole spans all longitudes.  Every
    operation is elementwise, so a row's bits do not depend on the rows
    beside it.
    """
    pad = _DEG_EPS if radius_m > 0 else 0.0
    dlat = radius_m / _M_PER_DEG_LAT + pad
    low, high = lat - dlat, lat + dlat
    rects = np.empty((len(low), 4), dtype=np.float64)
    rects[:, 0] = min_lat = np.maximum(low, -90.0)
    rects[:, 2] = max_lat = np.minimum(high, 90.0)
    cos_band = np.maximum(
        np.minimum(np.cos(np.radians(min_lat)), np.cos(np.radians(max_lat))), 1e-9
    )
    dlon = radius_m / (_M_PER_DEG_LAT * cos_band) + pad
    rects[:, 1] = np.maximum(lon - dlon, -180.0)
    rects[:, 3] = np.minimum(lon + dlon, 180.0)
    # A disc that may wrap a pole reaches every longitude.
    polar = (low <= -90.0) | (high >= 90.0)
    rects[polar, 1] = -180.0
    rects[polar, 3] = 180.0
    return rects


def _radius_rect(lat: float, lon: float, radius_m: float) -> Rect:
    """The pruning rectangle of one query: a one-row :func:`_radius_rects`."""
    return Rect(*_radius_rects(np.array([lat]), np.array([lon]), radius_m)[0].tolist())


def _check_radius_queries(points: np.ndarray, radius_m: float) -> np.ndarray:
    """The (n, 2) float64 query array of a many-point radius query, or
    ``ValueError``.  NaN compares false against everything, so unchecked
    poison comes back as an empty — plausible, wrong — neighborhood."""
    if not math.isfinite(radius_m):
        raise ValueError(f"radius must be finite, got {radius_m!r}")
    if radius_m < 0:
        raise ValueError("radius must be non-negative")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    if not np.isfinite(points).all():
        raise ValueError("query points must be finite (no NaN/inf coordinates)")
    return points


def _order_hits_by_query(
    queries: np.ndarray, ids: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unordered (query, id) hit pairs as one id array ordered by
    ``(query, id)`` plus the hit count of each of the ``n`` queries.

    Consumes both inputs.  The pairs are folded into one ``query * span +
    (id - lowest id)`` key and sorted in place, which orders them by
    ``(query, id)`` with no index array; id ranges too wide for that key
    to fit an ``int64`` take the equivalent ``lexsort``.
    """
    counts = np.bincount(queries, minlength=n)
    low = int(ids.min())
    span = int(ids.max()) - low + 1
    if n * span <= np.iinfo(np.int64).max:
        key = queries
        key *= span
        ids -= low
        key += ids
        key.sort()
        key %= span
        key += low
        ids = key
    else:
        ids = ids[np.lexsort((ids, queries))]
    return ids, counts


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in (latitude, longitude) space."""

    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float

    def __post_init__(self) -> None:
        if self.max_lat < self.min_lat or self.max_lon < self.min_lon:
            raise ValueError(f"degenerate rect: {self}")

    @classmethod
    def of_points(cls, points: np.ndarray) -> "Rect":
        """MBR of an (n, 2) array of (lat, lon) rows."""
        if len(points) == 0:
            raise ValueError("cannot bound zero points")
        return cls(
            float(points[:, 0].min()),
            float(points[:, 1].min()),
            float(points[:, 0].max()),
            float(points[:, 1].max()),
        )

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.min_lat > self.max_lat
            or other.max_lat < self.min_lat
            or other.min_lon > self.max_lon
            or other.max_lon < self.min_lon
        )

    def contains_point(self, lat: float, lon: float) -> bool:
        return (
            self.min_lat <= lat <= self.max_lat
            and self.min_lon <= lon <= self.max_lon
        )

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.min_lat, other.min_lat),
            min(self.min_lon, other.min_lon),
            max(self.max_lat, other.max_lat),
            max(self.max_lon, other.max_lon),
        )

    def area(self) -> float:
        return (self.max_lat - self.min_lat) * (self.max_lon - self.min_lon)

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to absorb ``other`` (Guttman's criterion)."""
        return self.union(other).area() - self.area()

    def as_array(self) -> np.ndarray:
        return np.array([self.min_lat, self.min_lon, self.max_lat, self.max_lon])

    def min_dist_m(self, lat: float, lon: float) -> float:
        """Lower bound on the Haversine distance from a point to this rect.

        Clamps the point into the rectangle and measures to the clamped
        point — exact for points outside, zero inside.
        """
        clat = min(max(lat, self.min_lat), self.max_lat)
        clon = min(max(lon, self.min_lon), self.max_lon)
        return float(haversine_m(lat, lon, clat, clon))


class _Node:
    """In-memory tree node: a leaf over points, or a parent over nodes.

    Its read surface is a decoded page's (``persistent._DecodedPage``):
    ``is_leaf``, ``ids`` and ``points`` of a leaf, ``children`` (handles;
    here the nodes themselves) and ``child_mbrs`` of a parent.
    """

    __slots__ = ("is_leaf", "ids", "points", "children", "mbr")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.ids: np.ndarray | None = None  # leaf: (n,) int64
        self.points: np.ndarray | None = None  # leaf: (n, 2) float64
        self.children: list[_Node] = []  # internal
        self.mbr: Rect | None = None

    def recompute_mbr(self) -> None:
        if self.is_leaf:
            self.mbr = Rect.of_points(self.points)
        else:
            mbr = self.children[0].mbr
            for child in self.children[1:]:
                mbr = mbr.union(child.mbr)
            self.mbr = mbr

    @property
    def child_mbrs(self) -> np.ndarray:
        """``(n_children, 4)`` rows of the child MBRs, for vectorized pruning.

        Derived on each read, not kept: a kept array would enter the
        pickle, whose length is a phase-2 small tree's modelled size, and
        leaving it out costs a Python ``__getstate__``/``__setstate__``
        per node on every build (docs/PERFORMANCE.md).
        """
        mbrs = (child.mbr for child in self.children)
        return np.array([(m.min_lat, m.min_lon, m.max_lat, m.max_lon) for m in mbrs])


def _chunk_evenly(n: int, size: int) -> Iterator[slice]:
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


class RTree:
    """An R-tree over (latitude, longitude) points with integer ids."""

    #: Handle -> node, called once per node a traversal visits.  The
    #: identity in memory; a class attribute, so no tree pickle carries it.
    _resolve = staticmethod(lambda node: node)

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 2:
            raise ValueError("max_entries must be >= 2")
        self.max_entries = max_entries
        self.min_entries = max(1, max_entries // 2)
        self._root: _Node | None = None
        self._size = 0

    # -- construction -------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        points: np.ndarray,
        ids: np.ndarray | None = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> "RTree":
        """Sort-tile-recursive bulk load of an (n, 2) point array.

        STR packs points into ``ceil(n/M)`` full leaves arranged in a
        near-square tile grid: sort by latitude, cut into vertical slabs,
        sort each slab by longitude, cut into leaves.  Upper levels pack
        node centres the same way.  A non-finite coordinate is a
        ``ValueError``: NaN compares false against every MBR, so it would
        be indexed but never found.
        """
        tree = cls(max_entries=max_entries)
        points = finite_column(points, "points")
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        n = len(points)
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if len(ids) != n:
                raise ValueError("ids length mismatch")
        if n == 0:
            return tree
        leaves = tree._str_pack_leaves(points, ids)
        tree._root = tree._build_upper_levels(leaves)
        tree._size = n
        return tree

    def _str_pack_leaves(self, points: np.ndarray, ids: np.ndarray) -> list[_Node]:
        m = self.max_entries
        n = len(points)
        n_leaves = -(-n // m)
        n_slabs = max(1, int(math.ceil(math.sqrt(n_leaves))))
        slab_size = n_slabs * m
        order = np.argsort(points[:, 0], kind="stable")
        for slab in _chunk_evenly(n, slab_size):
            slab_idx = order[slab]
            order[slab] = slab_idx[np.argsort(points[slab_idx, 1], kind="stable")]
        # A slab is a whole number of leaves: in packed order every leaf
        # starts at a multiple of m, and one segmented min/max bounds all.
        points, ids = points[order], ids[order]
        starts = np.arange(0, n, m)
        low = np.minimum.reduceat(points, starts, axis=0).tolist()
        high = np.maximum.reduceat(points, starts, axis=0).tolist()
        leaves: list[_Node] = []
        for start, lo, hi in zip(starts.tolist(), low, high):
            leaf = _Node(is_leaf=True)
            leaf.ids = ids[start : start + m].copy()
            leaf.points = points[start : start + m].copy()
            leaf.mbr = Rect(*lo, *hi)
            leaves.append(leaf)
        return leaves

    def _build_upper_levels(self, nodes: list[_Node]) -> _Node:
        while len(nodes) > 1:
            centers = np.array(
                [
                    (
                        (c.mbr.min_lat + c.mbr.max_lat) / 2.0,
                        (c.mbr.min_lon + c.mbr.max_lon) / 2.0,
                    )
                    for c in nodes
                ]
            )
            m = self.max_entries
            n_parents = -(-len(nodes) // m)
            n_slabs = max(1, int(math.ceil(math.sqrt(n_parents))))
            slab_size = n_slabs * m
            order = np.argsort(centers[:, 0], kind="stable")
            parents: list[_Node] = []
            for slab in _chunk_evenly(len(nodes), slab_size):
                slab_idx = order[slab]
                slab_order = slab_idx[np.argsort(centers[slab_idx, 1], kind="stable")]
                for piece in _chunk_evenly(len(slab_order), m):
                    parent = _Node(is_leaf=False)
                    parent.children = [nodes[i] for i in slab_order[piece]]
                    parent.recompute_mbr()
                    parents.append(parent)
            nodes = parents
        return nodes[0]

    # -- dynamic insert (Guttman, quadratic split) -----------------------------
    def insert(self, point_id: int, lat: float, lon: float) -> None:
        """Insert one point, splitting overflowing nodes quadratically."""
        if self._root is None:
            leaf = _Node(is_leaf=True)
            leaf.ids = np.array([point_id], dtype=np.int64)
            leaf.points = np.array([[lat, lon]])
            leaf.recompute_mbr()
            self._root = leaf
            self._size = 1
            return
        split = self._insert_into(self._root, point_id, lat, lon)
        if split is not None:
            new_root = _Node(is_leaf=False)
            new_root.children = [self._root, split]
            new_root.recompute_mbr()
            self._root = new_root
        self._size += 1

    def _insert_into(self, node: _Node, point_id: int, lat: float, lon: float) -> _Node | None:
        point_rect = Rect(lat, lon, lat, lon)
        if node.is_leaf:
            node.ids = np.append(node.ids, np.int64(point_id))
            node.points = np.vstack([node.points, [lat, lon]])
            node.recompute_mbr()
            if len(node.ids) > self.max_entries:
                return self._split_leaf(node)
            return None
        # ChooseLeaf: the child needing least enlargement (ties: least area).
        best = min(
            node.children,
            key=lambda c: (c.mbr.enlargement(point_rect), c.mbr.area()),
        )
        split = self._insert_into(best, point_id, lat, lon)
        if split is not None:
            node.children.append(split)
        node.recompute_mbr()
        if len(node.children) > self.max_entries:
            return self._split_internal(node)
        return None

    @staticmethod
    def _quadratic_seeds(rects: list[Rect]) -> tuple[int, int]:
        """PickSeeds: the pair wasting the most area if grouped together."""
        worst, seeds = -1.0, (0, 1)
        for i, j in itertools.combinations(range(len(rects)), 2):
            waste = rects[i].union(rects[j]).area() - rects[i].area() - rects[j].area()
            if waste > worst:
                worst, seeds = waste, (i, j)
        return seeds

    def _distribute(self, rects: list[Rect]) -> tuple[list[int], list[int]]:
        """Quadratic-split distribution of entry indices into two groups."""
        i, j = self._quadratic_seeds(rects)
        group_a, group_b = [i], [j]
        mbr_a, mbr_b = rects[i], rects[j]
        rest = [k for k in range(len(rects)) if k not in (i, j)]
        for k in rest:
            # Force the remainder into a group that must reach min_entries.
            need_a = self.min_entries - len(group_a)
            need_b = self.min_entries - len(group_b)
            remaining = len(rects) - len(group_a) - len(group_b)
            if need_a >= remaining:
                group_a.append(k)
                mbr_a = mbr_a.union(rects[k])
                continue
            if need_b >= remaining:
                group_b.append(k)
                mbr_b = mbr_b.union(rects[k])
                continue
            grow_a = mbr_a.enlargement(rects[k])
            grow_b = mbr_b.enlargement(rects[k])
            if (grow_a, mbr_a.area(), len(group_a)) <= (grow_b, mbr_b.area(), len(group_b)):
                group_a.append(k)
                mbr_a = mbr_a.union(rects[k])
            else:
                group_b.append(k)
                mbr_b = mbr_b.union(rects[k])
        return group_a, group_b

    def _split_leaf(self, node: _Node) -> _Node:
        rects = [
            Rect(p[0], p[1], p[0], p[1]) for p in node.points
        ]
        group_a, group_b = self._distribute(rects)
        sibling = _Node(is_leaf=True)
        sibling.ids = node.ids[group_b].copy()
        sibling.points = node.points[group_b].copy()
        node.ids = node.ids[group_a].copy()
        node.points = node.points[group_a].copy()
        node.recompute_mbr()
        sibling.recompute_mbr()
        return sibling

    def _split_internal(self, node: _Node) -> _Node:
        rects = [c.mbr for c in node.children]
        group_a, group_b = self._distribute(rects)
        sibling = _Node(is_leaf=False)
        sibling.children = [node.children[i] for i in group_b]
        node.children = [node.children[i] for i in group_a]
        node.recompute_mbr()
        sibling.recompute_mbr()
        return sibling

    # -- queries ------------------------------------------------------------
    def _scan(self, box: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids and points of every entry inside ``box`` — ``(min_lat,
        min_lon, max_lat, max_lon)``, inclusive — in no particular order.

        A depth-first walk that resolves each node it visits once.  At a
        leaf-parent it resolves the hit leaves in the order the walk would
        pop them (last hit first) and tests their concatenated points with
        one mask, instead of one mask per leaf.
        """
        lo_lat, lo_lon, hi_lat, hi_lon = box.tolist()
        resolve = self._resolve
        leaf_parent = self.height() - 2
        found_ids: list[np.ndarray] = []
        found_points: list[np.ndarray] = []
        stack = [(self._root, 0)]
        while stack:
            handle, depth = stack.pop()
            node = resolve(handle)
            if node.is_leaf:  # the root of a one-leaf tree
                leaves = [node]
            else:
                mbrs = node.child_mbrs
                hit = np.flatnonzero(~(
                    (mbrs[:, 0] > hi_lat)
                    | (mbrs[:, 2] < lo_lat)
                    | (mbrs[:, 1] > hi_lon)
                    | (mbrs[:, 3] < lo_lon)
                )).tolist()
                children = node.children
                if depth < leaf_parent:
                    stack.extend((children[i], depth + 1) for i in hit)
                    continue
                leaves = [resolve(children[i]) for i in reversed(hit)]
                if not leaves:
                    continue
            points = np.concatenate([leaf.points for leaf in leaves])
            inside = (
                (points[:, 0] >= lo_lat)
                & (points[:, 1] >= lo_lon)
                & (points[:, 0] <= hi_lat)
                & (points[:, 1] <= hi_lon)
            )
            if inside.any():
                found_ids.append(np.concatenate([leaf.ids for leaf in leaves])[inside])
                found_points.append(points[inside])
        if not found_ids:
            return np.empty(0, dtype=np.int64), np.empty((0, 2))
        return np.concatenate(found_ids), np.concatenate(found_points)

    def query_rect(self, rect: Rect) -> np.ndarray:
        """Ids of all points inside ``rect`` (inclusive bounds), sorted."""
        box = rect.as_array()
        # NaN compares false against every MBR: an empty, plausible answer.
        if not np.isfinite(box).all():
            raise ValueError(f"query rectangle must be finite, got {rect}")
        if self._root is None:
            return np.empty(0, dtype=np.int64)
        return np.sort(self._scan(box)[0])

    def query_radius(self, lat: float, lon: float, radius_m: float) -> np.ndarray:
        """Ids of points within ``radius_m`` metres (Haversine) of a point.

        A latitude/longitude bounding box prunes the tree; survivors are
        refined with one exact Haversine call.
        """
        if not math.isfinite(radius_m):
            raise ValueError(f"radius must be finite, got {radius_m!r}")
        if radius_m < 0:
            raise ValueError("radius must be non-negative")
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise ValueError(f"query coordinates must be finite, got ({lat!r}, {lon!r})")
        if self._root is None:
            return np.empty(0, dtype=np.int64)
        ids, points = self._scan(_radius_rect(lat, lon, radius_m).as_array())
        keep = haversine_m(lat, lon, points[:, 0], points[:, 1]) <= radius_m
        return np.sort(ids[keep])

    def query_radius_batch(self, points: np.ndarray, radius_m: float) -> list[np.ndarray]:
        """Per-point :meth:`query_radius` for an (n, 2) array of queries.

        One shared tree walk answers every query: each visited node
        carries the subset of query indices whose pruning rectangles
        intersect it, and the rect-vs-child-MBR test for that whole
        subset is a single broadcasted comparison instead of ``n``
        independent traversals.  A leaf refines all of its surviving
        (query, candidate) pairs with *one* flat Haversine call, and the
        hits of the whole walk are ordered by ``(query, id)`` in a single
        sort at the end.  Haversine is elementwise, so a pair's distance
        does not depend on which call computed it: the result arrays are
        exactly ``[query_radius(lat, lon, radius_m) for lat, lon in
        points]`` (the property tests assert it).  The arrays are slices
        of one shared ``int64`` buffer.
        """
        points = _check_radius_queries(points, radius_m)
        n = len(points)
        empty = np.empty(0, dtype=np.int64)
        if n == 0 or self._root is None:
            return [empty for _ in range(n)]
        # query_radius takes one row of the same elementwise kernel, so
        # the pruning geometry is bit-identical to the per-point path.
        rects = _radius_rects(points[:, 0], points[:, 1], radius_m)
        hit_queries: list[np.ndarray] = []
        hit_ids: list[np.ndarray] = []
        all_queries = np.arange(n, dtype=np.int64)
        stack = [(self._root, all_queries)]
        while stack:
            handle, active = stack.pop()
            node = self._resolve(handle)
            qarr = rects[active]  # (a, 4)
            if node.is_leaf:
                pts = node.points
                # (a, m) inclusion mask: leaf point inside each query rect.
                rows, cols = np.nonzero(
                    (pts[None, :, 0] >= qarr[:, 0, None])
                    & (pts[None, :, 1] >= qarr[:, 1, None])
                    & (pts[None, :, 0] <= qarr[:, 2, None])
                    & (pts[None, :, 1] <= qarr[:, 3, None])
                )
                if len(rows) == 0:
                    continue
                queries = active[rows]
                dist = haversine_m(
                    points[queries, 0], points[queries, 1], pts[cols, 0], pts[cols, 1]
                )
                keep = dist <= radius_m
                if keep.any():
                    hit_queries.append(queries[keep])
                    hit_ids.append(node.ids[cols[keep]])
            else:
                mbrs = node.child_mbrs  # (c, 4)
                # (a, c) intersection matrix: query rect vs child MBR.
                hit = ~(
                    (mbrs[None, :, 0] > qarr[:, 2, None])
                    | (mbrs[None, :, 2] < qarr[:, 0, None])
                    | (mbrs[None, :, 1] > qarr[:, 3, None])
                    | (mbrs[None, :, 3] < qarr[:, 1, None])
                )
                children = node.children
                for ci in np.flatnonzero(hit.any(axis=0)):
                    stack.append((children[ci], active[hit[:, ci]]))
        if not hit_ids:
            return [empty for _ in range(n)]
        ids, counts = _order_hits_by_query(
            np.concatenate(hit_queries), np.concatenate(hit_ids), n
        )
        return np.split(ids, np.cumsum(counts)[:-1])

    def knn(self, lat: float, lon: float, k: int) -> list[tuple[int, float]]:
        """The ``k`` nearest points as ``(id, haversine_metres)``, nearest
        first.  Best-first search over node MBR min-distances.

        A node's children are priced by one clamped Haversine call over
        ``child_mbrs`` — :meth:`Rect.min_dist_m` array-at-a-time — and
        pushed in child order, so ties break as in the scalar search.  A
        *node's* priority may differ from the scalar one in its last bit
        (NumPy squares arrays by multiplying, scalars through ``pow``);
        returned distances are leaf distances, always array-computed.
        """
        # 1.5 would act as 2 and True as 1: plausible, wrong neighbour counts.
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ValueError(f"k must be an integer, got {k!r}")
        if k <= 0:
            raise ValueError("k must be positive")
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise ValueError(f"query coordinates must be finite, got ({lat!r}, {lon!r})")
        if self._root is None:
            return []
        resolve = self._resolve
        counter = itertools.count()
        # Heap holds (min_dist, tiebreak, is_point, id or node handle).  The
        # root is alone in it, so its key is never compared.
        heap: list[tuple[float, int, bool, object]] = [
            (0.0, next(counter), False, self._root)
        ]
        result: list[tuple[int, float]] = []
        while heap and len(result) < k:
            dist, _, is_point, payload = heapq.heappop(heap)
            if is_point:
                result.append((payload, dist))
                continue
            node = resolve(payload)
            if node.is_leaf:
                points = node.points
                dists = haversine_m(lat, lon, points[:, 0], points[:, 1]).tolist()
                for pid, d in zip(node.ids.tolist(), dists):
                    heapq.heappush(heap, (d, next(counter), True, pid))
            else:
                mbrs = node.child_mbrs
                clat = np.minimum(np.maximum(lat, mbrs[:, 0]), mbrs[:, 2])
                clon = np.minimum(np.maximum(lon, mbrs[:, 1]), mbrs[:, 3])
                dists = haversine_m(lat, lon, clat, clon).tolist()
                for child, d in zip(node.children, dists):
                    heapq.heappush(heap, (d, next(counter), False, child))
        return result

    # -- structure -----------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def bounds(self) -> Rect | None:
        return self._resolve(self._root).mbr if self._root is not None else None

    def height(self) -> int:
        """Number of levels (0 for an empty tree, 1 for a single leaf)."""
        h, handle = 0, self._root
        while handle is not None:
            h += 1
            node = self._resolve(handle)
            handle = None if node.is_leaf else node.children[0]
        return h

    def iter_entries(self) -> Iterator[tuple[int, float, float]]:
        """All (id, lat, lon) entries, leaf order."""
        if self._root is None:
            return
        stack = [self._root]
        while stack:
            node = self._resolve(stack.pop())
            if node.is_leaf:
                for pid, pt in zip(node.ids, node.points):
                    yield int(pid), float(pt[0]), float(pt[1])
            else:
                stack.extend(node.children)

    def check_invariants(self) -> None:
        """Validate MBR containment, the child-MBR rows and leaf-depth
        uniformity at :meth:`height` (tests)."""
        if self._root is None:
            return
        depths: set[int] = set()

        def visit(handle, depth: int) -> Rect:
            node = self._resolve(handle)
            if node.is_leaf:
                depths.add(depth)
                assert node.mbr == Rect.of_points(node.points)
                return node.mbr
            mbrs = [visit(child, depth + 1) for child in node.children]
            assert np.array_equal(
                node.child_mbrs, [m.as_array() for m in mbrs]
            ), "child MBR rows do not match the children"
            mbr = mbrs[0]
            for other in mbrs[1:]:
                mbr = mbr.union(other)
            assert node.mbr == mbr, "internal MBR does not cover children"
            return mbr

        visit(self._root, 0)
        assert depths == {self.height() - 1}, (
            f"leaves at depths {depths} in a tree of height {self.height()}"
        )

    # -- merging (Figure 6, phase 3) ------------------------------------------
    @classmethod
    def merge(cls, trees: Sequence["RTree"]) -> "RTree":
        """Merge small R-trees into one global index.

        When all inputs have equal height (the common case for STR-packed
        equal-size partitions) their roots are packed under new upper
        levels directly.  Mixed heights fall back to re-packing all leaf
        nodes, which preserves the entries while keeping the tree balanced.
        """
        trees = [t for t in trees if t._root is not None]
        if not trees:
            return cls()
        if len(trees) == 1:
            return trees[0]
        max_entries = trees[0].max_entries
        merged = cls(max_entries=max_entries)
        heights = {t.height() for t in trees}
        if len(heights) == 1:
            roots = [t._root for t in trees]
            merged._root = merged._build_upper_levels(roots)
        else:
            leaves: list[_Node] = []
            for t in trees:
                stack = [t._root]
                while stack:
                    node = stack.pop()
                    if node.is_leaf:
                        leaves.append(node)
                    else:
                        stack.extend(node.children)
            merged._root = merged._build_upper_levels(leaves)
        merged._size = sum(len(t) for t in trees)
        return merged
