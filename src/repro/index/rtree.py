"""R-tree spatial index (Guttman 1984) over mobility-trace coordinates.

"R-Trees are data structures commonly used for indexing multidimensional
data ... At the leaf level each rectangle contains only a single datapoint
while higher levels aggregate an increasing number of datapoints.  When
querying an R-Tree only the bounding rectangles intersecting the current
query are traversed." (Section VII-C.)

Every tree is built by **STR bulk load** (:meth:`RTree.bulk_load`), the
sort-tile-recursive packing the MapReduce phase-2 reducers index a
partition with.  It serves the queries DJ-Cluster needs: rectangle
search, radius search (metres, Haversine-refined) and
k-nearest-neighbours, plus the phase-3 **merge** of small R-trees into a
global index.

A tree is arrays, not a graph of node objects: one leaf buffer
(``_ids``, ``_points``) and, per level from the root down, an ``(m, 4)``
MBR array and an offset array, node ``j``'s children (or, on the leaf
level, its rows of the leaf buffer) being ``offsets[j]:offsets[j + 1]``
of the level below.  Each level is laid out in its parents' order, so
child MBRs are a slice and a phase-2 small tree pickles as a few
buffers.  Traversals resolve each node handle they visit once to a
:class:`NodeView`: in memory a handle is ``(depth, index)``, on
persisted pages a page id (``persistent.py``), so one traversal code
answers both.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.geo.distance import RadiusBand, haversine_m, radius_band, unit_vectors, within_radius
from repro.checks import count, finite, finite_column, positive
from repro.geo.grid import ragged_arange

__all__ = ["Rect", "RTree", "NodeView", "DEFAULT_MAX_ENTRIES"]

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
    ``(min_lat, min_lon, max_lat, max_lon)``, clamped to [−180°, 180°]
    (:func:`_radius_boxes` adds the part of a disc beyond ±180°).

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


def _radius_boxes(lat: np.ndarray, lon: np.ndarray, radius_m: float) -> tuple[np.ndarray, ...]:
    """Pruning boxes of radius queries at ``(lat, lon)``, and the query each
    box belongs to.  Row ``i < n`` is query ``i``'s :func:`_radius_rects`
    row; the part of a disc beyond ±180° — the clamped rectangle of the
    query moved by ∓360° — is one more row, unless it meets the first row
    (the disc reaches round to itself), which then spans every longitude.
    A query's boxes are disjoint, so no point is found twice."""
    boxes = _radius_rects(lat, lon, radius_m)
    owner = np.arange(len(boxes))
    # Only a rectangle clamped at ±180° can have a part beyond the seam.
    edge = np.flatnonzero((boxes[:, 1] == -180.0) | (boxes[:, 3] == 180.0))
    if len(edge) == 0:
        return boxes, owner
    rows, owner = [boxes], [owner]
    for shift in (360.0, -360.0):
        part, first = _radius_rects(lat[edge], lon[edge] + shift, radius_m), boxes[edge]
        found = part[:, 1] <= part[:, 3]
        meets = found & (part[:, 1] <= first[:, 3]) & (part[:, 3] >= first[:, 1])
        boxes[edge[meets], 1], boxes[edge[meets], 3] = -180.0, 180.0
        rows.append(part[found & ~meets])
        owner.append(edge[found & ~meets])
    return np.concatenate(rows), np.concatenate(owner)


def _check_radius_queries(points: np.ndarray, radius_m: float) -> tuple[np.ndarray, RadiusBand]:
    """The (n, 2) float64 query array of a many-point radius query and the
    :func:`~repro.geo.distance.radius_band` its answers are decided by, or
    ``ValueError``.  NaN compares false against everything, so unchecked
    poison comes back as an empty — plausible, wrong — neighborhood.  The
    band sizes itself by the queries alone: a candidate that passed a
    pruning box (clamped to ±90°, ±180°) adds no larger coordinate."""
    points = np.asarray(points, dtype=np.float64)
    band = radius_band(radius_m, points)  # validates the radius first
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    return finite_column(points, "query points"), band


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

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.min_lat, other.min_lat),
            min(self.min_lon, other.min_lon),
            max(self.max_lat, other.max_lat),
            max(self.max_lon, other.max_lon),
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.min_lat, self.min_lon, self.max_lat, self.max_lon])

    def min_dist_m(self, lat: float, lon: float) -> float:
        """Lower bound on the Haversine distance from a point to this rect.

        Clamps the point into the rectangle and measures to the clamped
        point — exact for points outside, zero inside.  Longitude goes to
        the other edge where the way round ±180° is shorter.
        """
        clat = min(max(lat, self.min_lat), self.max_lat)
        clon = min(max(lon, self.min_lon), self.max_lon)
        east, west = (self.min_lon - lon) % 360.0, (lon - self.max_lon) % 360.0
        if lon < self.min_lon and west < east:
            clon = self.max_lon
        elif lon > self.max_lon and east < west:
            clon = self.min_lon
        return float(haversine_m(lat, lon, clat, clon))


@dataclass(slots=True)
class NodeView:
    """The read surface of one node, in memory or on a page.

    ``mbr`` is the node's own ``(min_lat, min_lon, max_lat, max_lon)``
    row.  A leaf has ``ids`` and ``points``; a parent has ``children``
    (handles: ``(depth, index)`` in memory, page ids on disk) and their
    ``(n_children, 4)`` ``child_mbrs``.
    """

    is_leaf: bool
    mbr: np.ndarray
    ids: np.ndarray | None = None
    points: np.ndarray | None = None
    children: list | None = None
    child_mbrs: np.ndarray | None = None


def _str_order(xy: np.ndarray, m: int) -> np.ndarray:
    """Sort-tile-recursive order of ``(n, 2)`` positions packed ``m`` to a
    node: sort by latitude, cut near-square vertical slabs of whole nodes,
    sort each slab by longitude.  Consecutive ``m``-runs are the nodes."""
    n = len(xy)
    slab = max(1, math.ceil(math.sqrt(-(-n // m)))) * m
    order = np.argsort(xy[:, 0], kind="stable")
    for start in range(0, n, slab):
        run = order[start : start + slab]
        order[start : start + slab] = run[np.argsort(xy[run, 1], kind="stable")]
    return order


def _bounds(low: np.ndarray, high: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """MBR rows of the runs of rows beginning at ``starts``: the segmented
    minimum of ``low`` beside the segmented maximum of ``high``."""
    return np.hstack((np.minimum.reduceat(low, starts), np.maximum.reduceat(high, starts)))


def _regroup(off: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``nodes`` (node ``j`` owns ``off[j]:off[j + 1]``)
    laid end to end in that order, and their new offsets."""
    counts = np.diff(off)[nodes]
    segment, k = ragged_arange(counts)
    return off[:-1][nodes][segment] + k, np.concatenate(([0], np.cumsum(counts)))


def _concat_levels(levels: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """One level out of same-depth ``(mbrs, offsets)`` levels of several
    trees, their entries concatenated in the same order."""
    ends = np.cumsum([off[-1] for _, off in levels])
    offsets = [off[1:] + (end - off[-1]) for (_, off), end in zip(levels, ends)]
    return np.concatenate([mbrs for mbrs, _ in levels]), np.concatenate([[0], *offsets])


class RTree:
    """An R-tree over (latitude, longitude) points with integer ids, as
    STR-packed arrays (see the module docstring for the layout)."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        # 2.5 would pack like 2 and True like 1: plausible, wrong trees.
        self.max_entries = count("max_entries", max_entries, 2)
        # The arrays come with the first node (see _pack).
        self._root: tuple[int, int] | None = None
        self._size = self._height = 0

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
        ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
        if len(ids) != n:
            raise ValueError("ids length mismatch")
        if n == 0:
            return tree
        order = _str_order(points, tree.max_entries)
        # A slab is a whole number of leaves: in packed order every leaf
        # starts at a multiple of m, and one segmented min/max bounds all.
        starts = np.arange(0, n, tree.max_entries)
        mbrs = _bounds(points[order], points[order], starts)
        tree._pack([(mbrs, np.append(starts, n), order)], ids, points)
        return tree

    def _pack(self, levels: list, ids: np.ndarray, points: np.ndarray) -> None:
        """Pack STR parents (MBR: the ``minimum/maximum.reduceat`` of their
        children's) over the top level of the forest ``levels`` up to one
        root, then lay the tree out as this tree's arrays.  ``levels`` runs
        top down as ``(mbrs, offsets, entries)``: node ``j``'s children are
        rows ``entries[offsets[j]:offsets[j + 1]]`` (``entries`` ``None``:
        the rows themselves) of the level below, or of ``ids`` / ``points``."""
        m = self.max_entries
        mbrs = levels[0][0]
        while len(mbrs) > 1:
            order = _str_order((mbrs[:, :2] + mbrs[:, 2:]) / 2.0, m)
            starts = np.arange(0, len(order), m)
            mbrs = _bounds(mbrs[order, :2], mbrs[order, 2:], starts)
            levels.insert(0, (mbrs, np.append(starts, len(order)), order))
        # Top down, each level takes its parents' order, so that every
        # parent's children sit side by side.
        nodes = np.zeros(1, dtype=np.int64)
        self._levels = []
        for mbrs, offsets, entries in levels:
            rows, new_offsets = _regroup(offsets, nodes)
            self._levels.append((mbrs[nodes], new_offsets))
            nodes = rows if entries is None else entries[rows]
        self._ids, self._points = ids[nodes], points[nodes]
        self._root, self._size, self._height = (0, 0), len(nodes), len(levels)

    def _resolve(self, node: tuple[int, int]) -> NodeView:
        """The view of node ``(depth, index)``: array slices, no copies."""
        depth, j = node
        mbrs, offsets = self._levels[depth]
        lo, hi = offsets[j : j + 2].tolist()
        if depth + 1 == self._height:
            return NodeView(True, mbrs[j], ids=self._ids[lo:hi], points=self._points[lo:hi])
        below = self._levels[depth + 1][0][lo:hi]
        return NodeView(
            False, mbrs[j], children=[(depth + 1, c) for c in range(lo, hi)], child_mbrs=below
        )

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
        finite_column(box, "query rectangle")
        if self._root is None:
            return np.empty(0, dtype=np.int64)
        return np.sort(self._scan(box)[0])

    def query_radius(self, lat: float, lon: float, radius_m: float) -> np.ndarray:
        """Ids of points within ``radius_m`` metres (Haversine) of a point.

        A latitude/longitude bounding box prunes the tree (two boxes for
        a disc across ±180°); survivors are refined by the unit-sphere
        radius kernel (:func:`~repro.geo.distance.within_radius`), whose
        answer is Haversine's, bit for bit.
        """
        query, band = _check_radius_queries([[lat, lon]], radius_m)
        if self._root is None:
            return np.empty(0, dtype=np.int64)
        boxes, _ = _radius_boxes(query[:, 0], query[:, 1], radius_m)
        found = [self._scan(box) for box in boxes]  # two boxes across ±180°
        ids, points = found[0] if len(found) == 1 else map(np.concatenate, zip(*found))
        pairs = np.arange(len(ids))
        keep = within_radius(
            band, unit_vectors(query), query, np.zeros_like(pairs),
            unit_vectors(points), points, pairs,
        )
        return np.sort(ids[keep])

    def query_radius_batch(self, points: np.ndarray, radius_m: float) -> list[np.ndarray]:
        """Per-point :meth:`query_radius` for an (n, 2) array of queries.

        One shared tree walk answers every query: each visited node
        carries the subset of pruning boxes that intersect it, and the
        box-vs-child-MBR test for that whole subset is a single
        broadcasted comparison instead of ``n`` independent traversals.
        A leaf refines all of its surviving (query, candidate) pairs with
        *one* radius-kernel call (unit vectors of the leaf's points are
        computed at the visit, the queries' once), and the hits of the
        whole walk are ordered by ``(query, id)`` in a single sort at the
        end.  The kernel decides each pair on its own, exactly as Haversine
        would: the result arrays are exactly ``[query_radius(lat, lon,
        radius_m) for lat, lon in points]`` (the property tests assert
        it).  The arrays are slices of one shared ``int64`` buffer.
        """
        points, band = _check_radius_queries(points, radius_m)
        n = len(points)
        empty = np.empty(0, dtype=np.int64)
        if n == 0 or self._root is None:
            return [empty for _ in range(n)]
        # query_radius takes one row of the same elementwise kernel, so
        # the pruning geometry is bit-identical to the per-point path.
        boxes, owner = _radius_boxes(points[:, 0], points[:, 1], radius_m)
        vectors = unit_vectors(points)
        hit_boxes: list[np.ndarray] = []
        hit_ids: list[np.ndarray] = []
        stack = [(self._root, np.arange(len(boxes)))]
        while stack:
            handle, active = stack.pop()
            node = self._resolve(handle)
            qarr = boxes[active]  # (a, 4)
            if node.is_leaf:
                pts = node.points
                # (a, m) inclusion mask: leaf point inside each query box.
                rows, cols = np.nonzero(
                    (pts[None, :, 0] >= qarr[:, 0, None])
                    & (pts[None, :, 1] >= qarr[:, 1, None])
                    & (pts[None, :, 0] <= qarr[:, 2, None])
                    & (pts[None, :, 1] <= qarr[:, 3, None])
                )
                if len(rows) == 0:
                    continue
                hits = active[rows]
                keep = within_radius(
                    band, vectors, points, owner[hits], unit_vectors(pts), pts, cols
                )
                if keep.any():
                    hit_boxes.append(hits[keep])
                    hit_ids.append(node.ids[cols[keep]])
            else:
                mbrs = node.child_mbrs  # (c, 4)
                # (a, c) intersection matrix: query box vs child MBR.
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
            owner[np.concatenate(hit_boxes)], np.concatenate(hit_ids), n
        )
        return np.split(ids, np.cumsum(counts)[:-1])

    def knn(self, lat: float, lon: float, k: int) -> list[tuple[int, float]]:
        """The ``k`` nearest points as ``(id, haversine_metres)``, nearest
        first.  Best-first search over node MBR min-distances.

        A node's children are priced by one clamped Haversine call over
        ``child_mbrs`` — :meth:`Rect.min_dist_m` array-at-a-time, the
        way round ±180° included — and pushed in child order, so ties
        break as in the scalar search.  A *node's* priority may differ
        from the scalar one in its last bit (NumPy squares arrays by
        multiplying, scalars through ``pow``); returned distances are leaf
        distances, always array-computed.
        """
        # 1.5 would act as 2 and True as 1: plausible, wrong neighbour counts.
        k = count("k", k, 0)
        positive("k", k)
        finite("lat", lat)
        finite("lon", lon)
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
        seam = None  # may a bound's nearest longitude lie across ±180°?
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
                if seam is None:
                    # Every MBR lies in the root's longitudes: only a box
                    # that wide, that far off, is nearer the way round.
                    _, low, _, high = node.mbr.tolist()
                    seam = 2.0 * max(lon - low, high - lon) + high - low > 360.0
                mbrs = node.child_mbrs
                clat = np.minimum(np.maximum(lat, mbrs[:, 0]), mbrs[:, 2])
                clon = np.minimum(np.maximum(lon, mbrs[:, 1]), mbrs[:, 3])
                if seam:  # the other edge, where the way round is shorter
                    lo, hi = mbrs[:, 1], mbrs[:, 3]
                    east, west = (lo - lon) % 360.0, (lon - hi) % 360.0
                    clon = np.where((lon < lo) & (west < east), hi, clon)
                    clon = np.where((lon > hi) & (east < west), lo, clon)
                dists = haversine_m(lat, lon, clat, clon).tolist()
                for child, d in zip(node.children, dists):
                    heapq.heappush(heap, (d, next(counter), False, child))
        return result

    # -- structure -----------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def height(self) -> int:
        """Number of levels (0 for an empty tree, 1 for a single leaf)."""
        return self._height

    # -- merging (Figure 6, phase 3) ------------------------------------------
    @classmethod
    def merge(cls, trees: Sequence["RTree"]) -> "RTree":
        """Merge small R-trees into one global index.

        When all inputs have equal height (the common case for STR-packed
        equal-size partitions) their levels are concatenated and their
        roots packed under new upper levels.  Mixed heights fall back to
        re-packing all leaves (each tree's last leaf first), which keeps
        the entries while keeping the tree balanced.
        """
        trees = [t for t in trees if t._root is not None]
        if not trees:
            return cls()
        if len(trees) == 1:
            return trees[0]
        merged = cls(max_entries=trees[0].max_entries)
        if len({t.height() for t in trees}) == 1:
            levels = [
                (*_concat_levels(list(depth)), None) for depth in zip(*(t._levels for t in trees))
            ]
        else:
            mbrs, offsets = _concat_levels([t._levels[-1] for t in trees])
            counts = [len(t._levels[-1][0]) for t in trees]
            reverse = np.repeat(np.cumsum(counts), counts) - 1 - ragged_arange(counts)[1]
            rows, offsets = _regroup(offsets, reverse)
            levels = [(mbrs[reverse], offsets, rows)]
        merged._pack(
            levels,
            np.concatenate([t._ids for t in trees]),
            np.concatenate([t._points for t in trees]),
        )
        return merged
