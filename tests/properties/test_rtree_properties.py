"""Property-based tests: R-tree equals brute force on arbitrary data."""

import heapq
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.distance import haversine_m
from repro.index.persistent import PersistentRTree
from repro.index.rtree import Rect, RTree
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS

points_strategy = st.lists(
    st.tuples(
        st.floats(min_value=39.0, max_value=41.0, allow_nan=False),
        st.floats(min_value=115.0, max_value=118.0, allow_nan=False),
    ),
    min_size=1,
    max_size=200,
)


@settings(max_examples=60, deadline=None)
@given(points_strategy, st.integers(min_value=2, max_value=16))
def test_bulk_load_invariants(points, fanout):
    pts = np.array(points)
    tree = RTree.bulk_load(pts, max_entries=fanout)
    tree.check_invariants()
    assert len(tree) == len(pts)


@settings(max_examples=60, deadline=None)
@given(
    points_strategy,
    st.floats(min_value=39.0, max_value=41.0),
    st.floats(min_value=115.0, max_value=118.0),
    st.floats(min_value=0.0, max_value=50_000.0),
)
def test_radius_query_equals_brute_force(points, qlat, qlon, radius):
    pts = np.array(points)
    tree = RTree.bulk_load(pts)
    got = set(tree.query_radius(qlat, qlon, radius).tolist())
    d = np.asarray(haversine_m(qlat, qlon, pts[:, 0], pts[:, 1]))
    want = set(np.flatnonzero(d <= radius).tolist())
    assert got == want


@settings(max_examples=60, deadline=None)
@given(
    points_strategy,
    st.floats(min_value=39.0, max_value=41.0),
    st.floats(min_value=115.0, max_value=118.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_rect_query_equals_brute_force(points, lo_lat, lo_lon, dlat, dlon):
    pts = np.array(points)
    tree = RTree.bulk_load(pts)
    rect = Rect(lo_lat, lo_lon, lo_lat + dlat, lo_lon + dlon)
    got = set(tree.query_rect(rect).tolist())
    want = set(
        np.flatnonzero(
            (pts[:, 0] >= rect.min_lat)
            & (pts[:, 0] <= rect.max_lat)
            & (pts[:, 1] >= rect.min_lon)
            & (pts[:, 1] <= rect.max_lon)
        ).tolist()
    )
    assert got == want


@settings(max_examples=40, deadline=None)
@given(points_strategy, st.integers(min_value=1, max_value=20))
def test_knn_matches_brute_force(points, k):
    pts = np.array(points)
    tree = RTree.bulk_load(pts)
    got = [i for i, _ in tree.knn(40.0, 116.5, k)]
    d = np.asarray(haversine_m(40.0, 116.5, pts[:, 0], pts[:, 1]))
    want_dists = np.sort(d)[: min(k, len(pts))]
    got_dists = np.sort(d[got])
    # Compare by distance (ids may tie); sets of distances must agree.
    assert np.allclose(got_dists, want_dists)


@settings(max_examples=30, deadline=None)
@given(points_strategy)
def test_insert_path_equals_bulk_load(points):
    pts = np.array(points)
    dynamic = RTree(max_entries=6)
    for i, p in enumerate(pts):
        dynamic.insert(i, p[0], p[1])
    dynamic.check_invariants()
    bulk = RTree.bulk_load(pts, max_entries=6)
    rect = Rect(39.5, 115.5, 40.5, 117.5)
    assert set(dynamic.query_rect(rect).tolist()) == set(bulk.query_rect(rect).tolist())


# -- kNN expansion and bulk-load MBRs: exact, not approximately equal ---------

#: A handful of sites, so examples hold many exact duplicates and
#: grid-aligned points (equal distances, degenerate MBRs) among free ones.
_SITES = [(40.0 + 0.001 * i, 116.5 + 0.001 * j) for i in range(3) for j in range(3)]
_site = st.sampled_from(_SITES)
_free = st.tuples(
    st.floats(min_value=39.0, max_value=41.0, allow_nan=False),
    st.floats(min_value=115.0, max_value=118.0, allow_nan=False),
)
tie_heavy_points = st.lists(st.one_of(_site, _site, _free), min_size=1, max_size=120)


def reference_knn(tree, lat, lon, k):
    """Best-first kNN with one scalar ``Rect.min_dist_m`` per child and one
    Haversine call per leaf point: the definition that ``RTree.knn``'s
    array-at-a-time expansion must reproduce, tie for tie.  It walks the
    tree's node handles through the tree's own resolver."""
    counter = itertools.count()
    root = tree._resolve(tree._root)
    heap = [(root.mbr.min_dist_m(lat, lon), next(counter), False, tree._root)]
    result = []
    while heap and len(result) < k:
        dist, _, is_point, payload = heapq.heappop(heap)
        if is_point:
            result.append((payload, dist))
            continue
        node = tree._resolve(payload)
        if node.is_leaf:
            for pid, point in zip(node.ids, node.points):
                d = haversine_m(lat, lon, point[:1], point[1:])[0]
                heapq.heappush(heap, (float(d), next(counter), True, int(pid)))
        else:
            for child, row in zip(node.children, node.child_mbrs):
                mbr = Rect(*row.tolist())
                heapq.heappush(heap, (mbr.min_dist_m(lat, lon), next(counter), False, child))
    return result


def _leaves(tree, handle):
    node = tree._resolve(handle)
    if node.is_leaf:
        yield node
    else:
        for child in node.children:
            yield from _leaves(tree, child)


@settings(max_examples=60, deadline=None)
@given(
    tie_heavy_points,
    st.one_of(_site, _free),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=2, max_value=8),
)
def test_knn_equals_scalar_reference_search(points, query, k, fanout):
    """In-memory, paged and portable trees answer kNN exactly like the
    scalar reference: same ids, same metres, same order among duplicate
    points, for ``k`` below and above a leaf (and the whole tree)."""
    tree = RTree.bulk_load(np.array(points), max_entries=fanout)
    lat, lon = query
    want = reference_knn(tree, lat, lon, k)
    assert len(want) == min(k, len(points))
    assert tree.knn(lat, lon, k) == want

    hdfs = SimulatedHDFS(
        paper_cluster(2), chunk_size=64 * 1024, seed=0, memory_budget_mb=0.05
    )
    paged = PersistentRTree.save(hdfs, "idx", tree, group_bytes=1024)
    assert paged.knn(lat, lon, k) == want
    assert paged.to_portable().knn(lat, lon, k) == want
    # The reference run over the pages prices every child by the Rect of
    # its row in the parent page, as it does in memory.
    assert reference_knn(paged.tree, lat, lon, k) == want


@settings(max_examples=60, deadline=None)
@given(tie_heavy_points, st.integers(min_value=2, max_value=16))
def test_bulk_load_leaf_mbrs_are_exact(points, fanout):
    """The segmented min/max of the bulk load bounds each leaf exactly as
    ``Rect.of_points`` over that leaf's own rows — short last leaf, one
    point leaves and all-duplicate leaves included."""
    pts = np.array(points)
    tree = RTree.bulk_load(pts, max_entries=fanout)
    leaves = list(_leaves(tree, tree._root))
    assert [leaf.mbr for leaf in leaves] == [Rect.of_points(leaf.points) for leaf in leaves]
    assert all(1 <= len(leaf.ids) <= fanout for leaf in leaves)
    ids = np.concatenate([leaf.ids for leaf in leaves])
    assert np.array_equal(np.sort(ids), np.arange(len(pts)))
    assert np.array_equal(np.vstack([leaf.points for leaf in leaves]), pts[ids])
