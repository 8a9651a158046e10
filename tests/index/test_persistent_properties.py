"""Differential property suite for the persistent R-tree.

Every query answered from persisted node pages must be **element
identical** to the same query on the in-memory :class:`RTree` the pages
were serialized from, and set-equal to a brute-force haversine scan —
with and without a memory budget (paged chunks), and again after the
index is closed and reopened from HDFS.

The hypothesis profile is bounded (small example counts, no deadline)
because every example stands up a simulated deployment; the suite is
tier-1, so it must stay cheap enough for ``pytest -x -q``.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.distance import haversine_m
from repro.index.persistent import PersistentRTree
from repro.index.rtree import Rect, RTree
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS

from tests.conftest import check_invariants

points_strategy = st.lists(
    st.tuples(
        st.floats(min_value=39.0, max_value=41.0, allow_nan=False),
        st.floats(min_value=115.0, max_value=118.0, allow_nan=False),
    ),
    min_size=1,
    max_size=200,
)

#: None = everything resident; 0.05 MB = far below even tiny page sets,
#: so reads go through the paging LRU.
budget_strategy = st.sampled_from([None, 0.05])


def _persist(points, budget_mb, max_entries=8):
    """(in-memory tree, reopened persistent twin) over a fresh deployment.

    ``group_bytes`` is tiny so even hypothesis-sized trees span several
    page chunks — otherwise a single resident chunk would never exercise
    the chunk-table bisect or the budget's paging.
    """
    tree = RTree.bulk_load(np.array(points), max_entries=max_entries)
    hdfs = SimulatedHDFS(
        paper_cluster(2), chunk_size=64 * 1024, seed=0, memory_budget_mb=budget_mb
    )
    PersistentRTree.save(hdfs, "idx", tree, group_bytes=2048)
    # Reopen from the meta record: nothing survives from save() in memory.
    return tree, PersistentRTree.open(hdfs, "idx")


@settings(max_examples=25, deadline=None)
@given(
    points_strategy,
    budget_strategy,
    st.floats(min_value=39.0, max_value=41.0),
    st.floats(min_value=115.0, max_value=118.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_range_differential(points, budget, lo_lat, lo_lon, dlat, dlon):
    tree, persisted = _persist(points, budget)
    rect = Rect(lo_lat, lo_lon, lo_lat + dlat, lo_lon + dlon)
    got = persisted.query_rect(rect)
    assert np.array_equal(got, tree.query_rect(rect))
    pts = np.array(points)
    want = np.flatnonzero(
        (pts[:, 0] >= rect.min_lat)
        & (pts[:, 0] <= rect.max_lat)
        & (pts[:, 1] >= rect.min_lon)
        & (pts[:, 1] <= rect.max_lon)
    )
    assert np.array_equal(np.sort(got), want)


@settings(max_examples=25, deadline=None)
@given(
    points_strategy,
    budget_strategy,
    st.floats(min_value=39.0, max_value=41.0),
    st.floats(min_value=115.0, max_value=118.0),
    st.floats(min_value=0.0, max_value=50_000.0),
)
def test_radius_differential(points, budget, qlat, qlon, radius):
    tree, persisted = _persist(points, budget)
    got = persisted.query_radius(qlat, qlon, radius)
    assert np.array_equal(got, tree.query_radius(qlat, qlon, radius))
    pts = np.array(points)
    d = np.asarray(haversine_m(qlat, qlon, pts[:, 0], pts[:, 1]))
    assert set(got.tolist()) == set(np.flatnonzero(d <= radius).tolist())


@settings(max_examples=20, deadline=None)
@given(
    points_strategy,
    budget_strategy,
    st.integers(min_value=1, max_value=20),
)
def test_knn_differential(points, budget, k):
    tree, persisted = _persist(points, budget)
    got = persisted.knn(40.0, 116.5, k)
    # Same pages, same traversal code: exact equality, tie order included.
    assert got == tree.knn(40.0, 116.5, k)
    pts = np.array(points)
    d = np.asarray(haversine_m(40.0, 116.5, pts[:, 0], pts[:, 1]))
    want_dists = np.sort(d)[: min(k, len(pts))]
    assert np.allclose(np.sort([dist for _, dist in got]), want_dists)


@settings(max_examples=15, deadline=None)
@given(points_strategy, budget_strategy)
def test_point_and_batch_differential(points, budget):
    tree, persisted = _persist(points, budget)
    pts = np.array(points)
    lat, lon = float(pts[0, 0]), float(pts[0, 1])
    got = persisted.query_point(lat, lon)
    assert np.array_equal(got, tree.query_rect(Rect(lat, lon, lat, lon)))
    assert len(got) >= 1  # the anchor itself is at (lat, lon)
    batch_got = persisted.query_radius_batch(pts[:5], 500.0)
    batch_want = tree.query_radius_batch(pts[:5], 500.0)
    assert all(np.array_equal(a, b) for a, b in zip(batch_got, batch_want))


@settings(max_examples=10, deadline=None)
@given(points_strategy, budget_strategy)
def test_reopen_and_portable_identical(points, budget):
    """close/reopen, the portable form, and its pickle round-trip all
    answer identically to the in-memory original."""
    tree, persisted = _persist(points, budget)
    rect = Rect(39.5, 115.5, 40.5, 117.5)
    want = tree.query_rect(rect)
    reopened = PersistentRTree.open(persisted._hdfs, "idx")
    portable = persisted.to_portable()
    unpickled = pickle.loads(pickle.dumps(portable))
    for twin in (reopened, portable, unpickled):
        assert np.array_equal(twin.query_rect(rect), want)
        assert twin.knn(40.0, 116.5, 3) == tree.knn(40.0, 116.5, 3)


def test_facade_passes_tree_invariants():
    rng = np.random.default_rng(7)
    pts = np.column_stack(
        (rng.uniform(39.0, 41.0, 500), rng.uniform(115.0, 118.0, 500))
    )
    _, persisted = _persist([tuple(p) for p in pts], None)
    check_invariants(persisted.tree)
    assert len(persisted.tree) == 500
    assert persisted.meta["height"] == persisted.tree.height()


def test_empty_tree_round_trip():
    empty = RTree()
    hdfs = SimulatedHDFS(paper_cluster(2), chunk_size=64 * 1024, seed=0)
    PersistentRTree.save(hdfs, "idx", empty)
    reopened = PersistentRTree.open(hdfs, "idx")
    assert len(reopened.tree) == 0
    assert reopened.query_rect(Rect(0, 0, 90, 180)).size == 0
    assert reopened.knn(40.0, 116.5, 3) == []
