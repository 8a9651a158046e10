"""Property-based tests: the radius self-join and the batched R-tree
query equal per-point R-tree queries for arbitrary point sets and radii;
the self-join also equals the per-cell implementation it replaced (kept
in ``tests/conftest.py``) anywhere on the globe, and ``groups`` filters
its neighbourhoods to same-group rows and nothing else."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.distance import haversine_m
from repro.index import selfjoin
from repro.index.rtree import RTree, _radius_rects
from repro.index.selfjoin import radius_self_join
from tests.conftest import radius_brute_force, radius_self_join_oracle
from tests.index.test_persistent_properties import _persist

point_sets = st.lists(
    st.tuples(
        st.floats(min_value=35.0, max_value=45.0, allow_nan=False),
        st.floats(min_value=110.0, max_value=120.0, allow_nan=False),
    ),
    min_size=1,
    max_size=120,
)
radii = st.floats(min_value=0.0, max_value=100_000.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(point_sets, radii)
def test_equals_rtree_queries(points, radius):
    pts = np.array(points)
    hoods = radius_self_join(pts, radius)
    tree = RTree.bulk_load(pts)
    for i, hood in enumerate(hoods):
        want = tree.query_radius(pts[i, 0], pts[i, 1], radius)
        assert np.array_equal(hood, want)


def _assert_batch_equals_per_point(index, queries, radius):
    """``index.query_radius_batch`` is element-identical, dtype included,
    to one ``query_radius`` per row; returns the batch result."""
    batch = index.query_radius_batch(queries, radius)
    assert len(batch) == len(queries)
    for (lat, lon), got in zip(queries, batch):
        want = index.query_radius(lat, lon, radius)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
    return batch


@settings(max_examples=80, deadline=None)
@given(point_sets, radii)
def test_batch_equals_per_point_queries(points, radius):
    pts = np.array(points)
    _assert_batch_equals_per_point(RTree.bulk_load(pts), pts, radius)


@settings(max_examples=40, deadline=None)
@given(point_sets, st.floats(min_value=0.0, max_value=1_000.0))
def test_batch_all_miss_queries_are_empty_int64(points, radius):
    pts = np.array(points)
    tree = RTree.bulk_load(pts, max_entries=4)
    # The corpus lives in [35, 45] x [110, 120]; these queries are an
    # ocean away, so every result must be an empty int64 array.
    queries = pts * [-1.0, 1.0] - [0.0, 200.0]
    batch = _assert_batch_equals_per_point(tree, queries, radius)
    assert all(hit.dtype == np.int64 and hit.size == 0 for hit in batch)


@settings(max_examples=40, deadline=None)
@given(point_sets, st.sampled_from([0.0, 1.0, 5_000.0]), st.integers(0, 2**32 - 1))
def test_batch_with_duplicate_points_and_zero_radius(points, radius, seed):
    # Every point indexed (and queried) two or three times: radius 0 must
    # return exactly the co-located copies, ascending.
    rng = np.random.default_rng(seed)
    pts = np.array(points)
    pts = pts[rng.integers(0, len(pts), 3 * len(pts))]
    tree = RTree.bulk_load(pts, max_entries=4)
    batch = _assert_batch_equals_per_point(tree, pts, radius)
    for i, hit in enumerate(batch):
        assert i in hit
        if radius == 0.0:
            assert np.array_equal(hit, np.flatnonzero((pts == pts[i]).all(axis=1)))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=88.0, max_value=90.0),
            st.floats(min_value=-180.0, max_value=180.0),
        ),
        min_size=1,
        max_size=80,
    ),
    st.floats(min_value=0.0, max_value=400_000.0),
    st.sampled_from([1.0, -1.0]),
)
def test_batch_with_pole_wrapping_rectangles(points, radius, hemisphere):
    pts = np.array(points) * [hemisphere, 1.0]
    tree = RTree.bulk_load(pts, max_entries=4)
    _assert_batch_equals_per_point(tree, pts, radius)
    # A query on the pole itself always gets the all-longitude rectangle.
    pole = np.array([[90.0 * hemisphere, 0.0]])
    rect = _radius_rects(pole[:, 0], pole[:, 1], radius)[0]
    assert (rect[1], rect[3]) == (-180.0, 180.0)
    _assert_batch_equals_per_point(tree, pole, radius)


@settings(max_examples=25, deadline=None)
@given(point_sets, radii)
def test_batch_through_paged_persistent_index(points, radius):
    # A 0.05 MB budget is far below the page set, so leaves are paged in
    # and out while the one shared walk is in flight.
    pts = np.array(points)
    tree, persisted = _persist(points, budget_mb=0.05, max_entries=4)
    batch = _assert_batch_equals_per_point(persisted, pts, radius)
    for got, want in zip(batch, tree.query_radius_batch(pts, radius)):
        assert np.array_equal(got, want)
    portable = persisted.to_portable().query_radius_batch(pts, radius)
    assert all(np.array_equal(got, want) for got, want in zip(portable, batch))


def test_batch_ids_too_wide_for_a_combined_sort_key():
    # Ids spanning nearly all of int64 cannot be folded with the query
    # index into one int64 sort key; the answers must not change.
    rng = np.random.default_rng(5)
    pts = np.column_stack((rng.uniform(39.9, 40.0, 60), rng.uniform(116.3, 116.4, 60)))
    ids = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 60, dtype=np.int64)
    tree = RTree.bulk_load(pts, ids=ids, max_entries=4)
    batch = _assert_batch_equals_per_point(tree, pts, 3_000.0)
    assert max(len(hit) for hit in batch) > 1


@settings(max_examples=80, deadline=None)
@given(point_sets, st.floats(min_value=1.0, max_value=50_000.0))
def test_reflexive_and_symmetric(points, radius):
    pts = np.array(points)
    hoods = radius_self_join(pts, radius)
    sets = [set(h.tolist()) for h in hoods]
    for i, s in enumerate(sets):
        assert i in s
        for j in s:
            assert i in sets[j]


@settings(max_examples=40, deadline=None)
@given(point_sets, st.floats(min_value=1.0, max_value=10_000.0))
def test_monotone_in_radius(points, radius):
    pts = np.array(points)
    small = radius_self_join(pts, radius)
    big = radius_self_join(pts, radius * 2)
    for s, b in zip(small, big):
        assert set(s.tolist()) <= set(b.tolist())


# -- the per-cell oracle, groups -----------------------------------------------------

globe_points = st.lists(
    st.tuples(
        # Clumps at both poles, the equator and either side of the
        # antimeridian, plus anywhere: cells with company, not just singletons.
        st.sampled_from([-90.0, -89.99, 0.0, 45.0, 89.99, 90.0]),
        st.sampled_from([-180.0, -179.999, 0.0, 179.999, 180.0]),
        st.floats(min_value=-0.002, max_value=0.002),
        st.floats(min_value=-0.002, max_value=0.002),
    ),
    min_size=1,
    max_size=80,
)
group_labels = st.sampled_from([0, 1, 2, -7, 2**62, -(2**63)])


def _on_globe(spots) -> np.ndarray:
    pts = np.array([(lat + dlat, lon + dlon) for lat, lon, dlat, dlon in spots])
    return np.column_stack((np.clip(pts[:, 0], -90.0, 90.0), np.clip(pts[:, 1], -180.0, 180.0)))


def _assert_same_hoods(got, want):
    assert len(got) == len(want)
    for i, (hood, ref) in enumerate(zip(got, want)):
        assert hood.dtype == np.int64
        assert np.array_equal(hood, ref), f"row {i}"


@settings(max_examples=80, deadline=None)
@given(point_sets, radii)
def test_equals_the_per_cell_implementation(points, radius):
    pts = np.array(points)
    _assert_same_hoods(radius_self_join(pts, radius), radius_self_join_oracle(pts, radius))


@settings(max_examples=80, deadline=None)
@given(globe_points, st.sampled_from([0.0, 1e-4, 50.0, 400.0, 30_000.0]))
def test_equals_the_per_cell_implementation_at_poles_and_antimeridian(spots, radius):
    # The per-cell grid never joined across the antimeridian; the unit-
    # sphere grid does.  So every per-cell answer is kept, and the whole
    # answer is brute-force Haversine's, wherever the points lie.
    pts = _on_globe(spots)
    hoods = radius_self_join(pts, radius)
    _assert_same_hoods(hoods, radius_brute_force(pts, radius))
    for hood, per_cell in zip(hoods, radius_self_join_oracle(pts, radius)):
        assert np.isin(per_cell, hood).all()


@settings(max_examples=80, deadline=None)
@given(
    point_sets,
    st.floats(min_value=1.0, max_value=100_000.0),
    st.lists(group_labels, min_size=120, max_size=120),
)
def test_groups_equal_brute_force_same_group_scan(points, radius, labels):
    pts = np.array(points)
    groups = np.array(labels[: len(pts)], dtype=np.int64)
    hoods = radius_self_join(pts, radius, groups=groups)
    for i, hood in enumerate(hoods):
        near = haversine_m(pts[i, 0], pts[i, 1], pts[:, 0], pts[:, 1]) <= radius
        assert np.array_equal(hood, np.flatnonzero(near & (groups == groups[i])))


@settings(max_examples=80, deadline=None)
@given(
    globe_points,
    st.sampled_from([0.0, 1e-4, 50.0, 400.0, 30_000.0]),
    st.lists(group_labels, min_size=80, max_size=80),
)
def test_groups_only_filter_the_ungrouped_join(spots, radius, labels):
    # Also at radius 0 (exact-coordinate classes) and at the poles.
    pts = _on_globe(spots)
    pts = np.vstack((pts, pts[: len(pts) // 2]))  # exact duplicates
    groups = np.array((labels + labels)[: len(pts)], dtype=np.int64)
    want = [
        hood[groups[hood] == groups[i]] for i, hood in enumerate(radius_self_join(pts, radius))
    ]
    _assert_same_hoods(radius_self_join(pts, radius, groups=groups), want)
    for same in (np.zeros(len(pts), dtype=np.int8), np.full(len(pts), 5)):
        _assert_same_hoods(radius_self_join(pts, radius, groups=same), radius_self_join(pts, radius))


def test_cell_key_too_wide_to_fold_is_squeezed_first(monkeypatch):
    # Millimetre cells over the whole globe: lat bands x lon bands alone
    # overflow an int64, before the 40 groups multiply in.
    rng = np.random.default_rng(8)
    base = np.column_stack((rng.uniform(-80, 80, 150), rng.uniform(-180, 180, 150)))
    pts = np.vstack((base, base + rng.uniform(-3e-9, 3e-9, base.shape), base[:50]))
    groups = rng.integers(0, 40, len(pts)) * 10**15
    squeezed = []
    real = selfjoin._squeeze
    monkeypatch.setattr(selfjoin, "_squeeze", lambda v: squeezed.append(len(v)) or real(v))
    hoods = radius_self_join(pts, 1e-3, groups=groups)
    assert squeezed == [len(pts)] * 3
    assert sum(len(hood) for hood in hoods) > len(pts)
    for i, hood in enumerate(hoods):
        near = haversine_m(pts[i, 0], pts[i, 1], pts[:, 0], pts[:, 1]) <= 1e-3
        assert np.array_equal(hood, np.flatnonzero(near & (groups == groups[i])))
    del squeezed[:]
    _assert_same_hoods(radius_self_join(pts, 1e-3), radius_self_join_oracle(pts, 1e-3))
    assert squeezed == [len(pts)] * 3
    # An everyday radius folds directly.
    radius_self_join(pts, 100.0, groups=groups)
    assert len(squeezed) == 3
