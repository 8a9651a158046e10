"""Unit tests for the R-tree against brute force."""

import numpy as np
import pytest

from repro.geo.distance import haversine_m
from repro.index.rtree import Rect, RTree

from tests.conftest import city_points


class TestRect:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect(1.0, 0.0, 0.0, 0.0)

    def test_intersects(self):
        a = Rect(0, 0, 2, 2)
        assert a.intersects(Rect(1, 1, 3, 3))
        assert a.intersects(Rect(2, 2, 3, 3))  # touching counts
        assert not a.intersects(Rect(3, 3, 4, 4))

    def test_contains_point(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point(0.5, 0.5)
        assert r.contains_point(0.0, 1.0)
        assert not r.contains_point(1.1, 0.5)

    def test_union_and_area(self):
        u = Rect(0, 0, 1, 1).union(Rect(2, 2, 3, 3))
        assert u == Rect(0, 0, 3, 3)
        assert u.area() == 9.0

    def test_enlargement(self):
        base = Rect(0, 0, 1, 1)
        assert base.enlargement(Rect(0.2, 0.2, 0.8, 0.8)) == 0.0
        assert base.enlargement(Rect(0, 0, 2, 1)) == pytest.approx(1.0)

    def test_min_dist_zero_inside(self):
        r = Rect(39.8, 116.3, 40.0, 116.5)
        assert r.min_dist_m(39.9, 116.4) == 0.0
        assert r.min_dist_m(41.0, 116.4) > 0

    def test_of_points_empty_rejected(self):
        with pytest.raises(ValueError):
            Rect.of_points(np.empty((0, 2)))


def brute_rect(pts, rect):
    return set(
        np.flatnonzero(
            (pts[:, 0] >= rect.min_lat)
            & (pts[:, 0] <= rect.max_lat)
            & (pts[:, 1] >= rect.min_lon)
            & (pts[:, 1] <= rect.max_lon)
        ).tolist()
    )


class TestBulkLoad:
    def test_invariants_hold(self):
        tree = RTree.bulk_load(city_points(3000, seed=1))
        tree.check_invariants()
        assert len(tree) == 3000

    def test_rect_query_matches_brute_force(self):
        pts = city_points(2000, seed=2)
        tree = RTree.bulk_load(pts)
        for rect in [
            Rect(39.85, 116.35, 39.95, 116.45),
            Rect(39.9, 116.4, 39.9, 116.4),
            Rect(0.0, 0.0, 1.0, 1.0),  # far away: empty
        ]:
            assert set(tree.query_rect(rect).tolist()) == brute_rect(pts, rect)

    def test_radius_query_matches_brute_force(self):
        pts = city_points(2000, seed=3)
        tree = RTree.bulk_load(pts)
        for radius in [50.0, 500.0, 5000.0]:
            got = set(tree.query_radius(39.9, 116.4, radius).tolist())
            d = np.asarray(haversine_m(39.9, 116.4, pts[:, 0], pts[:, 1]))
            assert got == set(np.flatnonzero(d <= radius).tolist())

    def test_radius_zero_returns_exact_hits_only(self):
        pts = np.array([[39.9, 116.4], [39.9001, 116.4]])
        tree = RTree.bulk_load(pts)
        assert set(tree.query_radius(39.9, 116.4, 0.0).tolist()) == {0}

    def test_negative_radius_rejected(self):
        tree = RTree.bulk_load(city_points(10))
        with pytest.raises(ValueError):
            tree.query_radius(0, 0, -1.0)

    def test_custom_ids(self):
        pts = city_points(100, seed=4)
        ids = np.arange(1000, 1100)
        tree = RTree.bulk_load(pts, ids)
        hits = tree.query_rect(Rect(-90, -180, 90, 180))
        assert set(hits.tolist()) == set(ids.tolist())

    def test_ids_length_mismatch(self):
        with pytest.raises(ValueError):
            RTree.bulk_load(city_points(10), np.arange(5))

    def test_empty_tree(self):
        tree = RTree.bulk_load(np.empty((0, 2)))
        assert len(tree) == 0
        assert tree.height() == 0
        assert tree.bounds is None
        assert len(tree.query_radius(0, 0, 100)) == 0
        assert tree.knn(0, 0, 3) == []

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            RTree.bulk_load(np.zeros((5, 3)))

    def test_max_entries_respected(self):
        pts = city_points(500, seed=5)
        tree = RTree.bulk_load(pts, max_entries=8)
        tree.check_invariants()

        def check(node):
            if node.is_leaf:
                assert len(node.ids) <= 8
            else:
                assert len(node.children) == len(node.child_mbrs) <= 8
                for child in node.children:
                    check(child)

        check(tree._root)


class TestKnn:
    def test_matches_brute_force_order(self):
        pts = city_points(1500, seed=6)
        tree = RTree.bulk_load(pts)
        d = np.asarray(haversine_m(39.9, 116.4, pts[:, 0], pts[:, 1]))
        want = np.argsort(d)[:15].tolist()
        got = [i for i, _ in tree.knn(39.9, 116.4, 15)]
        assert got == want

    def test_distances_nondecreasing(self):
        tree = RTree.bulk_load(city_points(500, seed=7))
        dists = [d for _, d in tree.knn(39.9, 116.4, 20)]
        assert dists == sorted(dists)

    def test_k_larger_than_tree(self):
        tree = RTree.bulk_load(city_points(5, seed=8))
        assert len(tree.knn(39.9, 116.4, 50)) == 5

    def test_k_validated(self):
        tree = RTree.bulk_load(city_points(5))
        with pytest.raises(ValueError):
            tree.knn(0, 0, 0)


class TestDynamicInsert:
    def test_insert_matches_bulk_load_queries(self):
        pts = city_points(400, seed=9)
        dynamic = RTree(max_entries=8)
        for i, p in enumerate(pts):
            dynamic.insert(i, p[0], p[1])
        dynamic.check_invariants()
        bulk = RTree.bulk_load(pts, max_entries=8)
        rect = Rect(39.87, 116.37, 39.93, 116.43)
        assert set(dynamic.query_rect(rect).tolist()) == set(bulk.query_rect(rect).tolist())

    def test_tree_grows_in_height(self):
        tree = RTree(max_entries=4)
        pts = city_points(100, seed=10)
        heights = []
        for i, p in enumerate(pts):
            tree.insert(i, p[0], p[1])
            heights.append(tree.height())
        assert heights[0] == 1
        assert heights[-1] > 2
        assert all(b - a in (0, 1) for a, b in zip(heights, heights[1:]))

    def test_single_insert(self):
        tree = RTree()
        tree.insert(7, 39.9, 116.4)
        assert len(tree) == 1
        assert [i for i, _ in tree.knn(39.9, 116.4, 1)] == [7]


class TestMerge:
    def test_merge_equal_heights(self):
        pts = city_points(2000, seed=11)
        trees = [
            RTree.bulk_load(pts[i::4], np.arange(len(pts))[i::4]) for i in range(4)
        ]
        merged = RTree.merge(trees)
        merged.check_invariants()
        assert len(merged) == 2000
        rect = Rect(39.88, 116.38, 39.92, 116.42)
        assert set(merged.query_rect(rect).tolist()) == brute_rect(pts, rect)

    def test_merge_mixed_heights_rebuilds(self):
        pts = city_points(600, seed=12)
        big = RTree.bulk_load(pts[:550], np.arange(550), max_entries=8)
        small = RTree.bulk_load(pts[550:], np.arange(550, 600), max_entries=8)
        assert big.height() != small.height()
        merged = RTree.merge([big, small])
        merged.check_invariants()
        assert len(merged) == 600
        rect = Rect(39.85, 116.35, 39.95, 116.45)
        assert set(merged.query_rect(rect).tolist()) == brute_rect(pts, rect)

    def test_merge_empty_and_single(self):
        assert len(RTree.merge([])) == 0
        t = RTree.bulk_load(city_points(10, seed=13))
        assert RTree.merge([t]) is t
        assert len(RTree.merge([t, RTree()])) == 10

    def test_iter_entries(self):
        pts = city_points(50, seed=14)
        tree = RTree.bulk_load(pts)
        entries = sorted(tree.iter_entries())
        assert len(entries) == 50
        assert [e[0] for e in entries] == list(range(50))
