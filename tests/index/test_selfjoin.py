"""Tests for the vectorized radius self-join."""

import numpy as np
import pytest

from repro.geo import distance
from repro.index import selfjoin
from repro.index.rtree import RTree
from repro.index.selfjoin import radius_self_join, self_join_csr

from tests.conftest import city_points, count_calls


class TestEquivalenceWithRTree:
    @pytest.mark.parametrize("radius", [30.0, 150.0, 1500.0])
    def test_matches_per_point_rtree_queries(self, radius):
        pts = city_points(1200, seed=31)
        tree = RTree.bulk_load(pts)
        hoods = radius_self_join(pts, radius)
        assert len(hoods) == len(pts)
        for i in range(0, len(pts), 37):  # sampled spot checks
            want = tree.query_radius(pts[i, 0], pts[i, 1], radius)
            assert np.array_equal(hoods[i], want), f"point {i} differs"

    def test_full_equivalence_small(self):
        pts = city_points(300, seed=32)
        tree = RTree.bulk_load(pts)
        hoods = radius_self_join(pts, 200.0)
        for i, hood in enumerate(hoods):
            assert np.array_equal(hood, tree.query_radius(pts[i, 0], pts[i, 1], 200.0))


class TestSemantics:
    def test_self_inclusion(self):
        pts = city_points(100, seed=33)
        for i, hood in enumerate(radius_self_join(pts, 100.0)):
            assert i in hood

    def test_symmetry(self):
        pts = city_points(400, seed=34)
        hoods = radius_self_join(pts, 300.0)
        sets = [set(h.tolist()) for h in hoods]
        for i, s in enumerate(sets):
            for j in s:
                assert i in sets[j], f"asymmetric pair ({i}, {j})"

    def test_zero_radius_exact_duplicates_only(self):
        pts = np.array([[39.9, 116.4], [39.9, 116.4], [39.90001, 116.4]])
        hoods = radius_self_join(pts, 0.0)
        assert set(hoods[0].tolist()) == {0, 1}
        assert set(hoods[2].tolist()) == {2}

    def test_empty_input(self):
        assert radius_self_join(np.empty((0, 2)), 100.0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            radius_self_join(np.zeros((3, 3)), 10.0)
        with pytest.raises(ValueError):
            radius_self_join(np.zeros((3, 2)), -1.0)

    def test_groups_validation(self):
        pts = np.zeros((3, 2))
        for bad in (np.zeros(2, dtype=int), np.zeros((3, 1), dtype=int), np.zeros(3), ["a", "b", "c"]):
            with pytest.raises(ValueError, match="one integer per point"):
                radius_self_join(pts, 10.0, groups=bad)
        assert radius_self_join(np.empty((0, 2)), 10.0, groups=np.empty(0, dtype=int)) == []

    def test_groups_keep_co_located_rows_apart(self):
        pts = np.array([[39.9, 116.4]] * 4 + [[39.9001, 116.4]])
        hoods = radius_self_join(pts, 50.0, groups=np.array([7, 3, 7, 3, 7]))
        assert [h.tolist() for h in hoods] == [[0, 2, 4], [1, 3], [0, 2, 4], [1, 3], [0, 2, 4]]
        hoods = radius_self_join(pts, 0.0, groups=np.array([7, 3, 7, 3, 7]))
        assert [h.tolist() for h in hoods] == [[0, 2], [1, 3], [0, 2], [1, 3], [4]]

    def test_csr_form_is_the_unsplit_list(self):
        pts = city_points(200, seed=36)
        ids, counts = self_join_csr(pts, 400.0)
        assert ids.dtype == counts.dtype == np.int64 and counts.sum() == len(ids)
        hoods = radius_self_join(pts, 400.0)
        assert np.array_equal(ids, np.concatenate(hoods))
        assert np.array_equal(counts, [len(h) for h in hoods])

    def test_isolated_point_alone(self):
        pts = np.vstack([city_points(50, seed=35), [[45.0, 10.0]]])
        hoods = radius_self_join(pts, 100.0)
        assert list(hoods[-1]) == [50]


class TestCost:
    """Radius-kernel pair evaluations follow candidate pairs in slabs of
    ``_SLAB_PAIRS``, never cells or points; Haversine runs only for a slab
    with pairs inside the kernel's band."""

    @staticmethod
    def _join_counting_calls(monkeypatch, pts, radius, slab):
        """Pairs per radius-kernel call of one join at the given slab size,
        and the number of ``haversine_km`` calls."""
        kernel = count_calls(monkeypatch, selfjoin, "within_radius")
        haversine = count_calls(monkeypatch, distance, "haversine_km")
        monkeypatch.setattr(selfjoin, "_SLAB_PAIRS", slab)
        radius_self_join(pts, radius)
        return [np.size(args[3]) for args in kernel], len(haversine)

    def test_one_call_for_a_thousand_cells(self, monkeypatch):
        # A 0.1 degree lattice: every point alone in its cell, its own only
        # candidate, at distance 0 — far inside the band, so no Haversine.
        pts = np.array([[30.0 + 0.1 * i, 100.0 + 0.1 * j] for i in range(32) for j in range(32)])
        assert self._join_counting_calls(monkeypatch, pts, 100.0, 1 << 18) == ([len(pts)], 0)

    @pytest.mark.parametrize("slab", [1000, 4096, 90_000, 1 << 18])
    def test_calls_are_candidates_over_slab_rounded_up(self, monkeypatch, slab):
        # 300 points inside one 10 m cell: 300 x 300 candidates, one cell,
        # every pair centimetres apart at a 500 m radius: none in the band.
        pts = city_points(300, seed=37, spread=1e-6)
        sizes, haversine_calls = self._join_counting_calls(monkeypatch, pts, 500.0, slab)
        assert sum(sizes) == 300 * 300
        assert len(sizes) == -(-300 * 300 // slab)
        assert all(size == slab for size in sizes[:-1])
        assert haversine_calls == 0

    def test_slab_cuts_do_not_change_the_answer(self, monkeypatch):
        pts = city_points(500, seed=38, spread=0.004)
        want = radius_self_join(pts, 300.0)
        monkeypatch.setattr(selfjoin, "_SLAB_PAIRS", 777)
        got = radius_self_join(pts, 300.0)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_a_fold_too_wide_even_squeezed_takes_coarser_cubes(monkeypatch):
    """Past what squeezing can fit (over a million distinct cubes on every
    axis) the cubes double until the key fits: more candidates, the same
    neighbourhoods."""
    pts = city_points(400, seed=39, spread=0.01)
    want = radius_self_join(pts, 150.0)
    squeezed = []
    real = selfjoin._squeeze
    monkeypatch.setattr(selfjoin, "_squeeze", lambda v: squeezed.append(len(v)) or real(v))
    # About 35 cubes an axis at 150 m, 9 at four times the side.
    monkeypatch.setattr(selfjoin, "_KEY_LIMIT", 2000)
    got = radius_self_join(pts, 150.0)
    assert squeezed == [len(pts)] * 6  # twice squeezed and still too wide
    assert all(np.array_equal(a, b) for a, b in zip(got, want))

