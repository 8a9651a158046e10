"""Radius and kNN queries find neighbours across ±180° longitude.

A pruning box used to be clamped at ±180°, and kNN priced a box by the
clamped longitude even where the way round the globe is shorter, so a
point a few metres away across the antimeridian was never found.  The
answers here are checked against brute-force Haversine over every
point, in memory, on persisted pages and on the portable page set.
"""

import numpy as np
import pytest

from repro.geo.distance import haversine_m
from repro.index.persistent import PersistentRTree
from repro.index.rtree import RTree
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from tests.goldens import index as index_goldens
from tests.goldens import serving

#: Just west of +180°, looking for the points just east of −180°.
QUERY = (10.0005, 179.9999)


def _seam_points() -> np.ndarray:
    """200 points just east of −179.9999° and 200 at 179.995°."""
    rs = np.random.RandomState(15)
    lat = 10.0 + rs.uniform(0.0, 0.001, 400)
    lon = np.concatenate((-179.9999 + rs.uniform(0.0, 0.003, 200), np.full(200, 179.995)))
    return np.column_stack((lat, lon))


def _forms(points: np.ndarray, max_entries: int = 8) -> dict:
    tree = RTree.bulk_load(points, max_entries=max_entries)
    hdfs = SimulatedHDFS(paper_cluster(2), seed=0)
    persisted = PersistentRTree.save(hdfs, "idx", tree, group_bytes=2048)
    return {"memory": tree, "persisted": persisted, "portable": persisted.to_portable()}


@pytest.fixture(scope="module")
def seam():
    points = _seam_points()
    return points, _forms(points)


def _within(points, lat, lon, radius_m) -> list[int]:
    return np.flatnonzero(haversine_m(lat, lon, points[:, 0], points[:, 1]) <= radius_m).tolist()


def _nearest(points, lat, lon, k) -> list[tuple[int, float]]:
    dist = haversine_m(lat, lon, points[:, 0], points[:, 1])
    order = np.lexsort((np.arange(len(points)), dist))[:k]
    return [(int(i), float(dist[i])) for i in order]


@pytest.mark.parametrize("kind", ["memory", "persisted", "portable"])
@pytest.mark.parametrize("radius_m", [100.0, 500.0, 2_000.0])
def test_radius_query_reaches_across_the_seam(seam, kind, radius_m):
    points, forms = seam
    want = _within(points, *QUERY, radius_m)
    assert want and points[want, 1].min() < 0  # across the seam from the query
    assert forms[kind].query_radius(*QUERY, radius_m).tolist() == want


@pytest.mark.parametrize("kind", ["memory", "persisted", "portable"])
def test_batch_radius_query_reaches_across_the_seam(seam, kind):
    points, forms = seam
    queries = np.array([QUERY, (10.0005, -179.9999), (10.0, 180.0), (10.0, -180.0), (10.0, 179.99)])
    got = forms[kind].query_radius_batch(queries, 300.0)
    assert [a.tolist() for a in got] == [_within(points, lat, lon, 300.0) for lat, lon in queries]


@pytest.mark.parametrize("kind", ["memory", "persisted", "portable"])
@pytest.mark.parametrize("k", [1, 3, 30])
def test_knn_reaches_across_the_seam(seam, kind, k):
    points, forms = seam
    want = _nearest(points, *QUERY, k)
    assert points[want[0][0], 1] < 0 and want[0][1] < 100.0
    assert forms[kind].knn(*QUERY, k) == want


@pytest.mark.parametrize("kind", ["memory", "persisted", "portable"])
def test_the_110_metre_pair(kind):
    """(10°, 179.9995°) and (10°, −179.9995°) are 110 m apart."""
    points = np.array([[10.0, 179.9995], [10.0, -179.9995], [10.0, 170.0], [10.0, -170.0]])
    forms = _forms(points, max_entries=2)
    assert 100.0 < haversine_m(10.0, 179.9995, 10.0, -179.9995) < 120.0
    for lat, lon in points[:2].tolist():
        assert forms[kind].query_radius(lat, lon, 500.0).tolist() == [0, 1]
        assert forms[kind].knn(lat, lon, 2) == _nearest(points, lat, lon, 2)
    assert forms[kind].query_radius_batch(points[:2], 500.0)[1].tolist() == [0, 1]


def test_a_disc_round_the_globe_finds_each_point_once():
    """Near a pole a 5 km disc is wider than 360° of longitude: one box
    of every longitude, not a clamped box plus an overlapping one."""
    points = np.array([[89.97, lon] for lon in np.linspace(-180.0, 180.0, 37)])
    tree = RTree.bulk_load(points, max_entries=4)
    for lon in (-179.0, 0.0, 170.0):
        want = _within(points, 89.97, lon, 5_000.0)
        assert tree.query_radius(89.97, lon, 5_000.0).tolist() == want
        assert tree.query_radius_batch(np.array([[89.97, lon]]), 5_000.0)[0].tolist() == want


def test_no_index_golden_reaches_the_seam():
    """The R-tree goldens' corpora and queries lie far from ±180°, so the
    seam fix leaves every recorded answer, page and counter alone."""
    corpora = [
        index_goldens.corpus().coordinates(),
        serving._corpus(),
        *(points for _, points in index_goldens.shapes().values()),
    ]
    for points in corpora:
        if len(points):
            assert 100.0 < points[:, 1].min() and points[:, 1].max() < 130.0
