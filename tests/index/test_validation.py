"""Input validation at the query surface: bad parameters raise typed
``ValueError``\\ s instead of silently returning empty (or wrong) answers.

NaN is the dangerous case: every comparison against NaN is False, so an
unvalidated NaN coordinate would traverse nothing and return an empty
result that looks legitimate.
"""

import math

import numpy as np
import pytest

from repro.geo.trace import TraceArray
from repro.index.persistent import PersistentRTree, QueryEngine
from repro.index.rtree import Rect, RTree
from repro.index.rtree_mr import build_rtree_mapreduce
from repro.index.selfjoin import radius_self_join
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import JobRunner
from tests.conftest import city_points, count_calls

NAN = float("nan")
INF = float("inf")


@pytest.fixture(scope="module")
def tree():
    rng = np.random.default_rng(3)
    pts = np.column_stack(
        (rng.uniform(39.0, 41.0, 100), rng.uniform(115.0, 118.0, 100))
    )
    return RTree.bulk_load(pts)


@pytest.mark.parametrize("bad_lat, bad_lon", [(NAN, 116.5), (40.0, NAN), (INF, -INF)])
def test_knn_rejects_non_finite_coordinates(tree, bad_lat, bad_lon):
    with pytest.raises(ValueError, match="finite"):
        tree.knn(bad_lat, bad_lon, 3)


def test_knn_keeps_positive_k_validation(tree):
    with pytest.raises(ValueError, match="k must be positive"):
        tree.knn(40.0, 116.5, 0)


@pytest.fixture(scope="module")
def twins(tree):
    """The in-memory tree, its persisted pages and their portable copy."""
    hdfs = SimulatedHDFS(paper_cluster(2), chunk_size=64 * 1024, seed=0)
    persisted = PersistentRTree.save(hdfs, "idx", tree, group_bytes=2048)
    return {"memory": tree, "persisted": persisted, "portable": persisted.to_portable()}


@pytest.mark.parametrize("kind", ["memory", "persisted", "portable"])
@pytest.mark.parametrize("bad_k", [1.5, True, np.float64(3.0)])
def test_knn_rejects_non_integer_k(twins, kind, bad_k):
    # k=1.5 used to return two neighbours and k=True one.
    with pytest.raises(ValueError, match="k must be an integer"):
        twins[kind].knn(40.0, 116.5, bad_k)
    assert len(twins[kind].knn(40.0, 116.5, np.int64(3))) == 3


def test_rtree_query_rect_rejects_nan(tree):
    # NaN passes Rect's own check (it compares false) and matched nothing.
    with pytest.raises(ValueError, match="must be finite"):
        tree.query_rect(Rect(NAN, 115.0, 41.0, 118.0))
    with pytest.raises(ValueError, match="must be finite"):
        RTree().query_rect(Rect(NAN, NAN, NAN, NAN))


def test_persisted_query_point_rejects_nan(twins):
    with pytest.raises(ValueError, match="must be finite"):
        twins["persisted"].query_point(NAN, 116.5)


def test_portable_query_rect_rejects_nan(twins):
    with pytest.raises(ValueError, match="must be finite"):
        twins["portable"].query_rect(Rect(39.0, 115.0, 41.0, NAN))


@pytest.mark.parametrize("bad_lat, bad_lon", [(NAN, 116.5), (40.0, NAN), (-INF, 116.5)])
def test_query_radius_rejects_non_finite_coordinates(tree, bad_lat, bad_lon):
    with pytest.raises(ValueError, match="finite"):
        tree.query_radius(bad_lat, bad_lon, 100.0)


@pytest.mark.parametrize("bad_radius", [NAN, INF, -INF])
def test_query_radius_rejects_non_finite_radius(tree, bad_radius):
    with pytest.raises(ValueError, match="radius must be finite"):
        tree.query_radius(40.0, 116.5, bad_radius)


def test_query_radius_keeps_negative_radius_validation(tree):
    with pytest.raises(ValueError, match="radius must be non-negative"):
        tree.query_radius(40.0, 116.5, -1.0)


def test_query_radius_batch_rejects_nan_points(tree):
    points = np.array([[40.0, 116.5], [NAN, 116.5]])
    with pytest.raises(ValueError, match="finite"):
        tree.query_radius_batch(points, 100.0)
    with pytest.raises(ValueError, match="radius must be finite"):
        tree.query_radius_batch(np.array([[40.0, 116.5]]), NAN)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_radius_self_join_rejects_non_finite_points(bad):
    # Unvalidated, the poisoned row came back with an *empty* neighborhood
    # (it must at least contain itself) behind a RuntimeWarning.
    for column in (0, 1):
        points = np.array([[40.0, 116.5], [40.0, 116.5], [40.001, 116.5]])
        points[1, column] = bad
        with pytest.raises(ValueError, match="query points must be finite"):
            radius_self_join(points, 100.0)
        with pytest.raises(ValueError, match="query points must be finite"):
            radius_self_join(points, 0.0)


@pytest.mark.parametrize("bad_radius", [NAN, INF, -INF])
def test_radius_self_join_rejects_non_finite_radius(bad_radius):
    # radius=nan used to return all-empty hoods: a plausible wrong answer.
    points = np.array([[40.0, 116.5], [40.0, 116.5]])
    with pytest.raises(ValueError, match="radius must be finite"):
        radius_self_join(points, bad_radius)
    with pytest.raises(ValueError, match="radius must be finite"):
        radius_self_join(np.empty((0, 2)), bad_radius)


def test_valid_queries_still_work(tree):
    assert tree.knn(40.0, 116.5, 3)
    assert tree.query_radius(40.0, 116.5, 1_000_000.0).size > 0
    assert len(tree.query_radius_batch(np.array([[40.0, 116.5]]), 1000.0)) == 1
    assert math.isfinite(tree.knn(40.0, 116.5, 1)[0][1])


def test_query_engine_rejects_non_finite_parameters(tree):
    hdfs = SimulatedHDFS(paper_cluster(2), chunk_size=64 * 1024, seed=0)
    PersistentRTree.save(hdfs, "idx", tree)
    engine = QueryEngine(PersistentRTree.open(hdfs, "idx"), hdfs=hdfs)
    with pytest.raises(ValueError, match="lat must be finite"):
        engine.point(NAN, 116.5)
    with pytest.raises(ValueError, match="max_lon must be finite"):
        engine.range(39.5, 115.5, 40.5, NAN)
    with pytest.raises(ValueError, match="lon must be finite"):
        engine.radius(40.0, INF, 100.0)
    with pytest.raises(ValueError, match="lat must be finite"):
        engine.knn(NAN, 116.5, 3)
    # Rejected queries are never counted as served.
    assert engine.stats.n_queries == 0


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_bulk_load_rejects_non_finite_points(bad):
    # Unvalidated, the row was indexed but no query could ever find it.
    for column in (0, 1):
        points = city_points(100, seed=4)
        points[17, column] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            RTree.bulk_load(points)


@pytest.mark.parametrize("bad", [NAN, INF])
def test_build_rtree_mapreduce_rejects_non_finite_rows_before_any_job(monkeypatch, bad):
    # One NaN row among 500 made the bounds (nan, ...): every point's x
    # cell became 0, the curve lost an axis, and the NaN point was indexed
    # as the tree's 501st entry.  The driver's bounds pass must stop it.
    pts = city_points(501, seed=9)
    pts[250, 0] = bad
    hdfs = SimulatedHDFS(paper_cluster(3), chunk_size=8 * 1024, seed=0)
    hdfs.put_trace_array(
        "traces", TraceArray.from_columns(["u"], pts[:, 0], pts[:, 1], np.arange(501.0))
    )
    runner = JobRunner(hdfs)
    jobs = count_calls(monkeypatch, runner, "run")
    for curve in ("hilbert", "zorder"):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            build_rtree_mapreduce(runner, "traces", n_partitions=4, curve=curve)
    assert jobs == []
