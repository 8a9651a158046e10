"""The assignment kernel's contract, and the unit vectors it keeps.

``nearest_centroid`` and ``assign_points`` promise the position and value
of each row's first minimum in ``pairwise(metric, points, centroids)``,
bit for bit, whether the Haversine key's point side is derived per call
or read from a :class:`TraceArray`'s memoized unit vectors.  The memo is
derived state: it never reaches a pickle, it cannot be written through,
and a chunk served from a memory-budgeted store never fills it.
"""

import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.kmeans import assign_points, nearest_centroid, run_kmeans_mapreduce
from repro.geo.distance import pairwise
from repro.geo.trace import TraceArray
from repro.mapreduce.bench import synthetic_corpus
from repro.mapreduce.runner import fresh_runner

METRICS = ("haversine", "squared_euclidean")


def _array(points: np.ndarray) -> TraceArray:
    lat, lon = points.T
    return TraceArray.from_columns(["u"], lat, lon, np.arange(len(points), dtype=float))


@st.composite
def geometries(draw):
    """Points and centroids from one of the shapes the kernel must survive:
    scattered over the globe, on both poles, on ±180°, all one point;
    with ``n`` from 0 (an empty chunk) and 1 (a one-point chunk) up, and
    centroids that may repeat exactly (ties the first maximum must break
    toward the lowest index)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    shape = draw(st.sampled_from(["globe", "poles", "date_line", "one_point"]))

    def coordinates(m):
        lat, lon = rng.uniform(-90.0, 90.0, m), rng.uniform(-180.0, 180.0, m)
        if shape == "poles":
            lat = rng.choice([90.0, -90.0, 89.9999999, -89.9999999], m)
        elif shape == "date_line":
            lon = rng.choice([180.0, -180.0, 179.9999999, -179.9999999], m)
        elif shape == "one_point":
            lat, lon = np.full(m, 39.9), np.full(m, 116.4)
        return np.column_stack((lat, lon))

    n, k = draw(st.sampled_from([0, 1, 2, 7, 40])), draw(st.integers(1, 9))
    points = coordinates(n)
    centroids = points[rng.integers(0, n, k)] if n and draw(st.booleans()) else coordinates(k)
    if k > 1 and draw(st.booleans()):
        centroids[rng.integers(1, k)] = centroids[0]
    return points, centroids


@settings(max_examples=300, deadline=None)
@given(geometries())
def test_both_kernels_with_and_without_the_memo_equal_the_full_matrix(geometry):
    points, centroids = geometry
    memo = _array(points).unit_vectors()
    for metric in METRICS:
        full = pairwise(metric, points, centroids)
        index, distance = np.argmin(full, axis=1), full.min(axis=1)
        for units in (None, memo):
            got_index, got_distance = nearest_centroid(points, centroids, metric, units=units)
            assert got_index.dtype == index.dtype and np.array_equal(got_index, index), metric
            assert got_distance.tobytes() == distance.tobytes(), metric
            assigned = assign_points(points, centroids, metric, units=units)
            assert assigned.dtype == index.dtype and np.array_equal(assigned, index), metric


def test_exact_ties_go_to_the_lowest_index():
    points = np.array([[10.0, 20.0], [-90.0, 180.0], [90.0, -180.0]])
    centroids = np.array([[0.0, 0.0], [10.0, 20.0], [10.0, 20.0], [0.0, 0.0]])
    for metric in METRICS:
        for units in (None, _array(points).unit_vectors()):
            index, _ = nearest_centroid(points, centroids, metric, units=units)
            assert index[0] == 1
            assert np.array_equal(index, np.argmin(pairwise(metric, points, centroids), axis=1))


def test_units_of_the_wrong_shape_are_refused():
    points = np.array([[10.0, 20.0], [11.0, 21.0]])
    with pytest.raises(ValueError, match=r"units must be \(3, 2\)"):
        assign_points(points, points, "haversine", units=np.zeros((3, 1)))


# -- the memo ----------------------------------------------------------------


def test_a_pickle_is_the_same_bytes_before_and_after_the_memo_fills():
    array = synthetic_corpus(500, seed=3)
    before = pickle.dumps(array, protocol=pickle.HIGHEST_PROTOCOL)
    array.unit_vectors()
    assert pickle.dumps(array, protocol=pickle.HIGHEST_PROTOCOL) == before
    again = pickle.loads(before)
    assert again.signature() == array.signature()
    assert np.array_equal(again.unit_vectors(), array.unit_vectors())


def test_the_memo_is_read_only_derived_once_and_not_inherited_by_slices():
    array = synthetic_corpus(500, seed=3)
    units = array.unit_vectors()
    assert units.shape == (3, 500) and not units.flags.writeable
    with pytest.raises(ValueError):
        units[0, 0] = 0.0
    assert array.unit_vectors() is units
    assert array[:10].unit_vectors() is not units
    assert np.array_equal(array[:10].unit_vectors(), units[:, :10])


def test_threads_racing_to_fill_the_memo_all_read_the_same_vectors():
    """Threads may read one array's memo at once (tenants of one job
    service mapping a shared corpus, a speculative attempt beside its
    original): a race to fill it may derive it twice, never hand out a
    different or writable array."""
    reference = synthetic_corpus(2_000, seed=4).unit_vectors()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            array = synthetic_corpus(2_000, seed=4)
            with ThreadPoolExecutor(max_workers=8) as pool:
                seen = list(pool.map(lambda _: array.unit_vectors(), range(8)))
            assert all(np.array_equal(units, reference) for units in seen)
            assert not any(units.flags.writeable for units in seen)
            assert array.unit_vectors() is array.unit_vectors()
    finally:
        sys.setswitchinterval(interval)


def _spy_on_the_memo(monkeypatch) -> list:
    calls = []
    fill = TraceArray.unit_vectors

    def spy(self):
        calls.append(len(self))
        return fill(self)

    monkeypatch.setattr(TraceArray, "unit_vectors", spy)
    return calls


def test_an_unbudgeted_haversine_run_fills_each_chunks_memo(monkeypatch):
    calls = _spy_on_the_memo(monkeypatch)
    with fresh_runner({"traces": synthetic_corpus(3_000, seed=5)}, chunk_size=64 * 250) as runner:
        run_kmeans_mapreduce(runner, "traces", 4, "haversine", max_iter=3, seed=2)
        arrays = [chunk.trace_array() for chunk in runner.hdfs.chunks("traces")]
    assert len(calls) == 4 * len(arrays)  # three rounds and the inertia pass
    assert all(array._units is not None for array in arrays)


def test_a_budgeted_haversine_run_memoizes_nothing_and_pages_as_before(monkeypatch):
    """Under a memory budget every chunk is served through the paged store:
    no unit vectors are kept, so the store pages exactly what it paged
    before the memo existed (the counters below were recorded then)."""
    calls = _spy_on_the_memo(monkeypatch)
    with fresh_runner(
        {"traces": synthetic_corpus(3_000, seed=5)}, chunk_size=64 * 250, budget_mb=0.05
    ) as runner:
        run_kmeans_mapreduce(runner, "traces", 4, "haversine", max_iter=3, seed=2)
        stats = runner.hdfs.spill_stats.as_dict()
    assert calls == []
    paging = ("pages_out", "page_out_bytes", "pages_in", "page_in_bytes")
    assert [stats[key] for key in paging] == [70, 603_851, 60, 540_300]
