"""Unit tests for the mobility-trace data model."""

import numpy as np
import pytest

from repro.geo.trace import GeolocatedDataset, TraceArray


def make_array(users="alice", latitude=39.9, longitude=116.4, timestamps=(1000.0,)):
    """Rows at one coordinate, one per timestamp, of ``users`` (one id, or
    one id per row)."""
    n = len(timestamps)
    return TraceArray.from_columns(
        [users] if isinstance(users, str) else list(users),
        np.full(n, latitude),
        np.full(n, longitude),
        np.asarray(timestamps, dtype=float),
    )


class TestTraceArray:
    def test_from_traces_roundtrip(self):
        lat = 39.9 + np.arange(5) * 0.001
        lon = np.full(5, 116.4)
        ts = np.arange(5.0)
        alt = np.full(5, 120.0)
        arr = TraceArray.from_columns(["alice"] * 5, lat, lon, ts, alt)
        assert len(arr) == 5
        assert list(arr.user_ids()) == ["alice"] * 5
        for column, expected in zip(
            (arr.latitude, arr.longitude, arr.timestamp, arr.altitude), (lat, lon, ts, alt)
        ):
            assert np.array_equal(column, expected)

    def test_from_columns_single_user_broadcast(self):
        arr = TraceArray.from_columns(
            ["bob"], np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([0.0, 1.0])
        )
        assert arr.users == ("bob",)
        assert list(arr.user_index) == [0, 0]

    def test_from_columns_per_row_users(self):
        arr = TraceArray.from_columns(
            ["a", "b", "a"],
            np.zeros(3),
            np.zeros(3),
            np.arange(3, dtype=float),
        )
        assert set(arr.users) == {"a", "b"}
        assert list(arr.user_ids()) == ["a", "b", "a"]

    def test_from_columns_length_mismatch(self):
        with pytest.raises(ValueError):
            TraceArray.from_columns(
                ["a", "b"], np.zeros(3), np.zeros(3), np.zeros(3)
            )

    def test_getitem_int_is_refused(self):
        arr = make_array(timestamps=(5.0, 6.0))
        with pytest.raises(TypeError, match="slice"):
            arr[0]
        with pytest.raises(TypeError):
            list(arr)
        assert arr[np.array([1])].timestamp.tolist() == [6.0]

    def test_getitem_slice_and_mask(self):
        arr = TraceArray.from_columns(
            ["u"], np.arange(10.0), np.zeros(10), np.arange(10.0)
        )
        assert len(arr[2:5]) == 3
        mask = arr.timestamp >= 7
        assert len(arr[mask]) == 3

    def test_concatenate_remaps_users(self):
        a = TraceArray.from_columns(["a"], np.zeros(2), np.zeros(2), np.arange(2.0))
        b = TraceArray.from_columns(["b"], np.zeros(3), np.zeros(3), np.arange(3.0))
        merged = TraceArray.concatenate([a, b])
        assert len(merged) == 5
        assert sorted(set(merged.user_ids())) == ["a", "b"]

    def test_concatenate_shared_user_merges_index(self):
        a = TraceArray.from_columns(["x"], np.zeros(2), np.zeros(2), np.arange(2.0))
        b = TraceArray.from_columns(["x"], np.zeros(2), np.zeros(2), np.arange(2.0))
        merged = TraceArray.concatenate([a, b])
        assert merged.users == ("x",)

    def test_concatenate_empty(self):
        assert len(TraceArray.concatenate([])) == 0
        assert len(TraceArray.concatenate([TraceArray.empty()])) == 0

    def test_sort_by_time(self):
        arr = TraceArray.from_columns(
            ["u"], np.zeros(3), np.zeros(3), np.array([3.0, 1.0, 2.0])
        )
        s = arr.sort_by_time()
        assert list(s.timestamp) == [1.0, 2.0, 3.0]

    def test_sort_by_time_groups_users(self):
        arr = TraceArray.from_columns(
            ["b", "a", "b", "a"],
            np.zeros(4),
            np.zeros(4),
            np.array([2.0, 9.0, 1.0, 0.0]),
        )
        s = arr.sort_by_time()
        # sorted by (user, time): users stay contiguous
        users = list(s.user_ids())
        assert users == sorted(users, key=users.index)
        for u in set(users):
            ts = s.timestamp[np.array(users) == u]
            assert list(ts) == sorted(ts)

    def test_time_span_and_bbox(self):
        arr = TraceArray.from_columns(
            ["u"], np.array([1.0, 2.0]), np.array([3.0, 5.0]), np.array([10.0, 20.0])
        )
        assert arr.time_span() == (10.0, 20.0)
        assert arr.bounding_box() == (1.0, 3.0, 2.0, 5.0)

    def test_time_span_empty_raises(self):
        with pytest.raises(ValueError):
            TraceArray.empty().time_span()
        with pytest.raises(ValueError):
            TraceArray.empty().bounding_box()

    def test_with_coordinates(self):
        arr = TraceArray.from_columns(["u"], np.zeros(3), np.zeros(3), np.arange(3.0))
        out = arr.with_coordinates(np.ones(3), np.full(3, 2.0))
        assert np.all(out.latitude == 1.0)
        assert np.all(out.longitude == 2.0)
        assert np.all(out.timestamp == arr.timestamp)
        assert np.all(arr.latitude == 0.0)  # original untouched

    def test_with_coordinates_length_mismatch(self):
        arr = TraceArray.from_columns(["u"], np.zeros(3), np.zeros(3), np.arange(3.0))
        with pytest.raises(ValueError):
            arr.with_coordinates(np.ones(2), np.ones(2))

    def test_coordinates_shape(self):
        arr = TraceArray.from_columns(["u"], np.zeros(4), np.ones(4), np.arange(4.0))
        coords = arr.coordinates()
        assert coords.shape == (4, 2)
        assert np.all(coords[:, 0] == 0.0)
        assert np.all(coords[:, 1] == 1.0)


class TestTrail:
    """A trail is a one-user array in time order, as a dataset slices it."""

    def test_requires_single_user(self):
        ds = GeolocatedDataset.from_array(make_array(list("abab"), timestamps=range(4)))
        for user, trail in zip(ds.user_ids, ds.trails()):
            assert trail.users == (user,)
            assert np.all(trail.user_index == 0)

    def test_auto_sorts(self):
        ds = GeolocatedDataset([make_array("u", timestamps=(3.0, 1.0, 2.0))])
        assert list(ds.trail("u").timestamp) == [1.0, 2.0, 3.0]

    def test_duration(self):
        trail = GeolocatedDataset([make_array(timestamps=(70.0, 10.0))]).trail("alice")
        assert trail.time_span() == (10.0, 70.0)


class TestGeolocatedDataset:
    def test_from_traces_groups_users(self):
        ds = GeolocatedDataset.from_array(make_array(list("abab"), timestamps=range(4)))
        assert ds.num_users() == 2
        assert len(ds) == 4
        assert len(ds.trail("a")) == 2

    def test_add_trail_merges_same_user(self):
        t1 = make_array(timestamps=(2.0,))
        t2 = make_array(timestamps=(1.0, 3.0))
        ds = GeolocatedDataset([t1, t2])
        assert ds.num_users() == 1
        assert ds.trail("alice").users == ("alice",)
        assert list(ds.trail("alice").timestamp) == [1.0, 2.0, 3.0]

    def test_flat_is_cached_and_invalidated(self):
        ds = GeolocatedDataset.from_array(make_array(timestamps=(1.0,)))
        flat1 = ds.flat()
        assert ds.flat() is flat1
        grown = GeolocatedDataset([*ds.trails(), make_array("bob")])
        assert len(grown.flat()) == 2

    def test_map_trails_drop(self):
        ds = GeolocatedDataset.from_array(make_array(list("ab"), timestamps=(1.0, 1.0)))
        kept = ds.map_trails(lambda t: t if t.users == ("a",) else None)
        assert kept.user_ids == ["a"]

    def test_from_array_roundtrip(self):
        ds = GeolocatedDataset.from_array(make_array(list("aabb"), timestamps=range(4)))
        ds2 = GeolocatedDataset.from_array(ds.flat())
        assert ds2.user_ids == ds.user_ids
        assert len(ds2) == len(ds)

    def test_contains(self):
        ds = GeolocatedDataset.from_array(make_array())
        assert "alice" in ds
        assert "bob" not in ds
        with pytest.raises(KeyError):
            ds.trail("bob")


def test_renamed_merges_names_in_first_row_order():
    arr = make_array(list("abcab"), timestamps=range(5))
    out = arr.renamed(arr.user_index, ["y", "x", "y"])
    expected = TraceArray.from_columns(
        ["y", "x", "y", "y", "x"], arr.latitude, arr.longitude, arr.timestamp
    )
    assert out.users == expected.users == ("y", "x")
    assert out.signature() == expected.signature()


def test_trace_array_refuses_a_foreign_dtype():
    with pytest.raises(TypeError, match="expected dtype"):
        TraceArray(np.zeros(3), ["u"])
