"""Unit tests for the mobility-trace data model."""

import numpy as np
import pytest

from repro.geo.trace import GeolocatedDataset, MobilityTrace, Trail, TraceArray


def make_trace(**kw):
    base = dict(user_id="alice", latitude=39.9, longitude=116.4, timestamp=1000.0)
    base.update(kw)
    return MobilityTrace(**base)


def traces_array(traces):
    """The columnar array of some :class:`MobilityTrace` records."""
    return TraceArray.from_columns(
        [t.user_id for t in traces],
        [t.latitude for t in traces],
        [t.longitude for t in traces],
        [t.timestamp for t in traces],
        [t.altitude for t in traces],
    )


def make_trail(traces):
    arr = traces_array(traces)
    return Trail(arr.users[0], arr)


def make_dataset(traces):
    return GeolocatedDataset.from_array(traces_array(traces))


class TestMobilityTrace:
    def test_fields_and_coordinate(self):
        t = make_trace(altitude=120.0)
        assert (t.latitude, t.longitude) == (39.9, 116.4)
        assert t.altitude == 120.0

    def test_latitude_bounds_validated(self):
        with pytest.raises(ValueError, match="latitude"):
            make_trace(latitude=91.0)
        with pytest.raises(ValueError, match="latitude"):
            make_trace(latitude=-90.5)

    def test_longitude_bounds_validated(self):
        with pytest.raises(ValueError, match="longitude"):
            make_trace(longitude=180.5)

    def test_boundary_coordinates_allowed(self):
        make_trace(latitude=90.0, longitude=-180.0)
        make_trace(latitude=-90.0, longitude=180.0)

    def test_frozen(self):
        t = make_trace()
        with pytest.raises(Exception):
            t.latitude = 0.0


class TestTraceArray:
    def test_from_traces_roundtrip(self):
        traces = [
            make_trace(timestamp=float(i), latitude=39.9 + i * 0.001) for i in range(5)
        ]
        arr = traces_array(traces)
        assert len(arr) == 5
        back = [arr[i] for i in range(len(arr))]
        assert back == traces

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

    def test_getitem_int_returns_trace(self):
        arr = traces_array([make_trace(timestamp=5.0)])
        t = arr[0]
        assert isinstance(t, MobilityTrace)
        assert t.timestamp == 5.0

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
    def test_requires_single_user(self):
        arr = TraceArray.from_columns(
            ["a", "b"], np.zeros(2), np.zeros(2), np.arange(2.0)
        )
        with pytest.raises(ValueError):
            Trail("a", arr)

    def test_auto_sorts(self):
        arr = TraceArray.from_columns(
            ["u"], np.zeros(3), np.zeros(3), np.array([3.0, 1.0, 2.0])
        )
        trail = Trail("u", arr)
        assert list(trail.traces.timestamp) == [1.0, 2.0, 3.0]

    def test_duration(self):
        trail = make_trail(
            [make_trace(timestamp=10.0), make_trace(timestamp=70.0)]
        )
        assert trail.duration_s() == 60.0

class TestGeolocatedDataset:
    def test_from_traces_groups_users(self):
        traces = [make_trace(user_id=u, timestamp=float(i)) for i, u in enumerate("abab")]
        ds = make_dataset(traces)
        assert ds.num_users() == 2
        assert len(ds) == 4
        assert len(ds.trail("a")) == 2

    def test_add_trail_merges_same_user(self):
        t1 = make_trail([make_trace(timestamp=1.0)])
        t2 = make_trail([make_trace(timestamp=2.0)])
        ds = GeolocatedDataset([t1, t2])
        assert ds.num_users() == 1
        assert len(ds.trail("alice")) == 2
        assert list(ds.trail("alice").traces.timestamp) == [1.0, 2.0]

    def test_flat_is_cached_and_invalidated(self):
        ds = make_dataset([make_trace(timestamp=1.0)])
        flat1 = ds.flat()
        assert ds.flat() is flat1
        grown = GeolocatedDataset([*ds.trails(), make_trail([make_trace(user_id="bob")])])
        assert len(grown.flat()) == 2

    def test_map_trails_drop(self):
        ds = make_dataset(
            [make_trace(user_id="a"), make_trace(user_id="b")]
        )
        kept = ds.map_trails(lambda t: t.traces if t.user_id == "a" else None)
        assert kept.user_ids == ["a"]

    def test_from_array_roundtrip(self):
        traces = [make_trace(user_id=u, timestamp=float(i)) for i, u in enumerate("aabb")]
        ds = make_dataset(traces)
        ds2 = GeolocatedDataset.from_array(ds.flat())
        assert ds2.user_ids == ds.user_ids
        assert len(ds2) == len(ds)

    def test_contains(self):
        ds = make_dataset([make_trace()])
        assert "alice" in ds
        assert "bob" not in ds
        with pytest.raises(KeyError):
            ds.trail("bob")


def test_trace_array_refuses_a_foreign_dtype():
    with pytest.raises(TypeError, match="expected dtype"):
        TraceArray(np.zeros(3), ["u"])
