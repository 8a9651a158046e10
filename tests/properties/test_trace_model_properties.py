"""Property-based tests: a dataset is its rows sorted by (user id, time).

Draws cover an empty array, a single user, tied timestamps, user-table
entries with no rows, a table naming one id twice, trails of one user
given more than once, and ids whose string order differs from the order
they were first seen in.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.trace import _TRACE_DTYPE, GeolocatedDataset, Trail, TraceArray

IDS = ("b", "a", "B", "aa", "10", "9", "u-2", "u-10")


@st.composite
def arrays(draw):
    """A trace array whose table may repeat an id or name one with no rows."""
    table = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=6))
    n = draw(st.integers(0, 30))
    rows = draw(st.lists(st.integers(0, len(table) - 1), min_size=n, max_size=n))
    stamps = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    data = np.zeros(n, dtype=_TRACE_DTYPE)
    data["user_idx"] = rows
    data["timestamp"] = stamps
    data["latitude"] = np.arange(n) * 0.5 - 7.0  # row identity
    data["longitude"] = np.arange(n) * -0.25
    data["altitude"] = np.arange(n) + 100.0
    return TraceArray(data, table)


def rows(array: TraceArray) -> list[tuple]:
    """``array``'s rows as (id, lat, lon, ts, alt)."""
    return list(
        zip(array.user_ids(), array.latitude, array.longitude, array.timestamp, array.altitude)
    )


def stably_sorted(rows: list[tuple]) -> list[tuple]:
    """``rows`` stably sorted by (id, ts)."""
    return sorted(rows, key=lambda row: (row[0], row[3]))


def assert_model(dataset: GeolocatedDataset, expected: list[tuple]) -> None:
    flat = dataset.flat()
    assert rows(flat) == expected
    present = sorted({row[0] for row in expected})
    assert dataset.user_ids == present
    assert list(flat.users) == present
    assert len(dataset) == len(expected)
    trails = list(dataset.trails())
    assert [trail.user_id for trail in trails] == present
    for trail in trails:
        assert trail.traces.users == (trail.user_id,)
        assert dataset.trail(trail.user_id).traces.users == (trail.user_id,)
    assert TraceArray.concatenate([t.traces for t in trails]).signature() == flat.signature()


@settings(max_examples=150, deadline=None)
@given(arrays())
def test_from_array_is_the_array_stably_sorted_by_user_then_time(array):
    assert_model(GeolocatedDataset.from_array(array), stably_sorted(rows(array)))


@settings(max_examples=150, deadline=None)
@given(st.lists(arrays(), max_size=5))
def test_trails_of_one_user_merge_in_the_order_given(pieces):
    """Constructing from trails is one stable sort of their concatenation,
    each trail's rows under its own id: on a tied timestamp the trail
    given first comes first."""
    trails = []
    for array in pieces:
        for user in dict.fromkeys(array.user_ids()):
            mine = array[array.user_ids() == user]
            trails.append(Trail(user, TraceArray.from_columns(
                [user] * len(mine), mine.latitude, mine.longitude, mine.timestamp, mine.altitude,
            )))
    expected = stably_sorted([row for trail in trails for row in rows(trail.traces)])
    assert_model(GeolocatedDataset(trails), expected)
