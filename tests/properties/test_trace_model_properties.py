"""Property-based tests: a dataset is its rows sorted by (user id, time).

``TraceArray.by_user`` puts an array in that order; ``trail`` and
``trails`` read it and refuse any other.  Draws cover an empty array, no
array at all, a single user, tied and NaN timestamps, user-table entries
with no rows, a table naming one id twice, one user's rows spread over
several arrays, and ids whose string order differs from the order they
were first seen in.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.trace import _TRACE_DTYPE, TraceArray

IDS = ("b", "a", "B", "aa", "10", "9", "u-2", "u-10")


@st.composite
def arrays(draw, table=None):
    """A trace array whose table may repeat an id or name one with no rows;
    ``table``, when given, is the table it is built with."""
    if table is None:
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


def assert_model(dataset: TraceArray, expected: list[tuple]) -> None:
    assert rows(dataset) == expected
    present = sorted({row[0] for row in expected})
    assert list(dataset.users) == present
    assert len(dataset) == len(expected)
    trails = list(dataset.trails())
    assert [trail.users for trail in trails] == [(user,) for user in present]
    for user, trail in zip(present, trails):
        assert dataset.trail(user).signature() == trail.signature()
        assert np.all(np.diff(trail.timestamp) >= 0)
    assert TraceArray.concatenate(trails).signature() == dataset.signature()
    assert dataset.by_user() is dataset


@settings(max_examples=150, deadline=None)
@given(arrays())
def test_from_array_is_the_array_stably_sorted_by_user_then_time(array):
    assert_model(array.by_user(), stably_sorted(rows(array)))


@settings(max_examples=150, deadline=None)
@given(st.lists(arrays(), max_size=5))
def test_trails_of_one_user_merge_in_the_order_given(pieces):
    """Constructing from arrays is one stable sort of their concatenation,
    each row under its own id: on a tied timestamp the array given first
    comes first."""
    expected = stably_sorted([row for array in pieces for row in rows(array)])
    assert_model(TraceArray.concatenate(pieces).by_user(), expected)


@st.composite
def strided(draw, table=None):
    """An array from ``arrays(table)`` with drawn float bits (NaNs and
    signed zeros included), sometimes a strided view of a longer buffer."""
    array = draw(arrays(table))
    data = array._data.copy()
    for field in ("latitude", "longitude", "timestamp", "altitude"):
        data[field] = draw(st.lists(st.floats(), min_size=len(data), max_size=len(data)))
    step = draw(st.integers(1, 3))
    return TraceArray(data[::step], array.users if table is None else table)


@st.composite
def concat_inputs(draw):
    """Arrays to concatenate: each with its own table, all with one table
    (the same tuple, or equal tuples; it may name an id twice), or one."""
    how = draw(st.sampled_from(["own", "same", "equal", "single"]))
    if how == "own":
        return draw(st.lists(strided(), max_size=5))
    if how == "single":
        return [draw(strided())]
    table = tuple(draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=6)))
    pieces = draw(st.lists(strided(table), min_size=1, max_size=5))
    # A list argument makes each array a table of its own, equal to the rest.
    return pieces if how == "same" else [TraceArray(p._data, list(table)) for p in pieces]


def fieldwise(pieces: list[TraceArray]) -> tuple[bytes, list[str]]:
    """The concatenation built one field at a time: the packed bytes and
    the user table (every table of a non-empty piece, first seen first)."""
    pieces = [p for p in pieces if len(p)]
    table = list(dict.fromkeys(u for p in pieces for u in p.users))
    out = np.empty(sum(map(len, pieces)), dtype=_TRACE_DTYPE)
    for field in ("latitude", "longitude", "timestamp", "altitude"):
        out[field] = np.concatenate([p._data[field] for p in pieces]) if pieces else []
    out["user_idx"] = [table.index(p.users[i]) for p in pieces for i in p.user_index]
    return out.tobytes(), table


@settings(max_examples=300, deadline=None)
@given(concat_inputs())
def test_concatenate_is_the_fieldwise_concatenation(pieces):
    """Concatenating the packed rows as opaque records gives the bytes of
    a field-by-field concatenation, over differing user tables, one shared
    or equal table (with or without a repeated id), empty inputs, no input
    and a single input."""
    merged = TraceArray.concatenate(pieces)
    want, table = fieldwise(pieces)
    assert merged._data.tobytes() == want
    assert list(merged.users) == table
    assert merged._data.dtype == _TRACE_DTYPE


def lexsort_oracle(array: TraceArray) -> tuple[bytes, list[str]]:
    """The packed rows and table ``by_user`` must give: ``np.lexsort`` by
    (rank of the row's id among the sorted ids that own rows, timestamp),
    so tied stamps keep their order and NaN stamps go last."""
    ids = array.user_ids()
    present = sorted(set(ids))
    rank = np.array([present.index(u) for u in ids], dtype=np.int32)
    order = np.lexsort((array.timestamp, rank))
    data = array._data[order]
    data["user_idx"] = rank[order]
    return data.tobytes(), present


@settings(max_examples=300, deadline=None)
@given(st.lists(strided(), max_size=4))
def test_by_user_is_a_lexsort_by_id_rank_then_time(pieces):
    array = TraceArray.concatenate(pieces)
    ordered = array.by_user()
    want, table = lexsort_oracle(array)
    assert ordered._data.tobytes() == want
    assert list(ordered.users) == table
    assert ordered.by_user() is ordered
    assert len(list(ordered.trails())) == len(table)


@settings(max_examples=100, deadline=None)
@given(arrays())
def test_trails_survive_a_pickle_round_trip_and_leave_its_bytes_alone(array):
    ordered = array.by_user()
    blank = pickle.dumps(TraceArray(ordered._data, ordered.users))
    trails = [t.signature() for t in ordered.trails()]
    assert ordered._offsets is not None
    assert pickle.dumps(ordered) == blank
    copy = pickle.loads(blank)
    assert copy._offsets is None
    assert [t.signature() for t in copy.trails()] == trails


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(IDS), min_size=1, max_size=30), st.data())
def test_an_array_built_in_order_has_trails_as_it_is(ids, data):
    """A ``from_columns`` array whose rows already run by sorted id and
    time needs no ``by_user``: its trails are its own runs."""
    ids = sorted(ids)
    stamps = data.draw(st.lists(st.integers(0, 9), min_size=len(ids), max_size=len(ids)))
    stamps = [s for _, s in sorted(zip(ids, stamps))]
    array = TraceArray.from_columns(ids, np.zeros(len(ids)), np.arange(len(ids)), stamps)
    assert array.by_user() is array
    assert [t.users[0] for t in array.trails()] == sorted(set(ids))
    assert TraceArray.concatenate(list(array.trails())).signature() == array.signature()


def test_trails_refuse_an_array_out_of_by_user_order():
    """An unsorted table, runs out of table order, a table entry with no
    rows, and a user's run out of time order each raise: ``trails`` never
    re-sorts or slices wrong."""
    def array(table, user_idx, stamps):
        data = np.zeros(len(user_idx), dtype=_TRACE_DTYPE)
        data["user_idx"], data["timestamp"] = user_idx, stamps
        return TraceArray(data, table)

    refused = {
        "unsorted table": array(("b", "a"), [0, 1], [0.0, 0.0]),
        "runs out of table order": array(("a", "b"), [1, 0], [0.0, 0.0]),
        "entry with no rows": array(("a", "b", "c"), [0, 2], [0.0, 0.0]),
        "run out of time order": array(("a", "b"), [0, 0, 1], [2.0, 1.0, 0.0]),
        "NaN before a stamp": array(("a",), [0, 0], [np.nan, 1.0]),
    }
    for name, bad in refused.items():
        with pytest.raises(ValueError, match=r"by_user\(\)"):
            bad.trails()
        with pytest.raises(ValueError, match=r"by_user\(\)"):
            bad.trail("a")
        assert bad.by_user() is not bad, name
        assert list(bad.by_user().trails())
    assert [len(t) for t in array(("a",), [0, 0], [1.0, np.nan]).trails()] == [2]

