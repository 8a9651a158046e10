"""Property-based tests: row gathers and the block-order shortcut.

``TraceArray.__getitem__``, ``sort_by_time``, ``TraceArray.by_user`` and
``ColumnBlock.pairs`` gather rows with ``np.take`` / ``np.compress``;
each must answer as fancy indexing does, field by field, errors
included.  ``by_user`` skips its ``lexsort`` when every user's
rows are one time-sorted block; the shortcut must give the sort's
permutation and must decline everything else.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import trace
from repro.geo.trace import _TRACE_DTYPE, TraceArray
from repro.mapreduce.job import ColumnBlock


def _array(n: int, users: list[int], stamps: list[int]) -> TraceArray:
    data = np.zeros(n, dtype=_TRACE_DTYPE)
    data["user_idx"] = users
    data["timestamp"] = stamps
    data["latitude"] = np.arange(n) * 0.5 - 7.0  # row identity
    data["longitude"] = np.arange(n) * -0.25
    data["altitude"] = np.arange(n) + 100.0
    table = [f"u{i}" for i in range(max(users, default=0) + 1)]
    return TraceArray(data, table)


@st.composite
def arrays(draw, max_rows=20):
    n = draw(st.integers(0, max_rows))
    users = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    stamps = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return _array(n, users, stamps)


def _assert_same_rows(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    for name in _TRACE_DTYPE.names:
        assert got[name].tobytes() == want[name].tobytes()


def _gather_or_error(fn):
    try:
        return fn()
    except IndexError:
        return IndexError


@settings(max_examples=200, deadline=None)
@given(arrays(), st.data())
def test_index_array_gather_matches_fancy_indexing(array, data):
    """Negative, empty, duplicate and out-of-range indices, as an array
    of any integer width or as a list: the rows or the ``IndexError``
    fancy indexing gives."""
    n = len(array)
    index = data.draw(st.lists(st.integers(-n - 2, n + 2), max_size=12))
    dtype = data.draw(st.sampled_from([np.intp, np.int32, np.int8]))
    for item in (np.asarray(index, dtype=dtype), index):
        want = _gather_or_error(lambda: array._data[item])
        got = _gather_or_error(lambda: array[item]._data)
        if want is IndexError:
            assert got is IndexError
        else:
            _assert_same_rows(got, want)
            assert array[item].users == array.users


@settings(max_examples=200, deadline=None)
@given(arrays(), st.data())
def test_mask_gather_matches_fancy_indexing(array, data):
    """A mask of the array's length selects what fancy indexing selects;
    a shorter or longer one is an ``IndexError``, as there (``np.compress``
    alone would accept a short one)."""
    n = len(array)
    length = data.draw(st.sampled_from([n, n, max(n - 1, 0), n + 1]))
    mask = data.draw(st.lists(st.booleans(), min_size=length, max_size=length))
    for item in (np.asarray(mask, dtype=bool), mask):
        want = _gather_or_error(lambda: array._data[np.asarray(item, dtype=bool)])
        got = _gather_or_error(lambda: array[item]._data)
        if want is IndexError:
            assert got is IndexError
        else:
            _assert_same_rows(got, want)


@settings(max_examples=100, deadline=None)
@given(arrays())
def test_sort_by_time_matches_fancy_indexing(array):
    order = np.lexsort((array._data["timestamp"], array._data["user_idx"]))
    _assert_same_rows(array.sort_by_time()._data, array._data[order])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=40), st.integers(1, 3))
def test_column_block_pairs_match_fancy_indexing(keys, width):
    keys = np.asarray(keys, dtype=np.intp)
    values = np.arange(len(keys) * width, dtype=np.float64).reshape(len(keys), width)
    if not len(keys):
        return
    grouped = values[np.argsort(keys, kind="stable")]
    got = ColumnBlock(keys, values).pairs()
    present = np.unique(keys)
    assert [key for key, _ in got] == present.tolist()
    ends = np.cumsum(np.bincount(keys))[present]
    starts = ends - np.bincount(keys)[present]
    for (_, rows), lo, hi in zip(got, starts, ends):
        assert rows.tobytes() == grouped[lo:hi].tobytes()


@st.composite
def blocked(draw):
    """Rows of up to five users, drawn as one block per user (some of one
    row, stamps tied), then perhaps disturbed: two rows swapped (which may
    interleave users or put a user's stamps out of order) or one user's
    block split in two."""
    n_users = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(1, 4), min_size=n_users, max_size=n_users))
    order = draw(st.permutations(range(n_users)))
    users: list[int] = []
    stamps: list[int] = []
    for user in order:
        size = sizes[user]
        users += [user] * size
        stamps += sorted(draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)))
    n = len(users)
    disturb = draw(st.sampled_from(["none", "swap", "split"]))
    if disturb == "swap" and n > 1:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        users[i], users[j] = users[j], users[i]
        stamps[i], stamps[j] = stamps[j], stamps[i]
    elif disturb == "split" and n_users > 1:
        # Move one user's first row to the end: its block is no longer one run.
        first = users.index(order[0])
        users.append(users.pop(first))
        stamps.append(stamps.pop(first))
    return _array(n, users, stamps)


def _one_sorted_block_per_user(key: np.ndarray, stamps: np.ndarray) -> bool:
    """The shortcut's precondition, by a per-user scan."""
    for user in np.unique(key):
        rows = np.flatnonzero(key == user)
        if rows[-1] - rows[0] + 1 != len(rows):
            return False
        if np.any(np.diff(stamps[rows]) < 0):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(blocked())
def test_block_order_is_the_lexsort_or_declines(array):
    key = array.user_index.astype(np.int32)
    stamps = array.timestamp
    n_users = len(np.unique(key))
    order = trace._block_order(key, stamps, n_users)
    if order is None:
        assert not len(key) or not _one_sorted_block_per_user(key, stamps)
    else:
        assert _one_sorted_block_per_user(key, stamps)
        assert order.tolist() == np.lexsort((stamps, key)).tolist()


@pytest.mark.parametrize("disturbed", [False, True])
def test_out_of_order_stamps_fall_back(disturbed):
    stamps = [0, 1, 2, 5, 6] if not disturbed else [0, 2, 1, 5, 6]
    key = np.array([1, 1, 1, 0, 0], dtype=np.int32)
    order = trace._block_order(key, np.asarray(stamps, dtype=np.float64), 2)
    assert (order is None) == disturbed


@settings(max_examples=200, deadline=None)
@given(blocked())
def test_dataset_fast_path_equals_lexsort_path(array):
    """The whole dataset — rows, table, offsets — is the same whether the
    shortcut or the sort ordered it."""
    fast = array.by_user()
    with mock.patch.object(trace, "_block_order", return_value=None):
        slow = array.by_user()
    _assert_same_rows(fast._data, slow._data)
    assert fast.users == slow.users
    assert fast._offsets.tolist() == slow._offsets.tolist()
