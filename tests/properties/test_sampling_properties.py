"""Property-based tests: down-sampling invariants (Section V)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.sampling import SamplingTechnique, sample_array
from repro.geo.trace import TraceArray


@st.composite
def trace_arrays(draw):
    n = draw(st.integers(min_value=0, max_value=300))
    ts = draw(
        st.lists(
            st.floats(min_value=0, max_value=100_000, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    users = draw(
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n)
    )
    if n == 0:
        return TraceArray.empty()
    return TraceArray.from_columns(
        users,
        np.linspace(39.0, 41.0, n),
        np.linspace(116.0, 117.0, n),
        np.array(ts),
    )


windows = st.floats(min_value=1.0, max_value=10_000.0)
techniques = st.sampled_from([SamplingTechnique.UPPER, SamplingTechnique.MIDDLE])


@settings(max_examples=80, deadline=None)
@given(trace_arrays(), windows, techniques)
def test_output_is_subset_of_input(arr, window, technique):
    out = sample_array(arr, window, technique)
    in_set = set(zip(arr.timestamp.tolist(), arr.latitude.tolist()))
    out_set = set(zip(out.timestamp.tolist(), out.latitude.tolist()))
    assert out_set <= in_set


@settings(max_examples=80, deadline=None)
@given(trace_arrays(), windows, techniques)
def test_never_grows(arr, window, technique):
    out = sample_array(arr, window, technique)
    assert len(out) <= len(arr)


@settings(max_examples=80, deadline=None)
@given(trace_arrays(), windows, techniques)
def test_one_per_user_window(arr, window, technique):
    out = sample_array(arr, window, technique)
    seen = set()
    for user, ts in zip(out.user_ids(), out.timestamp):
        key = (user, int(ts // window))
        assert key not in seen, "two representatives in one window"
        seen.add(key)


@settings(max_examples=80, deadline=None)
@given(trace_arrays(), windows, techniques)
def test_every_occupied_window_represented(arr, window, technique):
    out = sample_array(arr, window, technique)
    want = {
        (user, int(ts // window))
        for user, ts in zip(arr.user_ids(), arr.timestamp)
    }
    got = {
        (user, int(ts // window))
        for user, ts in zip(out.user_ids(), out.timestamp)
    }
    assert got == want


@settings(max_examples=50, deadline=None)
@given(trace_arrays(), windows)
def test_deterministic(arr, window):
    a = sample_array(arr, window, "upper")
    b = sample_array(arr, window, "upper")
    assert np.array_equal(a.timestamp, b.timestamp)


@st.composite
def tie_heavy_arrays(draw):
    """Whole-second timestamps on a short horizon: repeated instants and
    pairs mirrored around a window's middle give exact ``delta`` ties."""
    n = draw(st.integers(min_value=1, max_value=120))
    ts = draw(st.lists(st.integers(min_value=0, max_value=240), min_size=n, max_size=n))
    users = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n))
    # The latitude is the row number, so output rows name their input row.
    return TraceArray.from_columns(
        users, np.arange(n, dtype=np.float64), np.zeros(n), np.array(ts, dtype=np.float64)
    )


@settings(max_examples=200, deadline=None)
@given(tie_heavy_arrays(), st.sampled_from([1.0, 7.0, 10.0, 60.0]), techniques)
def test_winners_equal_per_group_argmin(arr, window, technique):
    ts = arr.timestamp
    slots = np.floor_divide(ts, window).astype(np.int64)
    if technique is SamplingTechnique.UPPER:
        delta = np.abs(ts - (slots + 1) * window)
    else:
        delta = np.abs(ts - (slots * window + window / 2.0))
    best: dict[tuple[int, int], int] = {}
    for row, key in enumerate(zip(arr.user_index.tolist(), slots.tolist())):
        # Strict "<": on an exact tie the earliest row keeps the window.
        if key not in best or delta[row] < delta[best[key]]:
            best[key] = row
    out = sample_array(arr, window, technique)
    assert out.latitude.astype(np.int64).tolist() == sorted(best.values())
