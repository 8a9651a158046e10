"""Property-based tests: sanitizer contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.distance import haversine_m
from repro.geo.trace import _TRACE_DTYPE, TraceArray
from repro.sanitization.aggregation import SpatialAggregator, TemporalAggregator
from repro.sanitization.masks import (
    DonutMask,
    GaussianMask,
    PlanarLaplaceMask,
    RoundingMask,
    UniformNoiseMask,
)
from repro.sanitization.mixzones import MixZone, MixZoneSanitizer
from repro.sanitization.pseudonyms import Pseudonymizer


@st.composite
def arrays(draw):
    n = draw(st.integers(min_value=0, max_value=150))
    if n == 0:
        return TraceArray.empty()
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    return TraceArray.from_columns(
        ["u"],
        39.9 + rng.normal(0, 0.02, n),
        116.4 + rng.normal(0, 0.02, n),
        np.sort(rng.uniform(0, 1e5, n)),
    )


masks = st.one_of(
    st.builds(GaussianMask, st.floats(0.0, 500.0), st.integers(0, 100)),
    st.builds(UniformNoiseMask, st.floats(0.0, 500.0), st.integers(0, 100)),
    st.builds(RoundingMask, st.floats(1.0, 2000.0)),
    st.builds(SpatialAggregator, st.floats(1.0, 2000.0)),
)


@settings(max_examples=60, deadline=None)
@given(arrays(), masks)
def test_sanitizers_preserve_counts_and_metadata(arr, sanitizer):
    out = sanitizer.sanitize_array(arr)
    assert len(out) == len(arr)
    assert np.array_equal(out.timestamp, arr.timestamp)
    assert np.array_equal(out.user_index, arr.user_index)


@settings(max_examples=60, deadline=None)
@given(arrays(), masks)
def test_sanitizers_keep_coordinates_valid(arr, sanitizer):
    out = sanitizer.sanitize_array(arr)
    assert np.all(out.latitude >= -90.0) and np.all(out.latitude <= 90.0)
    assert np.all(out.longitude >= -180.0) and np.all(out.longitude <= 180.0)


@settings(max_examples=40, deadline=None)
@given(arrays(), st.floats(1.0, 300.0), st.integers(0, 50))
def test_uniform_mask_respects_radius_bound(arr, radius, seed):
    out = UniformNoiseMask(radius, seed).sanitize_array(arr)
    if len(arr):
        d = np.asarray(
            haversine_m(arr.latitude, arr.longitude, out.latitude, out.longitude)
        )
        assert d.max() <= radius * 1.02


@settings(max_examples=40, deadline=None)
@given(arrays(), st.integers(0, 20), st.integers(1, 149))
def test_gaussian_mask_chunk_invariance(arr, seed, cut):
    """The MapReduce contract: per-chunk noise equals whole-array noise."""
    mask = GaussianMask(100.0, seed)
    whole = mask.sanitize_array(arr)
    cut = min(cut, len(arr))
    a = mask.sanitize_array(arr[:cut])
    b = mask.sanitize_array(arr[cut:])
    recombined = np.concatenate([a.latitude, b.latitude])
    assert np.allclose(whole.latitude, recombined)


ZONE = MixZone(39.9, 116.4, 500.0)
IDS = ("b", "a", "B", "aa", "10", "9", "u-2")

#: Every row- and user-scoped mechanism (cloaking alone is release-scoped).
PER_USER = {
    "gaussian": GaussianMask(150.0, seed=3),
    "uniform": UniformNoiseMask(150.0, seed=3),
    "laplace": PlanarLaplaceMask(0.01, seed=3),
    "donut": DonutMask(50.0, 200.0, seed=3),
    "rounding": RoundingMask(300.0),
    "pseudonyms": Pseudonymizer(seed=3),
    "anonymous": Pseudonymizer(anonymous=True),
    "temporal": TemporalAggregator(1800.0),
    "spatial": SpatialAggregator(500.0),
    "mixzones": MixZoneSanitizer([ZONE], seed=3),
}


@st.composite
def releases(draw):
    """Up to five users' rows interleaved in a drawn order, under a table
    in a drawn order: users with no row or one row, users whose rows all
    fall inside :data:`ZONE`, and timestamps tied within and across users
    (a quarter-hour grid) around it."""
    table = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=5, unique=True))
    counts = draw(st.lists(st.integers(0, 6), min_size=len(table), max_size=len(table)))
    in_zone = np.array(draw(st.lists(st.booleans(), min_size=len(table), max_size=len(table))))
    owner = np.repeat(np.arange(len(table)), counts)
    order = np.array(draw(st.permutations(range(len(owner)))), dtype=np.int64)
    owner = owner[order]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # ±0.002° stays inside the 500 m zone; ±0.02° straddles it.
    spread = np.where(in_zone[owner], 0.002, 0.02)
    data = np.zeros(len(owner), dtype=_TRACE_DTYPE)
    data["user_idx"] = owner
    data["latitude"] = ZONE.latitude + rng.uniform(-1.0, 1.0, len(owner)) * spread
    data["longitude"] = ZONE.longitude + rng.uniform(-1.0, 1.0, len(owner)) * spread
    data["timestamp"] = rng.integers(0, 6, len(owner)) * 900.0
    return TraceArray(data, table)


def release(arrays) -> str:
    """The signature of the dataset ``arrays`` make, with rows that tie on
    (user, time) put in coordinate order: merged users (everyone
    ``unknown``) interleave tied rows by input order, which no per-user
    application can reproduce."""
    flat = TraceArray.concatenate(arrays).by_user()
    order = np.lexsort((flat.longitude, flat.latitude, flat.timestamp, flat.user_index))
    return flat[order].signature()


@pytest.mark.parametrize("mechanism", PER_USER.values(), ids=PER_USER.keys())
@settings(max_examples=40, deadline=None)
@given(array=releases())
def test_a_multi_user_array_is_sanitized_as_each_user_alone(mechanism, array):
    """Row and user scope: sanitizing every user's rows in one call gives
    the release that sanitizing each user on their own and putting the
    outputs together gives."""
    users = range(len(array.users))
    per_user = [mechanism.sanitize_array(array[array.user_index == i]) for i in users]
    assert release([mechanism.sanitize_array(array)]) == release(per_user)
