"""Property-based tests: DJ-Cluster's array merge kernel (Algorithm 5)
equals a dict union-find on arbitrary neighborhood families."""

import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.djcluster import _merge_neighborhoods
from tests.conftest import merge_neighborhoods_oracle


def _assert_same_clusters(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


@st.composite
def hood_families(draw):
    """Unsorted hoods with repeats, empties and singletons over a small id
    pool (so hoods collide and chain) spread over 0..2^40 (so ids need
    compacting)."""
    pool = draw(
        st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=40, unique=True)
    )
    hood = st.lists(st.sampled_from(pool), min_size=0, max_size=6)
    return [np.array(h, dtype=np.int64) for h in draw(st.lists(hood, min_size=0, max_size=40))]


@settings(max_examples=300, deadline=None)
@given(hood_families())
def test_equals_union_find(hoods):
    clusters = _merge_neighborhoods(hoods)
    _assert_same_clusters(clusters, merge_neighborhoods_oracle(hoods))
    # The output contract on its own terms: a partition of the ids seen,
    # each cluster ascending, the list ordered by first id.
    seen = np.unique(np.concatenate(hoods)) if hoods else np.empty(0, dtype=np.int64)
    merged = np.concatenate(clusters) if clusters else np.empty(0, dtype=np.int64)
    assert np.array_equal(np.sort(merged), seen)
    assert all(np.all(np.diff(c) > 0) for c in clusters)
    assert [int(c[0]) for c in clusters] == sorted(int(c[0]) for c in clusters)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=200), st.integers(0, 2**32 - 1), st.booleans())
def test_chains_need_many_propagation_rounds(n, seed, as_python_lists):
    # A path whose ids are in random order: the smallest label has to
    # travel up to n hops, far more than two hook rounds.
    rng = np.random.default_rng(seed)
    ids = rng.choice(2**40, size=n, replace=False)
    hoods = [ids[i : i + 2] for i in rng.permutation(n - 1)]
    if as_python_lists:
        hoods = [hood.tolist() for hood in hoods]
    clusters = _merge_neighborhoods(hoods)
    _assert_same_clusters(clusters, merge_neighborhoods_oracle(hoods))
    assert len(clusters) == 1 and len(clusters[0]) == n


def test_long_path_takes_logarithmic_rounds_not_linear():
    # 10^4 two-point hoods forming one path.  Propagating the minimum one
    # hood per round would take ~10^4 passes over the 2*10^4 entries
    # (seconds); with pointer jumping it is a few dozen (milliseconds).
    n = 10_000
    rng = np.random.default_rng(7)
    for ids in (np.arange(n + 1), rng.permutation(n + 1), np.arange(n + 1)[::-1]):
        hoods = [ids[i : i + 2] for i in range(n)]
        start = time.process_time()
        clusters = _merge_neighborhoods(hoods)
        elapsed = time.process_time() - start
        assert len(clusters) == 1
        assert np.array_equal(clusters[0], np.arange(n + 1))
        assert elapsed < 0.5, f"merge of a {n}-hood path took {elapsed:.2f} s"
