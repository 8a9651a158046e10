"""Property-based laws of the aggregation algebra and metadata shuffle."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.aggregation import (
    AggregationReducer,
    coalesce_by_node,
    fold_envelopes,
    preaggregate,
)
from repro.mapreduce.job import HashPartitioner, ReduceContext
from repro.mapreduce.shuffle import _shuffle_generic, shuffle

from tests.conftest import CountAggregation

int_pairs = st.lists(
    st.tuples(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.integers(min_value=-(2**40), max_value=2**40),
    ),
    max_size=120,
)
task_outputs = st.lists(int_pairs, min_size=1, max_size=5)


class _ObjectOnlyCount(CountAggregation):
    def lift_pairs(self, pairs):
        return None


@given(int_pairs)
def test_vectorized_lift_matches_object_loop(pairs):
    """``np.add.reduceat`` over the columnar layout produces the same
    envelopes, counts and counters as the generic lift+merge loop."""
    fast, fast_c = preaggregate(CountAggregation(), pairs, "n1", "map-0000")
    slow, slow_c = preaggregate(_ObjectOnlyCount(), pairs, "n1", "map-0000")
    assert fast == slow
    assert fast_c.to_dict() == slow_c.to_dict()


@given(int_pairs)
def test_preaggregate_conserves_sums_and_records(pairs):
    out, _ = preaggregate(CountAggregation(), pairs, "n1", "map-0000")
    want = Counter()
    for k, v in pairs:
        want[k] += v
    assert {k: e.value for k, e in out} == dict(want)
    assert sum(e.records for _, e in out) == len(pairs)


def _reduce_out(agg, sh):
    reducer = AggregationReducer(agg)
    ctx = ReduceContext(None, None, None, "reduce-0000", "n1")
    for r in range(sh.n_reducers):
        for key, values in sh.partitions[r]:
            reducer.reduce(key, values, ctx)
    return sorted(ctx.output)


@settings(max_examples=40, deadline=None)
@given(task_outputs, st.integers(min_value=1, max_value=5))
def test_metadata_shuffle_law(outputs, n_reducers):
    """For any per-task integer outputs, reduce over the metadata-only
    shuffle equals reduce over the reference shuffle (the same envelopes
    moved as plain objects) equals the sequential per-key sum — and the
    metadata path never ships more bytes."""
    agg = CountAggregation()
    env_outputs = []
    for i, pairs in enumerate(outputs):
        env_pairs, _ = preaggregate(agg, pairs, f"n{i % 3}", f"map-{i:04d}")
        env_outputs.append(env_pairs)
    meta = shuffle(env_outputs, HashPartitioner(), n_reducers, aggregation=agg)
    legacy = _shuffle_generic(env_outputs, HashPartitioner(), n_reducers)
    want = Counter()
    for pairs in outputs:
        for k, v in pairs:
            want[k] += v
    sequential = sorted(want.items())
    assert _reduce_out(agg, meta) == _reduce_out(agg, legacy) == sequential
    if any(env_outputs):
        assert meta.preagg is not None
        assert meta.shuffled_bytes <= legacy.shuffled_bytes
        assert meta.preagg.raw_records == sum(len(p) for p in outputs)


@settings(max_examples=40, deadline=None)
@given(task_outputs, st.randoms(use_true_random=False))
def test_fold_order_invariance_for_exact_monoid(outputs, rnd):
    """Integer addition is exactly associative: any arrival order and any
    transport coalescing folds to the same per-key totals."""
    agg = CountAggregation()
    envelopes = []
    for i, pairs in enumerate(outputs):
        env_pairs, _ = preaggregate(agg, pairs, f"n{i % 2}", f"map-{i:04d}")
        envelopes.extend(env_pairs)
    by_key: dict[int, list] = {}
    for key, env in envelopes:
        by_key.setdefault(key, []).append(env)
    for key, envs in by_key.items():
        want = fold_envelopes(agg, envs)
        shuffled = list(envs)
        rnd.shuffle(shuffled)
        assert fold_envelopes(agg, shuffled) == want
        assert fold_envelopes(agg, coalesce_by_node(agg, shuffled)) == want
