"""Property-based laws of the aggregation algebra and metadata shuffle."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.kmeans import KMeansAggregation
from repro.mapreduce.aggregation import (
    AggregationReducer,
    coalesce_by_node,
    fold_envelopes,
    preaggregate,
)
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.config import Configuration
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import ColumnBlock, HashPartitioner, MapContext, ReduceContext
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


# -- a k-means column block: lifted as columns, cut into pairs ----------------

#: Values a coordinate column may hold: any in [-180, 180] (subnormals and
#: signed zeros included), only zeros of either sign, only -0.0, or tiny.
COLUMN_VALUES = [
    st.floats(-180.0, 180.0),
    st.sampled_from([0.0, -0.0]),
    st.just(-0.0),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 0.0, -0.0]),
]


@st.composite
def column_blocks(draw):
    """``(keys, values, k)``: keys in any order below ``k`` (up to 300),
    all one key, or one row per key; each column drawn from one of
    :data:`COLUMN_VALUES`."""
    k = draw(st.integers(1, 300))
    layout = draw(st.sampled_from(["any", "one key", "one row per key"]))
    if layout == "one row per key":
        keys = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=60, unique=True))
    else:
        n = draw(st.integers(1, 300))
        if layout == "one key":
            keys = [draw(st.integers(0, k - 1))] * n
        else:
            keys = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    columns = [
        draw(st.lists(draw(st.sampled_from(COLUMN_VALUES)), min_size=len(keys), max_size=len(keys)))
        for _ in range(2)
    ]
    return np.array(keys, dtype=np.intp), np.column_stack(columns), k


def _old_mapper_grouping(keys, values, k):
    """What ``KMeansMapper`` emitted before it emitted columns: one stable
    sort of the assignment, one gather, a block per non-empty cluster."""
    ctx = MapContext(Configuration({}), Counters(), DistributedCache(), "m0", "n0")
    order = np.argsort(keys.astype(np.min_scalar_type(k - 1)), kind="stable")
    grouped = values[order]
    counts = np.bincount(keys, minlength=k)
    ends = np.cumsum(counts)
    for cid in np.flatnonzero(counts).tolist():
        block = grouped[ends[cid] - counts[cid] : ends[cid]]
        ctx.emit(cid, block, nbytes=len(block) * 16, n_records=len(block))
    return ctx


@settings(max_examples=300, deadline=None)
@given(column_blocks())
def test_a_column_block_is_the_old_mappers_blocks(block):
    """Emitted as columns and read as pairs, a task's output has the keys,
    blocks, records and bytes the per-cluster emits gave."""
    keys, values, k = block
    ctx = MapContext(Configuration({}), Counters(), DistributedCache(), "m0", "n0")
    ctx.emit_columns(keys, values, nbytes=len(keys) * 16)
    old = _old_mapper_grouping(keys, values, k)
    assert (ctx.output_records, ctx.output_nbytes) == (old.output_records, old.output_nbytes)
    assert [key for key, _ in ctx.output] == [key for key, _ in old.output]
    assert all(type(key) is int for key, _ in ctx.output)
    for (_, got), (_, want) in zip(ctx.output, old.output):
        assert got.tobytes() == want.tobytes() and got.flags.c_contiguous


@settings(max_examples=300, deadline=None)
@given(column_blocks())
def test_lift_columns_is_the_object_fold_over_the_blocks(block):
    """``KMeansAggregation.lift_columns`` gives, bit for bit and sign of
    zero included, the partials the object-level ``lift``/``merge`` fold
    gives over the blocks the block's pairs hold; through
    ``preaggregate`` the envelopes and counters agree too."""
    keys, values, _ = block
    agg = KMeansAggregation()
    column_block = ColumnBlock(keys, values)
    pairs = column_block.pairs()
    lifted = agg.lift_columns(keys, values)
    assert [key for key, _ in lifted] == [key for key, _ in pairs]
    for (_, (total, n)), (key, rows) in zip(lifted, pairs):
        want_total, want_n = agg.lift(key, rows)
        assert total.tobytes() == want_total.tobytes()
        assert type(n) is int and n == want_n
    fast, fast_c = preaggregate(agg, column_block, "n1", "map-0000")
    slow, slow_c = preaggregate(agg, pairs, "n1", "map-0000")
    assert [(k, e.value[0].tobytes(), e.value[1], e.records) for k, e in fast] == [
        (k, e.value[0].tobytes(), e.value[1], e.records) for k, e in slow
    ]
    assert fast_c.to_dict() == slow_c.to_dict()
