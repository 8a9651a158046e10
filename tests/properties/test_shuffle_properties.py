"""Property-based tests: shuffle/sort and MapReduce-vs-sequential laws."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import (
    ConstantKeyPartitioner,
    HashPartitioner,
    JobSpec,
    Mapper,
    Reducer,
)
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.shuffle import (
    _group_sorted_generic,
    _shuffle_fast,
    _shuffle_generic,
    group_sorted,
    shuffle,
)
from repro.mapreduce.spill import ShuffleSpiller, SpillDirectory, SpillStats

pairs_strategy = st.lists(
    st.tuples(st.integers(min_value=-50, max_value=50), st.integers()),
    max_size=200,
)

# Every scalar key population the fast paths discriminate on: bools,
# arbitrary-width ints, floats including NaN/inf/-0.0, strings including
# NUL bytes — plus their mixtures.
scalar_key = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.text(alphabet=st.characters(codec="utf-8"), max_size=6),
)
scalar_pairs = st.lists(st.tuples(scalar_key, st.integers()), max_size=120)

# Homogeneous streams drive the vectorized paths directly (a mixed draw
# from ``scalar_key`` almost always falls back before exercising them).
float_pairs = st.lists(
    st.tuples(
        st.floats(allow_nan=True, allow_infinity=True, width=64), st.integers()
    ),
    max_size=120,
)
int_pairs = st.lists(
    st.tuples(st.integers(min_value=-(2**70), max_value=2**70), st.integers()),
    max_size=120,
)


def _canon_groups(groups):
    """Groups with every NaN key collapsed to one sentinel.

    Results that round-trip through spill files carry *unpickled* NaN
    keys, so the identity shortcut that makes ``[nan] == [nan]`` true for
    shared objects no longer applies; distinct NaN objects stay distinct
    groups on both sides, so order-preserving collapse is faithful.
    """
    return [
        (("__nan__",) if isinstance(k, float) and k != k else k, vs)
        for k, vs in groups
    ]


@given(pairs_strategy)
def test_group_sorted_loses_nothing(pairs):
    groups = group_sorted(pairs)
    regrouped = [(k, v) for k, vs in groups for v in vs]
    assert Counter(regrouped) == Counter(pairs)


@given(pairs_strategy)
def test_group_sorted_keys_unique_and_sorted(pairs):
    groups = group_sorted(pairs)
    keys = [k for k, _ in groups]
    assert len(keys) == len(set(keys))
    assert keys == sorted(keys)


@given(st.lists(pairs_strategy, max_size=5), st.integers(min_value=1, max_value=8))
def test_shuffle_conserves_records(map_outputs, n_reducers):
    result = shuffle(map_outputs, HashPartitioner(), n_reducers)
    delivered = Counter(
        (k, v) for part in result.partitions for k, vs in part for v in vs
    )
    sent = Counter(p for out in map_outputs for p in out)
    assert delivered == sent


@given(st.lists(pairs_strategy, max_size=5), st.integers(min_value=1, max_value=8))
def test_shuffle_key_disjointness(map_outputs, n_reducers):
    """No key appears in two partitions: the defining shuffle contract."""
    result = shuffle(map_outputs, HashPartitioner(), n_reducers)
    seen: dict[int, int] = {}
    for pid, part in enumerate(result.partitions):
        for k, _ in part:
            assert seen.setdefault(k, pid) == pid
    assert sum(result.partition_bytes) == result.shuffled_bytes


class _TokenMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value % 7, 1)


class _CountReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=150),
    st.integers(min_value=1, max_value=5),
)
def test_mapreduce_equals_sequential_histogram(values, n_reducers):
    """Full-engine law: MR histogram == sequential histogram, for any
    input and any reducer count."""
    hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=128, seed=0)
    hdfs.put_records("in", list(enumerate(values)), record_bytes=16)
    runner = JobRunner(hdfs)
    runner.run(
        JobSpec("hist", _TokenMapper, ["in"], "out", reducer=_CountReducer, num_reducers=n_reducers)
    )
    got = dict(hdfs.read_records("out"))
    want = Counter(v % 7 for v in values)
    assert got == dict(want)


# -- fast-path vs generic laws ------------------------------------------------

@given(st.one_of(scalar_pairs, float_pairs, int_pairs))
def test_group_sorted_fast_path_matches_generic(pairs):
    """Whatever path ``group_sorted`` dispatches to — vectorized argsort
    for homogeneous keys, dict-and-sort otherwise — the result equals the
    generic reference.  Both sides share the same key objects, so list
    equality holds even for NaN keys (identity short-circuit)."""
    assert group_sorted(pairs) == _group_sorted_generic(pairs)


@given(
    st.lists(st.one_of(scalar_pairs, float_pairs, int_pairs), max_size=4),
    st.integers(min_value=1, max_value=5),
)
def test_shuffle_fast_matches_generic(map_outputs, n_reducers):
    """Whenever the vectorized shuffle accepts an input, its result is
    element-identical to the generic per-record loop — partitions, byte
    accounting and all.  (NaN or mixed-type keys make it decline, which
    is itself part of the contract: declined inputs reach this property
    through ``shuffle``'s fallback in the other tests.)"""
    for partitioner in (HashPartitioner(), ConstantKeyPartitioner()):
        fast = _shuffle_fast(map_outputs, partitioner, n_reducers)
        if fast is None:
            continue
        ref = _shuffle_generic(map_outputs, partitioner, n_reducers)
        assert fast.partitions == ref.partitions
        assert fast.shuffled_bytes == ref.shuffled_bytes
        assert fast.partition_bytes == ref.partition_bytes


@given(
    st.lists(st.one_of(scalar_pairs, float_pairs, int_pairs), max_size=4),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50, deadline=None)
def test_external_shuffle_matches_in_memory(map_outputs, n_reducers):
    """External-sort law: a spiller with a near-zero budget must be
    invisible — same groups in the same order, same byte accounting —
    whether it spills runs, falls back on unsortable keys, or both."""
    partitioner = HashPartitioner()
    reference = shuffle(map_outputs, partitioner, n_reducers)
    directory = SpillDirectory(None)
    try:
        spiller = ShuffleSpiller(1, directory, n_reducers, SpillStats())
        spilled = shuffle(map_outputs, partitioner, n_reducers, spiller=spiller)
        assert spilled.n_reducers == reference.n_reducers
        for r in range(n_reducers):
            assert _canon_groups(spilled.partitions[r]) == _canon_groups(
                reference.partitions[r]
            )
            assert spilled.groups_for(r) == reference.groups_for(r)
            assert spilled.records_for(r) == reference.records_for(r)
        assert spilled.shuffled_bytes == reference.shuffled_bytes
        assert spilled.partition_bytes == reference.partition_bytes
        spilled.release()
        assert list(directory.path.iterdir()) == []
    finally:
        directory.cleanup()
