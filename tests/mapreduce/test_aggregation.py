"""The aggregation algebra: monoid exactness, the canonical merge tree,
map-side pre-aggregation, the metadata-only shuffle, and equivalence of
a declared aggregation with a reference job that declares only a reducer
(``tests/conftest.py::CountSumReducer``) under backends, memory budgets
and chaos."""

import numpy as np
import pytest

from repro.algorithms.kmeans import KMeansAggregation
from repro.mapreduce.aggregation import (
    AggregateEnvelope,
    AggregationReducer,
    coalesce_by_node,
    fold_envelopes,
    preaggregate,
)
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.counters import STANDARD
from repro.mapreduce.failures import ChaosSchedule, Fault, FaultKind
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import HashPartitioner, JobSpec, Mapper, ReduceContext
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.shuffle import _shuffle_generic, group_sorted, shuffle
from tests.conftest import CountAggregation, CountSumReducer

BACKENDS = ("serial", "threads", "processes")


class _ObjectOnlyCount(CountAggregation):
    """CountAggregation with the vectorized fast path disabled."""

    def lift_pairs(self, pairs):
        return None


class _ObjectOnlyKMeans(KMeansAggregation):
    def lift_pairs(self, pairs):
        return None


# -- vectorized lift_pairs vs the object loop ---------------------------------

@pytest.mark.parametrize(
    "pairs",
    [
        [(3, 1), (1, 2), (3, 4), (-7, 5), (1, 1), (0, 0)],
        [(0, 1)],
        [(5, -2), (5, -3), (5, 1000)],
        [(k % 4, k) for k in range(100)],
        [],
    ],
)
def test_count_lift_pairs_matches_object_loop(pairs):
    fast, fast_c = preaggregate(CountAggregation(), pairs, "n1", "map-0000")
    slow, slow_c = preaggregate(_ObjectOnlyCount(), pairs, "n1", "map-0000")
    assert fast == slow
    assert fast_c.to_dict() == slow_c.to_dict()


def test_count_lift_pairs_declines_non_int_keys():
    agg = CountAggregation()
    assert agg.lift_pairs([("u1", 1), ("u2", 2)]) is None
    assert agg.lift_pairs([(True, 1)]) is None  # bool is not int here
    assert agg.lift_pairs([(1, 2.0)]) is None
    # preaggregate still folds them through the object loop.
    pairs, _ = preaggregate(agg, [("b", 1), ("a", 2), ("b", 3)], "n1", "map-0000")
    assert [(k, e.value, e.records) for k, e in pairs] == [("a", 2, 1), ("b", 4, 2)]


def test_kmeans_lift_pairs_matches_object_loop_bitwise():
    rng = np.random.default_rng(7)
    pairs = [
        (int(cid), rng.normal(size=(n, 2)) * 10)
        for cid, n in [(2, 17), (0, 3), (2, 5), (1, 1)]
    ]
    fast, _ = preaggregate(KMeansAggregation(), pairs, "n1", "map-0000")
    slow, _ = preaggregate(_ObjectOnlyKMeans(), pairs, "n1", "map-0000")
    assert [k for k, _ in fast] == [k for k, _ in slow]
    for (_, fe), (_, se) in zip(fast, slow):
        assert fe.value[0].tobytes() == se.value[0].tobytes()
        assert fe.value[1] == se.value[1]
        assert fe.records == se.records


def test_lifted_records_per_key_equal_the_grouped_counts():
    """A mapper may emit one key several times per task: the fast path
    counts its records per key in one pass, and each envelope's
    ``records`` must be what grouping the task's output would count."""
    rng = np.random.default_rng(3)
    pairs = [(int(cid), rng.normal(size=(2, 2))) for cid in [2, 0, 2, 5, 2, 0, 1]]
    fast, _ = preaggregate(KMeansAggregation(), pairs, "n1", "map-0000")
    slow, _ = preaggregate(_ObjectOnlyKMeans(), pairs, "n1", "map-0000")
    grouped = [(key, len(values)) for key, values in group_sorted(list(pairs))]
    assert [(key, env.records) for key, env in fast] == grouped == [(0, 2), (1, 1), (2, 3), (5, 1)]
    assert [env.records for _, env in slow] == [env.records for _, env in fast]


# -- canonical merge tree ------------------------------------------------------

def _float_envelopes():
    """Envelopes whose float partials detect any merge-order change."""
    rng = np.random.default_rng(11)
    envs = []
    for node, task in [
        ("n2", "map-0003"), ("n1", "map-0001"), ("n1", "map-0004"),
        ("n3", "map-0000"), ("n2", "map-0002"), ("n1", "map-0007"),
    ]:
        envs.append(
            AggregateEnvelope(
                value=(rng.normal(size=2) * 10.0 ** float(rng.integers(-3, 6)), 1),
                node=node, task=task, records=1, nbytes=24,
            )
        )
    return envs


def test_fold_envelopes_invariant_under_permutation():
    agg = KMeansAggregation()
    envs = _float_envelopes()
    want = fold_envelopes(agg, envs)
    for seed in range(5):
        shuffled = list(envs)
        np.random.default_rng(seed).shuffle(shuffled)
        got = fold_envelopes(agg, shuffled)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]


def test_fold_after_coalesce_is_bitwise_identical():
    """Transport coalescing replays the per-node fold exactly, so the
    reducer's result is the same whether envelopes arrive per-task or
    pre-coalesced per node."""
    agg = KMeansAggregation()
    envs = _float_envelopes()
    coalesced = coalesce_by_node(agg, envs)
    assert len(coalesced) == 3  # one per source node
    a = fold_envelopes(agg, envs)
    b = fold_envelopes(agg, coalesced)
    assert a[0].tobytes() == b[0].tobytes()
    assert a[1] == b[1]


def test_coalesce_preserves_record_counts_and_node_labels():
    agg = KMeansAggregation()
    coalesced = coalesce_by_node(agg, _float_envelopes())
    assert sorted(e.node for e in coalesced) == ["n1", "n2", "n3"]
    assert sum(e.records for e in coalesced) == 6
    # The surviving task label is the node's first task in canonical order.
    by_node = {e.node: e.task for e in coalesced}
    assert by_node["n1"] == "map-0001"
    assert by_node["n2"] == "map-0002"


def test_fold_seeds_with_first_partial_not_zero():
    """A single -0.0 partial must come back with its sign bit intact:
    folding through ``zero()`` would compute ``0.0 + (-0.0) == 0.0``."""
    agg = KMeansAggregation()
    env = AggregateEnvelope(
        value=(np.array([-0.0, -0.0]), 0), node="n1", task="map-0000",
        records=0, nbytes=24,
    )
    total, count = fold_envelopes(agg, [env])
    assert np.signbit(total).all()
    assert count == 0


def test_preaggregate_counters():
    pairs = [(1, 1), (2, 1), (1, 1), (1, 1)]
    out, counters = preaggregate(CountAggregation(), pairs, "n1", "map-0000")
    assert counters.value(STANDARD.GROUP_TASK, STANDARD.PREAGG_INPUT_RECORDS) == 4
    assert counters.value(STANDARD.GROUP_TASK, STANDARD.PREAGG_OUTPUT_RECORDS) == 2
    assert [(k, e.value, e.records, e.nbytes) for k, e in out] == [
        (1, 3, 3, 16), (2, 1, 1, 16),
    ]


# -- metadata-only shuffle -----------------------------------------------------

def _envelope_outputs():
    """Three map tasks on two nodes emitting pre-aggregated counts."""
    agg = CountAggregation()
    outs = []
    for node, task, pairs in [
        ("nodeA", "map-0000", [(1, 2), (2, 3)]),
        ("nodeB", "map-0001", [(1, 5), (3, 1)]),
        ("nodeA", "map-0002", [(2, 7)]),
    ]:
        env_pairs, _ = preaggregate(agg, pairs, node, task)
        outs.append(env_pairs)
    return agg, outs


def test_metadata_shuffle_coalesces_and_accounts():
    agg, outs = _envelope_outputs()
    sh = shuffle(outs, HashPartitioner(), 2, aggregation=agg)
    assert sh.preagg is not None
    assert sh.node_bytes is not None
    # 5 per-task envelopes; key 2 appears twice on nodeA and coalesces.
    assert sh.preagg.pre_coalesce_envelopes == 5
    assert sh.preagg.envelopes == 4
    assert sh.preagg.raw_records == 5
    assert sh.preagg.envelope_bytes == 4 * agg.envelope_nbytes
    assert sh.shuffled_bytes == 4 * agg.envelope_nbytes
    for r in range(2):
        assert sh.partition_bytes[r] == sum(sh.node_bytes[r].values())
        # Shipped records are envelopes; raw accounting sees through them.
        assert sh.records_for(r) <= sh.raw_records_for(r)
    assert sum(sh.raw_records_for(r) for r in range(2)) == 5


def test_metadata_shuffle_reduce_matches_legacy_paths():
    """Coalescing is invisible to the reduce: the same envelopes moved as
    plain objects (the reference shuffle, and ``shuffle`` told of no
    aggregation) fold to the same output."""
    agg, outs = _envelope_outputs()
    meta = shuffle(outs, HashPartitioner(), 2, aggregation=agg)
    legacy = _shuffle_generic(outs, HashPartitioner(), 2)
    no_agg = shuffle(outs, HashPartitioner(), 2)
    assert legacy.preagg is None and no_agg.preagg is None

    def reduce_out(sh):
        reducer = AggregationReducer(agg)
        ctx = ReduceContext(None, None, None, "reduce-0000", "n1")
        for r in range(sh.n_reducers):
            for key, values in sh.partitions[r]:
                reducer.reduce(key, values, ctx)
        return sorted(ctx.output)

    assert reduce_out(meta) == reduce_out(legacy) == reduce_out(no_agg)
    assert reduce_out(meta) == [(1, 7), (2, 10), (3, 1)]


def test_one_raw_pair_is_rejected_by_an_aggregation_shuffle():
    """A declared aggregation has chosen: its shuffle moves envelopes, and
    a raw value is a caller error, not a silent change of path."""
    agg, outs = _envelope_outputs()
    outs[1] = outs[1] + [(9, 4)]  # a raw (key, int) pair sneaks in
    with pytest.raises(TypeError, match="key 9 carries a raw int"):
        shuffle(outs, HashPartitioner(), 2, aggregation=agg)


def test_spilled_partition_accounting_matches_materialized():
    """records_for/groups_for/raw_records_for answer from spill metadata
    without touching disk — and agree with the materialized groups."""
    from repro.mapreduce.spill import ShuffleSpiller, SpillDirectory, SpillStats

    outputs = [[(k % 5, k) for k in range(i, 60, 3)] for i in range(3)]
    directory = SpillDirectory(None)
    try:
        spiller = ShuffleSpiller(1, directory, 2, SpillStats())
        sh = shuffle(outputs, HashPartitioner(), 2, spiller=spiller)
        assert sh.spill_runs
        for r in range(2):
            groups = sh.partitions[r]
            assert sh.records_for(r) == sum(len(vs) for _, vs in groups)
            assert sh.groups_for(r) == len(groups)
            # No pre-aggregation: every shipped record IS a raw record.
            assert sh.raw_records_for(r) == sh.records_for(r)
        assert sum(sh.partition_bytes) == sh.shuffled_bytes
        sh.release()
    finally:
        directory.cleanup()


# -- full-engine equivalence: aggregation vs reference spec x backends x budget

class _ModMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(int(value) % 7, 1, nbytes=16)


def _count_hdfs():
    hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=256, seed=0)
    hdfs.put_records("in", list(enumerate(range(199))), record_bytes=16)
    return hdfs


def _count_spec(aggregation=True):
    """The job under test declares only the monoid; the reference job
    declares only the oracle reducer, so its raw records are shuffled."""
    how = {"aggregation": CountAggregation} if aggregation else {"reducer": CountSumReducer}
    return JobSpec("modsum", _ModMapper, ["in"], "out", num_reducers=3, **how)


def _run_count_job(backend, *, aggregation=True, budget=None, chaos=None):
    hdfs = _count_hdfs()
    workers = None if backend == "serial" else 2
    with JobRunner(
        hdfs, executor=backend, max_workers=workers, memory_budget_mb=budget, chaos=chaos,
    ) as runner:
        result = runner.run(_count_spec(aggregation))
        return sorted(hdfs.read_records("out")), result, runner.history


EXPECTED = sorted((k, len(range(k, 199, 7))) for k in range(7))

#: A task crash, a fetch timeout and a node loss, all scripted.
FIXED_CHAOS = ChaosSchedule(
    seed=5,
    faults=(
        Fault(FaultKind.TASK_CRASH, task="map-0002", attempt=1),
        Fault(FaultKind.SHUFFLE_FETCH, task="reduce-0001"),
        Fault(FaultKind.NODE_LOSS, node="worker01", job="modsum"),
    ),
)


def test_aggregation_only_spec_has_a_reduce_phase():
    spec = _count_spec()
    assert spec.reducer is None and not spec.map_only
    assert isinstance(spec.aggregation, CountAggregation)  # class -> instance


def test_spec_without_reducer_or_aggregation_is_map_only():
    assert JobSpec("m", _ModMapper, ["in"], "out").map_only
    with pytest.raises(ValueError, match="a combiner requires a reduce phase"):
        JobSpec("m", _ModMapper, ["in"], "out", combiner=CountSumReducer)
    # Either declaration gives the combiner a reduce phase to feed.
    JobSpec("m", _ModMapper, ["in"], "out", combiner=CountSumReducer, reducer=CountSumReducer)
    JobSpec("m", _ModMapper, ["in"], "out", combiner=CountSumReducer, aggregation=CountAggregation)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("budget", [None, 1])
def test_shuffle_paths_identical_across_backends_and_budget(backend, budget):
    """An aggregation-only spec (no ``reducer=``) and the reference spec
    (oracle reducer, no aggregation) emit identical records on every
    backend, with or without a memory budget."""
    got, result, _ = _run_count_job(backend, budget=budget)
    want, _, _ = _run_count_job(backend, aggregation=False, budget=budget)
    assert got == want == EXPECTED, (backend, budget)
    assert result.n_reduce_tasks == 3


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("budget", [None, 1])
def test_aggregation_only_spec_under_chaos(backend, budget):
    got, result, history = _run_count_job(backend, budget=budget, chaos=FIXED_CHAOS)
    want, _, _ = _run_count_job(backend, aggregation=False, budget=budget, chaos=FIXED_CHAOS)
    assert got == want == EXPECTED, (backend, budget)
    assert result.counters.value(STANDARD.GROUP_SCHEDULER, STANDARD.FAILED_TASKS) >= 1
    assert [e.kind for e in history.events_for("modsum")].count("shuffle_preagg") == 1


def test_preagg_moves_fewer_bytes_than_raw():
    _, agg_result, _ = _run_count_job("serial")
    _, raw_result, _ = _run_count_job("serial", aggregation=False)
    agg_bytes = agg_result.counters.value(STANDARD.GROUP_TASK, STANDARD.SHUFFLE_BYTES)
    raw_bytes = raw_result.counters.value(STANDARD.GROUP_TASK, STANDARD.SHUFFLE_BYTES)
    assert 0 < agg_bytes < raw_bytes


def test_shuffle_transfer_events_see_through_envelopes():
    """On the metadata-only path each shuffle_transfer event reports
    both the shipped envelope count and the raw mapper records behind
    it; the raw counts sum to the job's true map output."""
    _, _, history = _run_count_job("serial")
    transfers = [
        e for e in history.events_for("modsum")
        if e.kind == "shuffle_transfer"
    ]
    assert len(transfers) == 3
    for e in transfers:
        assert e.payload.records <= e.payload.raw_records
    assert sum(e.payload.raw_records for e in transfers) == 199


# -- chaos: metadata-only partitions survive failures -------------------------

def test_metadata_partition_survives_shuffle_fetch_and_node_loss():
    """A fetch timeout on a metadata-only partition and the loss of a
    map node mid-job are both absorbed: the re-fetch pulls envelopes
    (labeled with their planned node, so the canonical merge tree is
    unchanged) and output records stay identical to the pristine run."""
    chaos = ChaosSchedule(
        seed=5,
        faults=(
            Fault(FaultKind.SHUFFLE_FETCH, task="reduce-0001"),
            Fault(FaultKind.NODE_LOSS, node="worker01", job="modsum"),
        ),
    )
    pristine, _, _ = _run_count_job("serial")
    for backend in BACKENDS:
        records, result, history = _run_count_job(backend, chaos=chaos)
        assert records == pristine == EXPECTED
        refetches = result.counters.value(
            STANDARD.GROUP_SCHEDULER, STANDARD.SHUFFLE_REFETCHES
        )
        assert refetches >= 1
        # The run really took the metadata-only path.
        preagg_events = [
            e for e in history.events_for("modsum")
            if e.kind == "shuffle_preagg"
        ]
        assert len(preagg_events) == 1
        assert preagg_events[0].payload.envelopes > 0


def test_chaos_run_is_bit_reproducible_on_metadata_path():
    chaos = ChaosSchedule(
        seed=5, faults=(Fault(FaultKind.SHUFFLE_FETCH, task="reduce-0000"),)
    )
    a_records, a_result, _ = _run_count_job("serial", chaos=chaos)
    b_records, b_result, _ = _run_count_job("serial", chaos=chaos)
    assert a_records == b_records
    assert a_result.counters.to_dict() == b_result.counters.to_dict()
    assert a_result.timing.total_s == b_result.timing.total_s
