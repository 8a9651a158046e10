"""Equivalence under failure: chaos must be invisible to the algorithms.

The paper's correctness story — "the MapReduce adaptation computes what
GEPETO computes" — has to survive infrastructure faults, because a real
Hadoop deployment absorbs them routinely.  hypothesis draws randomized
seeded :class:`ChaosSchedule`\\ s (probabilistic knobs *and* scripted
faults over fault kind x phase x task index) and asserts that every
driver's output is **byte-identical** to its no-fault run; separate
tests pin the no-fault MR run to the sequential GEPETO baseline, closing
the chain sequential == MR == MR-under-chaos.

Runs are expensive (each example is a full simulated deployment), so the
example counts are deliberately small; the schedules are seeded, so any
found counterexample replays exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.djcluster import DJClusterParams, preprocess_array
from repro.algorithms.kmeans import kmeans_sequential
from repro.algorithms.sampling import sample_array
from repro.attacks.mmc import build_mmc
from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.mapreduce.chaos import DRIVERS, default_schedule
from repro.mapreduce.config import BACKENDS
from repro.mapreduce.failures import ChaosSchedule, Fault, FaultKind
from repro.mapreduce.runner import fresh_runner
from repro.observability.report import summarize

# Each hypothesis example is a full simulated deployment, and every test
# now runs once per execution backend — keep the counts small.
MAX_EXAMPLES = 4


@pytest.fixture(scope="module")
def corpus():
    dataset, _ = generate_dataset(SyntheticConfig(n_users=3, days=1, seed=42))
    return dataset.flat().sort_by_time()


@pytest.fixture(scope="module")
def context(corpus):
    return {"poi_coords": kmeans_sequential(corpus.coordinates(), k=4, seed=0).centroids}


@pytest.fixture(scope="module")
def clean_signatures(corpus, context):
    """Fingerprint of every driver's fault-free run, computed once."""
    return {
        name: driver.cell(corpus, context).signature
        for name, driver in DRIVERS.items()
    }


# -- schedule strategies -----------------------------------------------------

def _task_scoped_fault(kind):
    return st.builds(
        Fault,
        kind=st.just(kind),
        task=st.tuples(
            st.sampled_from(["map", "reduce"]), st.integers(0, 8)
        ).map(lambda p: f"{p[0]}-{p[1]:04d}"),
        attempt=st.integers(1, 3),
    )


scripted_faults = st.lists(
    st.one_of(
        _task_scoped_fault(FaultKind.TASK_CRASH),
        _task_scoped_fault(FaultKind.CACHE_LOAD),
        st.builds(
            Fault,
            kind=st.just(FaultKind.SHUFFLE_FETCH),
            task=st.integers(0, 8).map(lambda i: f"reduce-{i:04d}"),
        ),
        st.builds(
            Fault,
            kind=st.just(FaultKind.SLOW_NODE),
            node=st.integers(0, 2).map(lambda i: f"worker{i:02d}"),
        ),
    ),
    max_size=4,
).map(tuple)

schedules = st.builds(
    ChaosSchedule,
    seed=st.integers(0, 2**32 - 1),
    crash_prob=st.sampled_from([0.0, 0.1, 0.25]),
    cache_load_prob=st.sampled_from([0.0, 0.1]),
    shuffle_fetch_prob=st.sampled_from([0.0, 0.2]),
    slow_node_prob=st.sampled_from([0.0, 0.3]),
    node_loss_prob=st.sampled_from([0.0, 1.0]),
    # At most two of the three workers: one healthy node always remains.
    bad_nodes=st.frozensets(
        st.integers(0, 2).map(lambda i: f"worker{i:02d}"), max_size=2
    ),
    faults=scripted_faults,
)

#: ``None`` = unbounded; ~10 KB forces the spill paths (test_outofcore).
budgets = st.sampled_from([None, 0.01])


def _assert_equivalent(
    name, corpus, context, clean_signatures, schedule, backend, budget=None
):
    # Two workers force real pool dispatch on threads/processes even on a
    # single-core runner (the backends short-circuit inline at 1 worker).
    workers = None if backend == "serial" else 2
    cell = DRIVERS[name].cell(
        corpus, context, chaos=schedule, backend=backend, max_workers=workers, budget_mb=budget
    )
    if cell.failure is not None:
        # An aggressive schedule may legitimately exhaust a task's retry
        # budget — like Hadoop after max.attempts.  The contract is then a
        # *clean* failure carrying the full chain, never silent corruption.
        assert len(cell.failure.failures) == cell.failure.max_attempts
        assert cell.failure.failure_chain
        return
    assert cell.signature == clean_signatures[name], (
        f"{name} output diverged under chaos schedule "
        f"[{schedule.describe()}] budget={budget} on backend {backend}"
    )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(schedule=schedules, budget=budgets)
def test_sampling_equivalent_under_chaos(
    corpus, context, clean_signatures, backend, schedule, budget
):
    _assert_equivalent(
        "sampling", corpus, context, clean_signatures, schedule, backend, budget
    )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(schedule=schedules, budget=budgets)
def test_djcluster_preprocessing_equivalent_under_chaos(
    corpus, context, clean_signatures, backend, schedule, budget
):
    _assert_equivalent(
        "djcluster", corpus, context, clean_signatures, schedule, backend, budget
    )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(schedule=schedules, budget=budgets)
def test_mmc_equivalent_under_chaos(
    corpus, context, clean_signatures, backend, schedule, budget
):
    _assert_equivalent(
        "mmc", corpus, context, clean_signatures, schedule, backend, budget
    )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=2, deadline=None)  # iterative: the slow driver
@given(schedule=schedules, budget=budgets)
def test_kmeans_equivalent_under_chaos(
    corpus, context, clean_signatures, backend, schedule, budget
):
    _assert_equivalent(
        "kmeans", corpus, context, clean_signatures, schedule, backend, budget
    )


# -- cross-backend byte-identity ---------------------------------------------
#
# The property tests above check output fingerprints per backend; this
# pins the *whole observable execution* — every traced event dict (and
# with it every counter), the simulated makespan and the output signature
# — to be byte-identical across serial, threaded and process execution
# under fault-heavy fixed schedules: the campaign default, and the same
# with a chronically bad node (the driver-side replay's bounces, which it
# interleaves with the attempt loop's hashed crashes).

_FIXED = default_schedule(seed=3, node_loss=True)
FIXED_CASES = [_FIXED, dataclasses.replace(_FIXED, bad_nodes=frozenset({"worker02"}))]


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_backends_byte_identical_under_fixed_chaos(name, corpus, context):
    for schedule in FIXED_CASES:
        runs = {}
        for backend in BACKENDS:
            workers = None if backend == "serial" else 2
            runs[backend] = DRIVERS[name].cell(
                corpus, context, chaos=schedule, backend=backend, max_workers=workers
            )
        base = runs["serial"]
        assert base.failure is None
        if schedule.bad_nodes:
            # Both fault sources the replay interleaves really fired.
            assert any("worker02" in job.nodes_blacklisted for job in summarize(base.history))
            reasons = {
                e["data"]["reason"] for e in base.events if e["kind"] == "attempt_failed"
            }
            assert {"bad node worker02", "chaos crash"} <= reasons
        for backend in BACKENDS[1:]:
            got = runs[backend]
            assert got.signature == base.signature, backend
            assert got.makespan_s == base.makespan_s, backend
            assert got.events == base.events, backend


# -- sequential baselines ----------------------------------------------------
#
# The chaos tests above prove MR == MR-under-chaos; these pin the other
# end of the chain, MR == sequential GEPETO, on the same corpus.  For the
# map-only jobs the comparison uses a single-chunk layout (the bounded
# chunk-boundary artifact of map-only jobs is quantified elsewhere); the
# MMC decomposition is exact for any chunking.

def _single_chunk_runner(corpus, chaos=None):
    return fresh_runner(
        {"input/traces": corpus}, chunk_size=1 << 30, n_workers=3, record_bytes=64,
        chaos=chaos,
    )


def test_sampling_matches_sequential_even_under_chaos(corpus):
    from repro.algorithms.sampling import run_sampling_job

    expected = sample_array(corpus, window_s=600.0)
    runner = _single_chunk_runner(corpus, default_schedule(seed=5))
    result = run_sampling_job(runner, "input/traces", "out/s", window_s=600.0)
    got = runner.hdfs.read_trace_array(result.output_path)
    assert got.users == expected.users
    assert np.array_equal(got.timestamp, expected.timestamp)
    assert np.array_equal(got.latitude, expected.latitude)
    assert np.array_equal(got.longitude, expected.longitude)


def test_djcluster_preprocessing_matches_sequential_even_under_chaos(corpus):
    from repro.algorithms.djcluster import run_preprocessing_pipeline

    params = DJClusterParams()
    _, expected = preprocess_array(corpus, params)
    runner = _single_chunk_runner(corpus, default_schedule(seed=5))
    pipeline = run_preprocessing_pipeline(runner, "input/traces", params, workdir="tmp/dj")
    got = runner.hdfs.read_trace_array(pipeline.output_path)
    assert len(got) == len(expected)
    assert np.array_equal(got.timestamp, expected.timestamp)
    assert np.array_equal(got.latitude, expected.latitude)


def test_mmc_matches_sequential_even_under_chaos(corpus, context):
    from repro.attacks.mmc_mr import run_mmc_mapreduce

    runner = _single_chunk_runner(corpus, default_schedule(seed=5, node_loss=True))
    models = run_mmc_mapreduce(
        runner, "input/traces", context["poi_coords"], output_path="tmp/mmc"
    )
    for user, chain in models.items():
        mask = np.array(corpus.users)[corpus.user_index] == user
        expected = build_mmc(corpus[np.flatnonzero(mask)], context["poi_coords"])
        assert np.array_equal(chain.transitions, expected.transitions), user
        assert np.array_equal(chain.visit_counts, expected.visit_counts), user


def test_kmeans_matches_sequential_baseline(corpus):
    from repro.algorithms.kmeans import run_kmeans_mapreduce

    points = corpus.coordinates()
    init = points[:3].copy()
    expected = kmeans_sequential(
        points, k=3, max_iter=3, initial_centroids=init
    )
    runner = _single_chunk_runner(corpus, default_schedule(seed=5))
    got = run_kmeans_mapreduce(
        runner, "input/traces", k=3, max_iter=3,
        initial_centroids=init, workdir="tmp/km",
    )
    # Float sums associate differently across the combiner tree: allclose,
    # not byte equality, is the right contract against the sequential code.
    assert np.allclose(got.centroids, expected.centroids)
    assert got.n_iterations == expected.n_iterations
