"""The option census: every parameter of the entry points that choose how
a job runs, written out.  Each independent option doubles the
configurations the equivalence suites must cover, so adding (or
dropping) one has to show up here as a one-line diff."""

import inspect

import pytest

from repro.algorithms.djcluster import run_djcluster_mapreduce
from repro.attacks.linkage_mr import run_linkage_attack
from repro.attacks.sweep import run_sweep
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.shuffle import shuffle

CENSUS = {
    JobRunner.__init__: (
        "self", "hdfs", "cost_model", "cache", "failure_injector", "max_attempts",
        "executor", "max_workers", "prefer_locality", "speculative", "history",
        "chaos", "retry_policy", "memory_budget_mb", "spill_dir", "reduce_locality",
    ),
    shuffle: ("map_outputs", "partitioner", "n_reducers", "spiller", "aggregation"),
    run_djcluster_mapreduce: (
        "runner", "input_path", "params", "n_rtree_partitions", "rtree_curve",
        "workdir", "history_path", "name_prefix",
    ),
    run_linkage_attack: (
        "runner", "training_path", "target_path", "ground_truth", "params",
        "max_pois", "attach_radius_m", "max_match_dist_m", "num_reducers",
        "workdir", "history_path",
    ),
    run_sweep: (
        "training", "target", "ground_truth", "mechanisms", "params", "max_pois",
        "max_match_dist_m", "n_workers", "chunk_size", "executor", "result_cache",
        "history_path",
    ),
}


@pytest.mark.parametrize("func", CENSUS, ids=lambda f: f.__qualname__)
def test_parameter_census(func):
    assert tuple(inspect.signature(func).parameters) == CENSUS[func]


def test_count_sum_reducer_is_a_test_oracle_only():
    """The reduce of a declared aggregation is the monoid; the plain sum
    reducer survives as ``tests/conftest.py::CountSumReducer``."""
    import repro
    import repro.mapreduce.aggregation as aggregation

    assert not hasattr(aggregation, "CountSumReducer")
    assert not hasattr(repro, "CountSumReducer")
