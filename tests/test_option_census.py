"""The option census: every parameter of the entry points that choose how
a job runs, written out.  Each independent option doubles the
configurations the equivalence suites must cover, so adding (or
dropping) one has to show up here as a one-line diff."""

import dataclasses
import inspect

import pytest

from repro.algorithms.djcluster import run_djcluster_mapreduce
from repro.algorithms.kmeans import run_kmeans_mapreduce
from repro.attacks.linkage_mr import run_linkage_attack
from repro.attacks.sweep import run_sweep
from repro.mapreduce.runner import JobRunner, fresh_runner
from repro.mapreduce.service import JobService
from repro.mapreduce.shuffle import shuffle
from repro.streaming.manager import StreamingJobManager

CENSUS = {
    JobRunner.__init__: (
        "self", "hdfs", "cost_model", "executor", "max_workers", "prefer_locality",
        "speculative", "chaos", "retry_policy", "memory_budget_mb", "spill_dir",
        "reduce_locality",
    ),
    fresh_runner: (
        "datasets", "chunk_size", "n_workers", "backend", "max_workers", "budget_mb",
        "record_bytes", "runner_kwargs",
    ),
    JobService.__init__: (
        "self", "hdfs", "tenants", "executor", "max_workers", "chaos",
        "memory_budget_mb", "spill_dir", "result_cache", "start",
    ),
    shuffle: ("map_outputs", "partitioner", "n_reducers", "spiller", "aggregation"),
    run_djcluster_mapreduce: (
        "runner", "input_path", "params", "rtree_curve", "workdir", "history_path",
        "name_prefix",
    ),
    run_kmeans_mapreduce: (
        "runner", "input_path", "k", "distance", "convergence_delta", "max_iter",
        "seed", "initial_centroids", "init", "use_combiner", "use_aggregation",
        "workdir", "history_path", "name_prefix",
    ),
    run_linkage_attack: (
        "runner", "training_path", "target_path", "ground_truth", "params",
        "max_pois", "attach_radius_m", "max_match_dist_m", "num_reducers",
        "workdir", "history_path",
    ),
    run_sweep: (
        "training", "target", "ground_truth", "mechanisms", "params", "executor",
        "history_path",
    ),
    StreamingJobManager.__init__: (
        "self", "client", "name", "root", "k", "max_iter", "seed",
        "sampling_window_s", "warm_start", "dj_params", "risk_cell_m",
        "risk_window_s", "risk_rollup",
    ),
}


@pytest.mark.parametrize("func", CENSUS, ids=lambda f: f.__qualname__)
def test_parameter_census(func):
    assert tuple(inspect.signature(func).parameters) == CENSUS[func]


def test_bench_surface_census():
    """What a curator can set on ``repro bench`` and what a suite declares."""
    from repro.cli import build_parser
    from repro.mapreduce.bench import Suite

    (subparsers,) = (a for a in build_parser()._actions if a.dest == "command")
    flags = [a.option_strings[-1] for a in subparsers.choices["bench"]._actions]
    assert flags == [
        "--help", "--sizes", "--backends", "--k", "--max-iter", "--workers", "--out",
        "--check", "--baseline", "--budget-mb",
        "--spill", "--multitenant", "--query", "--stream", "--shuffle", "--attack",
    ]
    assert [field.name for field in dataclasses.fields(Suite)] == [
        "name", "run", "gates", "render", "options", "pinned", "compared",
    ]


def test_count_sum_reducer_is_a_test_oracle_only():
    """The reduce of a declared aggregation is the monoid; the plain sum
    reducer survives as ``tests/conftest.py::CountSumReducer``."""
    import repro
    import repro.mapreduce.aggregation as aggregation

    assert not hasattr(aggregation, "CountSumReducer")
    assert not hasattr(repro, "CountSumReducer")
