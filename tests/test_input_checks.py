"""The input-check census: one hostile-value table over the public entry
points (DESIGN.md, "Input checks").

Each row names an entry point, the parameter it checks and the check from
:mod:`repro.checks` it calls.  Every value of ``HOSTILE`` that the check
rejects must make the entry point raise the very ``ValueError`` the check
raises, so the row pins which check runs, under which name; every count
must take a NumPy integer.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.djcluster import DJClusterParams
from repro.algorithms.kmeans import kmeans_sequential, run_kmeans_mapreduce
from repro.algorithms.sampling import run_sampling_job
from repro.attacks.deanonymization import fingerprint_users
from repro.attacks.linkage_mr import blocking_cells, cover_cells, run_linkage_attack
from repro.checks import count, finite, non_negative, positive, probability
from repro.cli import _run, build_parser
from repro.geo.grid import grid_cells, time_windows
from repro.geo.trace import TraceArray
from repro.index.persistent import PersistentRTree, QueryEngine
from repro.index.rtree import RTree
from repro.index.rtree_mr import build_rtree_mapreduce
from repro.index.selfjoin import radius_self_join
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.config import MapReduceConfig, validate_tenants
from repro.mapreduce.failures import ChaosSchedule, Fault, FaultKind
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import fresh_runner
from repro.mapreduce.scheduler import RetryPolicy
from repro.sanitization import (
    DonutMask,
    GaussianMask,
    MixZone,
    PlanarLaplaceMask,
    RoundingMask,
    SpatialAggregator,
    SpatialCloaking,
    TemporalAggregator,
    UniformNoiseMask,
)
from repro.viz import ascii_density_map

HISTORY = Path(__file__).parent / "observability" / "golden_history.json"
HOSTILE = [math.nan, math.inf, -math.inf, 0, -1, True, 1.5, "5"]

ARRAY = TraceArray.from_columns(
    ["a", "a", "b"], [40.0, 40.001, 40.002], [116.0, 116.001, 116.002], [0.0, 60.0, 120.0]
)
TREE = RTree.bulk_load(np.array([[40.0, 116.0], [40.001, 116.001], [40.002, 116.002]]))


def _runner():
    return fresh_runner({"traces": ARRAY}, chunk_size=64 * 1024)


@functools.cache
def _engine():
    hdfs = SimulatedHDFS(paper_cluster(2), chunk_size=64 * 1024, seed=0)
    return QueryEngine(PersistentRTree.save(hdfs, "idx", TREE), hdfs=hdfs)


def at_least_one(name, value):
    """``slow_factor`` and ``backoff_factor``: finite, then >= 1."""
    if finite(name, value) < 1.0:
        raise ValueError(f"{name} must be >= 1, got {value!r}")


def positive_count(name, value):
    """``RTree.knn``'s ``k``: an integer, then positive."""
    positive(name, count(name, value, 0))


def counting(least):
    return lambda name, value: count(name, value, least)


ONE, TWO, ZERO = counting(1), counting(2), counting(0)

#: ``(entry point, parameter name, check, call(value))``.
TABLE = [
    ("MapReduceConfig", "max_workers", ONE, lambda v: MapReduceConfig(max_workers=v)),
    ("MapReduceConfig", "memory_budget_mb", positive,
     lambda v: MapReduceConfig(memory_budget_mb=v)),
    ("validate_tenants", "tenant 't' weight", positive, lambda v: validate_tenants({"t": v})),
    ("validate_tenants", "tenant 't' max_queued", ONE,
     lambda v: validate_tenants({"t": {"max_queued": v}})),
    ("SimulatedHDFS", "memory_budget_mb", positive,
     lambda v: SimulatedHDFS(paper_cluster(2), memory_budget_mb=v)),
    ("SimulatedHDFS", "chunk_size", positive,
     lambda v: SimulatedHDFS(paper_cluster(2), chunk_size=v)),
    ("SimulatedHDFS", "replication", ONE,
     lambda v: SimulatedHDFS(paper_cluster(2), replication=v)),
    ("ChaosSchedule", "crash_prob", probability, lambda v: ChaosSchedule(crash_prob=v)),
    ("ChaosSchedule", "dup_batch_prob", probability, lambda v: ChaosSchedule(dup_batch_prob=v)),
    ("ChaosSchedule", "slow_factor", at_least_one, lambda v: ChaosSchedule(slow_factor=v)),
    ("ChaosSchedule", "max_node_losses", ZERO, lambda v: ChaosSchedule(max_node_losses=v)),
    ("Fault", "attempt", ONE, lambda v: Fault(FaultKind.TASK_CRASH, task="m", attempt=v)),
    ("RetryPolicy", "max_attempts", ONE, lambda v: RetryPolicy(max_attempts=v)),
    ("RetryPolicy", "blacklist_after", ONE, lambda v: RetryPolicy(blacklist_after=v)),
    ("RetryPolicy", "backoff_base_s", non_negative, lambda v: RetryPolicy(backoff_base_s=v)),
    ("RetryPolicy", "backoff_factor", at_least_one, lambda v: RetryPolicy(backoff_factor=v)),
    ("DJClusterParams", "radius_m", positive, lambda v: DJClusterParams(radius_m=v)),
    ("DJClusterParams", "min_pts", ONE, lambda v: DJClusterParams(min_pts=v)),
    ("DJClusterParams", "speed_threshold_ms", non_negative,
     lambda v: DJClusterParams(speed_threshold_ms=v)),
    ("DJClusterParams", "dedup_tolerance_m", non_negative,
     lambda v: DJClusterParams(dedup_tolerance_m=v)),
    ("DJClusterParams", "rtree_max_entries", TWO, lambda v: DJClusterParams(rtree_max_entries=v)),
    ("kmeans_sequential", "k", ONE, lambda v: kmeans_sequential(ARRAY.coordinates(), v)),
    ("kmeans_sequential", "max_iter", ONE,
     lambda v: kmeans_sequential(ARRAY.coordinates(), 2, max_iter=v)),
    ("run_kmeans_mapreduce", "k", ONE, lambda v: run_kmeans_mapreduce(_runner(), "traces", v)),
    ("run_kmeans_mapreduce", "max_iter", ONE,
     lambda v: run_kmeans_mapreduce(_runner(), "traces", 2, max_iter=v)),
    ("RTree", "max_entries", TWO, lambda v: RTree(max_entries=v)),
    ("RTree.knn", "k", positive_count, lambda v: TREE.knn(40.0, 116.0, v)),
    ("RTree.knn", "lat", finite, lambda v: TREE.knn(v, 116.0, 1)),
    ("RTree.query_radius", "radius", non_negative, lambda v: TREE.query_radius(40.0, 116.0, v)),
    ("radius_self_join", "radius", non_negative,
     lambda v: radius_self_join(ARRAY.coordinates(), v)),
    ("build_rtree_mapreduce", "n_partitions", ONE,
     lambda v: build_rtree_mapreduce(_runner(), "traces", v)),
    ("build_rtree_mapreduce", "sample_per_chunk", ONE,
     lambda v: build_rtree_mapreduce(_runner(), "traces", 2, sample_per_chunk=v)),
    ("QueryEngine.point", "lat", finite, lambda v: _engine().point(v, 116.0)),
    ("QueryEngine.range", "max_lon", finite, lambda v: _engine().range(39.0, 115.0, 41.0, v)),
    ("QueryEngine.radius", "lon", finite, lambda v: _engine().radius(40.0, v, 10.0)),
    ("QueryEngine.knn", "lat", finite, lambda v: _engine().knn(v, 116.0, 1)),
    ("blocking_cells", "max_match_dist_m", positive, lambda v: blocking_cells([40.0], [116.0], v)),
    ("cover_cells", "max_match_dist_m", positive, lambda v: cover_cells([40.0], [116.0], v)),
    ("run_linkage_attack", "max_match_dist_m", positive,
     lambda v: run_linkage_attack(_runner(), "traces", "traces", {}, max_match_dist_m=v)),
    ("run_linkage_attack", "max_pois", ONE,
     lambda v: run_linkage_attack(_runner(), "traces", "traces", {}, max_pois=v)),
    ("run_linkage_attack", "attach_radius_m", non_negative,
     lambda v: run_linkage_attack(_runner(), "traces", "traces", {}, attach_radius_m=v)),
    ("fingerprint_users", "max_pois", ONE, lambda v: fingerprint_users(ARRAY, max_pois=v)),
    ("fingerprint_users", "attach_radius_m", non_negative,
     lambda v: fingerprint_users(ARRAY, attach_radius_m=v)),
    ("grid_cells", "cell_m", positive, lambda v: grid_cells([40.0], [116.0], v)),
    ("time_windows", "window_s", positive, lambda v: time_windows([0.0], v)),
    ("run_sampling_job", "window_s", positive,
     lambda v: run_sampling_job(_runner(), "traces", "out", v)),
    ("GaussianMask", "sigma_m", non_negative, GaussianMask),
    ("UniformNoiseMask", "radius_m", non_negative, UniformNoiseMask),
    ("PlanarLaplaceMask", "epsilon", positive, PlanarLaplaceMask),
    ("DonutMask", "r_min", non_negative, lambda v: DonutMask(v, 100.0)),
    ("DonutMask", "r_max", non_negative, lambda v: DonutMask(0.0, v)),
    ("RoundingMask", "cell_m", positive, RoundingMask),
    ("SpatialAggregator", "cell_m", positive, SpatialAggregator),
    ("TemporalAggregator", "window_s", positive, TemporalAggregator),
    ("SpatialCloaking", "k", ONE, SpatialCloaking),
    ("SpatialCloaking", "base_cell_m", positive, lambda v: SpatialCloaking(2, base_cell_m=v)),
    ("SpatialCloaking", "window_s", positive, lambda v: SpatialCloaking(2, window_s=v)),
    ("SpatialCloaking", "max_levels", ONE, lambda v: SpatialCloaking(2, max_levels=v)),
    ("MixZone", "radius_m", positive, lambda v: MixZone(40.0, 116.0, v)),
    ("ascii_density_map", "width", TWO, lambda v: ascii_density_map(ARRAY, width=v)),
    ("ascii_density_map", "height", TWO, lambda v: ascii_density_map(ARRAY, height=v)),
    ("ascii_density_map (no traces)", "width", TWO,
     lambda v: ascii_density_map(ARRAY[np.arange(0)], width=v)),
    ("repro history", "--width", ONE,
     lambda v: _cli(["history", str(HISTORY), "--no-gantt"], width=v)),
]


def _cli(argv, **values):
    """``repro <argv>`` with ``values`` set past argparse, as numbers
    from a caller would arrive."""
    args = build_parser().parse_args(argv)
    vars(args).update(values)
    return _run(args)


def _rejection(check, name, value) -> str | None:
    try:
        check(name, value)
    except ValueError as exc:
        return str(exc)
    return None


#: Each row with every hostile value its check rejects (0 is a valid
#: probability, 1.5 a valid real, and so on).
CASES = [
    pytest.param(call, name, message, value, id=f"{entry}-{name}-{value!r}")
    for entry, name, check, call in TABLE
    for value in HOSTILE
    if (message := _rejection(check, name, value)) is not None
]


@pytest.mark.parametrize("call, name, message, value", CASES)
def test_a_hostile_value_gets_the_checks_own_error(call, name, message, value):
    assert message.startswith(name)
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, least",
    [
        pytest.param(call, {ONE: 1, TWO: 2, ZERO: 0, positive_count: 1}[check],
                     id=f"{entry}-{name}")
        for entry, name, check, call in TABLE
        if check in (ONE, TWO, ZERO, positive_count)
    ],
)
def test_every_count_takes_a_numpy_integer(call, least):
    call(np.int64(max(least, 2)))
