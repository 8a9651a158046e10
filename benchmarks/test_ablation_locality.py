"""Ablation — data-locality scheduling (Section III).

"The system assigns tasks to the nodes based on the locations of the
data chunks ... priority is given to neighboring nodes."  This bench
turns the jobtracker's locality preference off and measures what it
buys: the node-local map fraction and the simulated map-phase time
(remote reads pay a per-MB network penalty in the cost model).
"""

import pytest

from benchmarks.conftest import write_report
from repro.algorithms.sampling import run_sampling_job
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.counters import STANDARD
from repro.mapreduce.hdfs import MB, SimulatedHDFS
from repro.mapreduce.runner import JobRunner


@pytest.fixture(scope="module")
def locality_runs(corpus_128mb):
    array, _ = corpus_128mb
    out = {}
    for prefer in (True, False):
        hdfs = SimulatedHDFS(
            paper_cluster(10, nodes_per_rack=4), chunk_size=4 * MB, seed=0
        )
        hdfs.put_trace_array("in", array)
        runner = JobRunner(hdfs, prefer_locality=prefer)
        res = run_sampling_job(runner, "in", "out", 60.0)
        sched = res.counters.group(STANDARD.GROUP_SCHEDULER)
        out[prefer] = (res, sched)
    on_res, on_sched = out[True]
    off_res, off_sched = out[False]
    lines = [
        "Ablation - jobtracker data-locality preference",
        f"{'scheduler':<12} {'node-local %':>13} {'map sim s':>10}",
        f"{'locality on':<12} {_local_fraction(on_sched):>12.0%} {on_res.timing.map_s:>10.2f}",
        f"{'locality off':<12} {_local_fraction(off_sched):>12.0%} {off_res.timing.map_s:>10.2f}",
    ]
    print(write_report("ablation_locality", lines))
    return out


def _local_fraction(sched) -> float:
    local = sched.get(STANDARD.DATA_LOCAL_MAPS, 0)
    total = (
        local
        + sched.get(STANDARD.RACK_LOCAL_MAPS, 0)
        + sched.get(STANDARD.REMOTE_MAPS, 0)
    )
    return local / total if total else 0.0


def test_locality_preference_raises_local_fraction(locality_runs):
    _, on_sched = locality_runs[True]
    _, off_sched = locality_runs[False]
    f_on = _local_fraction(on_sched)
    f_off = _local_fraction(off_sched)
    assert f_on > f_off
    assert f_on > 0.6


def test_locality_never_slower(locality_runs):
    on_res, _ = locality_runs[True]
    off_res, _ = locality_runs[False]
    assert on_res.timing.map_s <= off_res.timing.map_s + 1e-6


def test_outputs_identical_either_way(locality_runs):
    on_res, on_sched = locality_runs[True]
    off_res, off_sched = locality_runs[False]
    on_out = on_res.counters.value(STANDARD.GROUP_TASK, STANDARD.MAP_OUTPUT_RECORDS)
    off_out = off_res.counters.value(STANDARD.GROUP_TASK, STANDARD.MAP_OUTPUT_RECORDS)
    assert on_out == off_out


def test_benchmark_locality_scheduling(benchmark, locality_runs, corpus_128mb):
    """Wall-clock of planning the locality-aware map phase over ~420
    chunks.  Depends on ``locality_runs`` so a ``--benchmark-only`` run
    still generates the locality ablation report.
    """
    from repro.mapreduce.scheduler import plan_map_phase
    from repro.mapreduce.simtime import CostModel

    array, _ = corpus_128mb
    hdfs = SimulatedHDFS(paper_cluster(10, nodes_per_rack=4), chunk_size=256 * 1024, seed=0)
    hdfs.put_trace_array("in", array)
    chunks = hdfs.chunks("in")
    model = CostModel()
    plan = benchmark(
        plan_map_phase,
        chunks,
        hdfs.cluster,
        lambda c, loc: model.map_task_time(c, loc),
    )
    assert len(plan.assignments) == len(chunks)
