"""Ablation — recovery overhead of mid-job node loss (chaos engine).

A real Hadoop deployment keeps running when a tasktracker (and its
datanode) dies mid-job: lost map outputs are re-dispatched to replica
holders, under-replicated chunks re-replicate, reducers re-fetch the
re-run outputs.  None of that is free.  This bench drives the same
sampling job over the simulated cluster clean, under a node loss, and
under a node loss plus crash-heavy chaos, and records what recovery
costs in simulated makespan.  Results land in
``benchmarks/results/ablation_nodeloss.txt``.
"""

import pytest

from benchmarks.conftest import make_runner, write_report
from repro.algorithms.sampling import run_sampling_job
from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.mapreduce.counters import STANDARD
from repro.mapreduce.failures import ChaosSchedule, Fault, FaultKind


@pytest.fixture(scope="module")
def corpus():
    return generate_dataset(SyntheticConfig(n_users=12, days=1, seed=7))[0]


def _makespan(corpus, chaos):
    runner = make_runner(corpus, n_workers=5, chunk_mb=1, chaos=chaos)
    result = run_sampling_job(runner, "input/traces", "out/sampled", window_s=600.0)
    return result, runner


@pytest.fixture(scope="module")
def variants(corpus):
    node_loss = ChaosSchedule(faults=[Fault(FaultKind.NODE_LOSS, node="worker02")])
    stormy = ChaosSchedule(
        seed=8,
        crash_prob=0.15,
        slow_node_prob=0.3,
        faults=[Fault(FaultKind.NODE_LOSS, node="worker02")],
    )
    rows = {
        "clean": _makespan(corpus, None),
        "node loss": _makespan(corpus, node_loss),
        "loss + crashes": _makespan(corpus, stormy),
    }
    clean_s = rows["clean"][0].sim_seconds
    lines = [
        "Ablation - simulated recovery overhead under chaos (sampling job)",
        f"{'variant':<16} {'makespan s':>11} {'retry s':>9} {'overhead':>9}",
    ]
    for label, (result, _) in rows.items():
        t = result.timing
        overhead = (t.total_s / clean_s - 1.0) * 100.0
        lines.append(
            f"{label:<16} {t.total_s:>11.2f} {t.retry_penalty_s:>9.2f} "
            f"{overhead:>8.1f}%"
        )
    print(write_report("ablation_nodeloss", lines))
    return rows


def test_node_loss_costs_recovery_time(variants):
    clean, _ = variants["clean"]
    lossy, runner = variants["node loss"]
    assert lossy.timing.total_s > clean.timing.total_s
    assert lossy.timing.retry_penalty_s > 0
    assert (
        lossy.counters.value(STANDARD.GROUP_SCHEDULER, STANDARD.NODES_LOST) == 1
    )
    assert runner.history.validate() == []


def test_output_unchanged_by_recovery(variants):
    outputs = {
        label: sorted(
            (u, float(t))
            for u, t in zip(
                runner.hdfs.read_trace_array("out/sampled").user_index,
                runner.hdfs.read_trace_array("out/sampled").timestamp,
            )
        )
        for label, (_, runner) in variants.items()
    }
    assert outputs["clean"] == outputs["node loss"] == outputs["loss + crashes"]


def test_more_chaos_costs_more(variants):
    assert (
        variants["loss + crashes"][0].timing.retry_penalty_s
        > variants["node loss"][0].timing.retry_penalty_s
    )
