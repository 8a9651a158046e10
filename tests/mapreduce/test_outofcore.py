"""Out-of-core equivalence suite: a memory budget must be invisible.

Every paper driver, on every execution backend, under a fixed chaos
schedule, is run twice — unbudgeted and under a budget far below the
dataset size.  Outputs must be byte-identical and the traced histories
identical once the extra ``spill_*`` events (and the ``spill_s`` timing
key) are set aside: spilling is an execution detail, not an observable.

The ``bench``-marked test at the bottom is the acceptance run: k-means
and DJ-Cluster over 10^6 synthetic traces with the budget well below the
dataset, byte-identical with spill events recorded.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.mapreduce.chaos import DRIVERS, _inputs, default_schedule
from repro.mapreduce.config import BACKENDS
from repro.mapreduce.failures import (
    ChaosSchedule,
    Fault,
    FaultKind,
    JobFailedError,
    MAX_TASK_ATTEMPTS,
)
from repro.mapreduce.job import Mapper, Reducer
from tests.conftest import crash_faults

SPILL_KINDS = {"spill_start", "spill_merge"}

#: ~10 KB — far below even the tiny 3-user campaign corpus, so the
#: shuffle-heavy drivers are forced through the external-sort path.
TINY_BUDGET_MB = 0.01

#: Drivers whose campaign runs must actually spill under TINY_BUDGET_MB.
#: Sampling (map-only: no shuffle) and MMC (per-user shuffles under the
#: run-cut size) legitimately have nothing to spill at this corpus scale.
SPILLING_DRIVERS = {"kmeans", "djcluster"}


def _normalize(events):
    """History minus everything a budget is allowed to add."""
    out = []
    for e in events:
        if e["kind"] in SPILL_KINDS:
            continue
        e = dict(e)
        e.pop("seq", None)  # spill events shift later sequence numbers
        data = dict(e.get("data") or {})
        if "timing" in data:
            timing = dict(data["timing"])
            timing.pop("spill_s", None)
            data["timing"] = timing
            e["data"] = data
        out.append(e)
    return out


@pytest.fixture(scope="module")
def campaign():
    _, array, context = _inputs()
    return array, context, default_schedule(3)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("driver", list(DRIVERS))
def test_budget_is_invisible_under_chaos(campaign, driver, backend):
    array, context, schedule = campaign
    # The campaign default, then the same plus a chronically bad node
    # (bounces the replay interleaves with the attempt loop's crashes).
    cases = [schedule, dataclasses.replace(schedule, bad_nodes=frozenset({"worker02"}))]
    for chaos in cases:
        kwargs = dict(chaos=chaos, backend=backend, max_workers=2)
        base = DRIVERS[driver].cell(array, context, **kwargs)
        budgeted = DRIVERS[driver].cell(array, context, budget_mb=TINY_BUDGET_MB, **kwargs)
        assert base.failure is None and budgeted.failure is None
        assert budgeted.signature == base.signature
        assert budgeted.makespan_s == base.makespan_s
        assert _normalize(budgeted.events) == _normalize(base.events)
        n_spills = sum(1 for e in budgeted.events if e["kind"] in SPILL_KINDS)
        if driver in SPILLING_DRIVERS:
            assert n_spills > 0, "budgeted run never spilled — budget too large?"
        assert not any(e["kind"] in SPILL_KINDS for e in base.events)


class FanOut(Mapper):
    def map(self, key, value, ctx):
        for i in range(40):
            ctx.emit((value * 40 + i) % 97, value, nbytes=64)


class Total(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def _fanout_deployment(executor, budget, **runner_kwargs):
    """HDFS, runner and spec of a shuffle-heavy job: every input record
    fans out 40 pairs, so both the per-task map-output threshold and the
    shuffle run budget trip."""
    from repro.mapreduce.cluster import paper_cluster
    from repro.mapreduce.hdfs import SimulatedHDFS
    from repro.mapreduce.job import JobSpec
    from repro.mapreduce.runner import JobRunner

    hdfs = SimulatedHDFS(paper_cluster(3), chunk_size=2048, seed=0)
    hdfs.put_records("in", [(i, i) for i in range(600)], record_bytes=16)
    runner = JobRunner(
        hdfs, executor=executor, max_workers=2, memory_budget_mb=budget,
        **runner_kwargs,
    )
    spec = JobSpec("fan", FanOut, ["in"], "out", reducer=Total, num_reducers=3)
    return hdfs, runner, spec


def _fanout_job(executor, budget):
    hdfs, runner, spec = _fanout_deployment(executor, budget)
    with runner:
        runner.run(spec)
        stats = runner.spill_stats
        events = [e.to_dict() for e in runner.history]
    return hdfs.read_records("out"), stats, events


# The runner owns (and on close removes) its spill directory, so the two
# hygiene tests below look inside it after the job but before close.

@pytest.mark.parametrize("backend", BACKENDS)
def test_node_loss_rerun_leaves_no_spill_files(backend, tmp_path):
    """A lost task's first ``.mapout`` must not outlive its re-execution."""
    clean, clean_stats, _ = _fanout_job(backend, budget=0.002)
    shm_before = set(os.listdir("/dev/shm"))
    hdfs, runner, spec = _fanout_deployment(
        backend, 0.002, spill_dir=str(tmp_path / "spill"),
        chaos=ChaosSchedule(faults=[Fault(FaultKind.NODE_LOSS)]),
    )
    with runner:
        runner.run(spec)
        assert os.listdir(tmp_path / "spill") == []
        assert runner.spill_stats.map_spills == clean_stats.map_spills > 0
        assert any(e.kind == "node_lost" for e in runner.history)
    assert hdfs.read_records("out") == clean
    assert set(os.listdir("/dev/shm")) <= shm_before


@pytest.mark.parametrize("backend", BACKENDS)
def test_failed_job_leaves_no_spill_files(backend, tmp_path):
    """One task past its retry budget: its siblings' spilled outputs are
    released on the exception path too."""
    shm_before = set(os.listdir("/dev/shm"))
    _, runner, spec = _fanout_deployment(
        backend, 0.002, spill_dir=str(tmp_path / "spill"),
        chaos=ChaosSchedule(faults=crash_faults("map-0003", MAX_TASK_ATTEMPTS)),
    )
    with runner:
        with pytest.raises(JobFailedError, match="map-0003"):
            runner.run(spec)
        assert os.listdir(tmp_path / "spill") == []
    assert set(os.listdir("/dev/shm")) <= shm_before


class Poisoned(FanOut):
    """Raises something that is not a :class:`TaskFailure` — a bug in user
    code, not an injected fault — on one record of the middle chunk."""

    def map(self, key, value, ctx):
        if value == 300:
            raise ZeroDivisionError("poisoned record 300")
        super().map(key, value, ctx)


@pytest.mark.parametrize("backend", BACKENDS)
def test_raising_mapper_leaves_nothing_behind(backend, tmp_path):
    """The exception surfaces as itself from the middle of a batch; its
    siblings' spilled outputs and the segments go when the runner closes."""
    shm_before = set(os.listdir("/dev/shm"))
    _, runner, spec = _fanout_deployment(
        backend, 0.002, spill_dir=str(tmp_path / "spill")
    )
    spec = dataclasses.replace(spec, mapper=Poisoned)
    with runner:
        with pytest.raises(ZeroDivisionError, match="poisoned record 300"):
            runner.run(spec)
    assert not (tmp_path / "spill").exists()
    assert set(os.listdir("/dev/shm")) <= shm_before


def test_spill_events_record_io_and_cost():
    _, _, events = _fanout_job("serial", budget=0.002)
    starts = [e for e in events if e["kind"] == "spill_start"]
    merges = [e for e in events if e["kind"] == "spill_merge"]
    assert {e["data"]["source"] for e in starts} == {"map", "shuffle"}
    for e in starts:
        assert e["data"]["bytes"] > 0 and e["data"]["write_s"] > 0
    assert merges
    for e in merges:
        assert e["data"]["records"] >= e["data"]["groups"] > 0
        assert e["data"]["read_s"] > 0
    finishes = [e for e in events if e["kind"] == "job_finish"]
    assert any("spill_s" in e["data"]["timing"] for e in finishes), (
        "no job reported background spill time"
    )


def test_worker_side_spill_on_processes_backend():
    """Map outputs over the threshold spill where the attempt runs and the
    handle — not the data — crosses the IPC boundary."""
    base, _, base_events = _fanout_job("processes", budget=None)
    budgeted, stats, _ = _fanout_job("processes", budget=0.002)
    assert budgeted == base
    assert stats.map_spills > 0 and stats.map_spill_bytes > 0
    assert stats.runs_spilled > 0 and stats.merges > 0
    assert not any(e["kind"] in SPILL_KINDS for e in base_events)


def test_spill_benchmark_in_process_smoke():
    from tests.goldens.registry import GOLDENS, built

    text = built("spill")  # the run the golden check makes, shared
    doc = json.loads(text)
    assert [entry["size"] for entry in doc["results"]] == [100_000, 1_000_000]
    for entry in doc["results"]:
        cells = entry["cells"]
        assert cells["budgeted"]["centroids_sha256"] == cells["unbudgeted"]["centroids_sha256"]
        assert cells["budgeted"]["spill"]["runs_spilled"] > 0
        assert cells["budgeted"]["paging"]["pages_out"] > 0
        assert cells["unbudgeted"]["spill"] is None
    assert GOLDENS["spill"].problems(text) == []


@pytest.mark.bench
# Budgets sit well below the 64 MB modelled / ~24 MB resident corpus;
# DJ-Cluster's widest stage moves ~2 MB per map task, so its budget must
# sit below that for the per-task spill threshold to trip.
@pytest.mark.parametrize(
    ("driver", "budget_mb"), [("kmeans", 8.0), ("djcluster", 1.0)]
)
def test_acceptance_million_traces_spill_equivalence(driver, budget_mb):
    """ISSUE acceptance: 10^6 traces, budget well below the dataset,
    byte-identical outputs, spill events recorded."""
    from repro.algorithms.djcluster import DJClusterParams, run_preprocessing_pipeline
    from repro.algorithms.kmeans import run_kmeans_mapreduce
    from repro.mapreduce.bench import synthetic_corpus_blocks
    from repro.mapreduce.cluster import paper_cluster
    from repro.mapreduce.hdfs import MB, SimulatedHDFS
    from repro.mapreduce.runner import JobRunner

    # A 1-second timestamp step makes the blob-hopping corpus read as
    # fast movement, which DJ-Cluster's speed filter would discard
    # wholesale (nothing left to spill); a huge step makes every trace
    # stationary so the full corpus flows through both map-only filters.
    step = 1.0 if driver == "kmeans" else 1e7

    def run(budget):
        hdfs = SimulatedHDFS(
            paper_cluster(4), chunk_size=2 * MB, seed=0, memory_budget_mb=budget
        )
        hdfs.put_trace_stream(
            "input/traces",
            synthetic_corpus_blocks(1_000_000, seed=0, timestamp_step=step),
        )
        with JobRunner(
            hdfs, executor="serial", memory_budget_mb=budget
        ) as runner:
            if driver == "kmeans":
                init = np.array(
                    [[39.7, 116.1], [39.9, 116.3], [40.1, 116.5], [40.2, 116.7]]
                )
                result = run_kmeans_mapreduce(
                    runner, "input/traces", k=4, max_iter=3,
                    initial_centroids=init, use_combiner=False,
                    workdir="tmp/kmeans",
                )
                sig = result.centroids.tobytes()
            else:
                pipeline = run_preprocessing_pipeline(
                    runner, "input/traces", DJClusterParams(), workdir="tmp/dj"
                )
                sig = hdfs.read_trace_array(pipeline.output_path).signature().encode()
            spilled = [
                e for e in runner.history
                if e.kind in ("spill_start", "spill_merge")
            ]
        return sig, spilled

    base_sig, base_spills = run(None)
    budget_sig, budget_spills = run(budget_mb)
    assert budget_sig == base_sig
    assert not base_spills
    assert budget_spills, f"{driver} never spilled under {budget_mb} MB"
