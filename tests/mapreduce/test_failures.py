"""Scripted and probabilistic task crashes, retried under the policy."""

import pytest

from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.counters import STANDARD
from repro.mapreduce.failures import MAX_TASK_ATTEMPTS, ChaosSchedule, Fault, FaultKind
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import JobSpec, Mapper, Reducer
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.scheduler import RetryPolicy
from tests.conftest import crash_faults


class EchoMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key, value)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


@pytest.fixture()
def loaded_hdfs():
    hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=64, seed=0)
    hdfs.put_records("in", [(i, 1) for i in range(12)], record_bytes=16)
    return hdfs


class TestRunnerRetries:
    def test_map_retry_succeeds_and_is_counted(self, loaded_hdfs):
        chaos = ChaosSchedule(faults=crash_faults("map-0000", 2))
        runner = JobRunner(loaded_hdfs, chaos=chaos)
        res = runner.run(JobSpec("j", EchoMapper, ["in"], "out", reducer=SumReducer))
        assert dict(loaded_hdfs.read_records("out"))  # output produced
        assert res.counters.value(STANDARD.GROUP_SCHEDULER, STANDARD.FAILED_TASKS) == 2
        assert res.timing.retry_penalty_s > 0

    def test_output_identical_with_and_without_failures(self, loaded_hdfs):
        clean = JobRunner(loaded_hdfs)
        clean.run(JobSpec("j", EchoMapper, ["in"], "clean", reducer=SumReducer))
        chaos = ChaosSchedule(faults=crash_faults("map-0000") + crash_faults("reduce-0000"))
        flaky = JobRunner(loaded_hdfs, chaos=chaos)
        flaky.run(JobSpec("j", EchoMapper, ["in"], "flaky", reducer=SumReducer))
        assert dict(loaded_hdfs.read_records("clean")) == dict(
            loaded_hdfs.read_records("flaky")
        )

    def test_task_exceeding_attempts_fails_job(self, loaded_hdfs):
        chaos = ChaosSchedule(faults=crash_faults("map-0000", MAX_TASK_ATTEMPTS))
        runner = JobRunner(loaded_hdfs, chaos=chaos)
        with pytest.raises(RuntimeError, match="failed"):
            runner.run(JobSpec("j", EchoMapper, ["in"], "out", reducer=SumReducer))

    def test_reduce_retry(self, loaded_hdfs):
        chaos = ChaosSchedule(faults=crash_faults("reduce-0000", 2))
        runner = JobRunner(loaded_hdfs, chaos=chaos)
        res = runner.run(
            JobSpec("j", EchoMapper, ["in"], "out", reducer=SumReducer, num_reducers=1)
        )
        assert res.counters.value(STANDARD.GROUP_SCHEDULER, STANDARD.FAILED_TASKS) == 2

    def test_random_failures_still_converge(self, loaded_hdfs):
        runner = JobRunner(
            loaded_hdfs,
            chaos=ChaosSchedule(seed=11, crash_prob=0.2),
            retry_policy=RetryPolicy(max_attempts=10),
        )
        runner.run(JobSpec("j", EchoMapper, ["in"], "out", reducer=SumReducer))
        assert sum(v for _, v in loaded_hdfs.read_records("out")) == 12

    def test_max_attempts_validated(self, loaded_hdfs):
        """The retry policy is the one attempt budget, validated there."""
        with pytest.raises(ValueError, match="max_attempts"):
            JobRunner(loaded_hdfs, retry_policy=RetryPolicy(max_attempts=0))


class TestDatanodeLossDuringJob:
    def test_job_runs_from_surviving_replicas(self):
        hdfs = SimulatedHDFS(paper_cluster(6), chunk_size=64, replication=3, seed=2)
        hdfs.put_records("in", [(i, 1) for i in range(12)], record_bytes=16)
        victim = hdfs.chunks("in")[0].replicas[0]
        hdfs.kill_datanode(victim)
        runner = JobRunner(hdfs)
        res = runner.run(JobSpec("j", EchoMapper, ["in"], "out", reducer=SumReducer))
        assert sum(v for _, v in hdfs.read_records("out")) == 12
        assert all(a.node != victim for a in res.map_plan.assignments)


class TestNodeLossDeclined:
    """A scripted node loss is declined, not half-applied, when the
    deployment could not survive it."""

    def _run(self, hdfs, fault):
        runner = JobRunner(hdfs, chaos=ChaosSchedule(faults=[fault]))
        runner.run(JobSpec("j", EchoMapper, ["in"], "out", reducer=SumReducer))
        assert sum(v for _, v in hdfs.read_records("out")) == 12
        return runner

    def test_without_a_second_replica(self):
        hdfs = SimulatedHDFS(paper_cluster(3), chunk_size=64, replication=1, seed=2)
        hdfs.put_records("in", [(i, 1) for i in range(12)], record_bytes=16)
        self._run(hdfs, Fault(FaultKind.NODE_LOSS))
        assert hdfs.dead_nodes == frozenset()

    def test_when_it_would_strand_a_chunk(self):
        hdfs = SimulatedHDFS(paper_cluster(3), chunk_size=64, replication=2, seed=2)
        hdfs.put_records("in", [(i, 1) for i in range(12)], record_bytes=16)
        first, second = hdfs.chunks("in")[0].replicas
        hdfs.kill_datanode(first)
        self._run(hdfs, Fault(FaultKind.NODE_LOSS, node=second))
        assert hdfs.dead_nodes == {first}

    def test_scoped_to_another_job(self):
        hdfs = SimulatedHDFS(paper_cluster(3), chunk_size=64, replication=2, seed=2)
        hdfs.put_records("in", [(i, 1) for i in range(12)], record_bytes=16)
        self._run(hdfs, Fault(FaultKind.NODE_LOSS, job="other"))
        assert hdfs.dead_nodes == frozenset()


def test_describe_names_the_bad_nodes():
    chaos = ChaosSchedule(seed=3, bad_nodes=frozenset({"worker02", "worker01"}))
    assert chaos.describe() == "seed=3 bad=worker01,worker02"
