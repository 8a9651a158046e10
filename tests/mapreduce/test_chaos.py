"""Chaos-engine regressions: scheduled faults, recovery, accounting.

The property suite (tests/properties/test_chaos_equivalence.py) checks
the *algorithms* survive chaos; this file pins down the *engine*: node
loss re-runs exactly the lost tasks, repeated node failures trip the
blacklist, retry exhaustion fails the job with the full failure chain,
and no re-executed record is ever counted twice.
"""

import re

import numpy as np
import pytest

from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.counters import STANDARD
from repro.mapreduce.failures import (
    ChaosSchedule,
    Fault,
    FaultKind,
    JobFailedError,
    MAX_TASK_ATTEMPTS,
    TaskFailure,
)
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import JobSpec, Mapper, Reducer
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.scheduler import NodeBlacklist, RetryPolicy
from tests.conftest import crash_faults, seal_all

N_RECORDS = 24


class EchoMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key % 3, value)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def make_deployment(n_workers=5, chunk_size=64, replication=3, seed=2):
    hdfs = SimulatedHDFS(
        paper_cluster(n_workers), chunk_size=chunk_size,
        replication=replication, seed=seed,
    )
    hdfs.put_records("in", [(i, 1) for i in range(N_RECORDS)], record_bytes=16)
    return hdfs


def spec(out="out"):
    return JobSpec("j", EchoMapper, ["in"], out, reducer=SumReducer)


class TestChaosSchedule:
    def test_probability_validated(self):
        with pytest.raises(ValueError, match="crash_prob"):
            ChaosSchedule(crash_prob=1.5)

    def test_slow_factor_validated(self):
        with pytest.raises(ValueError, match="slow_factor"):
            ChaosSchedule(slow_factor=0.5)

    @pytest.mark.parametrize("setting, message", [
        (dict(slow_factor=float("nan")), "slow_factor must be finite, got nan"),
        (dict(slow_factor=float("inf")), "slow_factor must be finite, got inf"),
        (dict(max_node_losses=True), "max_node_losses must be an integer >= 0, got True"),
        (dict(max_node_losses=1.5), "max_node_losses must be an integer >= 0, got 1.5"),
    ])
    def test_non_finite_or_non_integer_settings_rejected(self, setting, message):
        """A NaN slowdown makes every straggler's duration NaN, and the
        replay then differs from itself (NaN != NaN)."""
        with pytest.raises(ValueError, match=re.escape(message)):
            ChaosSchedule(**setting)

    @pytest.mark.parametrize("bare", ["worker02", b"worker02"])
    def test_bad_nodes_rejects_bare_string(self, bare):
        """frozenset("worker02") is eight characters, none a node name."""
        with pytest.raises(TypeError, match="bad_nodes"):
            ChaosSchedule(bad_nodes=bare)
        assert ChaosSchedule(bad_nodes=["worker02"]).bad_nodes == {"worker02"}

    def test_scripted_cache_load_and_slow_node_faults(self):
        chaos = ChaosSchedule(
            slow_factor=4.0,
            faults=[
                Fault(FaultKind.CACHE_LOAD, task="map-0000"),
                Fault(FaultKind.SLOW_NODE, node="worker01"),
            ],
        )
        assert chaos.cache_load_fails("map-0000", 1)
        assert not chaos.cache_load_fails("map-0000", 2)
        assert chaos.node_slowdown("worker01") == 4.0
        assert chaos.node_slowdown("worker02") == 1.0

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("disk_on_fire")

    @pytest.mark.parametrize("fault, message", [
        (dict(kind=FaultKind.TASK_CRASH), "needs a task"),
        (dict(kind=FaultKind.CACHE_LOAD), "needs a task"),
        (dict(kind=FaultKind.SHUFFLE_FETCH, node="worker01"), "needs a task"),
        (dict(kind=FaultKind.SLOW_NODE), "needs a node"),
        (dict(kind=FaultKind.TASK_CRASH, task="map-0000", attempt=0), "attempt"),
    ])
    def test_fault_that_can_never_fire_rejected(self, fault, message):
        with pytest.raises(ValueError, match=message):
            Fault(**fault)

    def test_fault_scopes_that_can_fire_accepted(self):
        Fault(FaultKind.NODE_LOSS)  # node=None: the first alive node
        Fault(FaultKind.LATE_BATCH)  # feed/window=None: every batch
        with pytest.raises(ValueError, match="max_node_losses"):
            ChaosSchedule(max_node_losses=-1)
        ChaosSchedule(max_node_losses=0)

    def test_scripted_crash_hits_exact_attempt(self):
        chaos = ChaosSchedule(faults=[Fault(FaultKind.TASK_CRASH, task="map-0001", attempt=2)])
        chaos.fail_attempt("map-0001", 1)  # survives
        with pytest.raises(TaskFailure, match="scripted chaos crash"):
            chaos.fail_attempt("map-0001", 2)
        chaos.fail_attempt("map-0002", 2)  # other tasks unaffected

    def test_bad_node_crashes_every_attempt(self):
        chaos = ChaosSchedule(bad_nodes={"worker03"})
        for attempt in (1, 2, 3):
            crash = chaos.bad_node_crash("map-0000", attempt, "worker03")
            assert crash.attempt == attempt and crash.reason == "bad node worker03"
        assert chaos.bad_node_crash("map-0000", 1, "worker01") is None
        chaos.fail_attempt("map-0000", 1)  # the attempt loop never sees nodes

    def test_decisions_are_order_independent(self):
        """Counter-hashed draws: the same query gives the same answer no
        matter how many other queries happened before it."""
        a = ChaosSchedule(seed=5, crash_prob=0.4)
        b = ChaosSchedule(seed=5, crash_prob=0.4)
        # Query `a` over many tasks first, then compare a fixed probe.
        for i in range(50):
            try:
                a.fail_attempt(f"map-{i:04d}", 1)
            except TaskFailure:
                pass

        def probe(schedule):
            doomed = []
            for i in range(20):
                try:
                    schedule.fail_attempt(f"reduce-{i:04d}", 1)
                    doomed.append(False)
                except TaskFailure:
                    doomed.append(True)
            return doomed

        assert probe(a) == probe(b)
        assert any(probe(a)) and not all(probe(a))

    def test_slowdown_and_refetch_deterministic(self):
        chaos = ChaosSchedule(seed=3, slow_node_prob=0.5, shuffle_fetch_prob=0.5)
        nodes = [f"worker{i:02d}" for i in range(10)]
        assert [chaos.node_slowdown(n) for n in nodes] == [
            chaos.node_slowdown(n) for n in nodes
        ]
        assert {chaos.node_slowdown(n) for n in nodes} == {1.0, chaos.slow_factor}
        reducers = [f"reduce-{i:04d}" for i in range(10)]
        assert [chaos.shuffle_fetch_failures(r) for r in reducers] == [
            chaos.shuffle_fetch_failures(r) for r in reducers
        ]


class TestNodeLossMidMap:
    @pytest.fixture()
    def lossy_run(self):
        hdfs = make_deployment()
        chaos = ChaosSchedule(faults=[Fault(FaultKind.NODE_LOSS, node="worker01")])
        runner = JobRunner(hdfs, chaos=chaos)
        result = runner.run(spec())
        return hdfs, runner, result

    def test_output_survives_node_loss(self, lossy_run):
        hdfs, _, _ = lossy_run
        assert sum(v for _, v in hdfs.read_records("out")) == N_RECORDS
        assert "worker01" in hdfs.dead_nodes

    def test_exactly_the_lost_tasks_are_rerun(self, lossy_run):
        _, runner, result = lossy_run
        lost_events = [e for e in runner.history if e.kind == "node_lost"]
        assert len(lost_events) == 1
        event = lost_events[0]
        assert event.node == "worker01"
        on_victim = sorted(
            a.task_id
            for a in result.map_plan.assignments
            if a.node == "worker01" and not a.speculative
        )
        assert event.payload.lost_tasks == on_victim
        assert on_victim, "victim should have held at least one map task"
        # Each re-dispatched task carries a node_loss fault event.
        redispatched = {
            e.task
            for e in runner.history
            if e.kind == "fault_injected"
            and e.payload.fault == FaultKind.NODE_LOSS
        }
        assert redispatched == set(on_victim)

    def test_node_loss_is_charged_and_counted(self, lossy_run):
        _, runner, result = lossy_run
        sched = result.counters.group(STANDARD.GROUP_SCHEDULER)
        assert sched[STANDARD.NODES_LOST] == 1
        assert result.timing.retry_penalty_s > 0
        # The history's timing invariant still holds under recovery.
        assert runner.history.validate() == []

    def test_records_counted_once_despite_rerun(self, lossy_run):
        _, _, result = lossy_run
        assert (
            result.counters.value(STANDARD.GROUP_TASK, STANDARD.MAP_INPUT_RECORDS)
            == N_RECORDS
        )
        assert (
            result.counters.value(STANDARD.GROUP_TASK, STANDARD.REDUCE_OUTPUT_RECORDS)
            == 3
        )

    def test_second_job_does_not_lose_another_node(self, lossy_run):
        """max_node_losses=1 is a deployment-wide budget, not per-job."""
        hdfs, runner, _ = lossy_run
        runner.run(spec(out="out2"))
        assert len([e for e in runner.history if e.kind == "node_lost"]) == 1
        assert sum(v for _, v in hdfs.read_records("out2")) == N_RECORDS


class TestBlacklisting:
    def test_node_blacklisted_after_repeated_failures(self):
        hdfs = make_deployment()
        chaos = ChaosSchedule(bad_nodes={"worker02"})
        policy = RetryPolicy(blacklist_after=2)
        runner = JobRunner(hdfs, chaos=chaos, retry_policy=policy)
        result = runner.run(spec())
        assert sum(v for _, v in hdfs.read_records("out")) == N_RECORDS
        events = [e for e in runner.history if e.kind == "node_blacklisted"]
        assert [e.node for e in events] == ["worker02"]
        assert events[0].payload.failures >= events[0].payload.threshold == 2
        sched = result.counters.group(STANDARD.GROUP_SCHEDULER)
        assert sched[STANDARD.NODES_BLACKLISTED] == 1

    def test_blacklisted_node_gets_no_retries(self):
        hdfs = make_deployment()
        chaos = ChaosSchedule(bad_nodes={"worker02"})
        policy = RetryPolicy(max_attempts=6, blacklist_after=2)
        runner = JobRunner(hdfs, chaos=chaos, retry_policy=policy)
        runner.run(spec())
        # After the blacklist trips, retries route around worker02; every
        # crash on it must therefore come from pre-blacklist attempts.
        crashes = [
            e
            for e in runner.history
            if e.kind == "attempt_failed" and e.node == "worker02"
        ]
        assert crashes
        blacklist_events = [
            e for e in runner.history if e.kind == "node_blacklisted"
        ]
        assert [e.node for e in blacklist_events] == ["worker02"]

    def test_last_resort_retry_avoids_the_blacklisted_node(self):
        """Every alive node tried, one of them blacklisted: the retry goes
        back to the healthy one instead of burning the budget on the bad
        one (which sorts first among the alive nodes)."""
        hdfs = make_deployment(n_workers=3)
        hdfs.kill_datanode("worker00")
        plan = JobRunner(hdfs).run(spec(out="probe")).map_plan
        victim = next(a.task_id for a in plan.assignments if a.node == "worker02")
        runner = JobRunner(
            hdfs,
            chaos=ChaosSchedule(bad_nodes={"worker01"}, faults=crash_faults(victim)),
            retry_policy=RetryPolicy(blacklist_after=2),
        )
        runner.run(spec())
        assert sum(v for _, v in hdfs.read_records("out")) == N_RECORDS
        assert [
            e.node for e in runner.history
            if e.kind == "attempt_failed" and e.task == victim
        ] == ["worker02", "worker01"]

    def test_node_blacklist_crossing_semantics(self):
        bl = NodeBlacklist(threshold=2)
        assert not bl.record_failure("w")   # 1st failure: below threshold
        assert bl.record_failure("w")       # 2nd: crosses exactly once
        assert not bl.record_failure("w")   # already blacklisted
        assert bl.is_blacklisted("w")
        assert bl.nodes() == frozenset({"w"})
        assert bl.failure_count("w") == 3


class TestRetryExhaustion:
    def test_exhaustion_raises_job_failed_with_chain(self):
        hdfs = make_deployment()
        chaos = ChaosSchedule(faults=crash_faults("map-0000", MAX_TASK_ATTEMPTS))
        runner = JobRunner(hdfs, chaos=chaos)
        with pytest.raises(JobFailedError, match="failed") as excinfo:
            runner.run(spec())
        err = excinfo.value
        assert err.task_id == "map-0000"
        assert err.max_attempts == MAX_TASK_ATTEMPTS
        assert len(err.failure_chain) == MAX_TASK_ATTEMPTS
        assert all("scripted chaos crash" in line for line in err.failure_chain)
        # The chain names the attempt numbers in order.
        assert [f[0] for f in err.failures] == list(range(1, MAX_TASK_ATTEMPTS + 1))

    def test_reduce_exhaustion_raises_job_failed(self):
        hdfs = make_deployment()
        chaos = ChaosSchedule(faults=crash_faults("reduce-0000", MAX_TASK_ATTEMPTS))
        with pytest.raises(JobFailedError) as excinfo:
            JobRunner(hdfs, chaos=chaos).run(spec())
        assert excinfo.value.task_id == "reduce-0000"
        assert len(excinfo.value.failure_chain) == MAX_TASK_ATTEMPTS

    def test_job_failed_error_is_still_a_runtime_error(self):
        assert issubclass(JobFailedError, RuntimeError)


class TestBitReproducibility:
    def test_same_seed_same_events_and_makespan(self):
        def run_once():
            hdfs = make_deployment()
            chaos = ChaosSchedule(
                seed=11, crash_prob=0.2, slow_node_prob=0.4,
                shuffle_fetch_prob=0.3, node_loss_prob=1.0,
            )
            runner = JobRunner(hdfs, chaos=chaos)
            runner.run(spec())
            return (
                [e.to_dict() for e in runner.history],
                runner.history.clock,
                sorted(hdfs.read_records("out")),
            )

        first, second = run_once(), run_once()
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_base_s=2.0, backoff_factor=2.0)
        assert [policy.backoff_s(a) for a in (1, 2, 3)] == [2.0, 4.0, 8.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(blacklist_after=0)

    @pytest.mark.parametrize("setting, message", [
        (dict(max_attempts=True), "max_attempts must be an integer >= 1, got True"),
        (dict(max_attempts=2.5), "max_attempts must be an integer >= 1, got 2.5"),
        (dict(backoff_base_s=float("nan")), "backoff_base_s must be finite, got nan"),
        (dict(backoff_factor=float("nan")), "backoff_factor must be finite, got nan"),
        (dict(blacklist_after=2.5), "blacklist_after must be an integer >= 1, got 2.5"),
    ])
    def test_non_finite_or_non_integer_settings_rejected(self, setting, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RetryPolicy(**setting)
        assert RetryPolicy(max_attempts=np.int64(2)).max_attempts == 2


class TestFeedFaults:
    """Feed-level chaos: the late/lost/dup batch modes the streaming
    subsystem feeds through the same seeded decision pipeline."""

    def test_scripted_fault_scopes_to_feed_and_window(self):
        chaos = ChaosSchedule(
            seed=0, faults=(Fault(FaultKind.LATE_BATCH, feed="u01", window=2),)
        )
        assert chaos.batch_late("u01", 2)
        assert not chaos.batch_late("u01", 3)
        assert not chaos.batch_late("u02", 2)
        assert not chaos.batch_lost("u01", 2)
        assert not chaos.batch_duplicated("u01", 2)

    def test_wildcard_feed_and_window_match_everything(self):
        every_feed = ChaosSchedule(
            seed=0, faults=(Fault(FaultKind.LOST_BATCH, window=1),)
        )
        assert every_feed.batch_lost("a", 1)
        assert every_feed.batch_lost("z", 1)
        assert not every_feed.batch_lost("a", 0)
        every_window = ChaosSchedule(
            seed=0, faults=(Fault(FaultKind.DUP_BATCH, feed="a"),)
        )
        assert every_window.batch_duplicated("a", 0)
        assert every_window.batch_duplicated("a", 99)
        assert not every_window.batch_duplicated("b", 0)

    def test_probability_extremes(self):
        never = ChaosSchedule(seed=3)
        always = ChaosSchedule(
            seed=3, late_batch_prob=1.0, lost_batch_prob=1.0, dup_batch_prob=1.0
        )
        for feed, window in [("a", 0), ("b", 1), ("c", 7)]:
            assert not never.batch_late(feed, window)
            assert not never.batch_lost(feed, window)
            assert not never.batch_duplicated(feed, window)
            assert always.batch_late(feed, window)
            assert always.batch_lost(feed, window)
            assert always.batch_duplicated(feed, window)

    def test_decisions_keyed_on_identity_not_draw_order(self):
        chaos = ChaosSchedule(seed=5, late_batch_prob=0.5, lost_batch_prob=0.5)
        keys = [(f"u{i}", w) for i in range(4) for w in range(4)]
        forward = [(chaos.batch_late(f, w), chaos.batch_lost(f, w)) for f, w in keys]
        backward = list(reversed(
            [(chaos.batch_late(f, w), chaos.batch_lost(f, w))
             for f, w in reversed(keys)]
        ))
        assert forward == backward
        # ... and the three kinds draw independently per batch.
        assert len({chaos.batch_late(f, w) for f, w in keys}) == 2

    def test_batch_prob_validated(self):
        with pytest.raises(ValueError, match="late_batch_prob"):
            ChaosSchedule(late_batch_prob=1.5)
        with pytest.raises(ValueError, match="dup_batch_prob"):
            ChaosSchedule(dup_batch_prob=-0.1)

    def test_feed_faults_count_as_active_and_described(self):
        chaos = ChaosSchedule(
            seed=1, late_batch_prob=0.2,
            faults=(Fault(FaultKind.LOST_BATCH, feed="a"),),
        )
        assert chaos.active()
        text = chaos.describe()
        assert "late-batch=0.2" in text
        assert "1 scripted fault(s)" in text
        assert not ChaosSchedule(seed=1).active()

    def test_watermark_accounts_for_late_and_lost(self):
        """End to end through the streaming data plane: once window w's
        watermark passes, every point below it is in w's dataset, in
        w+1's dataset (late), or counted lost -- never silently dropped."""
        from repro.geo.synthetic import SyntheticConfig, generate_dataset
        from repro.observability.history import JobHistory
        from repro.streaming import MicroBatcher, StreamSource

        corpus, _ = generate_dataset(SyntheticConfig(n_users=2, days=1, seed=3))
        feeds = sorted(set(corpus.users))
        chaos = ChaosSchedule(
            seed=2,
            faults=(
                Fault(FaultKind.LATE_BATCH, feed=feeds[0], window=0),
                Fault(FaultKind.LOST_BATCH, feed=feeds[1], window=1),
            ),
        )
        source = StreamSource(corpus, 3 * 3600.0, chaos=chaos)
        history = JobHistory()
        hdfs = SimulatedHDFS(paper_cluster(3), chunk_size=64 * 1024, seed=0)
        datasets = seal_all(MicroBatcher(hdfs, history=history), source)
        delivered = sum(d.n_points for d in datasets)
        lost = sum(d.lost_points for d in datasets)
        assert delivered + lost == len(corpus)
        assert datasets[1].late_points > 0
        assert datasets[1].lost_points == source.lost_by_window[1] > 0
        marks = [
            e.payload.watermark
            for e in history.events
            if e.kind == "watermark"
        ]
        assert marks == [source.window_bounds(w)[1] for w in range(source.n_windows)]


class TestCampaignRefusalsAndFailures:
    def test_unknown_driver_rejected(self):
        from repro.mapreduce.chaos import run_chaos_campaign, run_multitenant_check

        for run in (run_chaos_campaign, run_multitenant_check):
            with pytest.raises(ValueError, match=r"unknown chaos driver\(s\) \['nope'\]"):
                run(drivers=["nope"])

    def test_a_tenant_failure_names_driver_and_tenant(self, monkeypatch):
        from repro.mapreduce import chaos

        def tenant_side_breaks(runner, context):
            if "prefix" in context:
                raise ValueError("tenant side broke")
            return "solo"

        monkeypatch.setitem(chaos.DRIVERS, "boom", chaos.ChaosDriver("boom", "t", tenant_side_breaks))
        with pytest.raises(RuntimeError, match="driver 'boom' failed for tenant 'alice'"):
            chaos.run_multitenant_check(drivers=["boom"], with_chaos=False)

    def test_retry_exhaustion_is_a_clean_failure_in_the_report(self):
        """Every attempt crashes: the campaign reports the failure chain,
        the replay fails with the same chain, and the campaign fails."""
        from repro.mapreduce.chaos import run_chaos_campaign

        report = run_chaos_campaign(drivers=["sampling"], schedule=ChaosSchedule(crash_prob=1.0))
        (outcome,) = report.outcomes
        assert outcome.failure.startswith("task map-0000 failed 4 attempts [attempt 1 on ")
        assert outcome.reproducible and not outcome.equivalent and not report.ok
        text = report.render()
        assert f"  clean failure under faults: {outcome.failure}" in text
        assert "same seed -> same failure chain" in text
        assert text.endswith("campaign result: a task exhausted its retries; "
                             "the run failed cleanly — see above")

    def test_selfcheck_reports_every_failed_invariant(self, monkeypatch, capsys):
        from types import SimpleNamespace

        from repro.mapreduce import chaos

        broken = SimpleNamespace(
            driver="kmeans", faults={}, equivalent=False, reproducible=False, failure=None
        )
        failed = SimpleNamespace(
            driver="mmc", faults={}, equivalent=False, reproducible=True,
            failure="task map-0000 failed 4 attempts",
        )
        monkeypatch.setattr(chaos, "run_chaos_campaign",
                            lambda **kwargs: SimpleNamespace(outcomes=[broken, failed]))
        assert chaos.run_chaos_selfcheck(verbose=False) == 1
        assert capsys.readouterr().out.splitlines() == [
            "chaos selfcheck FAILED: selfcheck schedule injected no faults at all",
            "chaos selfcheck FAILED: kmeans: output diverged under faults",
            "chaos selfcheck FAILED: kmeans: same seed replay diverged",
            "chaos selfcheck FAILED: mmc: failed cleanly under faults: "
            "task map-0000 failed 4 attempts",
        ]
