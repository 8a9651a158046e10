"""Unit tests for the jobtracker scheduler."""

import pytest

from repro.mapreduce.cluster import ClusterSpec, Node, paper_cluster
from repro.mapreduce.scheduler import (
    FairShareJob,
    Locality,
    NodeBlacklist,
    RetryPolicy,
    plan_fair_share,
    plan_map_phase,
    plan_reduce_phase,
)
from repro.mapreduce.types import Chunk, RecordPayload


def _chunk(cid, replicas, n_bytes=64):
    payload = RecordPayload([(i, "x" * 56) for i in range(max(1, n_bytes // 64))])
    return Chunk(cid, payload, replicas=tuple(replicas))


def _flat_time(chunk, locality):
    return 10.0


class TestLocalityPreference:
    def test_all_node_local_when_replicas_everywhere(self):
        cluster = paper_cluster(4)
        workers = [n.name for n in cluster.tasktrackers()]
        chunks = [_chunk(f"c{i}", [workers[i % len(workers)]]) for i in range(8)]
        plan = plan_map_phase(chunks, cluster, _flat_time)
        counts = plan.locality_counts()
        assert counts[Locality.NODE_LOCAL] == 8
        assert counts[Locality.REMOTE] == 0

    def test_remote_when_no_replicas_on_workers(self):
        cluster = paper_cluster(3)
        chunks = [_chunk("c0", ["nonexistent-node"])]
        plan = plan_map_phase(chunks, cluster, _flat_time)
        assert plan.locality_counts()[Locality.REMOTE] == 1

    def test_rack_local_classification(self):
        cluster = paper_cluster(8, nodes_per_rack=4)
        # Replica only on worker00 (rack1); with one chunk per slot on
        # worker04..07 (rack2) busy, the scheduler can still pick rack.
        chunk = _chunk("c0", ["worker01"])
        # Force assignment to a same-rack node by making worker01 busy:
        # simplest check — classification helper via single-node cluster.
        from repro.mapreduce.scheduler import _classify_locality

        assert _classify_locality(cluster, "worker01", chunk) == Locality.NODE_LOCAL
        assert _classify_locality(cluster, "worker02", chunk) == Locality.RACK_LOCAL
        assert _classify_locality(cluster, "worker05", chunk) == Locality.REMOTE

    def test_disabling_locality_changes_preference(self):
        cluster = paper_cluster(4)
        workers = [n.name for n in cluster.tasktrackers()]
        # All chunks live on one node; with locality on, that node's slots
        # take them preferentially when free.
        chunks = [_chunk(f"c{i}", [workers[0]]) for i in range(8)]
        plan_on = plan_map_phase(chunks, cluster, _flat_time, prefer_locality=True)
        plan_off = plan_map_phase(chunks, cluster, _flat_time, prefer_locality=False)
        on_local = plan_on.locality_counts()[Locality.NODE_LOCAL]
        off_local = plan_off.locality_counts()[Locality.NODE_LOCAL]
        assert on_local >= off_local


class TestMakespan:
    def test_single_wave_makespan_is_longest_task(self):
        cluster = paper_cluster(5)  # 10 map slots
        chunks = [_chunk(f"c{i}", ["worker00"], n_bytes=64 * (i + 1)) for i in range(4)]
        plan = plan_map_phase(
            chunks, cluster, lambda c, loc: c.nbytes / 64.0
        )
        assert plan.waves == 1
        assert plan.makespan == pytest.approx(4.0)  # largest chunk: 4 records

    def test_two_waves_when_tasks_exceed_slots(self):
        cluster = paper_cluster(2)  # 4 map slots
        chunks = [_chunk(f"c{i}", []) for i in range(6)]
        plan = plan_map_phase(chunks, cluster, _flat_time)
        assert plan.waves == 2
        assert plan.makespan == pytest.approx(20.0)

    def test_slot_contention_serializes_on_one_node(self):
        cluster = ClusterSpec([Node("solo", "r", map_slots=1)])
        chunks = [_chunk(f"c{i}", ["solo"]) for i in range(3)]
        plan = plan_map_phase(chunks, cluster, _flat_time)
        assert plan.makespan == pytest.approx(30.0)
        starts = sorted(a.start_time for a in plan.assignments)
        assert starts == [0.0, 10.0, 20.0]

    def test_negative_duration_rejected(self):
        cluster = paper_cluster(2)
        with pytest.raises(ValueError):
            plan_map_phase([_chunk("c", [])], cluster, lambda c, loc: -1.0)

    def test_empty_chunk_list(self):
        plan = plan_map_phase([], paper_cluster(2), _flat_time)
        assert plan.assignments == []
        assert plan.makespan == 0.0
        assert plan.waves == 0


class TestSpeculation:
    def test_straggler_gets_duplicate(self):
        cluster = paper_cluster(4)
        # One huge chunk, several small ones.
        chunks = [_chunk("c-big", ["worker00"], n_bytes=64 * 100)] + [
            _chunk(f"c{i}", ["worker01"], n_bytes=64) for i in range(6)
        ]
        plan = plan_map_phase(
            chunks,
            cluster,
            lambda c, loc: c.nbytes / 64.0,
            speculative=True,
            straggler_factor=1.5,
        )
        spec = [a for a in plan.assignments if a.speculative]
        assert len(spec) >= 1
        # Duplicate runs on a different node than the original attempt.
        originals = {a.task_id: a.node for a in plan.assignments if not a.speculative}
        for a in spec:
            assert a.node != originals[a.task_id]

    def test_no_speculation_when_balanced(self):
        cluster = paper_cluster(4)
        chunks = [_chunk(f"c{i}", []) for i in range(8)]
        plan = plan_map_phase(chunks, cluster, _flat_time, speculative=True)
        assert not any(a.speculative for a in plan.assignments)


class TestDeadNodes:
    def test_dead_nodes_receive_no_tasks(self):
        cluster = paper_cluster(3)
        chunks = [_chunk(f"c{i}", ["worker00"]) for i in range(6)]
        plan = plan_map_phase(
            chunks, cluster, _flat_time, dead_nodes=frozenset({"worker00"})
        )
        assert all(a.node != "worker00" for a in plan.assignments)

    def test_all_dead_raises(self):
        cluster = paper_cluster(2)
        dead = frozenset(n.name for n in cluster.tasktrackers())
        with pytest.raises(RuntimeError):
            plan_map_phase([_chunk("c", [])], cluster, _flat_time, dead_nodes=dead)


class TestReducePhase:
    def test_lpt_packing(self):
        cluster = ClusterSpec([Node("a", "r", reduce_slots=1), Node("b", "r", reduce_slots=1)])
        durations = {0: 5.0, 1: 4.0, 2: 3.0, 3: 3.0}
        placements, makespan = plan_reduce_phase(4, cluster, lambda r: durations[r])
        assert len(placements) == 4
        # LPT: {5, 3} and {4, 3} -> makespan 8.
        assert makespan == pytest.approx(8.0)

    def test_single_reducer(self):
        placements, makespan = plan_reduce_phase(1, paper_cluster(3), lambda r: 2.0)
        assert len(placements) == 1
        assert makespan == pytest.approx(2.0)


class TestFairShare:
    """The multi-tenant stride planner behind JobService.report()."""

    @staticmethod
    def _jobs(n_per_tenant=4, n_maps=6, dur=10.0,
              weights=(("alice", 2.0), ("bob", 1.0))):
        jobs = []
        order = 0
        for tenant, weight in weights:
            for j in range(n_per_tenant):
                jobs.append(
                    FairShareJob(
                        tenant=tenant, weight=weight,
                        name=f"{tenant}:job-{j}", order=order,
                        map_durations=(dur,) * n_maps,
                        reduce_durations=(dur / 2.0,),
                    )
                )
                order += 1
        return jobs

    def test_weighted_shares_within_gate(self):
        # Enough small tasks that slot quantization can't mask the
        # weighting (the gate is over slot-seconds, not task counts).
        plan = plan_fair_share(
            self._jobs(n_per_tenant=8, n_maps=20, dur=2.0), paper_cluster(4)
        )
        deviations = plan.fairness_deviations()
        # The acceptance gate the contention benchmark enforces.
        assert max(abs(d) for d in deviations.values()) <= 0.2
        shares = plan.tenant_shares()
        assert shares["alice"] > shares["bob"]

    def test_equal_weights_equal_slot_seconds(self):
        jobs = self._jobs(weights=(("a", 1.0), ("b", 1.0)))
        plan = plan_fair_share(jobs, paper_cluster(4))
        used = plan.slot_seconds(plan.contended_window())
        assert used["a"] == pytest.approx(used["b"], rel=0.15)

    def test_no_starvation_under_extreme_weights(self):
        """A weight-100 tenant cannot lock a weight-1 peer out of the
        contended window entirely: stride vtime guarantees progress."""
        jobs = self._jobs(weights=(("big", 100.0), ("small", 1.0)))
        plan = plan_fair_share(jobs, paper_cluster(4))
        used = plan.slot_seconds(plan.contended_window())
        assert used["small"] > 0.0
        first_small = min(
            t.start for t in plan.tasks if t.tenant == "small"
        )
        # The small tenant runs within the first couple of task slots,
        # not after the big tenant's whole backlog.
        assert first_small <= 20.0

    def test_deterministic_across_calls(self):
        a = plan_fair_share(self._jobs(), paper_cluster(4))
        b = plan_fair_share(self._jobs(), paper_cluster(4))
        assert a.tasks == b.tasks
        assert a.makespan == b.makespan

    def test_fifo_within_tenant(self):
        plan = plan_fair_share(self._jobs(), paper_cluster(4))
        for tenant in ("alice", "bob"):
            starts = {}
            for task in plan.tasks:
                if task.tenant == tenant and task.phase == "map":
                    starts.setdefault(task.job, task.start)
            jobs_by_first_start = sorted(starts, key=lambda j: starts[j])
            assert jobs_by_first_start == sorted(starts)  # job-0, job-1, ...

    def test_reduce_waits_for_own_map_phase(self):
        plan = plan_fair_share(self._jobs(), paper_cluster(4))
        map_done = {}
        for task in plan.tasks:
            if task.phase == "map":
                map_done[task.job] = max(map_done.get(task.job, 0.0), task.end)
        for task in plan.tasks:
            if task.phase == "reduce":
                assert task.start >= map_done[task.job]

    def test_conflicting_weights_rejected(self):
        jobs = [
            FairShareJob("t", 1.0, "t:a", 0, (1.0,)),
            FairShareJob("t", 2.0, "t:b", 1, (1.0,)),
        ]
        with pytest.raises(ValueError, match="conflicting weights"):
            plan_fair_share(jobs, paper_cluster(2))

    def test_all_dead_raises(self):
        cluster = paper_cluster(2)
        dead = frozenset(n.name for n in cluster.tasktrackers())
        with pytest.raises(RuntimeError, match="no alive tasktrackers"):
            plan_fair_share(self._jobs(), cluster, dead_nodes=dead)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="negative task duration"):
            FairShareJob("t", 1.0, "t:a", 0, (1.0, -0.5))

    def test_empty_plan(self):
        plan = plan_fair_share([], paper_cluster(2))
        assert plan.tasks == [] and plan.makespan == 0.0
        assert plan.contended_window() == 0.0


class TestRefusalsAndFallbacks:
    """Every configuration a planner cannot honour is a typed error; the
    corner cases it can honour take their documented fallback."""

    @pytest.mark.parametrize(
        ("build", "error", "match"),
        [
            (lambda: RetryPolicy(backoff_base_s=-1.0), ValueError, "backoff_base_s"),
            (lambda: RetryPolicy(backoff_factor=0.5), ValueError, "backoff_factor"),
            (lambda: NodeBlacklist(threshold=0), ValueError, "threshold"),
            (lambda: FairShareJob("a", 0.0, "j", 0, (1.0,)), ValueError, "weight must be positive"),
            (lambda: plan_map_phase([_chunk("c0", [])], SLOTLESS, _flat_time), RuntimeError,
             "zero map slots"),
            (lambda: plan_reduce_phase(1, SLOTLESS, lambda r: 1.0), RuntimeError,
             "zero reduce slots"),
            (lambda: plan_reduce_phase(1, paper_cluster(2), lambda r: 1.0,
                                       dead_nodes=ALL_DEAD), RuntimeError, "no alive tasktrackers"),
            (lambda: plan_fair_share([FairShareJob("a", 1.0, "j", 0, (1.0,))], SLOTLESS),
             RuntimeError, "zero map slots"),
            (lambda: plan_fair_share([FairShareJob("a", 1.0, "j", 0, (), (1.0,))], SLOTLESS),
             RuntimeError, "zero reduce slots"),
        ],
        ids=["backoff-base", "backoff-factor", "blacklist-threshold", "fair-weight",
             "map-slotless", "reduce-slotless", "reduce-all-dead", "fair-map-slotless",
             "fair-reduce-slotless"],
    )
    def test_refused(self, build, error, match):
        with pytest.raises(error, match=match):
            build()

    def test_straggler_on_a_one_node_cluster_gets_no_duplicate(self):
        cluster = ClusterSpec([Node("n0", "r0", map_slots=4)])
        chunks = [_chunk(f"c{i}", ["n0"]) for i in range(4)]
        plan = plan_map_phase(
            chunks, cluster, lambda c, loc: 100.0 if c.chunk_id == "c0" else 1.0,
            speculative=True,
        )
        assert not any(a.speculative for a in plan.assignments)

    def test_shares_of_an_idle_plan_are_zero(self):
        plan = plan_fair_share([FairShareJob("a", 1.0, "j", 0, (0.0,))], paper_cluster(2))
        assert plan.tenant_shares() == {"a": 0.0}


SLOTLESS = ClusterSpec([Node("n0", "r0", map_slots=0, reduce_slots=0)])
ALL_DEAD = frozenset(n.name for n in paper_cluster(2).tasktrackers())
