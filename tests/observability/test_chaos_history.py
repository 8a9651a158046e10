"""Chaos-run histories: golden report, ordering + timing under recovery.

Two halves.  The golden half pins the exact ``repro history`` rendering
of a handcrafted chaos trace (``tests/goldens/histories.py``) — fault events
in the Gantt, the recovery summary lines, the critical path through a
re-dispatched task.  The live half runs a *real* chaotic deployment and
checks the invariants the docs promise survive recovery: the event
stream validates, fault/retry events sit inside their task's span, and
per-phase durations plus the retry penalty still reproduce JobTiming.
"""


import pytest

from repro.observability.history import load_history
from repro.observability.report import render_report, summarize_job
from tests.goldens.histories import JOB
from tests.goldens.registry import GOLDENS, REPO, check

GOLDEN_HISTORY = REPO / GOLDENS["chaos_history"].path
GOLDEN_REPORT = REPO / GOLDENS["chaos_report"].path


@pytest.fixture(scope="module")
def golden():
    return load_history(GOLDEN_HISTORY)


class TestGoldenChaosTrace:
    def test_golden_in_sync_with_generator(self):
        assert check("chaos_history") == []

    def test_golden_report_in_sync(self, golden):
        assert render_report(golden) == GOLDEN_REPORT.read_text()

    def test_golden_is_valid(self, golden):
        assert golden.validate() == []

    def test_recovery_lines_rendered(self):
        text = GOLDEN_REPORT.read_text()
        assert "faults injected: node_loss x1, task_crash x2" in text
        assert "backoff +4.0s" in text
        assert "node loss: worker01 (2 replicas healed" in text
        assert "blacklisted: worker01" in text
        assert "shuffle refetch: 1 fetch(es)" in text

    def test_retried_tasks_marked_in_gantt(self):
        text = GOLDEN_REPORT.read_text()
        for task in ("map-0001", "map-0002", "reduce-0001"):
            (line,) = [ln for ln in text.splitlines() if ln.lstrip().startswith(task)]
            assert "x2 attempts" in line

    def test_summary_chaos_metrics(self, golden):
        s = summarize_job(golden, JOB)
        assert s.faults == {"node_loss": 1, "task_crash": 2}
        assert s.backoff_s == pytest.approx(4.0)
        assert s.nodes_lost == ["worker01"]
        assert s.nodes_blacklisted == ["worker01"]
        assert s.replicas_healed == 2
        assert s.shuffle_refetches == 1
        assert s.refetched_bytes == 1500


@pytest.fixture(scope="module")
def chaotic_run():
    """A real traced deployment under a seeded chaos schedule."""
    from repro.algorithms.sampling import run_sampling_job
    from repro.attacks.mmc_mr import run_mmc_mapreduce
    from repro.geo.synthetic import SyntheticConfig, generate_dataset
    from repro.mapreduce.cluster import paper_cluster
    from repro.mapreduce.failures import ChaosSchedule
    from repro.mapreduce.hdfs import SimulatedHDFS
    from repro.mapreduce.runner import JobRunner

    dataset, _ = generate_dataset(SyntheticConfig(n_users=3, days=1, seed=9))
    array = dataset.sort_by_time()
    hdfs = SimulatedHDFS(paper_cluster(3), chunk_size=64 * 1024, seed=0)
    hdfs.put_trace_array("input/traces", array, record_bytes=64)
    chaos = ChaosSchedule(
        seed=11, crash_prob=0.15, shuffle_fetch_prob=0.3, node_loss_prob=1.0
    )
    runner = JobRunner(hdfs, chaos=chaos)
    sampling = run_sampling_job(runner, "input/traces", "out/sampled", window_s=60.0)
    from repro.algorithms.kmeans import kmeans_sequential

    pois = kmeans_sequential(array.coordinates(), k=3, seed=0).centroids
    run_mmc_mapreduce(runner, "input/traces", pois, output_path="tmp/models")
    return runner, sampling


class TestLiveChaosInvariants:
    def test_history_validates_under_recovery(self, chaotic_run):
        runner, _ = chaotic_run
        assert runner.history.validate() == []

    def test_chaos_events_present(self, chaotic_run):
        runner, _ = chaotic_run
        kinds = {e.kind for e in runner.history}
        assert "fault_injected" in kinds
        assert "attempt_retried" in kinds
        assert "node_lost" in kinds

    def test_fault_events_sit_inside_their_task_span(self, chaotic_run):
        runner, _ = chaotic_run
        history = runner.history
        for job in history.jobs():
            bounds = {}
            for e in history.events_for(job):
                if e.kind == "task_start":
                    bounds.setdefault(e.task, [e.seq, None])
                elif e.kind == "task_finish" and e.task in bounds:
                    bounds[e.task][1] = e.seq
            for e in history.events_for(job):
                if e.kind in ("fault_injected", "attempt_retried"):
                    start, finish = bounds[e.task]
                    assert start < e.seq < finish

    def test_phase_durations_reproduce_timing_under_retries(self, chaotic_run):
        runner, sampling = chaotic_run
        assert sampling.timing.retry_penalty_s > 0
        for job in runner.history.jobs():
            timing = runner.history.job_finish(job).payload.timing
            phases = runner.history.phase_durations(job)
            assert sum(phases.values()) + timing.retry_penalty_s == pytest.approx(
                timing.total_s
            ), job

    def test_report_renders_recovery_sections(self, chaotic_run):
        runner, _ = chaotic_run
        text = render_report(runner.history)
        assert "faults injected:" in text
        assert "node loss:" in text

    def test_roundtrip_preserves_chaos_events(self, chaotic_run, tmp_path):
        runner, _ = chaotic_run
        path = tmp_path / "chaos.jsonl"
        runner.history.save(path)
        reloaded = load_history(path)
        assert [e.to_dict() for e in reloaded] == [
            e.to_dict() for e in runner.history
        ]
        assert reloaded.validate() == []
