"""Ordering guarantees, accounting invariants and on-disk round-trips.

These are the guarantees docs/OBSERVABILITY.md promises: every task
finish follows its start, failed attempts precede the successful
attempt, and per-phase durations reproduce the cost model's JobTiming.
They are checked on a *real* traced deployment (see conftest.py), not a
synthetic stream, so the runner's emission order is what is under test.
"""

import dataclasses
import json

import pytest

from repro.observability.events import EventKind
from repro.observability.history import JobHistory, load_history

S, F = EventKind.JOB_START, EventKind.JOB_FINISH
PS, PF = EventKind.PHASE_START, EventKind.PHASE_FINISH
TS, TF = EventKind.TASK_START, EventKind.TASK_FINISH
AF, AR = EventKind.ATTEMPT_FAILED, EventKind.ATTEMPT_RETRIED


def _seq_of(history, job, kind, task=None):
    return [
        e.seq
        for e in history.events_for(job)
        if e.kind == kind and (task is None or e.task == task)
    ]


class TestOrderingGuarantees:
    def test_real_run_validates_clean(self, traced_run):
        runner, _, _ = traced_run
        assert runner.history.validate() == []

    def test_seq_strictly_increasing(self, traced_run):
        runner, _, _ = traced_run
        seqs = [e.seq for e in runner.history]
        assert seqs == sorted(seqs) and len(seqs) == len(set(seqs))

    def test_every_task_finish_follows_its_start(self, traced_run):
        runner, _, _ = traced_run
        history = runner.history
        for job in history.jobs():
            starts: dict[tuple, int] = {}
            for e in history.events_for(job):
                key = (e.task, bool(e.data.get("speculative")))
                if e.kind == EventKind.TASK_START:
                    starts[key] = e.seq
                elif e.kind == EventKind.TASK_FINISH:
                    assert key in starts, f"{job}/{e.task} finished unstarted"
                    assert e.seq > starts[key]

    def test_failed_attempts_precede_successful_attempt(self, traced_run):
        runner, _, _ = traced_run
        history = runner.history
        failures = [e for e in history if e.kind == EventKind.ATTEMPT_FAILED]
        assert failures, "injected failure produced no attempt_failed event"
        for failure in failures:
            (start,) = _seq_of(
                history, failure.job, EventKind.TASK_START, failure.task
            )
            (finish,) = _seq_of(
                history, failure.job, EventKind.TASK_FINISH, failure.task
            )
            assert start < failure.seq < finish
            # ... and on the simulated clock, not just in emission order.
            finish_e = next(
                e
                for e in history.events_for(failure.job)
                if e.kind == EventKind.TASK_FINISH and e.task == failure.task
            )
            assert failure.ts <= finish_e.ts

    def test_phases_bracket_their_tasks(self, traced_run):
        runner, _, _ = traced_run
        history = runner.history
        for job in history.jobs():
            events = history.events_for(job)
            start_seqs = [e.seq for e in events if e.kind == EventKind.PHASE_START]
            finish_seqs = [e.seq for e in events if e.kind == EventKind.PHASE_FINISH]
            assert len(start_seqs) == len(finish_seqs) >= 2  # setup + map


class TestAccounting:
    def test_sampling_phases_reproduce_job_timing(self, traced_run):
        runner, sampling, _ = traced_run
        phases = runner.history.phase_durations(sampling.job_name)
        t = sampling.timing
        assert phases["setup"] == pytest.approx(t.setup_s)
        assert phases["map"] == pytest.approx(t.map_s)
        # Map-only job: no reduce phase was emitted.
        assert "reduce" not in phases
        assert sum(phases.values()) + t.retry_penalty_s == pytest.approx(t.total_s)

    def test_every_job_sums_to_its_reported_timing(self, traced_run):
        runner, _, _ = traced_run
        history = runner.history
        for job in history.jobs():
            timing = history.job_finish(job).data["timing"]
            phases = history.phase_durations(job)
            assert sum(phases.values()) + timing["retry_penalty_s"] == pytest.approx(
                timing["total_s"]
            ), job

    def test_jobs_stack_on_cumulative_clock(self, traced_run):
        runner, _, _ = traced_run
        history = runner.history
        starts = [history.job_start(job).ts for job in history.jobs()]
        assert starts == sorted(starts)
        assert starts[1] > 0  # second job starts where the first ended
        assert history.clock >= history.events[-1].ts

    def test_kmeans_iterations_annotated(self, traced_run):
        runner, _, kmeans = traced_run
        notes = [
            e
            for e in runner.history
            if e.kind == EventKind.DRIVER_ANNOTATION
            and e.data.get("driver") == "kmeans"
        ]
        assert [n.data["iteration"] for n in notes] == list(
            range(1, kmeans.n_iterations + 1)
        )
        assert notes[-1].data["driver"] == "kmeans"
        # The sampling driver annotates its run too.
        sampling_notes = [
            e
            for e in runner.history
            if e.kind == EventKind.DRIVER_ANNOTATION
            and e.data.get("driver") == "sampling"
        ]
        assert len(sampling_notes) == 1

    def test_task_spans_are_well_formed(self, traced_run):
        runner, sampling, _ = traced_run
        spans = runner.history.task_spans(sampling.job_name)
        assert spans
        for span in spans:
            assert span.end >= span.start
            assert span.attempts >= 1
            assert span.node
            if span.phase == "map" and not span.speculative:
                assert span.locality in ("node_local", "rack_local", "remote")
        retried = [s for s in spans if s.attempts > 1]
        assert retried, "the injected failure should surface as attempts > 1"


class TestRoundTrip:
    @pytest.mark.parametrize("suffix", [".json", ".jsonl"])
    def test_save_load_identity(self, traced_run, tmp_path, suffix):
        runner, _, _ = traced_run
        path = tmp_path / f"history{suffix}"
        runner.history.save(path)
        reloaded = load_history(path)
        assert [e.to_dict() for e in reloaded] == [
            e.to_dict() for e in runner.history
        ]
        assert reloaded.validate() == []
        assert reloaded.jobs() == runner.history.jobs()

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"version": 99, "events": []}))
        with pytest.raises(ValueError, match="unsupported history version"):
            load_history(path)

    def test_empty_jsonl_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty history"):
            load_history(path)


class TestValidateCatchesBadStreams:
    def test_finish_without_start(self):
        h = JobHistory()
        h.emit(EventKind.JOB_START, "j", 0.0)
        h.emit(EventKind.TASK_FINISH, "j", 1.0, task="map-0000", phase="map")
        h.emit(EventKind.JOB_FINISH, "j", 2.0)
        assert any("task_finish without start" in v for v in h.validate())

    def test_attempt_failed_after_finish(self):
        h = JobHistory()
        h.emit(EventKind.JOB_START, "j", 0.0)
        h.emit(EventKind.TASK_START, "j", 0.0, task="m", phase="map")
        h.emit(EventKind.TASK_FINISH, "j", 1.0, task="m", phase="map")
        h.emit(EventKind.ATTEMPT_FAILED, "j", 0.5, task="m", attempt=1)
        h.emit(EventKind.JOB_FINISH, "j", 2.0)
        assert any("attempt_failed after task_finish" in v for v in h.validate())

    def test_unfinished_job_flagged(self):
        h = JobHistory()
        h.emit(EventKind.JOB_START, "j", 0.0)
        assert any("never finished" in v for v in h.validate())

    def test_finish_timestamp_before_start_flagged(self):
        h = JobHistory()
        h.emit(EventKind.JOB_START, "j", 0.0)
        h.emit(EventKind.PHASE_START, "j", 5.0, phase="map")
        h.emit(EventKind.PHASE_FINISH, "j", 4.0, phase="map", duration_s=1.0)
        h.emit(EventKind.JOB_FINISH, "j", 6.0)
        assert any("finish ts precedes start" in v for v in h.validate())

    @pytest.mark.parametrize(
        ("stream", "message"),
        [
            ([(S, 0), (F, 1), ("seq", 0)], "seq not strictly increasing at 0"),
            ([(F, 0), (S, 0)], "j: job_finish before job_start"),
            ([(S, 5), (F, 1)], "j: job_finish ts precedes job_start"),
            ([(S, 0), (PF, 1), (F, 2)], "j: phase_finish(map) without start"),
            ([(S, 0), (PS, 5), (PF, 4), (F, 6)], "j: phase map finish ts precedes start"),
            ([(S, 0), (PS, 0), (F, 2)], "j: phase map never finished"),
            ([(S, 0), (AF, 1), (F, 2)], "j/m: attempt_failed before task_start"),
            ([(S, 0), (TS, 0), (TF, 1), (AR, 1), (F, 2)],
             "j/m: attempt_retried after task_finish"),
            ([(S, 0), (TF, 1), (F, 2)], "j/m: task_finish without start"),
            ([(S, 0), (TS, 5), (TF, 4), (F, 6)], "j/m: finish ts precedes start"),
            ([(S, 0), (TS, 0), (F, 2)], "j/m: task_start without task_finish"),
            ([(S, 0)], "j: job never finished"),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_each_violation_has_its_message(self, stream, message):
        """One bad stream per check; ``("seq", n)`` rewinds the last
        event's ``seq`` to ``n``."""
        h = JobHistory()
        for kind, ts in stream:
            if kind == "seq":
                h.events[-1] = dataclasses.replace(h.events[-1], seq=ts)
                continue
            task = "m" if kind in (TS, TF, AF, AR) else None
            h.emit(kind, "j", float(ts), task=task, phase="map")
        assert h.validate() == [message]

    def test_spans_refuse_a_finish_without_start(self):
        h = JobHistory()
        h.emit(EventKind.TASK_FINISH, "j", 1.0, task="m", phase="map")
        with pytest.raises(ValueError, match="task_finish without task_start: j/m"):
            h.task_spans("j")

    def test_advance_never_moves_backwards(self):
        h = JobHistory()
        h.advance(10.0)
        h.advance(5.0)
        assert h.clock == 10.0


def test_selfcheck_reports_every_broken_invariant(monkeypatch, capsys):
    """Each check of ``repro history --selfcheck`` fails with its own line
    when the layer it guards breaks."""
    import repro.mapreduce.failures as failures
    import repro.observability.history as history_module
    import repro.observability.report as report
    from repro.observability.selfcheck import run_selfcheck

    real_fault, real_load = failures.Fault, history_module.load_history

    def reload(path):
        reloaded = real_load(path)
        if str(path).endswith(".json"):
            reloaded.events.pop()
        return reloaded

    monkeypatch.setattr(failures, "Fault", lambda kind, task: real_fault(kind, task="map-9999"))
    monkeypatch.setattr(JobHistory, "validate", lambda self: ["a violation"])
    monkeypatch.setattr(JobHistory, "phase_durations", lambda self, job: {})
    monkeypatch.setattr(history_module, "load_history", reload)
    monkeypatch.setattr(report, "summarize", lambda history: [])
    monkeypatch.setattr(report, "render_report", lambda history: "")
    assert run_selfcheck(verbose=False) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[1].strip() for line in lines] == [
        "ordering violations",
        "sampling",
        "injected task failure produced no attempt_failed event",
        ".json round-trip altered the event stream",
        ".jsonl reload fails validation",
        "summarized 0 of 3 jobs",
        "report is missing 'critical path'",
        "report is missing 'sim s'",
        "report is missing 'node-local'",
    ]
