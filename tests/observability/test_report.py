"""Derived metrics + the `repro history` CLI, on the golden history.

``golden_history.json`` (built by ``tests/goldens/histories.py``) is a small
handcrafted trace with every report feature present at once: a retried
task, a rack-local straggler with a speculative duplicate, a skewed
shuffle and a combiner.
"""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.observability.history import load_history
from repro.observability.report import (
    _fmt_bytes,
    render_gantt,
    render_report,
    render_window_report,
    summarize,
    summarize_job,
    window_accounting,
)
from tests.conftest import payload

GOLDEN = Path(__file__).parent / "golden_history.json"


@pytest.fixture(scope="module")
def golden():
    return load_history(GOLDEN)


class TestGoldenSummary:
    def test_golden_is_valid(self, golden):
        assert golden.validate() == []
        assert golden.jobs() == ["poi-extraction"]

    def test_summary_metrics(self, golden):
        (s,) = summarize(golden)
        assert s.name == "poi-extraction"
        assert s.total_s == pytest.approx(75.0)
        assert s.phases == {"setup": 25.0, "map": 30.0, "reduce": 10.0}
        assert s.n_map_tasks == 3 and s.n_reduce_tasks == 2
        assert s.locality == {"node_local": 2, "rack_local": 1}
        assert s.failed_attempts == 1
        assert s.speculative_launches == 1

    def test_shuffle_skew(self, golden):
        s = summarize_job(golden, "poi-extraction")
        assert s.shuffle_bytes == 8000
        assert s.shuffle_bytes_per_reducer == {
            "reduce-0000": 2000,
            "reduce-0001": 6000,
        }
        # max/mean = 6000/4000
        assert s.shuffle_skew == pytest.approx(1.5)

    def test_combiner_reduction(self, golden):
        s = summarize_job(golden, "poi-extraction")
        assert s.combiner_reduction == pytest.approx(3072 / 400)

    def test_straggler_ranking(self, golden):
        s = summarize_job(golden, "poi-extraction")
        assert s.stragglers, "the 30 s map task must rank as a straggler"
        span, ratio = s.stragglers[0]
        assert span.task == "map-0002"
        # 30 s vs a 20 s phase median (the retried task's span covers
        # both of its back-to-back attempts: 25 s -> 45 s).
        assert ratio == pytest.approx(1.5)

    def test_critical_path_spans_all_phases(self, golden):
        s = summarize_job(golden, "poi-extraction")
        assert [p for p, _, _ in s.critical_path] == [
            "setup", "map", "reduce", "retries",
        ]
        assert sum(sec for _, _, sec in s.critical_path) == pytest.approx(75.0)


class TestRendering:
    def test_report_sections(self, golden):
        text = render_report(golden)
        for needle in (
            "== poi-extraction",
            "total 75.0 sim s",
            "2 node-local, 1 rack-local",
            "skew max/mean 1.50",
            "combiner: 3,072 -> 400",
            "recovery: 1 failed attempts retried, 1 speculative launches",
            "critical path:",
            "stragglers",
            "x2 attempts",
            "(speculative)",
        ):
            assert needle in text, needle

    def test_gantt_marks_speculative_differently(self, golden):
        gantt = render_gantt(golden, "poi-extraction", width=40)
        assert "#" in gantt and "%" in gantt
        # One row per attempt chain: 3 maps + 1 speculative + 2 reduces.
        assert len(gantt.splitlines()) == 6

    def test_no_gantt_mode(self, golden):
        assert "timeline:" not in render_report(golden, gantt=False)

    def test_job_filter(self, golden):
        assert render_report(golden, jobs=["nope"]) == (
            "history contains no finished jobs"
        )

    def test_report_on_real_run(self, traced_run):
        runner, sampling, _ = traced_run
        text = render_report(runner.history)
        assert f"== {sampling.job_name}" in text
        assert "== kmeans-iter-1" in text
        assert "map-only" in text  # sampling job has no reduce phase


class TestOptionalSections:
    """Report lines that only some runs produce: a pre-aggregated
    shuffle, result-cache hits, streaming windows."""

    def test_preaggregated_shuffle(self):
        from repro.algorithms.kmeans import run_kmeans_mapreduce
        from repro.geo.synthetic import SyntheticConfig, generate_dataset
        from repro.mapreduce.cluster import paper_cluster
        from repro.mapreduce.hdfs import SimulatedHDFS
        from repro.mapreduce.runner import JobRunner

        dataset, _ = generate_dataset(SyntheticConfig(n_users=3, days=1, seed=9))
        hdfs = SimulatedHDFS(paper_cluster(3), chunk_size=64 * 1024, seed=0)
        hdfs.put_trace_array("input/traces", dataset.sort_by_time(), record_bytes=64)
        runner = JobRunner(hdfs)
        run_kmeans_mapreduce(runner, "input/traces", k=3, max_iter=1, seed=7,
                             use_aggregation=True)
        text = render_report(runner.history, gantt=False)
        assert "  pre-agg shuffle: " in text and " crossed nodes)" in text

    def test_result_cache_hit_is_marked(self):
        from tests.mapreduce.test_service import _hdfs, _sampling_spec
        from repro.mapreduce.service import JobService

        with JobService(_hdfs(), tenants={"t": 1.0}) as service:
            for name in ("a", "b"):
                service.submit(_sampling_spec(name, f"out/{name}"), tenant="t").result(60)
        assert "t:b [tenant t] (result-cache hit)" in render_report(service.history)

    def test_window_report_of_a_batch_history(self, golden):
        assert window_accounting(summarize(golden)) == {}
        for tenant in (None, "tenant0"):
            assert render_window_report(golden, tenant=tenant) == (
                "history contains no window-tagged jobs (not a streaming run?)"
            )

    def test_megabytes(self):
        assert _fmt_bytes(3 * 1024 * 1024) == "3.00 MB"


class TestCli:
    def test_report_command(self, capsys):
        assert main(["history", str(GOLDEN)]) == 0
        out = capsys.readouterr().out
        assert "poi-extraction" in out and "critical path" in out

    def test_validate_only(self, capsys):
        assert main(["history", str(GOLDEN), "--validate-only"]) == 0
        out = capsys.readouterr().out
        assert "0 ordering violation(s)" in out

    def test_no_gantt_and_job_flags(self, capsys):
        assert main(
            ["history", str(GOLDEN), "--no-gantt", "--job", "poi-extraction"]
        ) == 0
        assert "timeline:" not in capsys.readouterr().out

    def test_missing_file(self):
        with pytest.raises(SystemExit, match="no such history file"):
            main(["history", "does/not/exist.json"])

    def test_file_or_selfcheck_required(self):
        with pytest.raises(SystemExit, match="--selfcheck"):
            main(["history"])

    @pytest.mark.parametrize("flags", [[], ["--validate-only"]])
    def test_misspelt_payload_key_is_one_line_exit(self, tmp_path, flags):
        doc = json.loads(GOLDEN.read_text())
        finish = next(e for e in doc["events"] if e["kind"] == "phase_finish")
        finish["data"]["duraton_s"] = finish["data"].pop("duration_s")
        bad = tmp_path / "misspelt.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="phase_finish has no field 'duraton_s'"):
            load_history(bad)
        with pytest.raises(SystemExit) as exit_info:
            main(["history", str(bad), *flags])
        message = str(exit_info.value.code)
        assert "\n" not in message
        assert message == (
            f"cannot read {bad}: phase_finish has no field 'duraton_s'"
        )

    @pytest.mark.parametrize("flags", [[], ["--validate-only"]])
    def test_mistyped_payload_value_is_one_line_exit(self, tmp_path, flags):
        """A value of the wrong type fails the load, so neither the
        validation nor the report sees it."""
        doc = json.loads(GOLDEN.read_text())
        finish = next(e for e in doc["events"] if e["kind"] == "task_finish")
        finish["data"]["attempts"] = "2"
        bad = tmp_path / "mistyped.json"
        bad.write_text(json.dumps(doc))
        expected = "task_finish field 'attempts' must be int | None, got '2'"
        with pytest.raises(ValueError, match=re.escape(expected)):
            load_history(bad)
        with pytest.raises(SystemExit) as exit_info:
            main(["history", str(bad), *flags])
        assert str(exit_info.value.code) == f"cannot read {bad}: {expected}"

    @pytest.mark.parametrize("flags", [[], ["--validate-only"]])
    def test_mistyped_envelope_is_one_line_exit(self, tmp_path, flags):
        """An event's own fields are typed too: a node that is not a
        string fails the load instead of validating clean."""
        doc = json.loads(GOLDEN.read_text())
        start = next(e for e in doc["events"] if e["kind"] == "task_start")
        start["node"] = ["w"]
        bad = tmp_path / "mistyped_node.json"
        bad.write_text(json.dumps(doc))
        expected = (
            "malformed event record: task_start event field 'node' must be "
            "str | None, got ['w']"
        )
        with pytest.raises(ValueError, match=re.escape(expected)):
            load_history(bad)
        with pytest.raises(SystemExit) as exit_info:
            main(["history", str(bad), *flags])
        assert str(exit_info.value.code) == f"cannot read {bad}: {expected}"

    @pytest.mark.parametrize("flags", [[], ["--validate-only"]])
    def test_event_that_is_not_an_object_is_one_line_exit(self, tmp_path, flags):
        bad = tmp_path / "scalar_event.json"
        bad.write_text(json.dumps({"version": 1, "events": [5]}))
        with pytest.raises(SystemExit) as exit_info:
            main(["history", str(bad), *flags])
        assert str(exit_info.value.code) == f"cannot read {bad}: event record is not an object: 5"

    def test_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="cannot read"):
            main(["history", str(bad)])

    def test_validate_only_reports_violations(self, tmp_path, capsys):
        from repro.observability.history import JobHistory

        h = JobHistory()
        h.emit(payload("job_start"), "j", 0.0)
        path = h.save(tmp_path / "truncated.json")
        assert main(["history", str(path), "--validate-only"]) == 1
        assert "never finished" in capsys.readouterr().out

    def test_report_of_a_history_with_violations_exits_one(self, tmp_path, capsys):
        """An unfinished job is left out of the report, and the violation
        turns the exit status."""
        from repro.observability.history import JobHistory

        h = JobHistory()
        h.emit(payload("job_start"), "j", 0.0)
        path = h.save(tmp_path / "truncated.json")
        assert main(["history", str(path)]) == 1
        out = capsys.readouterr().out
        assert "WARNING: 1 ordering violation(s); run --validate-only" in out
        assert "== j" not in out
