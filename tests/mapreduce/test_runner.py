"""Unit/integration tests for the job runner."""

import numpy as np
import pytest

from repro.geo.trace import TraceArray
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.counters import STANDARD
from repro.mapreduce.failures import ChaosSchedule
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import JobSpec, Mapper, Reducer
from repro.mapreduce.runner import JobRunner


class WordCountMapper(Mapper):
    def map(self, key, value, ctx):
        for word in value.split():
            ctx.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class IdentityMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key, value)


class FirstValueCombiner(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def _wordcount_input(hdfs, path="in", lines=None):
    lines = lines or ["a b a", "b c", "a c c"] * 4
    hdfs.put_records(path, list(enumerate(lines)), record_bytes=16)


@pytest.fixture()
def small_hdfs():
    return SimulatedHDFS(paper_cluster(4), chunk_size=64, seed=0)


class TestWordCount:
    def test_counts_correct(self, small_hdfs):
        _wordcount_input(small_hdfs)
        runner = JobRunner(small_hdfs)
        runner.run(JobSpec("wc", WordCountMapper, ["in"], "out", reducer=SumReducer, num_reducers=3))
        counts = dict(small_hdfs.read_records("out"))
        assert counts == {"a": 12, "b": 8, "c": 12}

    def test_multiple_chunks_created(self, small_hdfs):
        _wordcount_input(small_hdfs)
        assert len(small_hdfs.chunks("in")) > 1

    def test_counters(self, small_hdfs):
        _wordcount_input(small_hdfs)
        runner = JobRunner(small_hdfs)
        res = runner.run(JobSpec("wc", WordCountMapper, ["in"], "out", reducer=SumReducer))
        t = res.counters.group(STANDARD.GROUP_TASK)
        assert t[STANDARD.MAP_INPUT_RECORDS] == 12
        assert t[STANDARD.MAP_OUTPUT_RECORDS] == 32  # total words
        assert t[STANDARD.REDUCE_INPUT_RECORDS] == 32
        assert t[STANDARD.REDUCE_INPUT_GROUPS] == 3
        assert t[STANDARD.REDUCE_OUTPUT_RECORDS] == 3
        assert t[STANDARD.SHUFFLE_BYTES] > 0
        s = res.counters.group(STANDARD.GROUP_SCHEDULER)
        assert s[STANDARD.MAP_TASKS] == res.n_map_tasks

    def test_output_exists_refused(self, small_hdfs):
        _wordcount_input(small_hdfs)
        small_hdfs.put_records("out", [(0, 0)])
        runner = JobRunner(small_hdfs)
        with pytest.raises(FileExistsError):
            runner.run(JobSpec("wc", WordCountMapper, ["in"], "out", reducer=SumReducer))

    def test_missing_input_raises(self, small_hdfs):
        runner = JobRunner(small_hdfs)
        with pytest.raises(FileNotFoundError):
            runner.run(JobSpec("wc", WordCountMapper, ["ghost"], "out", reducer=SumReducer))

    def test_threads_executor_equivalent(self, small_hdfs):
        _wordcount_input(small_hdfs)
        serial = JobRunner(small_hdfs)
        serial.run(JobSpec("wc", WordCountMapper, ["in"], "o1", reducer=SumReducer))
        threads = JobRunner(small_hdfs, executor="threads", max_workers=4)
        threads.run(JobSpec("wc", WordCountMapper, ["in"], "o2", reducer=SumReducer))
        assert dict(small_hdfs.read_records("o1")) == dict(small_hdfs.read_records("o2"))

    def test_unknown_executor_rejected(self, small_hdfs):
        with pytest.raises(ValueError):
            JobRunner(small_hdfs, executor="gpu")


class TestMapOnly:
    def test_map_only_writes_map_output(self, small_hdfs):
        _wordcount_input(small_hdfs, lines=["x y"])
        runner = JobRunner(small_hdfs)
        res = runner.run(JobSpec("ident", IdentityMapper, ["in"], "out"))
        assert res.n_reduce_tasks == 0
        assert dict(small_hdfs.read_records("out")) == {0: "x y"}
        assert res.timing.reduce_s == 0.0

    def test_array_output_fast_path(self, small_hdfs):
        arr = TraceArray.from_columns(
            ["u"], np.zeros(10), np.zeros(10), np.arange(10.0)
        )
        small_hdfs.put_trace_array("traces", arr, record_bytes=64)

        class PassThrough(Mapper):
            def run(self, chunk, ctx):
                ctx.emit_array(chunk.trace_array())

        runner = JobRunner(small_hdfs)
        runner.run(JobSpec("pass", PassThrough, ["traces"], "out"))
        back = small_hdfs.read_trace_array("out")
        assert len(back) == 10
        assert np.allclose(np.sort(back.timestamp), np.arange(10.0))

    def test_mixed_output_falls_back_to_records(self, small_hdfs):
        """A mapper emitting both array blocks and plain records gets the
        generic record-file output, not the columnar fast path."""
        arr = TraceArray.from_columns(["u"], np.zeros(5), np.zeros(5), np.arange(5.0))
        small_hdfs.put_trace_array("traces", arr, record_bytes=64)

        class Mixed(Mapper):
            def run(self, chunk, ctx):
                ctx.emit_array(chunk.trace_array())
                ctx.emit("stats", chunk.n_records)

        runner = JobRunner(small_hdfs)
        runner.run(JobSpec("mixed", Mixed, ["traces"], "out"))
        records = small_hdfs.read_records("out")
        stats_total = sum(v for k, v in records if k == "stats")
        assert stats_total == 5  # one "stats" record per chunk, summing to n
        with pytest.raises(TypeError):
            small_hdfs.read_trace_array("out")

    def test_empty_map_output_creates_empty_file(self, small_hdfs):
        small_hdfs.put_records("in", [(0, "x")], record_bytes=16)

        class DropAll(Mapper):
            def map(self, key, value, ctx):
                pass

        runner = JobRunner(small_hdfs)
        runner.run(JobSpec("drop", DropAll, ["in"], "out"))
        assert small_hdfs.exists("out")
        assert small_hdfs.read_records("out") == []


class TestCombiner:
    def test_combiner_preserves_result_and_cuts_shuffle(self, small_hdfs):
        _wordcount_input(small_hdfs)
        runner = JobRunner(small_hdfs)
        plain = runner.run(
            JobSpec("wc", WordCountMapper, ["in"], "plain", reducer=SumReducer)
        )
        combined = runner.run(
            JobSpec(
                "wc+c",
                WordCountMapper,
                ["in"],
                "combined",
                reducer=SumReducer,
                combiner=FirstValueCombiner,
            )
        )
        assert dict(small_hdfs.read_records("plain")) == dict(
            small_hdfs.read_records("combined")
        )
        assert combined.counters.value(
            STANDARD.GROUP_TASK, STANDARD.SHUFFLE_BYTES
        ) < plain.counters.value(STANDARD.GROUP_TASK, STANDARD.SHUFFLE_BYTES)
        assert combined.counters.value(
            STANDARD.GROUP_TASK, STANDARD.COMBINE_INPUT_RECORDS
        ) == 32

    def test_combine_output_records_counted(self, small_hdfs):
        _wordcount_input(small_hdfs)
        runner = JobRunner(small_hdfs)
        res = runner.run(
            JobSpec(
                "wc",
                WordCountMapper,
                ["in"],
                "out",
                reducer=SumReducer,
                combiner=FirstValueCombiner,
            )
        )
        out_records = res.counters.value(
            STANDARD.GROUP_TASK, STANDARD.COMBINE_OUTPUT_RECORDS
        )
        assert 0 < out_records <= 32


class TestSimulatedTime:
    def test_timing_components_positive(self, small_hdfs):
        _wordcount_input(small_hdfs)
        runner = JobRunner(small_hdfs)
        res = runner.run(JobSpec("wc", WordCountMapper, ["in"], "out", reducer=SumReducer))
        assert res.timing.setup_s > 0
        assert res.timing.map_s > 0
        assert res.timing.reduce_s > 0
        assert res.sim_seconds == pytest.approx(
            res.timing.setup_s + res.timing.map_s + res.timing.reduce_s
        )

    def test_more_data_costs_more_map_time(self):
        hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=10 * 1024 * 1024)
        small = [(i, "x" * 60) for i in range(100)]
        big = [(i, "x" * 60) for i in range(100)] * 50
        hdfs.put_records("small", small, record_bytes=64)
        hdfs.put_records("big", big, record_bytes=64)
        runner = JobRunner(hdfs)
        r_small = runner.run(JobSpec("a", IdentityMapper, ["small"], "o1"))
        r_big = runner.run(JobSpec("b", IdentityMapper, ["big"], "o2"))
        assert r_big.timing.map_s > r_small.timing.map_s

    def test_deploy_overhead_reported(self, small_hdfs):
        runner = JobRunner(small_hdfs)
        assert runner.deploy_overhead_s == pytest.approx(25.0)


class TestJobResultSummary:
    def test_summary_fields(self, small_hdfs):
        _wordcount_input(small_hdfs)
        runner = JobRunner(small_hdfs)
        res = runner.run(JobSpec("wc", WordCountMapper, ["in"], "out", reducer=SumReducer))
        line = res.summary()
        assert "wc:" in line
        assert "maps" in line and "reduces" in line
        assert "shuffle" in line and "sim" in line

    def test_map_only_summary(self, small_hdfs):
        _wordcount_input(small_hdfs, lines=["x"])
        runner = JobRunner(small_hdfs)
        res = runner.run(JobSpec("ident", IdentityMapper, ["in"], "out"))
        assert "map-only" in res.summary()

    def test_retries_mentioned(self, small_hdfs):
        from repro.mapreduce.failures import ChaosSchedule
        from tests.conftest import crash_faults

        _wordcount_input(small_hdfs)
        runner = JobRunner(small_hdfs, chaos=ChaosSchedule(faults=crash_faults("map-0000")))
        res = runner.run(JobSpec("wc", WordCountMapper, ["in"], "out", reducer=SumReducer))
        assert "retried" in res.summary()


class TestSpeculativeExecution:
    def test_output_unchanged_and_counted(self):
        """A slow node makes stragglers; speculation backs them up.  The
        runner executes primary attempts only, so the output and the
        input counters are unchanged, while the plan's duplicates show up
        as ``speculative_launch`` events and a shorter map phase."""
        hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=64 * 1000, seed=0)
        n = 20_000  # 20 chunks of 1,000 records
        arr = TraceArray.from_columns(["u"], np.zeros(n), np.zeros(n), np.arange(float(n)))
        hdfs.put_trace_array("traces", arr, record_bytes=64)
        chaos = ChaosSchedule(seed=0, slow_node_prob=0.1, slow_factor=8.0)

        class CountMapper(Mapper):
            def run(self, chunk, ctx):
                ctx.emit("n", chunk.n_records)

        plain = JobRunner(hdfs, speculative=False, chaos=chaos)
        spec = JobRunner(hdfs, speculative=True, chaos=chaos)
        r1 = plain.run(JobSpec("j", CountMapper, ["traces"], "o1", reducer=SumReducer))
        r2 = spec.run(JobSpec("j", CountMapper, ["traces"], "o2", reducer=SumReducer))
        assert dict(hdfs.read_records("o1")) == dict(hdfs.read_records("o2")) == {"n": n}
        assert [e for e in plain.history if e.kind == "speculative_launch"] == []
        assert [e for e in spec.history if e.kind == "speculative_launch"]
        assert r2.timing.map_s < r1.timing.map_s
        assert spec.history.validate() == []
        # Speculative attempts never run twice in the data plane.
        assert r1.counters.value(STANDARD.GROUP_TASK, STANDARD.MAP_INPUT_RECORDS) == (
            r2.counters.value(STANDARD.GROUP_TASK, STANDARD.MAP_INPUT_RECORDS)
        ) == n


class TestMultipleInputs:
    def test_two_input_paths(self, small_hdfs):
        small_hdfs.put_records("in1", [(0, "a a")], record_bytes=16)
        small_hdfs.put_records("in2", [(0, "a b")], record_bytes=16)
        runner = JobRunner(small_hdfs)
        runner.run(
            JobSpec("wc", WordCountMapper, ["in1", "in2"], "out", reducer=SumReducer)
        )
        assert dict(small_hdfs.read_records("out")) == {"a": 3, "b": 1}
