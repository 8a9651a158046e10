"""Unit tests for chained jobs (Figure 5 pattern)."""

import pytest

from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import JobSpec, Mapper
from repro.mapreduce.pipeline import JobPipeline
from repro.mapreduce.runner import JobRunner


class AddOneMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key, value + 1)


class DoubleMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key, value * 2)


@pytest.fixture()
def env():
    hdfs = SimulatedHDFS(paper_cluster(3), chunk_size=256, seed=0)
    hdfs.put_records("in", [(i, i) for i in range(10)], record_bytes=16)
    return hdfs, JobRunner(hdfs)


class TestJobPipeline:
    def test_stage_output_feeds_next_stage(self, env):
        hdfs, runner = env
        pipe = JobPipeline(
            [
                lambda src: JobSpec("add", AddOneMapper, [src], "mid"),
                lambda src: JobSpec("double", DoubleMapper, [src], "final"),
            ]
        )
        result = pipe.run(runner, "in")
        assert result.output_path == "final"
        out = dict(hdfs.read_records("final"))
        assert out == {i: (i + 1) * 2 for i in range(10)}

    def test_counters_and_time_aggregate(self, env):
        hdfs, runner = env
        pipe = JobPipeline(
            [
                lambda src: JobSpec("add", AddOneMapper, [src], "mid"),
                lambda src: JobSpec("double", DoubleMapper, [src], "final"),
            ]
        )
        result = pipe.run(runner, "in")
        assert len(result.stages) == 2
        assert result.sim_seconds == pytest.approx(
            sum(s.sim_seconds for s in result.stages)
        )
        from repro.mapreduce.counters import STANDARD

        # Both stages' map inputs are summed: 10 + 10.
        assert (
            result.counters.value(STANDARD.GROUP_TASK, STANDARD.MAP_INPUT_RECORDS) == 20
        )

    def test_stage_lookup_by_name(self, env):
        hdfs, runner = env
        pipe = JobPipeline([lambda src: JobSpec("only", AddOneMapper, [src], "out")])
        result = pipe.run(runner, "in")
        assert [stage.job_name for stage in result.stages] == ["only"]

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            JobPipeline([])

    def test_pipeline_with_reduce_stage(self, env):
        """Pipelines mix map-only and full MR stages freely."""
        from repro.mapreduce.job import Reducer

        class SumReducer(Reducer):
            def reduce(self, key, values, ctx):
                ctx.emit(key, sum(values))

        class ParityMapper(Mapper):
            def map(self, key, value, ctx):
                ctx.emit(value % 2, value)

        hdfs, runner = env
        pipe = JobPipeline(
            [
                lambda src: JobSpec("add", AddOneMapper, [src], "mid2"),
                lambda src: JobSpec(
                    "parity-sum", ParityMapper, [src], "final2",
                    reducer=SumReducer, num_reducers=2,
                ),
            ]
        )
        result = pipe.run(runner, "in")
        out = dict(hdfs.read_records("final2"))
        # values 1..10: odds sum 25, evens sum 30.
        assert out == {0: 30, 1: 25}
        assert result.stages[1].n_reduce_tasks == 2

    def test_failure_in_first_stage_stops_pipeline(self, env):
        hdfs, runner = env

        class Boom(Mapper):
            def map(self, key, value, ctx):
                raise RuntimeError("boom")

        pipe = JobPipeline(
            [
                lambda src: JobSpec("boom", Boom, [src], "mid"),
                lambda src: JobSpec("never", AddOneMapper, [src], "final"),
            ]
        )
        with pytest.raises(RuntimeError, match="boom"):
            pipe.run(runner, "in")
        assert not hdfs.exists("final")
