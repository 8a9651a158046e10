"""Chained MapReduce jobs (Figure 5's pipelined preprocessing pattern).

DJ-Cluster's preprocessing runs two map-only jobs "in pipeline": the
output of the first constitutes the input of the second.  A
:class:`JobPipeline` expresses that chain declaratively: each stage is a
factory producing a :class:`~repro.mapreduce.job.JobSpec` given the input
path it should consume, and the pipeline threads HDFS paths through the
stages, aggregating counters and simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobSpec
from repro.mapreduce.runner import JobResult, JobRunner
from repro.observability.events import EventKind

__all__ = ["JobPipeline", "PipelineResult"]


@dataclass
class PipelineResult:
    """Aggregate outcome of a pipeline run."""

    stages: list[JobResult]
    counters: Counters
    sim_seconds: float
    output_path: str


class JobPipeline:
    """A linear chain of jobs where stage *i+1* reads stage *i*'s output.

    ``stages`` are callables ``(input_path: str) -> JobSpec``; each stage's
    spec decides its own output path, which the pipeline hands to the next
    stage.  ``name`` labels the pipeline's bracketing events in the job
    history (each stage's job emits its own full event stream).
    """

    def __init__(
        self, stages: Sequence[Callable[[str], JobSpec]], name: str = "pipeline"
    ):
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.stages = list(stages)
        self.name = name

    def run(self, runner: JobRunner, input_path: str) -> PipelineResult:
        """Run all stages in order; fails fast on the first job error."""
        counters = Counters()
        results: list[JobResult] = []
        sim_seconds = 0.0
        current = input_path
        runner.history.emit(
            EventKind.PIPELINE_START,
            self.name,
            runner.history.clock,
            n_stages=len(self.stages),
        )
        for stage in self.stages:
            spec = stage(current)
            result = runner.run(spec)
            results.append(result)
            counters.merge(result.counters)
            sim_seconds += result.sim_seconds
            current = result.output_path
        runner.history.emit(
            EventKind.PIPELINE_FINISH,
            self.name,
            runner.history.clock,
            stages=[r.job_name for r in results],
            sim_seconds=sim_seconds,
        )
        return PipelineResult(results, counters, sim_seconds, current)
