"""Temporal down-sampling of mobility traces (Section V).

Down-sampling is a form of temporal aggregation: all traces falling in one
time window of size *t* are summarized by a single **representative**
trace.  Two techniques are implemented, matching Figures 2 and 3:

* ``UPPER`` — keep the trace closest to the *upper limit* of the window;
* ``MIDDLE`` — keep the trace closest to the *middle* of the window.

The MapReduce adaptation is a **map-only** job ("the reduce phase is not
necessary as sampling represents a computationally cheap operation and can
be performed in a single pass").  Each map task processes its chunk
independently; as in the paper's implementation, a time window whose
traces straddle a chunk boundary yields one representative per chunk —
a bounded artifact of the map-only design that the integration tests
quantify.

Windows are aligned per user on the epoch grid (window ``w`` covers
``[w*t, (w+1)*t)``), so runs are deterministic and independent of where a
trail starts.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.checks import positive
from repro.geo.grid import time_windows
from repro.geo.trace import GeolocatedDataset, TraceArray
from repro.mapreduce.config import Configuration
from repro.mapreduce.counters import STANDARD
from repro.mapreduce.job import JobSpec, Mapper
from repro.mapreduce.runner import JobResult, JobRunner
from repro.mapreduce.types import Chunk
from repro.observability.events import EventKind

__all__ = [
    "SamplingTechnique",
    "sample_array",
    "sample_dataset",
    "SamplingMapper",
    "run_sampling_job",
]


class SamplingTechnique(str, enum.Enum):
    """Representative-selection technique (Figures 2 and 3)."""

    UPPER = "upper"
    MIDDLE = "middle"

    @classmethod
    def parse(cls, value: "str | SamplingTechnique") -> "SamplingTechnique":
        if isinstance(value, cls):
            return value
        try:
            return cls(value.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown sampling technique {value!r}; known: "
                f"{[t.value for t in cls]}"
            ) from None


def sample_array(
    array: TraceArray,
    window_s: float,
    technique: "str | SamplingTechnique" = SamplingTechnique.UPPER,
) -> TraceArray:
    """Down-sample a trace array: one representative per (user, window).

    Fully vectorized: traces are bucketed into windows, the per-trace
    distance to the window's reference instant is computed in one pass,
    and a single lexicographic sort picks each group's minimum.  A
    ``window_s`` that is not positive and finite, or a non-finite
    timestamp, is a ``ValueError``.
    """
    technique = SamplingTechnique.parse(technique)
    ts = array.timestamp
    windows = time_windows(ts, window_s)
    n = len(array)
    if n == 0:
        return array
    # Reference instant inside each window (Fig. 2: end; Fig. 3: middle).
    if technique is SamplingTechnique.UPPER:
        reference = (windows + 1) * window_s
    else:
        reference = windows * window_s + window_s / 2.0
    delta = np.abs(ts - reference)
    # Group = (user, window); one sort by (user, window, delta) puts each
    # group's argmin of delta first (ties: earliest row, the sort is stable).
    users = array.user_index
    order = np.lexsort((delta, windows, users))
    sorted_users, sorted_windows = users[order], windows[order]
    first_of_group = np.ones(n, dtype=bool)
    first_of_group[1:] = (sorted_users[1:] != sorted_users[:-1]) | (
        sorted_windows[1:] != sorted_windows[:-1]
    )
    winners = np.sort(order[first_of_group])
    return array[winners]


def sample_dataset(
    dataset: GeolocatedDataset,
    window_s: float,
    technique: "str | SamplingTechnique" = SamplingTechnique.UPPER,
) -> GeolocatedDataset:
    """Down-sample every trail of a dataset (sequential reference path)."""
    return dataset.map_trails(lambda trail: sample_array(trail, window_s, technique))


class SamplingMapper(Mapper):
    """Map-only sampling over one chunk (vectorized).

    Conf keys (the paper's runtime arguments): ``sampling.window_s`` and
    ``sampling.technique``.
    """

    def run(self, chunk: Chunk, ctx) -> None:
        window_s = ctx.conf.get_float("sampling.window_s")
        technique = SamplingTechnique.parse(ctx.conf.get_str("sampling.technique", "upper"))
        sampled = sample_array(chunk.trace_array(), window_s, technique)
        if len(sampled):
            ctx.emit_array(sampled)


def run_sampling_job(
    runner: JobRunner,
    input_path: str,
    output_path: str,
    window_s: float,
    technique: "str | SamplingTechnique" = SamplingTechnique.UPPER,
    name: str = "sampling",
) -> JobResult:
    """Run the MapReduce sampling job (Section V's Hadoop application).

    The user specifies the window size, the technique and the input and
    output folders — exactly the parameters the paper lists.  The run's
    structured trace accumulates in ``runner.history``;
    ``runner.history.save(path)`` exports it as a JSON/JSONL history file
    readable by ``python -m repro history``.

    ``runner`` is anything runner-shaped: a
    :class:`~repro.mapreduce.runner.JobRunner`, or a
    :class:`~repro.mapreduce.service.TenantClient` to run the job as
    one tenant of a shared :class:`~repro.mapreduce.service.JobService`
    (each ``run`` becomes a submit + fair-share-scheduled wait).
    """
    technique = SamplingTechnique.parse(technique)
    positive("window_s", window_s)
    conf = Configuration(
        {
            "sampling.window_s": window_s,
            "sampling.technique": technique.value,
        }
    )
    spec = JobSpec(
        name=name,
        mapper=SamplingMapper,
        input_paths=[input_path],
        output_path=output_path,
        conf=conf,
        map_cost_factor=0.6,  # cheaper per byte than a clustering map
    )
    result = runner.run(spec)
    runner.history.emit(
        EventKind.DRIVER_ANNOTATION,
        result.job_name,
        runner.history.clock,
        driver="sampling",
        technique=technique.value,
        window_s=float(window_s),
        records_kept=result.counters.value(
            STANDARD.GROUP_TASK, STANDARD.MAP_OUTPUT_RECORDS
        ),
    )
    return result
