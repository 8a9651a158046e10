"""Micro-batch streaming in front of the deterministic MapReduce engine.

The streaming layer turns the repo's strictly batch pipeline into a
rolling analysis: a :class:`StreamSource` simulates tenants' users
emitting PLT points on the simtime clock (with chaos-driven late, lost
and duplicate feed batches), a :class:`MicroBatcher` closes fixed
simtime windows into versioned HDFS datasets via ``put_trace_stream``,
and a :class:`StreamingJobManager` submits each window's analysis —
sampling, warm-started incremental k-means, DJ-Cluster POIs over
catalog-ensured persistent indexes, and a re-identification risk score
— as ordinary jobs, through the multi-tenant service or a bare runner.

Determinism contract (docs/STREAMING.md): a windowed streaming run over
a fixed schedule is byte-identical to the equivalent sequence of batch
jobs; :mod:`repro.streaming.check` proves it run by run.
"""

from repro.streaming.source import FeedBatch, StreamSource
from repro.streaming.batcher import MicroBatcher, WindowDataset
from repro.streaming.manager import (
    RiskTimeline,
    StreamRunResult,
    StreamingJobManager,
    WindowResult,
)
from repro.streaming.check import (
    run_multitenant_stream,
    run_stream,
    run_stream_selfcheck,
)

__all__ = [
    "FeedBatch",
    "StreamSource",
    "MicroBatcher",
    "WindowDataset",
    "StreamingJobManager",
    "WindowResult",
    "RiskTimeline",
    "StreamRunResult",
    "run_stream",
    "run_multitenant_stream",
    "run_stream_selfcheck",
]
