"""Micro-batching: close simtime windows into versioned HDFS datasets.

The :class:`MicroBatcher` consumes a :class:`~repro.streaming.source.
StreamSource` window by window.  While window ``w`` is open it accepts
every batch delivered during ``w`` — on-time batches of window ``w``
plus late batches of window ``w-1`` that missed the previous watermark.
At close time it advances the **watermark** (every point below it is
now accounted for: delivered, counted late, or counted lost), sorts the
collected points into canonical (user, time) order, and seals them into
one versioned HDFS dataset via the existing ``put_trace_stream``
ingestion path — so a window dataset is indistinguishable from a batch
upload and every downstream job (and the result cache, keyed on dataset
versions) treats it identically.

Watermark semantics (docs/STREAMING.md): late points land in the *next*
window's dataset and are counted in its ``late_points``; lost batches
are counted against their event window's ``lost_points``; duplicate
deliveries are dropped by their ``(feed, window)`` identity and counted
in ``dup_points`` — none of the three changes a dataset's bytes beyond
the late reassignment itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo.trace import TraceArray
from repro.observability.events import EventKind

from repro.streaming.source import StreamSource

__all__ = ["WindowDataset", "MicroBatcher"]


@dataclass(frozen=True)
class WindowDataset:
    """One sealed window: an immutable HDFS dataset plus its counters."""

    index: int
    path: str
    t_start: float
    t_end: float
    n_points: int
    n_feeds: int
    late_points: int
    lost_points: int
    dup_points: int

    def to_doc(self) -> dict:
        return {
            "window": self.index,
            "path": self.path,
            "n_points": self.n_points,
            "n_feeds": self.n_feeds,
            "late_points": self.late_points,
            "lost_points": self.lost_points,
            "dup_points": self.dup_points,
        }


class MicroBatcher:
    """Seals a stream's windows into HDFS datasets, emitting window events.

    ``job`` labels the stream's control-plane events in the history
    (``window_open``/``watermark``/``window_close``); it is not a real
    job name, so histories stay valid without a ``job_start``.
    """

    def __init__(
        self,
        hdfs,
        name: str = "stream",
        root: str = "streams",
        history=None,
        job: str | None = None,
    ):
        self.hdfs = hdfs
        self.name = name
        self.root = root
        self.history = history
        self.job = job or f"{name}-ingest"

    def window_path(self, window: int) -> str:
        return f"{self.root}/{self.name}/window-{window:04d}"

    def _emit(self, kind: str, **data) -> None:
        if self.history is not None:
            self.history.emit(kind, self.job, self.history.clock, **data)

    def close_window(self, source: StreamSource, window: int) -> WindowDataset:
        """Collect window ``window``'s deliveries and seal its dataset."""
        t_start, t_end = source.window_bounds(window)
        self._emit(
            EventKind.WINDOW_OPEN, window=window, t_start=t_start, t_end=t_end
        )
        pieces: list[TraceArray] = []
        seen: set[tuple[str, int]] = set()
        late_points = 0
        dup_points = 0
        feeds: set[str] = set()
        for batch in source.arrivals(window):
            key = (batch.feed, batch.window)
            if key in seen:
                dup_points += len(batch)
                continue
            seen.add(key)
            if batch.window < window:
                late_points += len(batch)
            pieces.append(batch.points)
            feeds.add(batch.feed)
        self._emit(EventKind.WATERMARK, window=window, watermark=t_end)
        merged = (
            TraceArray.concatenate(pieces).sort_by_time().compact()
            if pieces
            else TraceArray.empty()
        )
        path = self.window_path(window)
        self.hdfs.delete(path, missing_ok=True)
        self.hdfs.put_trace_stream(path, [merged])
        dataset = WindowDataset(
            index=window,
            path=path,
            t_start=t_start,
            t_end=t_end,
            n_points=len(merged),
            n_feeds=len(feeds),
            late_points=late_points,
            lost_points=source.lost_by_window.get(window, 0),
            dup_points=dup_points,
        )
        self._emit(EventKind.WINDOW_CLOSE, **dataset.to_doc())
        return dataset
