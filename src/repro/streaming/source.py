"""Simulated PLT point streams: feeds, micro-batches, feed chaos.

A :class:`StreamSource` turns a frozen mobility corpus into the stream a
live deployment would see: each user is one **feed** emitting PLT points
on the simtime clock, cut into one micro-batch per fixed event-time
window.  The cut is pure NumPy over the (user, time)-sorted corpus, so
the same corpus and window size always yield the same batches.

Feed chaos rides on :class:`~repro.mapreduce.failures.ChaosSchedule`:
per batch, ``batch_lost`` drops the delivery entirely, ``batch_late``
postpones it past its window's watermark (it arrives during the *next*
window), and ``batch_duplicated`` delivers it twice.  Every decision is
a counter-hash of ``(seed, kind, feed, window)`` — independent of
delivery order, identical between a streaming run and its batch replay,
which is what keeps the streaming equivalence invariant provable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.checks import positive
from repro.geo.trace import GeolocatedDataset, TraceArray
from repro.mapreduce.failures import ChaosSchedule

__all__ = ["FeedBatch", "StreamSource"]


@dataclass(frozen=True)
class FeedBatch:
    """One feed's points for one event-time window, as delivered.

    ``window`` is the event-time window the points belong to;
    ``arrival_window`` is the window during which the batch reaches the
    batcher (``window`` on time, ``window + 1`` when late).
    """

    feed: str
    window: int
    arrival_window: int
    points: TraceArray
    late: bool = False
    duplicate: bool = False

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class StreamSource:
    """Deterministic micro-batch view of a corpus, one feed per user.

    ``array`` may be a :class:`TraceArray` or a
    :class:`GeolocatedDataset`; it is canonically (user, time)-sorted
    before cutting, so construction order never leaks into batches.
    Window ``w`` covers event time ``[base + w*window_s,
    base + (w+1)*window_s)`` where ``base`` is the corpus' first window
    boundary on the epoch grid (the same alignment the sampling driver
    uses).
    """

    array: "TraceArray | GeolocatedDataset"
    window_s: float
    chaos: ChaosSchedule | None = None
    name: str = "stream"

    #: Filled during __post_init__: delivery-ordered batches and counters.
    batches: list[FeedBatch] = field(init=False, default_factory=list)
    lost_by_window: dict[int, int] = field(init=False, default_factory=dict)
    total_points: int = field(init=False, default=0)
    lost_points: int = field(init=False, default=0)
    n_feeds: int = field(init=False, default=0)
    n_event_windows: int = field(init=False, default=0)
    n_windows: int = field(init=False, default=0)
    base_window: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        positive("window_s", self.window_s)
        array = (
            self.array.flat()
            if isinstance(self.array, GeolocatedDataset)
            else self.array
        )
        ordered = array.sort_by_time().compact()
        object.__setattr__(self, "array", ordered)
        n = len(ordered)
        self.total_points = n
        if n == 0:
            return
        ui = ordered.user_index
        ts = ordered.timestamp
        base = int(np.floor(float(ts.min()) / self.window_s))
        self.base_window = base
        win = np.floor_divide(ts, self.window_s).astype(np.int64) - base
        self.n_event_windows = int(win.max()) + 1
        self.n_feeds = len(ordered.users)
        # One batch per contiguous (user, window) run of the sorted corpus.
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = (ui[1:] != ui[:-1]) | (win[1:] != win[:-1])
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], n)
        chaos = self.chaos
        delivered: list[FeedBatch] = []
        for start, end in zip(starts, ends):
            feed = ordered.users[int(ui[start])]
            window = int(win[start])
            points = ordered[int(start):int(end)]
            if chaos is not None and chaos.batch_lost(feed, window):
                self.lost_points += len(points)
                self.lost_by_window[window] = (
                    self.lost_by_window.get(window, 0) + len(points)
                )
                continue
            late = chaos is not None and chaos.batch_late(feed, window)
            arrival = window + 1 if late else window
            batch = FeedBatch(feed, window, arrival, points, late=late)
            delivered.append(batch)
            if chaos is not None and chaos.batch_duplicated(feed, window):
                delivered.append(
                    FeedBatch(feed, window, arrival, points, late=late, duplicate=True)
                )
        # Canonical delivery order: by arrival window, then event window,
        # then feed name, originals before their duplicates.
        delivered.sort(
            key=lambda b: (b.arrival_window, b.window, b.feed, b.duplicate)
        )
        self.batches = delivered
        last = max(
            (b.arrival_window for b in delivered), default=self.n_event_windows - 1
        )
        self.n_windows = max(self.n_event_windows, last + 1)

    # -- window geometry -----------------------------------------------------
    def window_bounds(self, window: int) -> tuple[float, float]:
        """Absolute event-time bounds ``[t_start, t_end)`` of a window."""
        t0 = (self.base_window + window) * self.window_s
        return t0, t0 + self.window_s

    def arrivals(self, window: int) -> list[FeedBatch]:
        """Batches delivered while ``window`` is open, in canonical order."""
        return [b for b in self.batches if b.arrival_window == window]
