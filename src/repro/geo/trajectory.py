"""Trajectory segmentation: stays and trips.

A trail is physically a sequence of *stays* (dwelling within a small
radius) connected by *trips* (movement between them).  Segmentation into
that structure underlies semantic analysis (Section II's "semantic
trajectories") and gives an alternative, time-aware POI extractor that
complements density clustering: a stay requires both spatial compactness
and a minimum duration, so brief pass-throughs never become POIs.

The segmentation is the classic stay-point algorithm (Zheng et al.'s
GeoLife line of work): grow a window of consecutive traces while every
trace stays within ``roam_radius_m`` of the window's anchor; when it
breaks, emit a stay if the window lasted at least ``min_stay_s``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.checks import positive
from repro.geo.distance import haversine_m
from repro.geo.trace import Trail, TraceArray, as_array

__all__ = ["Stay", "Trip", "segment_trail"]


@dataclass(frozen=True)
class Stay:
    """A dwell: the user remained within ``roam_radius_m`` for a while."""

    latitude: float
    longitude: float
    start_ts: float
    end_ts: float
    n_traces: int

    @property
    def duration_s(self) -> float:
        return self.end_ts - self.start_ts


@dataclass(frozen=True)
class Trip:
    """A movement segment between two stays (or trail ends)."""

    start_ts: float
    end_ts: float
    n_traces: int
    distance_m: float

    @property
    def duration_s(self) -> float:
        return self.end_ts - self.start_ts


def segment_trail(
    trail: Trail | TraceArray,
    roam_radius_m: float = 100.0,
    min_stay_s: float = 300.0,
    max_gap_s: float = 3600.0,
) -> tuple[list[Stay], list[Trip]]:
    """Split a trail into stays and trips.

    ``max_gap_s`` bounds the logging gap allowed inside one stay (a
    switched-off logger ends the stay).  Returns stays and trips in time
    order; every trace belongs to exactly one segment.
    """
    positive("roam_radius_m", roam_radius_m)
    positive("min_stay_s", min_stay_s)
    array = as_array(trail).sort_by_time()
    n = len(array)
    if n == 0:
        return [], []
    lat, lon, ts = array.latitude, array.longitude, array.timestamp

    stays: list[Stay] = []
    trips: list[Trip] = []
    trip_start: int | None = None

    def flush_trip(end_index: int) -> None:
        nonlocal trip_start
        if trip_start is None or end_index <= trip_start:
            trip_start = None
            return
        seg = slice(trip_start, end_index)
        step = haversine_m(
            lat[seg][:-1], lon[seg][:-1], lat[seg][1:], lon[seg][1:]
        )
        trips.append(
            Trip(
                start_ts=float(ts[trip_start]),
                end_ts=float(ts[end_index - 1]),
                n_traces=end_index - trip_start,
                distance_m=float(np.sum(step)) if end_index - trip_start > 1 else 0.0,
            )
        )
        trip_start = None

    i = 0
    while i < n:
        # Grow the candidate stay window anchored at i.
        j = i + 1
        while j < n:
            if ts[j] - ts[j - 1] > max_gap_s:
                break
            if float(haversine_m(lat[i], lon[i], lat[j], lon[j])) > roam_radius_m:
                break
            j += 1
        if ts[j - 1] - ts[i] >= min_stay_s:
            flush_trip(i)
            window = slice(i, j)
            stays.append(
                Stay(
                    latitude=float(np.mean(lat[window])),
                    longitude=float(np.mean(lon[window])),
                    start_ts=float(ts[i]),
                    end_ts=float(ts[j - 1]),
                    n_traces=j - i,
                )
            )
            i = j
        else:
            if trip_start is None:
                trip_start = i
            i += 1
    flush_trip(n)
    return stays, trips
