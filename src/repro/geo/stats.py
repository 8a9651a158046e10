"""Corpus and per-user mobility statistics.

Implements the descriptive measures the mobility literature the paper
cites builds on — most notably the **radius of gyration** (González,
Hidalgo & Barabási 2008, reference [13]): the RMS distance of a user's
traces from their centre of mass, the standard "how far does this person
range" scalar.

Plus the logging statistics GEPETO's Section V depends on (inter-fix
interval distribution: GeoLife logs "every 1 to 5 seconds"), and a
corpus summary used by the CLI's ``info`` command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.distance import haversine_m
from repro.geo.trace import GeolocatedDataset, TraceArray

__all__ = [
    "radius_of_gyration_m",
    "sampling_interval_stats",
    "UserStats",
    "user_stats",
    "corpus_summary",
]


def radius_of_gyration_m(array: TraceArray) -> float:
    """Radius of gyration: RMS Haversine distance to the centre of mass.

    0 for a user who never moves; commuters land around half their
    home-work separation; returns 0 for empty input.
    """
    if len(array) == 0:
        return 0.0
    center_lat = float(np.mean(array.latitude))
    center_lon = float(np.mean(array.longitude))
    d = np.asarray(haversine_m(center_lat, center_lon, array.latitude, array.longitude))
    return float(np.sqrt(np.mean(d**2)))


def sampling_interval_stats(array: TraceArray) -> dict[str, float]:
    """Distribution of inter-fix intervals (seconds): median/p90/mean.

    Gaps above 10 minutes are treated as logger-off periods and excluded
    (GeoLife loggers run per outing, not continuously).
    """
    array = array.sort_by_time()
    if len(array) < 2:
        return {"median_s": 0.0, "p90_s": 0.0, "mean_s": 0.0, "n_gaps": 0.0}
    dt = np.diff(array.timestamp)
    logging = dt[dt <= 600.0]
    n_gaps = int((dt > 600.0).sum())
    if len(logging) == 0:
        return {"median_s": 0.0, "p90_s": 0.0, "mean_s": 0.0, "n_gaps": float(n_gaps)}
    return {
        "median_s": float(np.median(logging)),
        "p90_s": float(np.percentile(logging, 90)),
        "mean_s": float(np.mean(logging)),
        "n_gaps": float(n_gaps),
    }


@dataclass
class UserStats:
    """Per-user mobility summary."""

    user_id: str
    n_traces: int
    duration_s: float
    radius_of_gyration_m: float
    median_interval_s: float


def user_stats(trail: TraceArray) -> UserStats:
    """Compute the per-user summary for one trail (a one-user array)."""
    (user_id,) = trail.users
    intervals = sampling_interval_stats(trail)
    return UserStats(
        user_id=user_id,
        n_traces=len(trail),
        duration_s=float(np.ptp(trail.timestamp)) if len(trail) else 0.0,
        radius_of_gyration_m=radius_of_gyration_m(trail),
        median_interval_s=intervals["median_s"],
    )


def corpus_summary(dataset: GeolocatedDataset) -> dict[str, float]:
    """Corpus-level aggregates: counts plus the r_g distribution."""
    stats = [user_stats(t) for t in dataset.trails()]
    if not stats:
        return {
            "n_users": 0.0,
            "n_traces": 0.0,
            "median_rg_m": 0.0,
            "p90_rg_m": 0.0,
            "median_interval_s": 0.0,
        }
    rgs = np.array([s.radius_of_gyration_m for s in stats])
    return {
        "n_users": float(len(stats)),
        "n_traces": float(sum(s.n_traces for s in stats)),
        "median_rg_m": float(np.median(rgs)),
        "p90_rg_m": float(np.percentile(rgs, 90)),
        "median_interval_s": float(
            np.median([s.median_interval_s for s in stats])
        ),
    }
