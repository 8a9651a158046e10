"""Utility metrics: what sanitization costs the analyst.

Three complementary views:

* **spatial distortion** — mean/median displacement (metres) between each
  original trace and its sanitized counterpart, matched by (user,
  timestamp);
* **trace volume ratio** — fraction of traces surviving sanitization
  (suppression-style mechanisms pay here);
* **coverage ratio** — fraction of the original's visited grid cells
  still visited after sanitization (how much of the spatial footprint a
  density analysis would retain).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.distance import haversine_m
from repro.geo.grid import grid_cells, time_windows, unique_rows
from repro.geo.trace import TraceArray

__all__ = [
    "spatial_distortion_m",
    "trace_volume_ratio",
    "coverage_ratio",
    "range_query_error",
    "UtilityReport",
    "utility_report",
]


def _match_by_time(original: TraceArray, sanitized: TraceArray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of traces matched by (user index-in-original, timestamp).

    Only applicable when the sanitizer preserves identities; mechanisms
    that re-pseudonymize (mix zones) are measured by volume/coverage only.
    """
    orig_users = original.user_ids()
    san_users = sanitized.user_ids()
    orig_index = {
        (u, t): i for i, (u, t) in enumerate(zip(orig_users, original.timestamp))
    }
    orig_idx, san_idx = [], []
    for j, (u, t) in enumerate(zip(san_users, sanitized.timestamp)):
        i = orig_index.get((u, t))
        if i is not None:
            orig_idx.append(i)
            san_idx.append(j)
    return np.array(orig_idx, dtype=np.int64), np.array(san_idx, dtype=np.int64)


def spatial_distortion_m(
    original: TraceArray,
    sanitized: TraceArray,
) -> tuple[float, float]:
    """(mean, median) displacement in metres over matched traces.

    Returns ``(nan, nan)`` when no traces can be matched.
    """
    oi, si = _match_by_time(original, sanitized)
    if len(oi) == 0:
        return float("nan"), float("nan")
    d = np.asarray(haversine_m(
        original.latitude[oi], original.longitude[oi], sanitized.latitude[si], sanitized.longitude[si]
    ))
    return float(d.mean()), float(np.median(d))


def trace_volume_ratio(
    original: TraceArray,
    sanitized: TraceArray,
) -> float:
    """|sanitized| / |original| (0 when the original is empty)."""
    n_orig = len(original)
    n_san = len(sanitized)
    return n_san / n_orig if n_orig else 0.0


def _visited_cells(array: TraceArray, cell_m: float) -> set[tuple[int, int]]:
    lat_band, lon_band = grid_cells(array.latitude, array.longitude, cell_m)
    return set(zip(lat_band.tolist(), lon_band.tolist()))


def coverage_ratio(
    original: TraceArray,
    sanitized: TraceArray,
    cell_m: float = 500.0,
) -> float:
    """Fraction of the original's visited cells still visited afterwards."""
    orig_cells = _visited_cells(original, cell_m)
    if not orig_cells:
        return 1.0
    san_cells = _visited_cells(sanitized, cell_m)
    return len(orig_cells & san_cells) / len(orig_cells)


def range_query_error(
    original: TraceArray,
    sanitized: TraceArray,
    n_queries: int = 200,
    cell_m: float = 1000.0,
    window_s: float = 3600.0,
    seed: int = 0,
) -> float:
    """Mean relative error of random spatio-temporal count queries.

    The workhorse utility measure for aggregate analyses: sample
    ``n_queries`` occupied (cell, window) buckets of the original, count
    traces in each for both datasets, and average
    ``|count_san - count_orig| / count_orig``.  0 means the sanitized
    release answers density questions perfectly; 1 means all the mass
    moved or vanished.
    """
    if len(original) == 0:
        return 0.0

    def buckets(array: TraceArray) -> dict[tuple[int, int, int], int]:
        lat_band, lon_band = grid_cells(array.latitude, array.longitude, cell_m)
        window = time_windows(array.timestamp, window_s)
        keys, counts = unique_rows(window, lat_band, lon_band, return_counts=True)
        return dict(zip(zip(*(key.tolist() for key in keys)), counts.tolist()))

    orig_counts = buckets(original)
    san_counts = buckets(sanitized)
    rng = np.random.default_rng(seed)
    keys = list(orig_counts)
    picks = rng.choice(len(keys), size=min(n_queries, len(keys)), replace=False)
    errors = []
    for i in picks:
        key = keys[int(i)]
        expected = orig_counts[key]
        got = san_counts.get(key, 0)
        errors.append(abs(got - expected) / expected)
    return float(np.mean(errors))


@dataclass
class UtilityReport:
    """Bundle of the three utility views for one sanitized release."""

    mean_distortion_m: float
    median_distortion_m: float
    volume_ratio: float
    coverage: float


def utility_report(
    original: TraceArray,
    sanitized: TraceArray,
    cell_m: float = 500.0,
) -> UtilityReport:
    """Compute all utility metrics in one call."""
    mean_d, median_d = spatial_distortion_m(original, sanitized)
    return UtilityReport(
        mean_distortion_m=mean_d,
        median_distortion_m=median_d,
        volume_ratio=trace_volume_ratio(original, sanitized),
        coverage=coverage_ratio(original, sanitized, cell_m),
    )
