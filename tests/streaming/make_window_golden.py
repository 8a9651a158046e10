"""Regenerates ``golden_window_metrics.json`` (checked in next to this file).

The golden is what the quasi-identifier binning *answers*: a small
chaotic stream's per-window ``WindowResult.signature()``,
``WindowRisk.to_doc()``, ``cache_hits`` and ``_top_cells``, plus digests
of every grid / distinct-row consumer on one fixed corpus
(``anonymity_set_sizes``, ``mixzone_anonymity_sets``, ``SpatialCloaking``,
``SpatialAggregator``, the co-location attack, ``range_query_error``,
``coverage_ratio``, ``home_work_anonymity``).  It was recorded from the
commit *before* those sites moved onto ``repro.geo.grid`` (``grid_cells``
+ ``unique_rows`` in place of ten copies of the band arithmetic and
fourteen ``np.unique(axis=0)`` calls), so it pins what that change
promised to keep: every band, every distinct-row order, every count.

A change of sort kernel must never change this file.  Re-record it only
for a deliberate change of the grid definition or of the analysis chain::

    PYTHONPATH=src python tests/streaming/make_window_golden.py

and say so in the change.  The fixed corpus comes from ``RandomState``
(a frozen stream) and is digested as integers or group means.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.attacks.social import ColocationParams, contact_events
from repro.geo.trace import TraceArray
from repro.mapreduce.failures import ChaosSchedule, Fault, FaultKind
from repro.mapreduce.runner import fresh_runner
from repro.metrics.privacy import (
    anonymity_set_sizes,
    home_work_anonymity,
    mixzone_anonymity_sets,
)
from repro.metrics.utility import coverage_ratio, range_query_error
from repro.sanitization.aggregation import SpatialAggregator
from repro.sanitization.cloaking import SpatialCloaking
from repro.sanitization.mixzones import MixZone
from repro.streaming.manager import StreamingJobManager, _top_cells
from repro.streaming.source import StreamSource

GOLDEN = Path(__file__).parent / "golden_window_metrics.json"

WINDOW_S = 1800.0
#: Two hemispheres, so bands of both signs are binned and sorted.
CITIES = ((39.9, 116.4), (-33.45, -70.66))
N_POINTS = 6_000
N_USERS = 12


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _array_digest(array: TraceArray) -> str:
    return _digest(
        np.asarray(array.user_index, dtype="<i8"), array.latitude,
        array.longitude, array.timestamp,
    )


def stream_corpus() -> TraceArray:
    """Eight half-hour windows of users hopping between shared hot spots."""
    rs = np.random.RandomState(23)
    n = 4_000
    spots = np.column_stack((rs.uniform(39.85, 39.95, 9), rs.uniform(116.3, 116.5, 9)))
    spot = rs.randint(0, len(spots), n)
    lat = spots[spot, 0] + rs.normal(0, 6e-4, n)
    lon = spots[spot, 1] + rs.normal(0, 6e-4, n)
    users = [f"s{i:02d}" for i in rs.randint(0, 10, n)]
    ts = 1.2e9 + rs.uniform(0, 8 * WINDOW_S, n)
    return TraceArray.from_columns(users, lat, lon, ts)


def stream_windows() -> list[dict]:
    """One chaotic stream on a bare runner, window by window."""
    chaos = ChaosSchedule(
        seed=9, late_batch_prob=0.3, lost_batch_prob=0.1, dup_batch_prob=0.2,
        faults=(Fault(FaultKind.LATE_BATCH, window=0),),
    )
    source = StreamSource(stream_corpus(), WINDOW_S, chaos=chaos, name="golden")
    windows = []
    with fresh_runner({}, chunk_size=64 * 1024, n_workers=6) as runner:
        manager = StreamingJobManager(
            runner, name="golden", k=3, max_iter=6, sampling_window_s=120.0,
            risk_cell_m=400.0, risk_window_s=600.0,
        )
        for w in range(source.n_windows):
            sealed = manager.batcher.close_window(source, w)
            result = manager.process(sealed)
            array = (
                runner.hdfs.read_trace_array(sealed.path)
                if sealed.n_points
                else TraceArray.empty()
            )
            top = _top_cells(array, manager.risk_cell_m)
            windows.append({
                "signature": result.signature(),
                "risk": result.risk.to_doc(),
                "cache_hits": result.cache_hits,
                "linked_users": result.linked_users,
                "top_cells": {user: list(cell) for user, cell in sorted(top.items())},
            })
    return windows


def fixed_corpus() -> TraceArray:
    rs = np.random.RandomState(17)
    city = rs.randint(0, len(CITIES), N_POINTS)
    centre = np.asarray(CITIES)[city]
    # Hot spots on a coarse lattice: many rows share a cell, some exactly.
    lat = centre[:, 0] + rs.randint(-6, 7, N_POINTS) * 0.004 + rs.normal(0, 4e-4, N_POINTS)
    lon = centre[:, 1] + rs.randint(-6, 7, N_POINTS) * 0.004 + rs.normal(0, 4e-4, N_POINTS)
    lat[::40], lon[::40] = lat[1::40], lon[1::40]
    users = [f"u{i:02d}" for i in rs.randint(0, N_USERS, N_POINTS)]
    ts = 1.2e9 + rs.uniform(0, 6 * 3600.0, N_POINTS)
    return TraceArray.from_columns(users, lat, lon, ts)


def corpus_metrics() -> dict:
    array = fixed_corpus()
    zones = [MixZone(39.9, 116.4, 600.0), MixZone(-33.45, -70.66, 900.0), MixZone(0.0, 0.0, 50.0)]
    mix = mixzone_anonymity_sets(array, zones, window_s=1800.0)
    cloaked = SpatialCloaking(k=3, base_cell_m=200.0, window_s=1800.0).sanitize_array(array)
    aggregated = SpatialAggregator(300.0).sanitize_array(array)
    contacts = contact_events(array, ColocationParams(contact_radius_m=60.0, window_s=600.0))
    first_seen = {}
    for user, la, lo in zip(array.user_ids().tolist(), array.latitude.tolist(), array.longitude.tolist()):
        first_seen.setdefault(user, []).append((la, lo))
    pairs = {u: (pts[0], pts[1]) for u, pts in first_seen.items()}
    return {
        "anonymity_set_sizes": {
            f"{cell_m:g}m/{window_s:g}s": _digest(anonymity_set_sizes(array, cell_m, window_s))
            for cell_m, window_s in ((500.0, 3600.0), (150.0, 900.0))
        },
        "mixzone_anonymity_sets": {str(z): sizes.tolist() for z, sizes in mix.items()},
        "spatial_cloaking": {"kept": len(cloaked), "digest": _array_digest(cloaked)},
        "spatial_aggregator": _array_digest(aggregated),
        "contact_events": sorted([a, b, s] for (a, b), s in contacts.items()),
        "range_query_error": repr(range_query_error(array, aggregated, n_queries=50, seed=3)),
        "coverage_ratio": repr(coverage_ratio(array, cloaked, cell_m=250.0)),
        "home_work_anonymity": dict(sorted(home_work_anonymity(pairs, cell_m=20_000.0).items())),
    }


def record() -> dict:
    """The JSON-safe record the golden holds."""
    return {"windows": stream_windows(), "corpus": corpus_metrics()}


if __name__ == "__main__":
    doc = record()
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(doc['windows'])} windows")
