"""Regenerates ``golden_kmeans.json`` (checked in next to this file).

The golden is what k-means *answers*, bit for bit: for one seeded
30,000-point corpus, every cell of ``{haversine, squared_euclidean}`` x
``{KMeansReducer, +combiner, +aggregation}`` x ``{serial, threads,
processes}`` x ``{unbudgeted, 1 MB budget}`` run for four iterations —
a SHA-256 of the centroid bytes, ``float.hex()`` of the inertia,
per-iteration ``shuffle_bytes`` / ``max_centroid_move`` / ``sim_seconds``
and the map-output record and byte counters — plus ``kmeans_sequential``'s
centroids and a SHA of its final assignment.  It was recorded from the
commit *before* nearest-centroid assignment moved onto
``nearest_centroid`` (argmin on the Haversine argument, one stable gather
in the mapper), so it pins what that change promised to keep: every
assignment, every emitted block, every counter, every simulated second.

A change of kernel must never change this file.  Re-record it only for a
deliberate change of a metric's bits or of the k-means job's shape::

    PYTHONPATH=src python tests/algorithms/make_kmeans_golden.py

and say so in the change.  The corpus comes from ``RandomState`` (a
frozen stream).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.algorithms.kmeans import assign_points, kmeans_sequential, run_kmeans_mapreduce
from repro.geo.trace import TraceArray
from repro.mapreduce.counters import STANDARD
from repro.mapreduce.runner import fresh_runner

GOLDEN = Path(__file__).parent / "golden_kmeans.json"

N_POINTS = 30_000
K = 7
ITERATIONS = 4
METRICS = ("haversine", "squared_euclidean")
#: name -> (use_combiner, use_aggregation)
REDUCES = {"reducer": (False, False), "combiner": (True, False), "aggregation": (False, True)}
BACKENDS = ("serial", "threads", "processes")
BUDGETS_MB = (None, 1)


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def corpus() -> TraceArray:
    """Five hot spots in two hemispheres, with exact duplicate rows."""
    rs = np.random.RandomState(41)
    spots = np.array(
        [[39.90, 116.40], [39.95, 116.50], [39.85, 116.30], [39.99, 116.41], [-33.45, -70.66]]
    )
    spot = rs.randint(0, len(spots), N_POINTS)
    lat = spots[spot, 0] + rs.normal(0, 0.01, N_POINTS)
    lon = spots[spot, 1] + rs.normal(0, 0.01, N_POINTS)
    lat[::50], lon[::50] = lat[1::50], lon[1::50]
    users = [f"u{i:02d}" for i in rs.randint(0, 20, N_POINTS)]
    ts = 1.2e9 + np.sort(rs.uniform(0, 86_400.0, N_POINTS))
    return TraceArray.from_columns(users, lat, lon, ts)


def initial_centroids(points: np.ndarray) -> np.ndarray:
    """Input rows (distance exactly 0 on the first pass), one of them
    twice, so a duplicate centroid and an empty cluster both occur."""
    rs = np.random.RandomState(7)
    centroids = points[rs.choice(len(points), K, replace=False)].copy()
    centroids[K - 1] = centroids[2]
    return centroids


def mapreduce_cell(array, centroids, metric, reduce, backend, budget_mb) -> dict:
    use_combiner, use_aggregation = REDUCES[reduce]
    jobs = []
    with fresh_runner(
        {"input/traces": array}, chunk_size=128 * 1024, backend=backend,
        max_workers=2, budget_mb=budget_mb,
    ) as runner:
        run = runner.run

        def recording_run(job):
            jobs.append(run(job))
            return jobs[-1]

        runner.run = recording_run
        result = run_kmeans_mapreduce(
            runner, "input/traces", K, distance=metric, convergence_delta=-1.0,
            max_iter=ITERATIONS, initial_centroids=centroids,
            use_combiner=use_combiner, use_aggregation=use_aggregation,
        )
    task = STANDARD.GROUP_TASK
    return {
        "centroids_sha256": _sha(result.centroids),
        "inertia": float(result.inertia).hex(),
        "iterations": [
            {
                "shuffle_bytes": s.shuffle_bytes,
                "max_centroid_move": float(s.max_centroid_move).hex(),
                "sim_seconds": float(s.sim_seconds).hex(),
                "map_output_records": j.counters.value(task, STANDARD.MAP_OUTPUT_RECORDS),
                "map_output_bytes": j.counters.value(task, STANDARD.MAP_OUTPUT_BYTES),
            }
            for s, j in zip(result.history, jobs)
        ],
    }


def sequential_cell(points, centroids, metric) -> dict:
    result = kmeans_sequential(
        points, K, metric=metric, convergence_delta=-1.0, max_iter=ITERATIONS,
        initial_centroids=centroids,
    )
    return {
        "centroids": [[float(x).hex() for x in row] for row in result.centroids],
        "inertia": float(result.inertia).hex(),
        "assignment_sha256": _sha(
            assign_points(points, result.centroids, metric).astype("<i8")
        ),
    }


def cell_name(metric, reduce, backend, budget_mb) -> str:
    return f"{metric}/{reduce}/{backend}/{'unbudgeted' if budget_mb is None else f'{budget_mb}MB'}"


def record(backends=BACKENDS) -> dict:
    """The JSON-safe record the golden holds (for ``backends`` only)."""
    array = corpus()
    points = array.coordinates()
    centroids = initial_centroids(points)
    return {
        "sequential": {m: sequential_cell(points, centroids, m) for m in METRICS},
        "mapreduce": {
            cell_name(m, r, b, mb): mapreduce_cell(array, centroids, m, r, b, mb)
            for m in METRICS for r in REDUCES for b in backends for mb in BUDGETS_MB
        },
    }


if __name__ == "__main__":
    doc = record()
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(doc['mapreduce'])} MapReduce cells")
