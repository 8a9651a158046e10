"""Regenerates ``golden_serving_counters.json`` (checked in next to this file).

The golden is the *page-touch record* of the serving path: a fixed corpus
persisted under a fixed memory budget, then a fixed 200-query mix (point /
range / radius / kNN; uniform anchors that overflow the budget, then one
hot spot that fits it), with each query's ``page_faults``,
``fault_bytes``, ``latency_s`` and a digest of its answer ids.  It was
recorded from the commit *before* page reads became O(1) and kNN priced
children array-at-a-time, so it pins what those changes promised to keep:
which page groups a query touches, in which order.

A CPU-side optimisation must never change this file.  Re-record it only
for a deliberate change of page layout, group size or paging policy::

    PYTHONPATH=src python tests/index/make_serving_golden.py

and say so in the change.  Inputs come from ``RandomState`` (a frozen
stream) and answers are digested as ids, not metres, so the record does
not depend on the NumPy version or the CPU's SIMD level.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.index.persistent import PersistentRTree, QueryEngine
from repro.index.rtree import RTree
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS

GOLDEN = Path(__file__).parent / "golden_serving_counters.json"

N_POINTS = 20_000
MAX_ENTRIES = 16
GROUP_BYTES = 16 * 1024
#: ~8 of the ~35 page groups: uniform anchors fault, the hot spot does not.
BUDGET_MB = 0.125
QUERY_MIX = ("point", "range", "radius", "knn", "range")
PER_PHASE = 100


def _corpus() -> np.ndarray:
    rs = np.random.RandomState(7)
    centres = np.column_stack((rs.uniform(39.7, 40.2, 12), rs.uniform(116.1, 116.7, 12)))
    points = centres[rs.randint(0, 12, N_POINTS)] + rs.normal(0.0, 0.01, (N_POINTS, 2))
    points[::50] = points[1::50]  # exact duplicates: kNN ties, multi-id point hits
    return points


def _queries(points: np.ndarray) -> list[tuple[str, tuple]]:
    rs = np.random.RandomState(11)
    uniform = points[rs.randint(0, N_POINTS, PER_PHASE)]
    near = np.flatnonzero(np.abs(points - points[0]).max(axis=1) <= 0.002)
    hot = points[near[rs.randint(0, len(near), PER_PHASE)]]
    out = []
    for (lat, lon), kind in zip(np.vstack((uniform, hot)).tolist(), QUERY_MIX * (2 * PER_PHASE)):
        args = {
            "point": (lat, lon),
            "range": (lat - 0.004, lon - 0.004, lat + 0.004, lon + 0.004),
            "radius": (lat, lon, 250.0),
            "knn": (lat, lon, 8),
        }[kind]
        out.append((kind, args))
    return out


def serve_mix() -> dict:
    """Build, persist and serve; the JSON-safe record the golden holds."""
    points = _corpus()
    tree = RTree.bulk_load(points, max_entries=MAX_ENTRIES)
    hdfs = SimulatedHDFS(
        paper_cluster(2), chunk_size=64 * 1024, seed=0, memory_budget_mb=BUDGET_MB
    )
    index = PersistentRTree.save(hdfs, "idx", tree, group_bytes=GROUP_BYTES)
    engine = QueryEngine(index, hdfs=hdfs)
    queries = []
    for kind, args in _queries(points):
        answer = getattr(engine, kind)(*args)
        ids = [i for i, _ in answer] if kind == "knn" else answer
        last = engine.stats.last
        queries.append([
            kind,
            last["page_faults"],
            last["fault_bytes"],
            last["latency_s"],
            hashlib.sha256(np.asarray(ids, dtype="<i8").tobytes()).hexdigest()[:16],
        ])
    return {
        "n_pages": int(index.meta["n_pages"]),
        "page_bytes": int(index.meta["page_bytes"]),
        "chunk_starts": list(index.meta["chunk_starts"]),
        "totals": engine.stats.as_dict(),
        "queries": queries,
    }


if __name__ == "__main__":
    record = serve_mix()
    GOLDEN.write_text(json.dumps(record, separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN}: {len(record['queries'])} queries, totals {record['totals']}")
