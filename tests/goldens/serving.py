"""The serving goldens: which pages a query touches, in which order.

A fixed 20,000-point corpus is persisted under a fixed memory budget and
served a fixed 200-query mix (point / range / radius / kNN): uniform
anchors that overflow the budget, then one hot spot that fits it.

``golden_serving_counters.json`` holds each query's ``page_faults``,
``fault_bytes``, ``latency_s`` and a digest of its answer ids; it was
recorded on the commit before page reads became O(1) and kNN priced
children array-at-a-time.  ``golden_page_touches.json`` is stronger: the
page ids each query asks the decoded-page source for (consecutive repeats
collapsed), plus one ``query_radius_batch``; recorded on the commit
before the traversals resolved each page once and tested a leaf-parent's
leaves as one array.  A persisted index and its ``PortableIndex`` must ask
for the same pages (the page-touch gate).
"""

from __future__ import annotations

import json

import numpy as np

from repro.index import persistent
from repro.index.persistent import PersistentRTree, QueryEngine
from repro.index.rtree import Rect, RTree
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from tests.goldens import ids_sha

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


#: The many-point radius query: the first uniform anchors of the mix.
BATCH_QUERIES = 40
BATCH_RADIUS_M = 250.0


def _compact(doc) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _persisted():
    """The corpus, its query mix, and the index persisted under the budget."""
    points = _corpus()
    tree = RTree.bulk_load(points, max_entries=MAX_ENTRIES)
    hdfs = SimulatedHDFS(
        paper_cluster(2), chunk_size=64 * 1024, seed=0, memory_budget_mb=BUDGET_MB
    )
    return hdfs, PersistentRTree.save(hdfs, "idx", tree, group_bytes=GROUP_BYTES), _queries(points)


def build_serving() -> str:
    hdfs, index, mix = _persisted()
    engine = QueryEngine(index, hdfs=hdfs)
    queries = []
    for kind, args in mix:
        answer = getattr(engine, kind)(*args)
        last = engine.stats.last
        queries.append([
            kind,
            last.page_faults,
            last.fault_bytes,
            last.latency_s,
            ids_sha([i for i, _ in answer] if kind == "knn" else answer),
        ])
    return _compact({
        "n_pages": int(index.meta["n_pages"]),
        "page_bytes": int(index.meta["page_bytes"]),
        "chunk_starts": list(index.meta["chunk_starts"]),
        "totals": engine.stats.as_dict(),
        "queries": queries,
    })


def _ask(index, kind: str, args: tuple):
    if kind == "point":
        return index.query_point(*args)
    if kind == "range":
        return index.query_rect(Rect(*args))
    if kind == "radius":
        return index.query_radius(*args)
    return index.knn(*args)


def touches(portable: bool = False) -> tuple[int, list[str], list[list[int]]]:
    """``(n_pages, query kinds, page ids each query asked for)`` of the
    persisted index, or of its ``PortableIndex``."""
    asked: list[int] = []
    real = persistent._PageSource.decoded

    def decoded(self, page_id):
        if not asked or asked[-1] != page_id:
            asked.append(int(page_id))
        return real(self, page_id)

    # Patched before any index opens: an index may bind its source's method.
    persistent._PageSource.decoded = decoded
    try:
        _, index, mix = _persisted()
        target = index.to_portable() if portable else index
        batch = np.array([args[:2] for _, args in mix[:BATCH_QUERIES]])
        out = []
        for kind, args in mix:
            asked.clear()
            _ask(target, kind, args)
            out.append(list(asked))
        asked.clear()
        target.query_radius_batch(batch, BATCH_RADIUS_M)
        out.append(list(asked))
    finally:
        persistent._PageSource.decoded = real
    return int(index.meta["n_pages"]), [k for k, _ in mix] + ["radius_batch"], out


def build_page_touches() -> str:
    n_pages, kinds, persisted = touches()
    return _compact({"n_pages": n_pages, "kinds": kinds, "touches": persisted})


def gates_page_touches(doc: dict) -> list[str]:
    if touches(portable=True)[2] != doc["touches"]:
        return ["the persisted and the portable index ask for different pages"]
    return []
