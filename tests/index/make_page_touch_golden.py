"""Regenerates ``golden_page_touches.json`` (checked in next to this file).

The golden is the sequence of page ids each query asks the decoded-page
source (``_PageSource.decoded``) for, consecutive repeats collapsed: the
serving golden's corpus and 200-query mix (``make_serving_golden.py``),
served by a ``PersistentRTree`` and again by its ``PortableIndex``, plus
one ``query_radius_batch``.  Both indexes must ask for the same pages, so
the file holds one sequence per query.

It is stronger than the per-query fault counts ``golden_serving_counters.json``
pins: a change that touches the same page groups but other pages, or the
same pages in another order, fails here.  It was recorded from the commit
*before* the traversals resolved each page once and tested a
leaf-parent's leaves as one array, so it pins what that change promised
to keep: which pages a query visits, in which order.

Re-record it only for a deliberate change of page layout or traversal
order::

    PYTHONPATH=src python -m tests.index.make_page_touch_golden

and say so in the change.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.index import persistent
from repro.index.persistent import PersistentRTree
from repro.index.rtree import Rect, RTree
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from tests.index.make_serving_golden import (
    BUDGET_MB,
    GROUP_BYTES,
    MAX_ENTRIES,
    _corpus,
    _queries,
)

GOLDEN = Path(__file__).parent / "golden_page_touches.json"

#: The many-point radius query: the first uniform anchors of the mix.
BATCH_QUERIES = 40
BATCH_RADIUS_M = 250.0


def _ask(index, kind: str, args: tuple):
    if kind == "point":
        return index.query_point(*args)
    if kind == "range":
        return index.query_rect(Rect(*args))
    if kind == "radius":
        return index.query_radius(*args)
    return index.knn(*args)


def record_touches() -> dict:
    """Build, persist and serve; the page ids each query asked for, per index."""
    asked: list[int] = []
    real = persistent._PageSource.decoded

    def decoded(self, page_id):
        if not asked or asked[-1] != page_id:
            asked.append(int(page_id))
        return real(self, page_id)

    # Patched before any index opens: an index may bind its source's method.
    persistent._PageSource.decoded = decoded
    try:
        points = _corpus()
        tree = RTree.bulk_load(points, max_entries=MAX_ENTRIES)
        hdfs = SimulatedHDFS(
            paper_cluster(2), chunk_size=64 * 1024, seed=0, memory_budget_mb=BUDGET_MB
        )
        index = PersistentRTree.save(hdfs, "idx", tree, group_bytes=GROUP_BYTES)
        queries = _queries(points)
        batch = np.array([args[:2] for _, args in queries[:BATCH_QUERIES]])
        out = {"n_pages": int(index.meta["n_pages"]), "kinds": [k for k, _ in queries]}
        out["kinds"].append("radius_batch")
        for name, target in (("persistent", index), ("portable", index.to_portable())):
            touches = []
            for kind, args in queries:
                asked.clear()
                _ask(target, kind, args)
                touches.append(list(asked))
            asked.clear()
            target.query_radius_batch(batch, BATCH_RADIUS_M)
            touches.append(list(asked))
            out[name] = touches
    finally:
        persistent._PageSource.decoded = real
    return out


if __name__ == "__main__":
    record = record_touches()
    if record["persistent"] != record["portable"]:
        raise SystemExit("persistent and portable indexes ask for different pages")
    golden = {
        "n_pages": record["n_pages"],
        "kinds": record["kinds"],
        "touches": record["persistent"],
    }
    GOLDEN.write_text(json.dumps(golden, separators=(",", ":")) + "\n")
    n = sum(map(len, golden["touches"]))
    print(f"wrote {GOLDEN}: {len(golden['touches'])} queries, {n} page requests")
