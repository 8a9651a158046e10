"""Regenerates ``golden_packed_shapes.json`` (checked in next to this file).

The golden pins what an R-tree *is* on the tree shapes the Figure 6
golden (``golden_rtree_build.json``) never reaches: an empty tree, a
one-leaf tree, a partial last leaf and a partial last STR slab, all
points equal, fanouts 2 and 64, and merges of equal and of mixed
heights (partitions of about 30, 2,000 and 40,000 points).  Per shape it
holds the SHA-256 of the page blobs ``PersistentRTree.save`` writes,
``n_pages``, ``height()``, ``len()`` and a digest of every answer of a
fixed point / rectangle / radius / kNN / batched-radius mix, asked of
the in-memory tree and of the persisted one.

It was recorded from the commit *before* the tree became STR-packed
arrays, so it pins what that change promised to keep: the tree's shape,
every page byte and every answer, kNN tie order included.  No query
rectangle or radius disc of the mix crosses ±180° longitude (the
corpora sit around Beijing), so the antimeridian fix leaves it alone.

Re-record it only for a deliberate change of the packing, the page
format or a query's definition::

    PYTHONPATH=src python -m tests.index.make_packed_shapes_golden

and say so in the change.  Inputs come from ``RandomState`` (a frozen
stream) and answers are digested as ids, not metres, so the record does
not depend on the NumPy version or the CPU's SIMD level.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.index.persistent import PersistentRTree
from repro.index.rtree import Rect, RTree
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS

GOLDEN = Path(__file__).parent / "golden_packed_shapes.json"

#: Query anchors per shape; each takes one kind of ``QUERY_MIX`` in turn.
N_ANCHORS = 20
QUERY_MIX = ("point", "rect", "radius", "knn", "knn_all")
RADIUS_M = 250.0


def _points(n: int, seed: int) -> np.ndarray:
    """``n`` points in city blobs around Beijing, with exact duplicates."""
    rs = np.random.RandomState(seed)
    centres = np.column_stack((rs.uniform(39.8, 40.0, 5), rs.uniform(116.2, 116.6, 5)))
    points = centres[rs.randint(0, 5, n)] + rs.normal(0.0, 0.01, (n, 2))
    points[::17] = points[1::17]
    return points


def shapes() -> dict[str, tuple[RTree, np.ndarray]]:
    """Every pinned shape: ``name -> (tree, its points in id order)``."""
    out: dict[str, tuple[RTree, np.ndarray]] = {}
    out["empty"] = (RTree.bulk_load(np.empty((0, 2))), np.empty((0, 2)))
    one = _points(20, 1)
    out["one_leaf"] = (RTree.bulk_load(one, max_entries=32), one)
    # 1,001 points at fanout 32: 32 leaves, the last one of 9 points, in
    # slabs of 6 x 32 = 192 points, the last one of 41.
    partial = _points(1_001, 2)
    out["partial_leaf_and_slab"] = (RTree.bulk_load(partial, max_entries=32), partial)
    same = np.tile([[39.9, 116.4]], (500, 1))
    out["all_duplicates"] = (RTree.bulk_load(same, max_entries=8), same)
    two = _points(300, 3)
    out["fanout_2"] = (RTree.bulk_load(two, max_entries=2), two)
    wide = _points(5_000, 4)
    out["fanout_64"] = (RTree.bulk_load(wide, max_entries=64), wide)
    for name, sizes in (("merge_equal", (1_500, 2_500)), ("merge_mixed", (30, 2_000, 40_000))):
        merged_points = _points(sum(sizes), 5)
        starts = np.cumsum((0,) + sizes)
        parts = [
            RTree.bulk_load(merged_points[a:b], np.arange(a, b), max_entries=32)
            for a, b in zip(starts[:-1], starts[1:])
        ]
        out[name] = (RTree.merge(parts), merged_points)
    return out


def _digest(ids) -> str:
    return hashlib.sha256(np.asarray(ids, dtype="<i8").tobytes()).hexdigest()[:16]


def answers(tree, points: np.ndarray) -> list[str]:
    """Digests of the query mix asked of ``tree`` (in memory or a
    persisted index's facade), then of one batched radius query."""
    rs = np.random.RandomState(len(points) + 11)
    if len(points):
        anchors = points[rs.randint(0, len(points), N_ANCHORS)]
    else:
        anchors = np.array([[39.9, 116.4]] * N_ANCHORS)
    anchors[::4] += 0.003  # a quarter of the anchors off the points
    out = []
    for (lat, lon), kind in zip(anchors.tolist(), QUERY_MIX * N_ANCHORS):
        if kind == "point":
            ids = tree.query_rect(Rect(lat, lon, lat, lon))
        elif kind == "rect":
            ids = tree.query_rect(Rect(lat - 0.004, lon - 0.006, lat + 0.004, lon + 0.006))
        elif kind == "radius":
            ids = tree.query_radius(lat, lon, RADIUS_M)
        else:
            k = 8 if kind == "knn" else len(points) + 3
            ids = [i for i, _ in tree.knn(lat, lon, k)]
        out.append(_digest(ids))
    batch = tree.query_radius_batch(anchors, RADIUS_M)
    out.append(_digest(np.concatenate([[len(a)] for a in batch] + batch)))
    return out


def record_shape(tree: RTree, points: np.ndarray) -> dict:
    hdfs = SimulatedHDFS(paper_cluster(2), seed=0)
    index = PersistentRTree.save(hdfs, "idx", tree, group_bytes=16 * 1024)
    digest = hashlib.sha256()
    for chunk in hdfs.chunks("idx/pages"):
        for _, blob in chunk.records():
            digest.update(blob)
    return {
        "height": tree.height(),
        "len": len(tree),
        "n_pages": int(index.meta["n_pages"]),
        "pages_sha256": digest.hexdigest(),
        "memory": answers(tree, points),
        "persisted": answers(index.tree, points),
    }


def record() -> dict:
    """The JSON-safe record the golden holds."""
    return {name: record_shape(tree, points) for name, (tree, points) in shapes().items()}


if __name__ == "__main__":
    doc = record()
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(doc)} shapes")
