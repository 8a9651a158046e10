"""Regenerates ``golden_rtree_build.json`` (checked in next to this file).

The golden is what the Figure 6 build *produces*, bit for bit: for one
seeded 40,000-point corpus, every cell of ``{hilbert, zorder}`` x
``{unbudgeted, 1 MB budget}`` x ``{serial, processes}`` — the partition
boundaries as ``float.hex()``, the partition sizes, a SHA-256 of the
merged tree's page blobs as ``PersistentRTree.save`` writes them,
``n_pages``, both phases' simulated seconds and the chunk store's
page-in / page-out counts.  It was recorded from the commit *before*
``hilbert_key`` became a table-driven automaton and the driver stopped
concatenating the input to take its bounding box, so it pins what those
changes promised to keep: every curve key, hence every boundary and
partition, every page, every simulated second and every page-in.

The budgeted cells' ``pages_in`` / ``pages_out`` were re-recorded once,
when a phase-2 small tree became STR-packed arrays: a small tree's
pickle is its modelled record size, so the 1 MB store pages it
differently; every other field kept its bits.

A kernel change must never change this file.  Re-record it only for a
deliberate change of the curve, the sampling, the page format, the cost
model or a small tree's modelled size::

    PYTHONPATH=src python tests/index/make_build_golden.py

and say so in the change.  The corpus comes from ``RandomState`` (a
frozen stream).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.geo.trace import TraceArray
from repro.index.persistent import PersistentRTree
from repro.index.rtree_mr import build_rtree_mapreduce
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import fresh_runner

GOLDEN = Path(__file__).parent / "golden_rtree_build.json"

N_POINTS = 40_000
N_PARTITIONS = 6
CURVES = ("hilbert", "zorder")
BUDGETS_MB = (None, 1)
BACKENDS = ("serial", "processes")


def corpus() -> TraceArray:
    """Twelve city blobs of unequal weight, with exact duplicate rows."""
    rs = np.random.RandomState(26)
    centres = np.column_stack((rs.uniform(39.7, 40.2, 12), rs.uniform(116.1, 116.7, 12)))
    blob = rs.choice(12, N_POINTS, p=rs.dirichlet(np.ones(12)))
    lat = centres[blob, 0] + rs.normal(0.0, 0.01, N_POINTS)
    lon = centres[blob, 1] + rs.normal(0.0, 0.01, N_POINTS)
    lat[::40], lon[::40] = lat[1::40], lon[1::40]
    return TraceArray.from_columns(["u"], lat, lon, np.arange(N_POINTS, dtype=float))


def page_digest(tree) -> tuple[int, str]:
    """``(n_pages, SHA-256 of the page blobs in page order)`` of ``tree``
    saved to a fresh, unbudgeted deployment."""
    hdfs = SimulatedHDFS(paper_cluster(2), seed=0)
    index = PersistentRTree.save(hdfs, "idx", tree)
    digest = hashlib.sha256()
    for chunk in hdfs.chunks("idx/pages"):
        for _, blob in chunk.records():
            digest.update(blob)
    return int(index.meta["n_pages"]), digest.hexdigest()


def cell(array: TraceArray, curve: str, budget_mb, backend: str) -> dict:
    with fresh_runner(
        {"traces": array}, chunk_size=128 * 1024, n_workers=5, backend=backend,
        max_workers=2, budget_mb=budget_mb,
    ) as runner:
        result = build_rtree_mapreduce(runner, "traces", N_PARTITIONS, curve=curve)
        paging = runner.hdfs.spill_stats  # None without a budget
        pages_in, pages_out = (paging.pages_in, paging.pages_out) if paging else (0, 0)
    n_pages, pages_sha256 = page_digest(result.tree)
    return {
        "boundaries": [float(b).hex() for b in result.boundaries],
        "partition_sizes": {str(pid): size for pid, size in result.partition_sizes.items()},
        "n_pages": n_pages,
        "pages_sha256": pages_sha256,
        "phase1_sim_seconds": float(result.phase1_sim_seconds).hex(),
        "phase2_sim_seconds": float(result.phase2_sim_seconds).hex(),
        "pages_in": pages_in,
        "pages_out": pages_out,
    }


def cell_name(curve, budget_mb, backend) -> str:
    return f"{curve}/{'unbudgeted' if budget_mb is None else f'{budget_mb}MB'}/{backend}"


def record(backends=BACKENDS) -> dict:
    """The JSON-safe record the golden holds (for ``backends`` only)."""
    array = corpus()
    return {
        cell_name(c, mb, b): cell(array, c, mb, b)
        for c in CURVES for mb in BUDGETS_MB for b in backends
    }


if __name__ == "__main__":
    doc = record()
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(doc)} cells")
