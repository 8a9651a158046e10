"""Regenerates ``golden_radius_neighbourhoods.json`` (checked in next to this file).

The golden is every radius answer the index and DJ-Cluster give on four
corpora — a city, a sampled 12-user ``generate_dataset``, a cluster at
85° latitude and all-duplicate points — at radii 0, 1 m, 100 m, 150 m,
500 m and 5 km, each digested as the SHA-256 of its CSR form (the
concatenated ids, then the per-query counts, as little-endian int64):

* ``query_radius_batch`` and per-point ``query_radius``, on an in-memory
  tree and on a persisted tree served under a memory budget;
* ``self_join_csr`` with and without ``groups`` (the corpus' users);
* the cluster lists of ``djcluster_sequential`` and
  ``run_djcluster_mapreduce`` (positive radii only).

It was recorded from the commit *before* radius membership moved onto
unit vectors (Haversine settling only a band around the radius) and the
self-join's grid went 3-D, so it pins what that change promised to keep:
every neighbourhood, bit for bit.  No corpus here comes near ±180°
longitude; the seam pairs that change was built to find are checked
against brute force in ``tests/properties/test_sphere_band_properties.py``.

Re-record it only for a deliberate change of radius semantics::

    PYTHONPATH=src python -m tests.index.make_radius_golden

and say so in the change.  Inputs come from ``RandomState`` (a frozen
stream) and answers are digested as ids, not metres.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.algorithms.djcluster import (
    DJClusterParams,
    djcluster_sequential,
    run_djcluster_mapreduce,
)
from repro.algorithms.sampling import sample_array
from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.geo.trace import TraceArray
from repro.index.persistent import PersistentRTree
from repro.index.rtree import RTree
from repro.index.selfjoin import self_join_csr
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import fresh_runner

GOLDEN = Path(__file__).parent / "golden_radius_neighbourhoods.json"

RADII = (0.0, 1.0, 100.0, 150.0, 500.0, 5_000.0)
MAX_ENTRIES = 8
GROUP_BYTES = 4 * 1024
BUDGET_MB = 0.03
#: Every this-many-th corpus point is also asked one query at a time.
SINGLE_STRIDE = 5
MIN_PTS = 4


def corpora() -> dict[str, TraceArray]:
    """The four corpora as (user, time)-sorted trace arrays.  Traces of
    the synthetic three sit 10^5 s apart, so the speed filter keeps them."""
    rs = np.random.RandomState(35)
    city = np.column_stack((39.9 + rs.normal(0.0, 0.004, 400), 116.4 + rs.normal(0.0, 0.004, 400)))
    city[::40] = city[1::40]  # exact duplicates inside a spread corpus
    polar = np.column_stack((85.0 + rs.normal(0.0, 0.002, 300), 20.0 + rs.normal(0.0, 0.02, 300)))
    dups = np.tile([[47.3, -122.2]], (150, 1))
    dataset, _ = generate_dataset(SyntheticConfig(n_users=12, days=1, seed=7))
    out = {"users12": sample_array(dataset.flat().sort_by_time(), 300.0)}
    for name, points in (("city", city), ("lat85", polar), ("dups", dups)):
        n = len(points)
        users = [f"u{i % 4}" for i in range(n)]
        out[name] = TraceArray.from_columns(
            users, points[:, 0], points[:, 1], np.arange(n) * 1e5
        ).sort_by_time()
    return out


def _digest(ids, counts) -> str:
    h = hashlib.sha256(np.asarray(ids, dtype="<i8").tobytes())
    h.update(np.asarray(counts, dtype="<i8").tobytes())
    return h.hexdigest()


def _hoods(hoods) -> str:
    hoods = list(hoods)
    flat = np.concatenate(hoods) if hoods else np.empty(0)
    return _digest(flat, [len(h) for h in hoods])


def _persisted(points: np.ndarray):
    hdfs = SimulatedHDFS(
        paper_cluster(2), chunk_size=16 * 1024, seed=0, memory_budget_mb=BUDGET_MB
    )
    tree = RTree.bulk_load(points, max_entries=MAX_ENTRIES)
    return PersistentRTree.save(hdfs, "idx", tree, group_bytes=GROUP_BYTES)


def record() -> dict:
    """Every digest, keyed ``corpus/radius/answer``."""
    out: dict[str, str] = {}
    for name, array in corpora().items():
        points = array.coordinates()
        singles = points[::SINGLE_STRIDE]
        trees = {
            "memory": RTree.bulk_load(points, max_entries=MAX_ENTRIES),
            "persisted": _persisted(points),
        }
        for radius in RADII:
            cell = f"{name}/{radius:g}"
            for kind, tree in trees.items():
                out[f"{cell}/batch/{kind}"] = _hoods(tree.query_radius_batch(points, radius))
                out[f"{cell}/single/{kind}"] = _hoods(
                    tree.query_radius(lat, lon, radius) for lat, lon in singles.tolist()
                )
            out[f"{cell}/selfjoin"] = _digest(*self_join_csr(points, radius))
            grouped = self_join_csr(points, radius, array.user_index)
            out[f"{cell}/selfjoin_groups"] = _digest(*grouped)
            if radius == 0:
                continue  # DJ-Cluster's radius is positive
            params = DJClusterParams(radius_m=radius, min_pts=MIN_PTS)
            sequential = djcluster_sequential(array, params)
            out[f"{cell}/djcluster_sequential"] = _hoods(sequential.clusters)
            with fresh_runner({"input": array}, chunk_size=8 * 1024) as runner:
                mr = run_djcluster_mapreduce(runner, "input", params)
            out[f"{cell}/djcluster_mapreduce"] = _hoods(mr.clusters)
    return out


if __name__ == "__main__":
    golden = record()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(golden)} digests, {len(set(golden.values()))} distinct")
