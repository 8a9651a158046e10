"""The R-tree goldens.

``golden_rtree_build.json`` is what the Figure 6 build *produces*: for one
seeded 40,000-point corpus, every cell of ``{hilbert, zorder}`` x
``{unbudgeted, 1 MB budget}`` x ``{serial, processes}`` — the partition
boundaries as ``float.hex()``, the partition sizes, a SHA-256 of the
merged tree's page blobs, ``n_pages``, both phases' simulated seconds and
the chunk store's page-in / page-out counts.  Recorded on the commit
before ``hilbert_key`` became a table-driven automaton and the driver
stopped concatenating the input for its bounding box.  The budgeted
cells' paging counts were re-recorded once, when a phase-2 small tree
became STR-packed arrays (its pickle is its modelled record size).

``golden_packed_shapes.json`` pins what a tree *is* on the shapes that
build never reaches: empty, one leaf, a partial last leaf and STR slab,
all points equal, fanouts 2 and 64, merges of equal and of mixed heights.
Per shape: the page blobs' SHA-256, ``n_pages``, ``height()``, ``len()``
and digests of a fixed point / rectangle / radius / kNN / batched-radius
mix, asked in memory and of the persisted tree.  Recorded on the commit
before the tree became STR-packed arrays (kNN tie order included).

``golden_radius_neighbourhoods.json`` is every radius answer of the index
and of DJ-Cluster on four corpora (a city, a sampled 12-user
``generate_dataset``, a cluster at 85° latitude, all-duplicate points) at
radii 0, 1 m, 100 m, 150 m, 500 m and 5 km, each the SHA-256 of its CSR
form: batch and per-point R-tree queries in memory and on budgeted pages,
``self_join_csr`` with and without groups, and both DJ-Clusters.
Recorded on the commit before radius membership moved onto unit vectors
and the self-join grid went 3-D.  No corpus comes near ±180°; the seam
pairs are checked against brute force in
``tests/properties/test_sphere_band_properties.py``.

Answers are digested as ids, not metres, so no record here depends on
the NumPy version or the CPU's SIMD level.
"""

from __future__ import annotations

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
from repro.index.rtree import Rect, RTree
from repro.index.rtree_mr import build_rtree_mapreduce
from repro.index.selfjoin import self_join_csr
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import fresh_runner
from tests.goldens import dump, ids_sha, sha256


def page_digest(tree, **save) -> tuple[int, str, PersistentRTree]:
    """``(n_pages, SHA-256 of the page blobs in page order, the index)`` of
    ``tree`` saved to a fresh, unbudgeted deployment.  A page group's
    buffer is its blobs end to end, so hashing the buffers in order hashes
    the blobs in order."""
    hdfs = SimulatedHDFS(paper_cluster(2), seed=0)
    index = PersistentRTree.save(hdfs, "idx", tree, **save)
    buffers = [blocks for chunk in hdfs.chunks("idx/pages") for _, (blocks, _) in chunk.records()]
    return int(index.meta["n_pages"]), sha256(*buffers), index


# -- the Figure 6 build ------------------------------------------------------------

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


def build_cell(array: TraceArray, curve: str, budget_mb, backend: str) -> dict:
    with fresh_runner(
        {"traces": array}, chunk_size=128 * 1024, n_workers=5, backend=backend,
        max_workers=2, budget_mb=budget_mb,
    ) as runner:
        result = build_rtree_mapreduce(runner, "traces", N_PARTITIONS, curve=curve)
        paging = runner.hdfs.spill_stats  # None without a budget
        pages_in, pages_out = (paging.pages_in, paging.pages_out) if paging else (0, 0)
    n_pages, pages_sha256, _ = page_digest(result.tree)
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


def build_rtree() -> str:
    array = corpus()
    return dump({
        cell_name(c, mb, b): build_cell(array, c, mb, b)
        for c in CURVES for mb in BUDGETS_MB for b in BACKENDS
    })


# -- packed shapes ---------------------------------------------------------------

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
        out.append(ids_sha(ids))
    batch = tree.query_radius_batch(anchors, RADIUS_M)
    out.append(ids_sha(np.concatenate([[len(a)] for a in batch] + batch)))
    return out


def record_shape(tree: RTree, points: np.ndarray) -> dict:
    n_pages, pages_sha256, index = page_digest(tree, group_bytes=16 * 1024)
    return {
        "height": tree.height(),
        "len": len(tree),
        "n_pages": n_pages,
        "pages_sha256": pages_sha256,
        "memory": answers(tree, points),
        "persisted": answers(index.tree, points),
    }


def build_packed_shapes() -> str:
    return dump({name: record_shape(tree, points) for name, (tree, points) in shapes().items()})


# -- radius neighbourhoods ----------------------------------------------------------

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


def _csr_sha(ids, counts) -> str:
    return sha256(np.asarray(ids, dtype="<i8"), np.asarray(counts, dtype="<i8"))


def _hoods(hoods) -> str:
    hoods = list(hoods)
    flat = np.concatenate(hoods) if hoods else np.empty(0)
    return _csr_sha(flat, [len(h) for h in hoods])


def _persisted(points: np.ndarray):
    hdfs = SimulatedHDFS(
        paper_cluster(2), chunk_size=16 * 1024, seed=0, memory_budget_mb=BUDGET_MB
    )
    tree = RTree.bulk_load(points, max_entries=MAX_ENTRIES)
    return PersistentRTree.save(hdfs, "idx", tree, group_bytes=GROUP_BYTES)


def build_radius() -> str:
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
            out[f"{cell}/selfjoin"] = _csr_sha(*self_join_csr(points, radius))
            grouped = self_join_csr(points, radius, array.user_index)
            out[f"{cell}/selfjoin_groups"] = _csr_sha(*grouped)
            if radius == 0:
                continue  # DJ-Cluster's radius is positive
            params = DJClusterParams(radius_m=radius, min_pts=MIN_PTS)
            sequential = djcluster_sequential(array, params)
            out[f"{cell}/djcluster_sequential"] = _hoods(sequential.clusters)
            with fresh_runner({"input": array}, chunk_size=8 * 1024) as runner:
                mr = run_djcluster_mapreduce(runner, "input", params)
            out[f"{cell}/djcluster_mapreduce"] = _hoods(mr.clusters)
    return dump(out)
