"""Figure 6's claims, gated at reduced scale.

``benchmarks/test_fig6_rtree_build.py`` reproduces Figure 6 on the
paper-sized corpus (~84k points after Table I's 60 s sampling) and
writes ``benchmarks/results/fig6_*.txt``; it sits outside ``testpaths``.
This is its quarter-scale twin: the same generator and seed with 45
users instead of 178, the same sampling and the same eight-partition
build, with 256 KB chunks so every map task still samples 1,024 of its
~4,000 points.
It pins the *rankings* the paper argues from, not the numbers:

* the Hilbert curve keeps equal-size partitions spatially tighter than
  Z-order (mean partition MBR area no larger);
* quantile boundaries over the sampled curve scalars balance the
  partitions for both curves (max/mean below 1.3);
* the merged index answers radius queries exactly like one R-tree
  bulk-loaded in a single process.
"""

import numpy as np
import pytest

from repro.algorithms.sampling import sample_array
from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.index.rtree import RTree
from repro.index.rtree_mr import build_rtree_mapreduce
from repro.index.spacefilling import hilbert_key, zorder_key
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import JobRunner

CURVES = ("zorder", "hilbert")


@pytest.fixture(scope="module")
def indexed_corpus():
    dataset, _ = generate_dataset(SyntheticConfig(n_users=45, days=1, seed=128))
    return sample_array(dataset.sort_by_time(), 60.0)


@pytest.fixture(scope="module")
def builds(indexed_corpus):
    out = {}
    for curve in CURVES:
        hdfs = SimulatedHDFS(paper_cluster(5), chunk_size=256 * 1024, seed=0)
        hdfs.put_trace_array("in", indexed_corpus)
        out[curve] = build_rtree_mapreduce(
            JobRunner(hdfs), "in", n_partitions=8, curve=curve, workdir=f"rt/{curve}"
        )
    return out


def _mean_partition_area(curve_fn, points: np.ndarray) -> float:
    """Mean MBR area (deg²) of 16 equal-size runs of the curve order —
    the locality ablation of ``benchmarks/test_fig6_rtree_build.py``."""
    bounds = (*points.min(axis=0), *points.max(axis=0))
    order = np.argsort(curve_fn(points[:, 0], points[:, 1], bounds, 16))
    return float(np.mean([
        np.ptp(points[part, 0]) * np.ptp(points[part, 1])
        for part in np.array_split(order, 16)
    ]))


def test_hilbert_partitions_are_no_larger_than_zorder(indexed_corpus):
    points = indexed_corpus.coordinates()
    assert len(points) > 20_000
    hilbert = _mean_partition_area(hilbert_key, points)
    zorder = _mean_partition_area(zorder_key, points)
    assert hilbert <= zorder, f"hilbert {hilbert:.6f} vs zorder {zorder:.6f} deg²"


def test_both_curves_balance_the_partitions(builds, indexed_corpus):
    for curve, result in builds.items():
        assert len(result.partition_sizes) == 8
        assert sum(result.partition_sizes.values()) == len(indexed_corpus)
        assert result.balance_ratio < 1.3, f"{curve}: {result.balance_ratio:.3f}"


def test_merged_tree_answers_like_a_local_bulk_load(builds, indexed_corpus):
    points = indexed_corpus.coordinates()
    local = RTree.bulk_load(points)
    queries = np.vstack((points[::50], [[39.9042, 116.4074]]))
    for radius in (200.0, 2000.0):
        want = local.query_radius_batch(queries, radius)
        assert sum(len(hood) for hood in want) > len(queries)
        for curve, result in builds.items():
            got = result.tree.query_radius_batch(queries, radius)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), (curve, radius)
