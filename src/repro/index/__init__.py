"""Spatial indexing substrate: R-trees and space-filling curves.

DJ-Cluster's neighborhood phase (Section VII-B) relies on an R-tree so
that finding the neighbors of a point costs ``O(log n)``; the index over
the whole dataset is itself built with MapReduce (Section VII-C, Figure 6)
using a space-filling curve (Z-order or Hilbert) as the locality-preserving
partitioning function.
"""

from repro.index.spacefilling import (
    zorder_key,
    get_curve,
    CURVES,
    normalize_to_grid,
)
from repro.index.rtree import RTree, Rect
from repro.index.rtree_mr import build_rtree_mapreduce, RTreeBuildResult
from repro.index.persistent import (
    IndexCatalog,
    IndexCorruptError,
    PersistentRTree,
    PortableIndex,
    QueryEngine,
)
from repro.index.selfjoin import radius_self_join

__all__ = [
    "radius_self_join",
    "zorder_key",
    "get_curve",
    "CURVES",
    "normalize_to_grid",
    "RTree",
    "Rect",
    "build_rtree_mapreduce",
    "RTreeBuildResult",
    "IndexCatalog",
    "IndexCorruptError",
    "PersistentRTree",
    "PortableIndex",
    "QueryEngine",
]
