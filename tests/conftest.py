"""Shared fixtures: small synthetic corpora and simulated deployments."""

from __future__ import annotations

import math
import types
import typing
from dataclasses import MISSING
from typing import Any, Sequence

import numpy as np
import pytest

from repro.geo.distance import haversine_m
from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.geo.trace import TraceArray
from repro.index.rtree import Rect
from repro.index.spacefilling import DEFAULT_ORDER, normalize_to_grid
from repro.mapreduce.aggregation import Aggregation
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.failures import Fault, FaultKind
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import ReduceContext, Reducer
from repro.mapreduce.runner import JobRunner
from repro.observability.events import PAYLOADS, Payload


@pytest.fixture(scope="session")
def small_corpus():
    """A small deterministic synthetic corpus (4 users, 2 days)."""
    cfg = SyntheticConfig(n_users=4, days=2, seed=42)
    dataset, users = generate_dataset(cfg)
    return dataset, users


@pytest.fixture(scope="session")
def small_array(small_corpus) -> TraceArray:
    dataset, _ = small_corpus
    return dataset.sort_by_time()


@pytest.fixture()
def cluster():
    return paper_cluster(n_workers=5)


@pytest.fixture()
def hdfs(cluster) -> SimulatedHDFS:
    return SimulatedHDFS(cluster, chunk_size=256 * 1024, seed=1)


@pytest.fixture()
def runner(hdfs) -> JobRunner:
    return JobRunner(hdfs)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


def city_points(n: int, seed: int = 0, spread: float = 0.05) -> np.ndarray:
    """Random (lat, lon) points around Beijing, for index tests."""
    gen = np.random.default_rng(seed)
    return np.column_stack(
        [39.9 + gen.normal(0, spread, n), 116.4 + gen.normal(0, spread, n)]
    )


def count_calls(monkeypatch, owner, name: str) -> list[tuple]:
    """Wrap ``owner.name`` for the test's duration; returns the list that
    collects each call's positional arguments (count-based cost tests)."""
    calls: list[tuple] = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def crash_faults(task: str, attempts: int = 1) -> tuple[Fault, ...]:
    """Scripted crashes of ``task``'s first ``attempts`` attempts, for a
    :class:`ChaosSchedule`'s ``faults``."""
    return tuple(
        Fault(FaultKind.TASK_CRASH, task=task, attempt=attempt)
        for attempt in range(1, attempts + 1)
    )


def payload(kind: str, driver: str | None = None, **values: Any) -> Payload:
    """A ``kind`` payload (the ``driver`` one, or the kind's first class):
    ``values``, and the zero of its type for every other required field."""
    classes = PAYLOADS[kind]
    return _filled(classes[driver] if driver else next(iter(classes.values())), values)


def _filled(cls: type[Payload], values: dict[str, Any]) -> Payload:
    hints = typing.get_type_hints(cls)
    for name, default in cls._fields:
        if default is MISSING and name not in values:
            tp = typing.get_origin(hints[name]) or hints[name]
            values[name] = (
                None if tp in (typing.Union, types.UnionType)
                else _filled(tp, {}) if issubclass(tp, Payload)
                else tp()
            )
    return cls(**values)


def seal_all(batcher, source) -> list:
    """Seal every window of a stream source, in order."""
    return [batcher.close_window(source, w) for w in range(source.n_windows)]


def check_invariants(tree) -> None:
    """Validate an R-tree's MBR containment, its child-MBR rows and
    leaf-depth uniformity at ``tree.height()``; in memory or on pages."""
    if tree._root is None:
        return
    depths: set[int] = set()

    def visit(handle, depth: int) -> Rect:
        node = tree._resolve(handle)
        mbr = Rect(*node.mbr.tolist())
        if node.is_leaf:
            depths.add(depth)
            assert mbr == Rect(*node.points.min(axis=0), *node.points.max(axis=0))
            return mbr
        mbrs = [visit(child, depth + 1) for child in node.children]
        assert np.array_equal(
            node.child_mbrs, [m.as_array() for m in mbrs]
        ), "child MBR rows do not match the children"
        union = mbrs[0]
        for other in mbrs[1:]:
            union = union.union(other)
        assert mbr == union, "internal MBR does not cover children"
        return mbr

    visit(tree._root, 0)
    assert depths == {tree.height() - 1}, (
        f"leaves at depths {depths} in a tree of height {tree.height()}"
    )


class CountAggregation(Aggregation):
    """Sum of integer values per key — an exactly associative monoid, the
    tests' example of a declared reduce.

    The vectorized form runs ``np.add.reduceat`` over the columnar
    int64 key/value layout: one stable argsort groups the keys, one
    reduceat produces every per-key partial sum.  Integer addition is
    exact, so the fast path is bit-identical to the object loop and the
    result is invariant under any merge tree.
    """

    #: key int64 + count int64, packed.
    envelope_nbytes = 16

    def lift(self, key: Any, value: Any) -> int:
        return int(value)

    def merge(self, acc: int, partial: int) -> int:
        return acc + partial

    def finalize(self, key: Any, acc: int, ctx: ReduceContext) -> None:
        ctx.emit(key, int(acc))

    def lift_pairs(
        self, pairs: Sequence[tuple[Any, Any]]
    ) -> list[tuple[Any, Any]] | None:
        if not pairs:
            return []
        if not all(
            type(k) is int and type(v) is int for k, v in pairs
        ):
            return None
        keys = np.fromiter((k for k, _ in pairs), dtype=np.int64, count=len(pairs))
        values = np.fromiter((v for _, v in pairs), dtype=np.int64, count=len(pairs))
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        bounds = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        sums = np.add.reduceat(values[order], starts)
        return [
            (int(k), int(s))
            for k, s in zip(sorted_keys[starts].tolist(), sums.tolist())
        ]


class CountSumReducer(Reducer):
    """A plain integer sum per key: the test oracle for
    :class:`CountAggregation` jobs.  A
    reference ``JobSpec`` declares this reducer and *no* aggregation, so
    its raw records cross the ordinary shuffle."""

    def reduce(self, key, values, ctx) -> None:
        ctx.emit(key, int(sum(int(v) for v in values)))


class UnionFind:
    """Dict-based disjoint sets over trace ids: the test oracle for
    DJ-Cluster's array merge kernel (the implementation it replaced)."""

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self._parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra

    def components(self) -> list[np.ndarray]:
        groups: dict[int, list[int]] = {}
        for x in self._parent:
            groups.setdefault(self.find(x), []).append(x)
        return [np.sort(np.array(ids, dtype=np.int64)) for ids in groups.values()]


def merge_neighborhoods_oracle(neighborhoods) -> list[np.ndarray]:
    """Reference ``_merge_neighborhoods``: one union per (first, other)
    pair of every hood; clusters ascending, ordered by (first id, len)."""
    uf = UnionFind()
    for hood in neighborhoods:
        if len(hood) == 0:
            continue
        first = int(hood[0])
        uf.find(first)
        for other in hood[1:]:
            uf.union(first, int(other))
    return sorted(uf.components(), key=lambda ids: (int(ids[0]), len(ids)))


def radius_self_join_oracle(points: np.ndarray, radius_m: float) -> list[np.ndarray]:
    """Reference ``radius_self_join`` without groups: the per-cell grid
    join it replaced — a dict of cells, one broadcast Haversine per cell
    against its 3x3 neighbourhood, one ``np.sort`` per point."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n == 0:
        return []
    if radius_m == 0:
        _, inverse = np.unique(points, axis=0, return_inverse=True)
        inverse = inverse.reshape(n)
        return [np.flatnonzero(inverse == inverse[i]) for i in range(n)]
    lat, lon = points[:, 0], points[:, 1]
    bucket_m = max(radius_m, 1e-3)
    lat_band = np.floor(lat / (bucket_m / 111_000.0)).astype(np.int64)
    min_cos = max(float(np.min(np.cos(np.radians(lat)))), 1e-9)
    lon_band = np.floor(lon / (bucket_m / (111_000.0 * min_cos))).astype(np.int64)
    cells: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        cells.setdefault((int(lat_band[i]), int(lon_band[i])), []).append(i)
    neighborhoods: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    for (clat, clon), members in cells.items():
        cand = np.array(
            [
                j
                for dl in (-1, 0, 1)
                for dc in (-1, 0, 1)
                for j in cells.get((clat + dl, clon + dc), ())
            ],
            dtype=np.int64,
        )
        close = np.atleast_2d(
            haversine_m(
                lat[members][:, None], lon[members][:, None],
                lat[cand][None, :], lon[cand][None, :],
            )
        ) <= radius_m
        for row, point_id in enumerate(members):
            neighborhoods[point_id] = np.sort(cand[close[row]])
    return neighborhoods


def radius_brute_force(points: np.ndarray, radius_m: float) -> list[np.ndarray]:
    """Reference radius neighbourhoods from every pair: row *i*'s ids with
    ``haversine_m <= radius_m``, one full Haversine row per point.  At
    radius 0 the index's rule instead: identical coordinates only."""
    points = np.asarray(points, dtype=np.float64)
    lat, lon = points[:, 0], points[:, 1]
    if radius_m == 0:
        return [np.flatnonzero((lat == a) & (lon == b)) for a, b in points.tolist()]
    return [
        np.flatnonzero(haversine_m(a, b, lat, lon) <= radius_m) for a, b in points.tolist()
    ]


def hilbert_key_oracle(x, y, bounds, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Reference ``hilbert_key``: the classic ``xy2d`` rotate-and-fold the
    table-driven automaton replaced, one whole-array pass per curve level."""
    gx, gy = normalize_to_grid(x, y, bounds, order)
    d = np.zeros_like(gx)
    s = np.uint64(1 << (order - 1))
    n = np.uint64(1 << order)
    one = np.uint64(1)
    zero = np.uint64(0)
    while s > 0:
        rx = np.where((gx & s) > 0, one, zero)
        ry = np.where((gy & s) > 0, one, zero)
        d += s * s * ((np.uint64(3) * rx) ^ ry)
        # Rotate the quadrant so the curve stays continuous; the forward
        # transform reflects within the full n x n grid.
        swap = ry == 0
        flip = swap & (rx == 1)
        gx_f = np.where(flip, n - one - gx, gx)
        gy_f = np.where(flip, n - one - gy, gy)
        gx, gy = np.where(swap, gy_f, gx_f), np.where(swap, gx_f, gy_f)
        s = np.uint64(int(s) >> 1)
    return d


def hilbert_xy_from_key_oracle(d, order: int = DEFAULT_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Inverse Hilbert mapping (``d2xy``): the grid cell of each key."""
    t = np.asarray(d, dtype=np.uint64).copy()
    gx = np.zeros_like(t)
    gy = np.zeros_like(t)
    one = np.uint64(1)
    s = np.uint64(1)
    top = np.uint64(1 << order)
    while s < top:
        rx = (t // np.uint64(2)) & one
        ry = (t ^ rx) & one
        swap = ry == 0
        flip = swap & (rx == 1)
        gx_f = np.where(flip, s - one - gx, gx)
        gy_f = np.where(flip, s - one - gy, gy)
        gx = np.where(swap, gy_f, gx_f) + s * rx
        gy = np.where(swap, gx_f, gy_f) + s * ry
        t = t // np.uint64(4)
        s = np.uint64(int(s) << 1)
    return gx, gy


def radius_rect_oracle(lat: float, lon: float, radius_m: float) -> tuple[float, ...]:
    """Reference pruning rectangle ``(min_lat, min_lon, max_lat, max_lon)``
    of one radius query, in ``math``-module scalars: the per-query helper
    the array form replaced."""
    pad = 1e-12 if radius_m > 0 else 0.0
    dlat = radius_m / 111_000.0 + pad
    min_lat = max(lat - dlat, -90.0)
    max_lat = min(lat + dlat, 90.0)
    if lat - dlat <= -90.0 or lat + dlat >= 90.0:
        return (min_lat, -180.0, max_lat, 180.0)
    cos_band = max(
        min(math.cos(math.radians(min_lat)), math.cos(math.radians(max_lat))), 1e-9
    )
    dlon = radius_m / (111_000.0 * cos_band) + pad
    return (min_lat, max(lon - dlon, -180.0), max_lat, min(lon + dlon, 180.0))
