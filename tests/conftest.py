"""Shared fixtures: small synthetic corpora and simulated deployments."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.geo.trace import TraceArray
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import JobRunner


@pytest.fixture(scope="session")
def small_corpus():
    """A small deterministic synthetic corpus (4 users, 2 days)."""
    cfg = SyntheticConfig(n_users=4, days=2, seed=42)
    dataset, users = generate_dataset(cfg)
    return dataset, users


@pytest.fixture(scope="session")
def small_array(small_corpus) -> TraceArray:
    dataset, _ = small_corpus
    return dataset.flat().sort_by_time()


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
