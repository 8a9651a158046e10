"""Unit tests for the distributed cache."""

import numpy as np
import pytest

from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import JobSpec, Mapper
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.types import estimate_nbytes


class TestDistributedCache:
    def test_put_get(self):
        cache = DistributedCache()
        cache.replace("model", {"k": 3})
        assert cache.get("model") == {"k": 3}
        assert len(cache) == 1
        assert list(cache) == ["model"]

    def test_replace_overwrites(self):
        cache = DistributedCache()
        cache.replace("x", 1)
        cache.replace("x", 2)
        assert cache.get("x") == 2

    def test_missing_entry(self):
        with pytest.raises(KeyError):
            DistributedCache().get("ghost")

    def test_nbytes_counts_numpy(self):
        cache = DistributedCache()
        cache.replace("arr", np.zeros(100))
        assert cache.nbytes() == 800

    def test_an_entry_is_sized_once_as_it_is_stored(self, monkeypatch):
        from repro.mapreduce import cache as cache_module

        entries = {"index": {"nodes": list(range(50))}, "k": 3, "centroids": np.zeros((4, 2))}
        cache = DistributedCache()
        for name, value in entries.items():
            cache.replace(name, value)
        cache.replace("index", {"nodes": list(range(80))})
        entries["index"] = {"nodes": list(range(80))}
        expected = sum(estimate_nbytes(v) for v in entries.values())

        sized = []
        real = cache_module.estimate_nbytes
        monkeypatch.setattr(
            cache_module, "estimate_nbytes", lambda v: sized.append(v) or real(v)
        )
        assert cache.nbytes() == cache.nbytes() == expected
        assert cache.copy().nbytes() == expected
        assert sized == []
        rebuilt = DistributedCache.from_snapshot(cache.snapshot())
        assert rebuilt.nbytes() == rebuilt.nbytes() == expected
        assert len(sized) == len(entries)

    def test_a_caller_may_give_the_size(self):
        cache = DistributedCache()
        cache.replace("table", {"rows": [1, 2, 3]}, nbytes=24)
        cache.replace("arr", np.zeros(10))
        assert cache.nbytes() == 24 + 80


class TestCacheVisibleToTasks:
    def test_mapper_reads_cache_in_setup(self):
        hdfs = SimulatedHDFS(paper_cluster(3), chunk_size=64, seed=0)
        hdfs.put_records("in", [(i, i) for i in range(8)], record_bytes=16)
        runner = JobRunner(hdfs)
        runner.cache.replace("offset", 100)

        class OffsetMapper(Mapper):
            def setup(self, ctx):
                self.offset = ctx.cache.get("offset")

            def map(self, key, value, ctx):
                ctx.emit(key, value + self.offset)

        runner.run(JobSpec("j", OffsetMapper, ["in"], "out"))
        out = dict(hdfs.read_records("out"))
        assert out == {i: i + 100 for i in range(8)}

    def test_cache_broadcast_charged_in_setup_time(self):
        hdfs = SimulatedHDFS(paper_cluster(3), chunk_size=64, seed=0)
        hdfs.put_records("in", [(0, 0)], record_bytes=16)

        class Echo(Mapper):
            def map(self, key, value, ctx):
                ctx.emit(key, value)

        bare = JobRunner(hdfs)
        r1 = bare.run(JobSpec("j", Echo, ["in"], "o1"))
        heavy = JobRunner(hdfs)
        heavy.cache.replace("big", np.zeros(10_000_000))  # 80 MB side data
        r2 = heavy.run(JobSpec("j", Echo, ["in"], "o2"))
        assert r2.timing.setup_s > r1.timing.setup_s
