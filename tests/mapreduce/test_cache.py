"""Unit tests for the distributed cache."""

import numpy as np
import pytest

from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.job import JobSpec, Mapper
from repro.mapreduce.runner import JobRunner


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
