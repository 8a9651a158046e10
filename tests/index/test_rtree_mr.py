"""Tests for the 3-phase MapReduce R-tree construction (Figure 6)."""

import numpy as np
import pytest

from repro.geo.distance import haversine_m
from repro.geo.trace import TraceArray
from repro.index.rtree_mr import _dataset_bounds, build_rtree_mapreduce
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.spill import PayloadStore

from tests.conftest import city_points, count_calls


@pytest.fixture()
def env():
    pts = city_points(5000, seed=21)
    arr = TraceArray.from_columns(
        ["u"], pts[:, 0], pts[:, 1], np.arange(len(pts), dtype=float)
    )
    hdfs = SimulatedHDFS(paper_cluster(5), chunk_size=64 * 1000, seed=0)  # ~1000/chunk
    hdfs.put_trace_array("traces", arr)
    return pts, JobRunner(hdfs)


class TestBuild:
    @pytest.mark.parametrize("curve", ["zorder", "hilbert"])
    def test_tree_indexes_every_point_once(self, env, curve):
        pts, runner = env
        res = build_rtree_mapreduce(runner, "traces", n_partitions=6, curve=curve, workdir=f"w/{curve}")
        assert len(res.tree) == len(pts)
        ids = sorted(i for i, _, _ in res.tree.iter_entries())
        assert ids == list(range(len(pts)))

    def test_queries_match_brute_force(self, env):
        pts, runner = env
        res = build_rtree_mapreduce(runner, "traces", n_partitions=4)
        got = set(res.tree.query_radius(39.9, 116.4, 2000.0).tolist())
        d = np.asarray(haversine_m(39.9, 116.4, pts[:, 0], pts[:, 1]))
        assert got == set(np.flatnonzero(d <= 2000.0).tolist())

    def test_partitions_are_balanced(self, env):
        pts, runner = env
        res = build_rtree_mapreduce(runner, "traces", n_partitions=8)
        assert len(res.partition_sizes) == 8
        assert sum(res.partition_sizes.values()) == len(pts)
        # Quantile boundaries keep partitions near-equal.
        assert res.balance_ratio < 1.5

    def test_boundaries_sorted(self, env):
        _, runner = env
        res = build_rtree_mapreduce(runner, "traces", n_partitions=5)
        assert len(res.boundaries) == 4
        assert np.all(np.diff(res.boundaries) >= 0)

    def test_phase_timings_reported(self, env):
        _, runner = env
        res = build_rtree_mapreduce(runner, "traces", n_partitions=4)
        assert res.phase1_sim_seconds > 0
        assert res.phase2_sim_seconds > 0
        assert res.sim_seconds == pytest.approx(
            res.phase1_sim_seconds + res.phase2_sim_seconds
        )

    def test_single_partition(self, env):
        pts, runner = env
        res = build_rtree_mapreduce(runner, "traces", n_partitions=1)
        assert len(res.tree) == len(pts)
        assert len(res.boundaries) == 0

    def test_invalid_inputs(self, env):
        _, runner = env
        with pytest.raises(ValueError):
            build_rtree_mapreduce(runner, "traces", n_partitions=0)
        with pytest.raises(KeyError):
            build_rtree_mapreduce(runner, "traces", n_partitions=2, curve="peano")

    def test_empty_input(self):
        hdfs = SimulatedHDFS(paper_cluster(3), seed=0)
        hdfs.put_trace_array("empty", TraceArray.empty())
        runner = JobRunner(hdfs)
        res = build_rtree_mapreduce(runner, "empty", n_partitions=4)
        assert len(res.tree) == 0

    def test_deterministic_across_runs(self, env):
        _, runner = env
        a = build_rtree_mapreduce(runner, "traces", n_partitions=4, workdir="w/a")
        b = build_rtree_mapreduce(runner, "traces", n_partitions=4, workdir="w/b")
        assert np.array_equal(a.boundaries, b.boundaries)
        assert a.partition_sizes == b.partition_sizes


class TestDatasetBounds:
    @staticmethod
    def _budgeted():
        pts = city_points(20_000, seed=3, spread=0.2)
        hdfs = SimulatedHDFS(
            paper_cluster(3), chunk_size=32 * 1024, seed=0, memory_budget_mb=0.25
        )
        hdfs.put_trace_array(
            "traces", TraceArray.from_columns(["u"], pts[:, 0], pts[:, 1], np.arange(20_000.0))
        )
        return hdfs

    def test_fold_equals_the_concatenated_read_and_pages_alike(self, monkeypatch):
        """Chunk by chunk, the driver gets the four floats one whole-file
        read gave, touching the chunk store with the same gets in the same
        order, so the same page-ins."""
        gets = count_calls(monkeypatch, PayloadStore, "get")
        whole, folded = self._budgeted(), self._budgeted()
        want = whole.read_trace_array("traces").bounding_box()
        whole_gets, whole_pages_in = [args[1] for args in gets], whole.spill_stats.pages_in
        gets.clear()
        got = _dataset_bounds(folded, "traces")
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
        assert [args[1] for args in gets] == whole_gets
        assert folded.spill_stats.pages_in == whole_pages_in > 0
        assert len(whole_gets) == len(folded.chunks("traces")) > 5

    def test_empty_file_has_no_bounds(self):
        hdfs = SimulatedHDFS(paper_cluster(3), seed=0)
        hdfs.put_trace_array("empty", TraceArray.empty())
        assert _dataset_bounds(hdfs, "empty") is None
