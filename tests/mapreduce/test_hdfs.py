"""Unit tests for the simulated HDFS."""

import numpy as np
import pytest

from repro.geo.trace import TraceArray
from repro.mapreduce.cluster import ClusterSpec, Node, paper_cluster
from repro.mapreduce.hdfs import MB, SimulatedHDFS


def _traces(n):
    return TraceArray.from_columns(
        ["u"], 39.9 + np.arange(n) * 1e-5, np.full(n, 116.4), np.arange(n, dtype=float)
    )


class TestChunking:
    def test_records_chunked_by_modelled_bytes(self):
        hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=100)
        hdfs.put_records("f", [(i, i) for i in range(20)], record_bytes=16)
        chunks = hdfs.chunks("f")
        # 100 // 16 -> 6 records per chunk, 20 records -> 4 chunks
        assert len(chunks) == 4
        assert sum(c.n_records for c in chunks) == 20

    def test_trace_array_chunking_matches_record_model(self):
        hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=64 * MB)
        arr = _traces(100)
        hdfs.put_trace_array("t", arr, record_bytes=64)
        # 64 MB / 64 B = 1M records per chunk; 100 records -> 1 chunk.
        assert len(hdfs.chunks("t")) == 1
        hdfs2 = SimulatedHDFS(paper_cluster(4), chunk_size=64 * 40)
        hdfs2.put_trace_array("t", arr, record_bytes=64)
        assert len(hdfs2.chunks("t")) == 3  # 40 + 40 + 20

    def test_array_offsets_are_cumulative(self):
        hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=64 * 10)
        hdfs.put_trace_array("t", _traces(25), record_bytes=64)
        offsets = [c.payload.offset for c in hdfs.chunks("t")]
        assert offsets == [0, 10, 20]

    def test_read_trace_array_roundtrip(self):
        hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=64 * 7)
        arr = _traces(30)
        hdfs.put_trace_array("t", arr)
        back = hdfs.read_trace_array("t")
        assert len(back) == 30
        assert np.allclose(back.timestamp, arr.timestamp)

    def test_file_accounting(self):
        hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=64 * 10)
        hdfs.put_trace_array("t", _traces(25), record_bytes=64)
        assert hdfs.file_records("t") == 25
        assert hdfs.file_nbytes("t") == 25 * 64

    def test_empty_array_file(self):
        hdfs = SimulatedHDFS(paper_cluster(4))
        hdfs.put_trace_array("t", TraceArray.empty())
        assert hdfs.file_records("t") == 0
        assert len(hdfs.read_trace_array("t")) == 0


class TestSingleChunkRead:
    """``chunk(path, i)`` is ``chunks(path)[i]`` without listing the file."""

    def _file(self, **kwargs):
        hdfs = SimulatedHDFS(paper_cluster(6), chunk_size=100, seed=2, **kwargs)
        hdfs.put_records("f", [(i, i) for i in range(20)], record_bytes=16)
        return hdfs

    @pytest.mark.parametrize("budget", [None, 0.001])
    def test_equals_the_listing_entry(self, budget):
        hdfs = self._file(memory_budget_mb=budget)
        listing = hdfs.chunks("f")
        hdfs.kill_datanode(listing[1].replicas[0])
        listing = hdfs.chunks("f")
        for i, want in enumerate(listing):
            got = hdfs.chunk("f", i)
            assert (got.chunk_id, got.replicas) == (want.chunk_id, want.replicas)
            assert list(got.records()) == list(want.records())

    @pytest.mark.parametrize("ordinal", [-1, 4, 99])
    def test_out_of_range_ordinal(self, ordinal):
        with pytest.raises(IndexError, match="no chunk"):
            self._file().chunk("f", ordinal)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            self._file().chunk("nope", 0)

    def test_only_the_chunk_read_must_be_alive(self):
        hdfs = self._file(replication=1)
        dead = hdfs.chunks("f")[2].replicas[0]
        survivors = [
            i for i, c in enumerate(hdfs.chunks("f")) if dead not in c.replicas
        ]
        hdfs.kill_datanode(dead)
        with pytest.raises(IOError, match="lost all replicas"):
            hdfs.chunk("f", 2)
        with pytest.raises(IOError, match="lost all replicas"):
            hdfs.chunks("f")
        assert survivors
        for i in survivors:
            assert hdfs.chunk("f", i).n_records > 0


class TestNamespace:
    def test_no_clobber(self):
        hdfs = SimulatedHDFS(paper_cluster(4))
        hdfs.put_records("f", [(1, 1)])
        with pytest.raises(FileExistsError):
            hdfs.put_records("f", [(2, 2)])

    def test_missing_file(self):
        hdfs = SimulatedHDFS(paper_cluster(4))
        with pytest.raises(FileNotFoundError):
            hdfs.chunks("ghost")
        with pytest.raises(FileNotFoundError):
            hdfs.delete("ghost")
        hdfs.delete("ghost", missing_ok=True)  # no raise

    def test_ls_and_exists(self):
        hdfs = SimulatedHDFS(paper_cluster(4))
        hdfs.put_records("b", [(1, 1)])
        hdfs.put_records("a", [(1, 1)])
        assert hdfs.ls() == ["a", "b"]
        assert hdfs.exists("a") and not hdfs.exists("c")

    def test_rename(self):
        hdfs = SimulatedHDFS(paper_cluster(4))
        hdfs.put_records("src", [(1, 1)])
        hdfs.rename("src", "dst")
        assert hdfs.exists("dst") and not hdfs.exists("src")
        with pytest.raises(FileNotFoundError):
            hdfs.rename("src", "x")


class TestReplicaPlacement:
    def _multi_rack_cluster(self):
        return paper_cluster(n_workers=8, nodes_per_rack=4)

    def test_three_replicas_distinct_nodes(self):
        hdfs = SimulatedHDFS(self._multi_rack_cluster(), replication=3, seed=0)
        hdfs.put_records("f", [(i, i) for i in range(10)])
        for chunk_id, replicas in hdfs.replica_report("f").items():
            assert len(replicas) == 3
            assert len(set(replicas)) == 3

    def test_rack_aware_policy(self):
        cluster = self._multi_rack_cluster()
        hdfs = SimulatedHDFS(cluster, replication=3, seed=0)
        hdfs.put_records("f", [(i, i) for i in range(30)], writer="worker00")
        for replicas in hdfs.replica_report("f").values():
            # First copy local to the writer.
            assert replicas[0] == "worker00"
            racks = [cluster.rack_of(r) for r in replicas]
            # Second replica shares the writer's rack; third is off-rack.
            assert racks[1] == racks[0]
            assert racks[2] != racks[0]

    def test_replication_capped_by_cluster_size(self):
        cluster = ClusterSpec([Node("only", "r")])
        hdfs = SimulatedHDFS(cluster, replication=3)
        hdfs.put_records("f", [(1, 1)])
        (replicas,) = hdfs.replica_report("f").values()
        assert replicas == ("only",)


class TestFailures:
    def test_chunks_survive_single_datanode_loss(self):
        hdfs = SimulatedHDFS(paper_cluster(6), replication=3, seed=3)
        hdfs.put_records("f", [(i, i) for i in range(50)])
        victim = hdfs.chunks("f")[0].replicas[0]
        hdfs.kill_datanode(victim)
        for chunk in hdfs.chunks("f"):
            assert victim not in chunk.replicas
            assert len(chunk.replicas) >= 1
        assert len(hdfs.read_records("f")) == 50

    def test_all_replicas_lost_raises(self):
        hdfs = SimulatedHDFS(paper_cluster(3), replication=2, seed=0)
        hdfs.put_records("f", [(1, 1)])
        for chunk in hdfs.chunks("f"):
            for node in chunk.replicas:
                hdfs.kill_datanode(node)
        with pytest.raises(IOError, match="lost all replicas"):
            hdfs.chunks("f")

    def test_revive(self):
        hdfs = SimulatedHDFS(paper_cluster(3), seed=0)
        hdfs.put_records("f", [(1, 1)])
        node = hdfs.chunks("f")[0].replicas[0]
        hdfs.kill_datanode(node)
        hdfs.revive_datanode(node)
        assert node in hdfs.chunks("f")[0].replicas

    def test_kill_non_datanode_rejected(self):
        hdfs = SimulatedHDFS(paper_cluster(3))
        with pytest.raises(KeyError):
            hdfs.kill_datanode("namenode")

    def test_writes_avoid_dead_nodes(self):
        hdfs = SimulatedHDFS(paper_cluster(4), seed=0)
        hdfs.kill_datanode("worker00")
        hdfs.put_records("f", [(i, i) for i in range(20)])
        for replicas in hdfs.replica_report("f").values():
            assert "worker00" not in replicas


class TestHealing:
    def test_heal_restores_replication_factor(self):
        hdfs = SimulatedHDFS(paper_cluster(8, nodes_per_rack=4), replication=3, seed=2)
        hdfs.put_records("f", [(i, i) for i in range(40)])
        victim = hdfs.chunks("f")[0].replicas[0]
        hdfs.kill_datanode(victim)
        created = hdfs.heal()
        assert created > 0
        for replicas in hdfs.replica_report("f").values():
            alive = [r for r in replicas if r != victim]
            assert len(alive) == 3

    def test_heal_prefers_new_rack(self):
        cluster = paper_cluster(8, nodes_per_rack=4)
        hdfs = SimulatedHDFS(cluster, replication=2, seed=1)
        hdfs.put_records("f", [(1, 1)], writer="worker00")
        (replicas,) = hdfs.replica_report("f").values()
        # Kill the off-rack replica so the survivor is rack-concentrated.
        survivors = [replicas[0]]
        for r in replicas[1:]:
            hdfs.kill_datanode(r)
        hdfs.heal()
        (new_replicas,) = hdfs.replica_report("f").values()
        fresh = [r for r in new_replicas if r not in survivors]
        assert fresh
        survivor_rack = cluster.rack_of(survivors[0])
        assert any(cluster.rack_of(r) != survivor_rack for r in fresh)

    def test_heal_is_idempotent(self):
        hdfs = SimulatedHDFS(paper_cluster(6), replication=3, seed=3)
        hdfs.put_records("f", [(i, i) for i in range(10)])
        hdfs.kill_datanode(hdfs.chunks("f")[0].replicas[0])
        hdfs.heal()
        assert hdfs.heal() == 0

    def test_heal_skips_fully_lost_chunks(self):
        hdfs = SimulatedHDFS(paper_cluster(3), replication=2, seed=0)
        hdfs.put_records("f", [(1, 1)])
        (replicas,) = hdfs.replica_report("f").values()
        for node in replicas:
            hdfs.kill_datanode(node)
        assert hdfs.heal() == 0
        with pytest.raises(IOError):
            hdfs.chunks("f")

    def test_healthy_cluster_heals_nothing(self):
        hdfs = SimulatedHDFS(paper_cluster(6), replication=3, seed=0)
        hdfs.put_records("f", [(i, i) for i in range(10)])
        assert hdfs.heal() == 0


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            SimulatedHDFS(paper_cluster(3), chunk_size=0)
        with pytest.raises(ValueError):
            SimulatedHDFS(paper_cluster(3), replication=0)
