"""Unit tests for cluster topology."""

import pytest

from repro.mapreduce.cluster import ClusterSpec, Node, paper_cluster


class TestNode:
    def test_defaults(self):
        n = Node("w0", "rack1")
        assert n.map_slots == 2 and n.reduce_slots == 2
        assert n.is_datanode and n.is_tasktracker

    def test_negative_slots_rejected(self):
        with pytest.raises(ValueError):
            Node("w0", "r", map_slots=-1)


class TestClusterSpec:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ClusterSpec([Node("a", "r"), Node("a", "r")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec([])

    def test_storage_only_cluster_rejected(self):
        with pytest.raises(ValueError, match="no tasktrackers"):
            ClusterSpec([Node("a", "r", is_tasktracker=False)])

    def test_unknown_namenode_rejected(self):
        with pytest.raises(ValueError, match="namenode"):
            ClusterSpec([Node("a", "r")], namenode="ghost")

    def test_requires_datanode_and_tasktracker(self):
        with pytest.raises(ValueError):
            ClusterSpec([Node("a", "r", is_datanode=False, is_tasktracker=False)])

    def test_lookups(self):
        spec = ClusterSpec([Node("a", "r1"), Node("b", "r2")])
        assert spec.rack_of("a") == "r1"
        assert spec.rack_of("b") == "r2"
        assert [n.name for n in spec.nodes()] == ["a", "b"]

    def test_slot_totals(self):
        spec = ClusterSpec(
            [Node("a", "r", map_slots=2), Node("b", "r", map_slots=3, reduce_slots=1)]
        )
        assert spec.total_map_slots() == 5
        assert spec.total_reduce_slots() == 3


class TestPaperCluster:
    def test_paper_deployment_roles(self):
        spec = paper_cluster(n_workers=5)
        # 7 nodes overall: namenode, jobtracker and 5 workers (Section VI).
        assert len(spec.nodes()) == 7
        assert spec.namenode == "namenode"
        assert spec.jobtracker == "jobtracker"
        (nn,) = [n for n in spec.nodes() if n.name == "namenode"]
        assert not nn.is_datanode and not nn.is_tasktracker
        assert len(spec.datanodes()) == 5
        assert len(spec.tasktrackers()) == 5

    def test_workers_grouped_into_racks(self):
        spec = paper_cluster(n_workers=9, nodes_per_rack=4)
        worker_racks = {n.rack for n in spec.tasktrackers()}
        assert len(worker_racks) == 3  # 4 + 4 + 1

    def test_slot_parameters(self):
        spec = paper_cluster(n_workers=3, map_slots=4, reduce_slots=1)
        assert spec.total_map_slots() == 12
        assert spec.total_reduce_slots() == 3

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            paper_cluster(n_workers=0)
