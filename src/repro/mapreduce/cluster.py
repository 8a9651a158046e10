"""Cluster topology: racks, nodes and task slots.

Mirrors the paper's deployment (Section IV): one node hosts the namenode,
one the jobtracker, and every remaining node runs a datanode plus a
tasktracker with a fixed number of map/reduce slots.  Rack membership
drives both HDFS replica placement and scheduler locality decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.checks import count

__all__ = ["Node", "ClusterSpec", "paper_cluster"]


@dataclass(frozen=True)
class Node:
    """A cluster machine.

    ``map_slots``/``reduce_slots`` follow Hadoop's per-tasktracker slot
    model: each active task occupies one slot, so a tasktracker runs
    several tasks simultaneously.
    """

    name: str
    rack: str
    map_slots: int = 2
    reduce_slots: int = 2
    is_datanode: bool = True
    is_tasktracker: bool = True

    def __post_init__(self) -> None:
        count("map_slots", self.map_slots, 0)
        count("reduce_slots", self.reduce_slots, 0)


class ClusterSpec:
    """An immutable description of a simulated Hadoop cluster."""

    def __init__(
        self,
        nodes: Iterable[Node],
        namenode: str | None = None,
        jobtracker: str | None = None,
    ):
        self._nodes: dict[str, Node] = {}
        for node in nodes:
            if node.name in self._nodes:
                raise ValueError(f"duplicate node name {node.name!r}")
            self._nodes[node.name] = node
        if not self._nodes:
            raise ValueError("a cluster needs at least one node")
        names = list(self._nodes)
        self.namenode = namenode if namenode is not None else names[0]
        self.jobtracker = jobtracker if jobtracker is not None else names[min(1, len(names) - 1)]
        for role, name in (("namenode", self.namenode), ("jobtracker", self.jobtracker)):
            if name not in self._nodes:
                raise ValueError(f"{role} {name!r} is not a cluster node")
        if not self.datanodes():
            raise ValueError("cluster has no datanodes")
        if not self.tasktrackers():
            raise ValueError("cluster has no tasktrackers")

    # -- lookups ------------------------------------------------------------
    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    def datanodes(self) -> list[Node]:
        return [n for n in self._nodes.values() if n.is_datanode]

    def tasktrackers(self) -> list[Node]:
        return [n for n in self._nodes.values() if n.is_tasktracker]

    def rack_of(self, node_name: str) -> str:
        return self._nodes[node_name].rack

    def total_map_slots(self) -> int:
        return sum(n.map_slots for n in self.tasktrackers())

    def total_reduce_slots(self) -> int:
        return sum(n.reduce_slots for n in self.tasktrackers())


def paper_cluster(
    n_workers: int = 5,
    map_slots: int = 2,
    reduce_slots: int = 2,
    nodes_per_rack: int = 4,
) -> ClusterSpec:
    """The paper's Parapluie-style deployment.

    One dedicated namenode, one dedicated jobtracker, ``n_workers``
    combined datanode+tasktracker machines (the paper's 7-node k-means
    testbed is ``n_workers=5``; the 61-node sampling run is
    ``n_workers=59``).  Workers are grouped into racks of
    ``nodes_per_rack`` so the rack-aware replica policy has something to
    work with.
    """
    count("n_workers", n_workers, 1)
    nodes = [
        Node("namenode", rack="rack0", is_datanode=False, is_tasktracker=False),
        Node("jobtracker", rack="rack0", is_datanode=False, is_tasktracker=False),
    ]
    for i in range(n_workers):
        rack = f"rack{1 + i // nodes_per_rack}"
        nodes.append(
            Node(
                f"worker{i:02d}",
                rack=rack,
                map_slots=map_slots,
                reduce_slots=reduce_slots,
            )
        )
    return ClusterSpec(nodes, namenode="namenode", jobtracker="jobtracker")
