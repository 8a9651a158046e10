"""Job counters, mirroring Hadoop's counter groups.

Counters are how the benchmarks observe what actually happened inside a
job: records in/out of each phase, shuffle bytes, combiner effectiveness
(ablation X3 in DESIGN.md), and scheduler locality (node-local /
rack-local / remote map tasks).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

__all__ = ["Counters", "STANDARD"]


class STANDARD:
    """Well-known counter names used by the framework itself."""

    GROUP_TASK = "task"
    MAP_INPUT_RECORDS = "map_input_records"
    MAP_OUTPUT_RECORDS = "map_output_records"
    MAP_OUTPUT_BYTES = "map_output_bytes"
    COMBINE_INPUT_RECORDS = "combine_input_records"
    COMBINE_OUTPUT_RECORDS = "combine_output_records"
    PREAGG_INPUT_RECORDS = "preagg_input_records"
    PREAGG_OUTPUT_RECORDS = "preagg_output_records"
    REDUCE_INPUT_RECORDS = "reduce_input_records"
    REDUCE_INPUT_GROUPS = "reduce_input_groups"
    REDUCE_OUTPUT_RECORDS = "reduce_output_records"
    SHUFFLE_BYTES = "shuffle_bytes"
    SHUFFLE_CROSS_NODE_BYTES = "shuffle_cross_node_bytes"

    GROUP_SCHEDULER = "scheduler"
    DATA_LOCAL_MAPS = "data_local_maps"
    RACK_LOCAL_MAPS = "rack_local_maps"
    REMOTE_MAPS = "remote_maps"
    FAILED_TASKS = "failed_tasks"
    SPECULATIVE_TASKS = "speculative_tasks"
    MAP_TASKS = "map_tasks_launched"
    REDUCE_TASKS = "reduce_tasks_launched"
    NODES_LOST = "nodes_lost"
    NODES_BLACKLISTED = "nodes_blacklisted"
    REPLICAS_HEALED = "replicas_healed"
    SHUFFLE_REFETCHES = "shuffle_refetches"


class Counters:
    """Hierarchical (group, name) -> int counters.

    Thread-safety note: increments from concurrent map tasks are funnelled
    through per-task local counter sets and merged by the runner, so this
    class needs no locking of its own.
    """

    def __init__(self) -> None:
        self._groups: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        if amount:
            self._groups[group][name] += int(amount)

    def value(self, group: str, name: str) -> int:
        return self._groups.get(group, {}).get(name, 0)

    def group(self, group: str) -> dict[str, int]:
        return dict(self._groups.get(group, {}))

    def merge(self, other: "Counters") -> None:
        for group, names in other._groups.items():
            mine = self._groups[group]
            for name, amount in names.items():
                mine[name] += amount

    def __iter__(self) -> Iterator[tuple[str, str, int]]:
        for group in sorted(self._groups):
            for name in sorted(self._groups[group]):
                yield group, name, self._groups[group][name]

    def to_dict(self) -> dict[str, dict[str, int]]:
        """Sorted plain-dict snapshot (the job-history export format).

        Groups and names are emitted in sorted order so serialized
        histories are byte-stable across runs and Python hash seeds.
        """
        out: dict[str, dict[str, int]] = {}
        for group, name, value in self:
            out.setdefault(group, {})[name] = value
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counters):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    # -- pickling ----------------------------------------------------------
    # The nested ``defaultdict(lambda: ...)`` is not picklable, but process
    # execution backends ship per-task counters back to the driver.  State
    # round-trips through the sorted ``to_dict`` form, so a pickled copy
    # compares (and serializes) identically to the original.
    def __getstate__(self) -> dict[str, dict[str, int]]:
        return self.to_dict()

    def __setstate__(self, state: dict[str, dict[str, int]]) -> None:
        self._groups = defaultdict(lambda: defaultdict(int))
        for group, names in state.items():
            for name, amount in names.items():
                self._groups[group][name] = int(amount)
