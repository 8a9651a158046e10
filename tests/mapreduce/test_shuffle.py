"""Unit tests for shuffle and sort."""

import numpy as np
import pytest

from repro.mapreduce import types
from repro.mapreduce.aggregation import preaggregate
from repro.mapreduce.job import ConstantKeyPartitioner, HashPartitioner, Partitioner
from repro.mapreduce.shuffle import ShuffleResult, _shuffle_generic, group_sorted, shuffle
from repro.mapreduce.spill import (
    MB,
    ShuffleSpiller,
    SpillDirectory,
    SpillStats,
    SpilledMapOutput,
    WorkerSpillSpec,
    spill_map_output,
)
from repro.mapreduce.types import SIZED_WITHOUT_PICKLE, estimate_nbytes
from tests.conftest import CountAggregation, count_calls


@pytest.fixture()
def spiller_of(tmp_path):
    """``spiller_of(budget_bytes, n_reducers)``: a spiller in a temp dir."""
    directory = SpillDirectory(tmp_path / "spill")

    def make(budget_bytes, n_reducers):
        return ShuffleSpiller(budget_bytes, directory, n_reducers, SpillStats())

    yield make
    directory.cleanup()


class TestGroupSorted:
    def test_groups_and_sorts_keys(self):
        pairs = [("b", 1), ("a", 2), ("b", 3), ("a", 4)]
        groups = group_sorted(pairs)
        assert groups == [("a", [2, 4]), ("b", [1, 3])]

    def test_value_arrival_order_preserved(self):
        pairs = [("k", 3), ("k", 1), ("k", 2)]
        assert group_sorted(pairs) == [("k", [3, 1, 2])]

    def test_numeric_keys_natural_order(self):
        pairs = [(10, "a"), (2, "b"), (1, "c")]
        assert [k for k, _ in group_sorted(pairs)] == [1, 2, 10]

    def test_mixed_key_types_do_not_crash(self):
        pairs = [("a", 1), (1, 2), (2.5, 3)]
        groups = group_sorted(pairs)
        assert len(groups) == 3

    def test_empty(self):
        assert group_sorted([]) == []


class TestShuffle:
    def test_all_records_delivered_once(self):
        outputs = [[(i % 5, i) for i in range(20)], [(i % 5, -i) for i in range(15)]]
        result = shuffle(outputs, HashPartitioner(), 3)
        delivered = [
            (k, v)
            for part in result.partitions
            for k, vs in part
            for v in vs
        ]
        flat = [p for out in outputs for p in out]
        assert sorted(map(repr, delivered)) == sorted(map(repr, flat))

    def test_same_key_single_partition(self):
        outputs = [[("x", 1)], [("x", 2)], [("x", 3)]]
        result = shuffle(outputs, HashPartitioner(), 4)
        non_empty = [p for p in result.partitions if p]
        assert len(non_empty) == 1
        assert non_empty[0] == [("x", [1, 2, 3])]

    def test_constant_partitioner_collects_everything_at_zero(self):
        outputs = [[("a", 1), ("b", 2)], [("c", 3)]]
        result = shuffle(outputs, ConstantKeyPartitioner(), 3)
        assert result.records_for(0) == 3
        assert result.partitions[1] == [] and result.partitions[2] == []

    def test_byte_accounting(self):
        outputs = [[("k", "1234")]]  # key 1 byte + value 4 bytes
        result = shuffle(outputs, HashPartitioner(), 2)
        assert result.shuffled_bytes == 5
        assert sum(result.partition_bytes) == 5

    def test_out_of_range_partitioner_rejected(self):
        class Bad(Partitioner):
            def partition(self, key, n):
                return n  # off by one

        with pytest.raises(ValueError):
            shuffle([[("k", 1)]], Bad(), 2)

    @pytest.mark.parametrize("entry", ["in-memory", "envelope", "budgeted"])
    def test_bad_partitioner_same_error_every_entry(self, entry, spiller_of):
        """One routing stage, so one message — whichever sink it feeds."""

        class Bad(Partitioner):
            def partition(self, key, n):
                return n  # off by one

        outputs = [[(7, 1)]]
        kwargs = {}
        if entry == "envelope":
            kwargs["aggregation"] = CountAggregation()
            outputs = [preaggregate(kwargs["aggregation"], outputs[0], "n1", "map-0000")[0]]
        elif entry == "budgeted":
            kwargs["spiller"] = spiller_of(1, 2)
        with pytest.raises(ValueError, match=r"^partitioner returned 2 for 2 reducers$"):
            shuffle(outputs, Bad(), 2, **kwargs)

    def test_zero_reducers_rejected(self):
        with pytest.raises(ValueError):
            shuffle([], HashPartitioner(), 0)

    def test_records_for(self):
        result = ShuffleResult([[("a", [1, 2])], []], 0)
        assert result.records_for(0) == 2
        assert result.records_for(1) == 0
        assert result.n_reducers == 2


def _fan_out_outputs():
    """Two tasks emitting 20 value objects to many keys, plus an equal twin."""
    values = [(role, f"user-{i}", np.arange(i + 3.0)) for i, role in enumerate([0, 1] * 10)]
    equal_twin = (0, "user-0", np.arange(3.0))  # equal to values[0], another object
    outputs = [
        [(f"cell-{(i + step) % 7}", value) for i, value in enumerate(values) for step in range(4)],
        [(f"cell-{i % 7}", value) for i, value in enumerate(values)] + [("cell-0", equal_twin)],
    ]
    return values, equal_twin, outputs


class TestGenericShuffleSizesEachObjectOnce:
    """One value object emitted under many keys (the linkage attack ships a
    fingerprint to every blocking cell) is charged per emission, pickled once."""

    def test_distinct_objects_not_emissions(self, monkeypatch):
        values, equal_twin, outputs = _fan_out_outputs()
        charged = sum(
            estimate_nbytes(key) + estimate_nbytes(value) for out in outputs for key, value in out
        )
        pickled = count_calls(monkeypatch, types.pickle, "dumps")
        result = _shuffle_generic(outputs, HashPartitioner(), 3)
        assert len(pickled) == len(values) + 1
        assert {id(args[0]) for args in pickled} == {id(value) for value in values} | {id(equal_twin)}
        assert result.shuffled_bytes == sum(result.partition_bytes) == charged
        assert sum(result.records_for(p) for p in range(3)) == 5 * len(values) + 1

    @pytest.mark.parametrize("budget_bytes", [10 * MB, 1], ids=["under-budget", "spilling"])
    def test_budgeted(self, monkeypatch, spiller_of, budget_bytes):
        """The external sink shares the routing stage's memo.  Under budget
        nothing leaves memory, so every object is sized once; a cut run
        takes its records out of memory (their ids may be reused), so the
        second task's emissions are sized again — once per object, still
        not once per emission."""
        values, _, outputs = _fan_out_outputs()
        want = _shuffle_generic(outputs, HashPartitioner(), 3)
        sized = count_calls(monkeypatch, types.pickle, "dumps")
        spiller = spiller_of(budget_bytes, 3)
        result = shuffle(outputs, HashPartitioner(), 3, spiller=spiller)
        n_sized = len(sized)  # before the comparison below materializes anything
        assert result.spilled == (budget_bytes == 1)
        assert n_sized == (2 * len(values) + 1 if result.spilled else len(values) + 1)
        assert result.partition_bytes == want.partition_bytes
        assert result.shuffled_bytes == want.shuffled_bytes
        got = [[(k, [v[1] for v in vs]) for k, vs in p] for p in result.partitions]
        assert got == [[(k, [v[1] for v in vs]) for k, vs in p] for p in want.partitions]
        result.release()

    def test_scalar_and_array_streams_never_touch_the_memo(self, monkeypatch):
        pickled = count_calls(monkeypatch, types.pickle, "dumps")
        stream = [1, 2.5, True, None, "text", b"raw", bytearray(b"raw"), np.arange(4)]
        assert all(isinstance(value, SIZED_WITHOUT_PICKLE) for value in stream)
        result = _shuffle_generic([[(i, value) for i, value in enumerate(stream)]], HashPartitioner(), 2)
        assert pickled == []
        assert result.shuffled_bytes == 8 * len(stream) + 8 + 8 + 8 + 8 + 4 + 3 + 3 + 32

    def test_everything_else_costs_estimate_nbytes_a_pickle(self, monkeypatch):
        # SIZED_WITHOUT_PICKLE must name every branch estimate_nbytes has.
        pickled = count_calls(monkeypatch, types.pickle, "dumps")
        for value in ((1, 2), [1], {"a": 1}, {1}, np.float32(1.0), np.int64(1), 1j, object):
            assert not isinstance(value, SIZED_WITHOUT_PICKLE)
            before = len(pickled)
            estimate_nbytes(value)
            assert len(pickled) == before + 1


class TestSingleRead:
    """A spilled map output is a file: every entry of ``shuffle`` loads it once."""

    @pytest.fixture()
    def handle_outputs(self, tmp_path):
        spec = WorkerSpillSpec(str(tmp_path), threshold_bytes=1)
        return [
            spill_map_output(spec, f"map-{t:04d}", [(i % 5, (t, i)) for i in range(30)], 480)
            for t in range(3)
        ]

    @pytest.mark.parametrize(
        "partitioner", [HashPartitioner(), ConstantKeyPartitioner()], ids=["hash", "constant"]
    )
    @pytest.mark.parametrize(
        "budget_bytes", [None, 10 * MB, 64], ids=["unbudgeted", "under-budget", "spilling"]
    )
    def test_one_load_per_output(
        self, monkeypatch, handle_outputs, spiller_of, partitioner, budget_bytes
    ):
        """Unbudgeted, under budget (the spiller hands its buffer to the
        in-memory grouping: no second pass) and spilling alike — and the
        three results are equal."""
        want = _shuffle_generic(handle_outputs, partitioner, 2)
        loads = count_calls(monkeypatch, SpilledMapOutput, "load")
        spiller = None if budget_bytes is None else spiller_of(budget_bytes, 2)
        result = shuffle(handle_outputs, partitioner, 2, spiller=spiller)
        assert len(loads) == len(handle_outputs)
        assert result.spilled == (budget_bytes == 64)
        assert result.partitions == want.partitions
        assert result.partition_bytes == want.partition_bytes
        assert result.shuffled_bytes == want.shuffled_bytes
        result.release()

    def test_declined_fast_path_does_not_reload(self, monkeypatch, tmp_path):
        """Str keys under the hash partitioner: the vectorized path looks
        at the records and declines; the generic one must not re-read."""
        spec = WorkerSpillSpec(str(tmp_path), threshold_bytes=1)
        outputs = [spill_map_output(spec, "map-0000", [(f"u{i % 3}", i) for i in range(9)], 90)]
        loads = count_calls(monkeypatch, SpilledMapOutput, "load")
        result = shuffle(outputs, HashPartitioner(), 2)
        assert len(loads) == 1
        assert sum(result.records_for(r) for r in range(2)) == 9
