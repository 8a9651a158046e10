"""Unit tests for shuffle and sort."""

import numpy as np
import pytest

from repro.mapreduce import types
from repro.mapreduce.job import ConstantKeyPartitioner, HashPartitioner, Partitioner
from repro.mapreduce.shuffle import ShuffleResult, _shuffle_generic, group_sorted, shuffle
from repro.mapreduce.types import SIZED_WITHOUT_PICKLE, estimate_nbytes
from tests.conftest import count_calls


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

    def test_zero_reducers_rejected(self):
        with pytest.raises(ValueError):
            shuffle([], HashPartitioner(), 0)

    def test_records_for(self):
        result = ShuffleResult([[("a", [1, 2])], []], 0)
        assert result.records_for(0) == 2
        assert result.records_for(1) == 0
        assert result.n_reducers == 2


class TestGenericShuffleSizesEachObjectOnce:
    """One value object emitted under many keys (the linkage attack ships a
    fingerprint to every blocking cell) is charged per emission, pickled once."""

    def test_distinct_objects_not_emissions(self, monkeypatch):
        values = [(role, f"user-{i}", np.arange(i + 3.0)) for i, role in enumerate([0, 1] * 10)]
        equal_twin = (0, "user-0", np.arange(3.0))  # equal to values[0], another object
        outputs = [
            [(f"cell-{(i + step) % 7}", value) for i, value in enumerate(values) for step in range(4)],
            [(f"cell-{i % 7}", value) for i, value in enumerate(values)] + [("cell-0", equal_twin)],
        ]
        charged = sum(
            estimate_nbytes(key) + estimate_nbytes(value) for out in outputs for key, value in out
        )
        pickled = count_calls(monkeypatch, types.pickle, "dumps")
        result = _shuffle_generic(outputs, HashPartitioner(), 3)
        assert len(pickled) == len(values) + 1
        assert {id(args[0]) for args in pickled} == {id(value) for value in values} | {id(equal_twin)}
        assert result.shuffled_bytes == sum(result.partition_bytes) == charged
        assert sum(result.records_for(p) for p in range(3)) == 5 * len(values) + 1

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
