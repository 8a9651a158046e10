"""Unit tests for job primitives (contexts, partitioners, JobSpec)."""

import numpy as np
import pytest

from repro.geo.trace import TraceArray
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.config import Configuration
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import (
    ARRAY_OUTPUT_KEY,
    ConstantKeyPartitioner,
    HashPartitioner,
    JobSpec,
    MapContext,
    Mapper,
    Reducer,
)


def _ctx():
    return MapContext(Configuration(), Counters(), DistributedCache(), "map-0000", "w0")


class TestContext:
    def test_emit_accumulates(self):
        ctx = _ctx()
        ctx.emit("k", "vv")
        ctx.emit("k2", "v", nbytes=100, n_records=5)
        assert ctx.output == [("k", "vv"), ("k2", "v")]
        assert ctx.output_records == 6
        assert ctx.output_nbytes == (1 + 2) + 100

    def test_emit_array_uses_sentinel(self):
        ctx = _ctx()
        arr = TraceArray.from_columns(["u"], np.zeros(3), np.zeros(3), np.arange(3.0))
        ctx.emit_array(arr, record_bytes=64)
        (key, value), = ctx.output
        assert key == ARRAY_OUTPUT_KEY
        assert value is arr
        assert ctx.output_records == 3
        assert ctx.output_nbytes == 192

    def test_emit_columns_is_its_pairs_where_it_was_emitted(self):
        ctx = _ctx()
        values = np.arange(10.0).reshape(5, 2)
        ctx.emit("first", 1)
        ctx.emit_columns(np.array([3, 0, 3, 1, 0]), values, nbytes=80)
        assert ctx.task_output is ctx.output  # more than one block: pairs
        keys = [key for key, _ in ctx.output]
        assert keys == ["first", 0, 1, 3]
        assert [rows.tolist() for _, rows in ctx.output[1:]] == [
            [[2.0, 3.0], [8.0, 9.0]], [[6.0, 7.0]], [[0.0, 1.0], [4.0, 5.0]],
        ]
        assert (ctx.output_records, ctx.output_nbytes) == (6, (5 + 8) + 80)

    def test_a_lone_column_block_stays_columns(self):
        ctx = _ctx()
        ctx.emit_columns(np.array([2, 2], dtype=np.uint8), np.ones((2, 2)), nbytes=32)
        block = ctx.task_output
        assert block.keys.dtype == np.intp and block.keys.tolist() == [2, 2]
        assert [key for key, _ in ctx.output] == [2]
        assert ctx.task_output is ctx.output  # cut once, then pairs

    def test_an_empty_column_block_emits_nothing(self):
        ctx = _ctx()
        ctx.emit_columns(np.empty(0, dtype=np.int64), np.empty((0, 2)), nbytes=0)
        assert ctx.output == [] and ctx.output_records == 0

    @pytest.mark.parametrize("keys, values, error, match", [
        (np.array([0.0, 1.0]), np.ones((2, 2)), TypeError, "keys must be a 1-D integer array"),
        (np.array([[0, 1]]), np.ones((2, 2)), TypeError, "keys must be a 1-D integer array"),
        (np.array([0, 1]), np.ones(2), ValueError, "values must hold one row per key"),
        (np.array([0, 1]), np.ones((3, 2)), ValueError, "values must hold one row per key"),
        (np.array([0, -1]), np.ones((2, 2)), ValueError, "keys must be non-negative"),
    ])
    def test_emit_columns_rejects_malformed_blocks(self, keys, values, error, match):
        ctx = _ctx()
        with pytest.raises(error, match=match):
            ctx.emit_columns(keys, values, nbytes=32)
        assert ctx.output == [] and ctx.output_records == 0


class TestPartitioners:
    def test_hash_partitioner_stable_and_in_range(self):
        p = HashPartitioner()
        for key in ["a", 42, (1, "x"), 3.5]:
            part = p.partition(key, 7)
            assert 0 <= part < 7
            assert p.partition(key, 7) == part  # stable

    def test_hash_partitioner_spreads_keys(self):
        p = HashPartitioner()
        parts = {p.partition(f"key-{i}", 8) for i in range(100)}
        assert len(parts) == 8

    def test_hash_partitioner_rejects_bad_n(self):
        with pytest.raises(ValueError):
            HashPartitioner().partition("k", 0)

    def test_constant_key_partitioner(self):
        p = ConstantKeyPartitioner()
        assert p.partition("anything", 5) == 0
        assert p.partition(123, 1) == 0


class _M(Mapper):
    def map(self, k, v, ctx):
        ctx.emit(k, v)


class _R(Reducer):
    def reduce(self, k, vs, ctx):
        ctx.emit(k, len(vs))


class TestJobSpec:
    def test_requires_input(self):
        with pytest.raises(ValueError, match="no input"):
            JobSpec("j", _M, [], "out")

    def test_rejects_bad_reducer_count(self):
        with pytest.raises(ValueError):
            JobSpec("j", _M, ["in"], "out", reducer=_R, num_reducers=0)

    def test_combiner_requires_reducer(self):
        with pytest.raises(ValueError, match="combiner"):
            JobSpec("j", _M, ["in"], "out", combiner=_R)

    def test_map_only_detection(self):
        assert JobSpec("j", _M, ["in"], "out").map_only
        assert not JobSpec("j", _M, ["in"], "out", reducer=_R).map_only

    def test_accepts_factory_callable(self):
        spec = JobSpec("j", lambda: _M(), ["in"], "out")
        assert isinstance(spec.mapper(), _M)

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            JobSpec("j", "not a mapper", ["in"], "out")


class TestBaseClasses:
    def test_mapper_without_map_raises(self):
        class NoMap(Mapper):
            pass

        from repro.mapreduce.types import Chunk, RecordPayload

        chunk = Chunk("c", RecordPayload([(1, 1)]))
        with pytest.raises(NotImplementedError):
            NoMap().run(chunk, _ctx())

    def test_reducer_without_reduce_raises(self):
        class NoReduce(Reducer):
            pass

        with pytest.raises(NotImplementedError):
            NoReduce().run([("k", [1])], _ctx())
