"""Unit tests for chunk payloads and size accounting."""

import numpy as np
import pytest

from repro.geo.trace import MobilityTrace, TraceArray
from repro.mapreduce.types import (
    ArrayPayload,
    Chunk,
    DEFAULT_RECORD_BYTES,
    RecordPayload,
    estimate_nbytes,
)


class TestEstimateNbytes:
    def test_numpy_array_uses_buffer_size(self):
        a = np.zeros(10, dtype=np.float64)
        assert estimate_nbytes(a) == 80

    def test_strings_and_bytes(self):
        assert estimate_nbytes("abcd") == 4
        assert estimate_nbytes(b"abc") == 3

    def test_scalars(self):
        assert estimate_nbytes(1) == 8
        assert estimate_nbytes(1.5) == 8
        assert estimate_nbytes(None) == 8

    def test_trace_array_real_columnar_size(self):
        arr = TraceArray.from_columns(["u"], np.zeros(5), np.zeros(5), np.arange(5.0))
        # Packed 36-byte rows plus the user side table — the actual buffer
        # footprint, not DEFAULT_RECORD_BYTES * n (the text-record model).
        assert estimate_nbytes(arr) == arr.data_nbytes + len("u")
        assert estimate_nbytes(arr) != 5 * DEFAULT_RECORD_BYTES

    def test_generic_object_picklable(self):
        assert estimate_nbytes({"a": [1, 2, 3]}) > 0


class TestRecordPayload:
    def test_counts(self):
        p = RecordPayload([(1, "a"), (2, "bb")])
        assert p.n_records == 2
        assert p.nbytes() == (8 + 1) + (8 + 2)
        assert list(p.iter_records()) == [(1, "a"), (2, "bb")]


class TestArrayPayload:
    def _array(self, n=4):
        return TraceArray.from_columns(
            ["u"], 39.9 + np.arange(n) * 0.001, np.full(n, 116.4), np.arange(n, dtype=float)
        )

    def test_counts(self):
        p = ArrayPayload(self._array(4), record_bytes=64)
        assert p.n_records == 4
        assert p.nbytes() == 256

    def test_iter_records_uses_global_offset(self):
        p = ArrayPayload(self._array(3), offset=100)
        keys = [k for k, _ in p.iter_records()]
        assert keys == [100, 101, 102]
        values = [v for _, v in p.iter_records()]
        assert all(isinstance(v, MobilityTrace) for v in values)


class TestChunk:
    def test_trace_array_from_array_payload(self):
        arr = TraceArray.from_columns(["u"], np.zeros(3), np.zeros(3), np.arange(3.0))
        c = Chunk("c0", ArrayPayload(arr))
        assert len(c.trace_array()) == 3
        assert c.n_records == 3

    def test_trace_array_from_trace_records(self):
        traces = [
            MobilityTrace("u", 0.0, 0.0, float(i)) for i in range(3)
        ]
        c = Chunk("c0", RecordPayload([(i, t) for i, t in enumerate(traces)]))
        assert len(c.trace_array()) == 3

    def test_trace_array_rejects_non_traces(self):
        c = Chunk("c0", RecordPayload([(1, "not a trace")]))
        with pytest.raises(TypeError):
            c.trace_array()
