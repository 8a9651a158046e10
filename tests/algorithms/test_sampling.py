"""Unit tests for temporal down-sampling (Section V, Figures 2-3)."""

import numpy as np
import pytest

from repro.algorithms.sampling import (
    SamplingTechnique,
    run_sampling_job,
    sample_array,
    sample_dataset,
)
from repro.geo.trace import GeolocatedDataset, TraceArray


def _array(timestamps, user="u", lat=None):
    ts = np.asarray(timestamps, dtype=float)
    lat = np.asarray(lat, dtype=float) if lat is not None else np.zeros(len(ts))
    return TraceArray.from_columns([user], lat, np.zeros(len(ts)), ts)


class TestTechniqueParsing:
    def test_parse_strings(self):
        assert SamplingTechnique.parse("upper") is SamplingTechnique.UPPER
        assert SamplingTechnique.parse(" MIDDLE ") is SamplingTechnique.MIDDLE
        assert SamplingTechnique.parse(SamplingTechnique.UPPER) is SamplingTechnique.UPPER

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown sampling technique"):
            SamplingTechnique.parse("median")


class TestSampleArray:
    def test_one_representative_per_window(self):
        arr = _array([1, 5, 20, 61, 62, 125])
        out = sample_array(arr, 60.0)
        # Windows [0,60), [60,120), [120,180) -> 3 representatives.
        assert len(out) == 3

    def test_upper_takes_closest_to_window_end(self):
        # Window [0, 60): reference 60 -> 59 wins over 1 and 30 (Fig. 2).
        arr = _array([1, 30, 59])
        out = sample_array(arr, 60.0, "upper")
        assert list(out.timestamp) == [59.0]

    def test_middle_takes_closest_to_window_center(self):
        # Window [0, 60): reference 30 -> 28 wins (Fig. 3).
        arr = _array([1, 28, 59])
        out = sample_array(arr, 60.0, "middle")
        assert list(out.timestamp) == [28.0]

    def test_techniques_differ_on_same_input(self):
        arr = _array([1, 28, 59])
        upper = sample_array(arr, 60.0, "upper")
        middle = sample_array(arr, 60.0, "middle")
        assert list(upper.timestamp) != list(middle.timestamp)

    def test_windows_are_per_user(self):
        arr = TraceArray.from_columns(
            ["a", "a", "b", "b"],
            np.zeros(4),
            np.zeros(4),
            np.array([1.0, 59.0, 2.0, 58.0]),
        )
        out = sample_array(arr, 60.0)
        assert len(out) == 2  # one per user in the same window
        assert sorted(out.user_ids()) == ["a", "b"]

    def test_empty_array(self):
        out = sample_array(TraceArray.empty(), 60.0)
        assert len(out) == 0

    def test_single_trace(self):
        out = sample_array(_array([42.0]), 60.0)
        assert len(out) == 1

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            sample_array(_array([1.0]), 0.0)

    @pytest.mark.parametrize("window", [-1.0, float("nan"), float("inf")])
    def test_window_must_be_positive_and_finite(self, window):
        # NaN passed a ``<= 0`` check and sampled to one trace per user.
        with pytest.raises(ValueError, match="window_s must be positive and finite"):
            sample_array(_array([1.0]), window)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_timestamp(self, bad):
        # Cast to an int64 window, NaN would be a plausible INT64_MIN window.
        with pytest.raises(ValueError, match="timestamps must be finite"):
            sample_array(_array([1.0, bad]), 60.0)

    def test_representative_is_original_trace(self):
        arr = _array([3, 17, 42], lat=[1.0, 2.0, 3.0])
        out = sample_array(arr, 60.0)
        # Whatever wins must be one of the input traces, not an average.
        assert out.latitude[0] in (1.0, 2.0, 3.0)

    def test_larger_window_fewer_traces(self, small_array):
        n60 = len(sample_array(small_array, 60.0))
        n300 = len(sample_array(small_array, 300.0))
        n600 = len(sample_array(small_array, 600.0))
        assert n60 > n300 > n600

    def test_dense_data_reduces_drastically(self, small_array):
        """Table I's qualitative claim: 1-minute sampling on 1-5 s logs
        shrinks the dataset by an order of magnitude."""
        out = sample_array(small_array, 60.0)
        assert len(out) < len(small_array) / 10

    def test_idempotent_at_same_window(self):
        arr = _array(np.arange(0, 600, 2.0))
        once = sample_array(arr, 60.0)
        twice = sample_array(once, 60.0)
        assert len(once) == len(twice)
        assert np.array_equal(once.timestamp, twice.timestamp)


class TestTrailAndDataset:
    def test_sample_trail_keeps_user(self):
        trail = _array([1, 30, 61], user="alice")
        out = sample_array(trail, 60.0)
        assert out.users == ("alice",)
        assert len(out) == 2

    def test_sample_dataset_all_users(self):
        ds = GeolocatedDataset(
            [
                _array([1, 5, 70], user="a"),
                _array([2, 80], user="b"),
            ]
        )
        out = sample_dataset(ds, 60.0)
        assert out.user_ids == ["a", "b"]
        assert len(out) == 4


class TestMapReduceJob:
    def test_mr_equals_sequential_on_single_chunk(self, small_array, runner):
        hdfs = runner.hdfs
        # One chunk per the whole dataset: no window-boundary artifacts.
        hdfs.chunk_size = 64 * len(small_array) + 64
        hdfs.put_trace_array("traces", small_array)
        run_sampling_job(runner, "traces", "out", 60.0, "upper")
        mr = hdfs.read_trace_array("out").sort_by_time()
        seq = sample_array(small_array, 60.0, "upper").sort_by_time()
        assert len(mr) == len(seq)
        assert np.allclose(mr.timestamp, seq.timestamp)
        assert np.allclose(mr.latitude, seq.latitude)

    def test_chunk_boundary_artifact_bounded(self, small_array, runner):
        """Multi-chunk sampling may emit at most one extra representative
        per (chunk boundary, user)."""
        hdfs = runner.hdfs
        hdfs.chunk_size = 64 * 1000  # ~1000 traces per chunk
        hdfs.put_trace_array("traces", small_array)
        n_chunks = len(hdfs.chunks("traces"))
        run_sampling_job(runner, "traces", "out", 60.0)
        mr = hdfs.read_trace_array("out")
        seq = sample_array(small_array, 60.0)
        assert len(seq) <= len(mr) <= len(seq) + n_chunks

    def test_job_parameters_validated(self, runner):
        runner.hdfs.put_records("traces", [(0, 0)])
        for window in (-5.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="window_s must be positive and finite"):
                run_sampling_job(runner, "traces", "out", window)
        with pytest.raises(ValueError):
            run_sampling_job(runner, "traces", "out", 60.0, technique="mean")

    def test_counters_reflect_reduction(self, small_array, runner):
        hdfs = runner.hdfs
        hdfs.chunk_size = 64 * 2000
        hdfs.put_trace_array("traces", small_array)
        res = run_sampling_job(runner, "traces", "out", 300.0)
        from repro.mapreduce.counters import STANDARD

        read = res.counters.value(STANDARD.GROUP_TASK, STANDARD.MAP_INPUT_RECORDS)
        written = res.counters.value(STANDARD.GROUP_TASK, STANDARD.MAP_OUTPUT_RECORDS)
        assert read == len(small_array)
        assert written == hdfs.file_records("out")
        assert written < read / 10
