"""Unit tests for the cost model (Table III calibration)."""

import pytest

from repro.mapreduce.scheduler import Locality
from repro.mapreduce.simtime import CostModel, JobTiming, MB_F
from repro.mapreduce.types import ArrayPayload, Chunk

import numpy as np

from repro.geo.trace import TraceArray


def _chunk_of_mb(mb: float) -> Chunk:
    n = int(mb * MB_F / 64)
    arr = TraceArray.from_columns(["u"], np.zeros(n), np.zeros(n), np.arange(n, dtype=float))
    return Chunk("c", ArrayPayload(arr, record_bytes=64))


class TestMapTaskTime:
    def test_scales_linearly_with_chunk_size(self):
        model = CostModel()
        t32 = model.map_task_time(_chunk_of_mb(32), Locality.NODE_LOCAL)
        t64 = model.map_task_time(_chunk_of_mb(64), Locality.NODE_LOCAL)
        per_mb = model.map_io_s_per_mb + model.map_compute_s_per_mb
        assert t64 - t32 == pytest.approx(32 * per_mb, rel=1e-6)

    def test_cost_factor_multiplies_compute_only(self):
        model = CostModel()
        chunk = _chunk_of_mb(64)
        base = model.map_task_time(chunk, Locality.NODE_LOCAL, 1.0)
        haversine = model.map_task_time(chunk, Locality.NODE_LOCAL, 3.2)
        assert haversine > base
        expected = model.task_startup_s + 64 * (
            model.map_io_s_per_mb + model.map_compute_s_per_mb * 3.2
        )
        assert haversine == pytest.approx(expected, rel=1e-6)
        # End-to-end the Haversine map is well under 3.2x (I/O is shared),
        # matching the ~1.2x map-phase ratio Table III implies.
        assert haversine / base < 2.0

    def test_locality_penalties_ordered(self):
        model = CostModel()
        chunk = _chunk_of_mb(64)
        local = model.map_task_time(chunk, Locality.NODE_LOCAL)
        rack = model.map_task_time(chunk, Locality.RACK_LOCAL)
        remote = model.map_task_time(chunk, Locality.REMOTE)
        assert local < rack < remote


class TestReduceTaskTime:
    def test_scales_with_input(self):
        model = CostModel()
        small = model.reduce_task_time(int(1 * MB_F))
        big = model.reduce_task_time(int(100 * MB_F))
        assert big > small

    def test_zero_input_is_startup_only(self):
        model = CostModel()
        assert model.reduce_task_time(0) == pytest.approx(model.task_startup_s)


class TestTableIIICalibration:
    """One-wave iteration time = setup + map task + reduce; the default
    constants must land within a few seconds of every Table III cell."""

    PAPER = [
        # (data_mb, metric_factor, chunk_mb, paper_seconds)
        (66, 1.0, 64, 48),
        (66, 1.0, 32, 41),
        (66, 3.2, 64, 57),
        (66, 3.2, 32, 45),
        (128, 1.0, 64, 51),
        (128, 1.0, 32, 45),
        (128, 3.2, 64, 60),
        (128, 3.2, 32, 48),
    ]

    @pytest.mark.parametrize("data_mb,factor,chunk_mb,paper_s", PAPER)
    def test_within_tolerance_of_paper(self, data_mb, factor, chunk_mb, paper_s):
        model = CostModel()
        # One wave: makespan = longest (full-size) chunk task.
        map_s = model.map_task_time(_chunk_of_mb(chunk_mb), Locality.NODE_LOCAL, factor)
        # Paper's mapper shuffles every trace: reduce input ~ dataset bytes.
        reduce_s = model.reduce_task_time(int(data_mb * MB_F))
        total = model.job_setup_s + map_s + reduce_s
        assert total == pytest.approx(paper_s, abs=6.0), (
            f"{total:.1f}s vs paper {paper_s}s"
        )

    def test_haversine_factor_matches_metric_registry(self):
        from repro.geo.distance import METRIC_COST

        # The Table III parametrization above must use the shipped factor.
        assert METRIC_COST["haversine"] == pytest.approx(3.2)


class TestJobTiming:
    def test_total(self):
        t = JobTiming(setup_s=10.0, map_s=5.0, reduce_s=3.0, retry_penalty_s=2.0)
        assert t.total_s == 20.0


class TestCacheBroadcast:
    def test_broadcast_cost(self):
        model = CostModel()
        assert model.cache_broadcast_time(0) == 0.0
        assert model.cache_broadcast_time(int(10 * MB_F)) == pytest.approx(
            10 * model.cache_broadcast_s_per_mb
        )
