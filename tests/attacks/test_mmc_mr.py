"""Tests for MapReduced MMC learning."""

import numpy as np
import pytest

from repro.attacks.mmc import build_mmc
from repro.attacks.mmc_mr import run_mmc_mapreduce
from repro.geo.trace import TraceArray
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import JobRunner

from tests.attacks.test_mmc import POIS, _trail_visiting


def _multi_user_array(sequences: dict[str, list[int]]) -> TraceArray:
    parts = []
    for user, seq in sequences.items():
        arr = _trail_visiting(seq, user=user)
        parts.append(arr)
    return TraceArray.concatenate(parts).sort_by_time()


@pytest.fixture()
def runner_factory():
    def make(array, chunk_traces):
        hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=64 * chunk_traces, seed=0)
        hdfs.put_trace_array("traces", array)
        return JobRunner(hdfs)

    return make


SEQUENCES = {
    "a": [0, 1, 0, 1, 2, 0, 1, 0],
    "b": [2, 0, 2, 0, 2, 1],
    "c": [1, 1, 2],
}


class TestEquivalence:
    @pytest.mark.parametrize("chunk_traces", [10_000, 7, 3])
    def test_mr_equals_sequential_for_any_chunking(self, runner_factory, chunk_traces):
        """The reduce phase sees all fragments, so the decomposition is
        exact — even with absurdly small chunks."""
        array = _multi_user_array(SEQUENCES)
        runner = runner_factory(array, chunk_traces)
        models = run_mmc_mapreduce(runner, "traces", POIS)
        assert set(models) == set(SEQUENCES)
        for user in SEQUENCES:
            mask = np.array([u == user for u in array.user_ids()])
            seq_mmc = build_mmc(array[mask], POIS)
            mr_mmc = models[user]
            assert np.allclose(mr_mmc.transitions, seq_mmc.transitions)
            assert np.array_equal(mr_mmc.visit_counts, seq_mmc.visit_counts)

    def test_smoothing_forwarded(self, runner_factory):
        array = _multi_user_array({"a": [0, 1]})
        runner = runner_factory(array, 1000)
        models = run_mmc_mapreduce(runner, "traces", POIS, smoothing=0.5)
        assert np.all(models["a"].transitions > 0)


class TestBehaviour:
    def test_unattached_users_absent(self, runner_factory):
        far = TraceArray.from_columns(
            ["ghost"], np.full(3, 10.0), np.full(3, 10.0), np.arange(3.0)
        )
        array = TraceArray.concatenate([_multi_user_array({"a": [0, 1, 0]}), far])
        runner = runner_factory(array, 1000)
        models = run_mmc_mapreduce(runner, "traces", POIS)
        assert "a" in models
        assert "ghost" not in models

    def test_prediction_from_mr_model(self, runner_factory):
        array = _multi_user_array({"a": [0, 1, 0, 1, 0, 1]})
        runner = runner_factory(array, 1000)
        models = run_mmc_mapreduce(runner, "traces", POIS)
        assert np.argmax(models["a"].transitions[0]) == 1
        assert np.argmax(models["a"].transitions[1]) == 0

    def test_validation(self, runner_factory):
        array = _multi_user_array({"a": [0, 1]})
        runner = runner_factory(array, 1000)
        with pytest.raises(ValueError):
            run_mmc_mapreduce(runner, "traces", np.empty((0, 2)))
        with pytest.raises(ValueError):
            run_mmc_mapreduce(runner, "traces", np.zeros((3, 3)))


class TestAtScale:
    def test_synthetic_corpus_models(self, small_corpus):
        """End-to-end: DJ-Cluster POIs -> MR MMC models for every user."""
        from repro.algorithms.djcluster import DJClusterParams, djcluster_sequential
        from repro.algorithms.sampling import sample_array

        dataset, users = small_corpus
        sampled = sample_array(dataset.sort_by_time(), 60.0)
        clusters = djcluster_sequential(sampled, DJClusterParams(radius_m=80, min_pts=6))
        pois = clusters.cluster_centroids()
        assert len(pois) >= 4
        hdfs = SimulatedHDFS(paper_cluster(5), chunk_size=64 * 500, seed=0)
        hdfs.put_trace_array("traces", sampled)
        runner = JobRunner(hdfs)
        models = run_mmc_mapreduce(runner, "traces", pois)
        assert len(models) == len(dataset.users)
        for mmc in models.values():
            assert np.allclose(mmc.transitions.sum(axis=1), 1.0)
            assert mmc.visit_counts.sum() > 0


def test_an_empty_input_learns_no_chain(runner_factory):
    runner = runner_factory(TraceArray.from_columns(["u"], [], [], []), 4)
    assert run_mmc_mapreduce(runner, "traces", POIS) == {}
