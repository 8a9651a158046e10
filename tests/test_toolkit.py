"""Tests for the GEPETO facade."""

import numpy as np
import pytest

from repro import Gepeto
from repro.algorithms.djcluster import DJClusterParams, djcluster_sequential
from repro.algorithms.kmeans import kmeans_sequential
from repro.attacks.deanonymization import deanonymization_attack
from repro.attacks.mmc import visit_sequence
from repro.attacks.mmc_mr import run_mmc_mapreduce
from repro.attacks.semantics import label_places
from repro.attacks.social import ColocationParams, colocation_graph
from repro.geo.geolife import write_geolife_dataset
from repro.geo.trace import TraceArray
from repro.metrics.predictability import predictability_report
from repro.sanitization import GaussianMask


@pytest.fixture(scope="module")
def gep():
    toolkit, truth = Gepeto.synthetic(n_users=3, days=2, seed=31)
    return toolkit, truth


class TestConstruction:
    def test_synthetic_returns_ground_truth(self, gep):
        toolkit, truth = gep
        assert len(truth) == 3
        assert len(toolkit.dataset.users) == 3
        assert len(toolkit) == len(toolkit.dataset)

    def test_geolife_roundtrip(self, gep, tmp_path):
        toolkit, _ = gep
        small = toolkit.dataset.trail(toolkit.dataset.users[0]).by_user()
        write_geolife_dataset(small, tmp_path)
        back = Gepeto.from_geolife(tmp_path)
        assert len(back) == len(small)


class TestLocalOperations:
    def test_sample_reduces(self, gep):
        toolkit, _ = gep
        sampled = toolkit.sample(60.0)
        assert len(sampled) < len(toolkit) / 5

    def test_sanitize_and_utility(self, gep):
        toolkit, _ = gep
        sampled = toolkit.sample(60.0)
        masked = sampled.sanitize(GaussianMask(100.0, seed=1))
        report = masked.utility_versus(sampled)
        assert report.volume_ratio == 1.0
        assert report.mean_distortion_m > 50.0

    def test_kmeans(self, gep):
        toolkit, _ = gep
        coords = toolkit.sample(300.0).dataset.coordinates()
        res = kmeans_sequential(coords, 4, seed=1, max_iter=30)
        assert res.centroids.shape == (4, 2)

    def test_djcluster_and_poi_attack(self, gep):
        toolkit, truth = gep
        sampled = toolkit.sample(60.0)
        params = DJClusterParams(radius_m=80, min_pts=5)
        res = djcluster_sequential(sampled.dataset, params)
        assert res.n_clusters > 0
        pois = sampled.poi_attack_all(params)
        assert set(pois) == set(sampled.dataset.users)

    def test_visualize(self, gep):
        toolkit, _ = gep
        out = toolkit.visualize(width=40, height=10)
        assert "lat [" in out

    def test_social_graph(self, gep):
        toolkit, _ = gep
        graph = colocation_graph(toolkit.dataset, ColocationParams())
        assert set(graph.nodes) == set(toolkit.dataset.users)

    def test_semantic_places(self, gep):
        toolkit, truth = gep
        places, visits = label_places(toolkit.dataset.trail(truth[0].user_id), min_stay_s=600)
        assert places and visits
        assert any(p.label == "home" for p in places)

    def test_predictability(self, gep):
        toolkit, truth = gep
        user = truth[0]
        coords = np.array([(p.latitude, p.longitude) for p in user.pois])
        visits = visit_sequence(toolkit.dataset.trail(user.user_id), coords, 200.0)
        report = predictability_report(visits)
        assert report.n_states >= 1
        assert 0.0 <= report.pi_max <= 1.0


class TestDeployment:
    def test_deploy_uploads_dataset(self, gep):
        toolkit, _ = gep
        cluster = toolkit.sample(60.0).deploy(n_workers=4, chunk_size_mb=1)
        assert cluster.runner.hdfs.exists("input/traces")
        assert cluster.deploy_overhead_s == pytest.approx(25.0)

    def test_mr_sampling_roundtrip(self, gep):
        toolkit, _ = gep
        cluster = toolkit.deploy(n_workers=4, chunk_size_mb=64)
        result = cluster.sample(60.0)
        sampled = cluster.runner.hdfs.read_trace_array(result.output_path)
        seq = toolkit.sample(60.0)
        assert len(sampled) == len(seq)

    def test_mr_kmeans(self, gep):
        toolkit, _ = gep
        cluster = toolkit.sample(300.0).deploy(n_workers=4, chunk_size_mb=1)
        res = cluster.kmeans(k=3, seed=5, max_iter=10)
        assert res.centroids.shape == (3, 2)
        assert res.history

    def test_mr_djcluster(self, gep):
        toolkit, _ = gep
        cluster = toolkit.sample(300.0).deploy(n_workers=4, chunk_size_mb=64)
        res = cluster.djcluster(DJClusterParams(radius_m=100, min_pts=4))
        assert res.sim_seconds > 0

    def test_mr_rtree(self, gep):
        toolkit, _ = gep
        sampled = toolkit.sample(300.0)
        cluster = sampled.deploy(n_workers=4, chunk_size_mb=1)
        res = cluster.build_rtree(n_partitions=3)
        assert len(res.tree) == len(sampled)

    def test_mr_mmc_learning(self, gep):
        toolkit, truth = gep
        sampled = toolkit.sample(60.0)
        cluster = sampled.deploy(n_workers=4, chunk_size_mb=1)
        pois = np.array(
            [(p.latitude, p.longitude) for u in truth for p in u.pois]
        )
        models = run_mmc_mapreduce(cluster.runner, cluster.input_path, pois)
        assert set(models) == set(sampled.dataset.users)


class TestDeanonymization:
    def test_facade_links_users(self):
        toolkit, _ = Gepeto.synthetic(n_users=3, days=4, seed=55)
        sampled = toolkit.sample(60.0)
        # Pseudonymize a copy as the "released" dataset.
        released = []
        truth_map = {}
        for user, arr in zip(sampled.dataset.users, sampled.dataset.trails()):
            pseud = f"x-{user}"
            released.append(
                TraceArray.from_columns(
                    [pseud], arr.latitude.copy(), arr.longitude.copy(), arr.timestamp.copy()
                )
            )
            truth_map[pseud] = user
        target = TraceArray.concatenate(released).by_user()
        result = deanonymization_attack(
            sampled.dataset, target, truth_map, DJClusterParams(radius_m=80, min_pts=5)
        )
        # Identical data: the fingerprints must match their own user.
        assert result.success_rate == 1.0
