"""Ablation — DJ-Cluster vs k-means as the POI extractor (Section VII).

The paper motivates DJ-Cluster over k-means: density clustering finds
arbitrary-shape clusters, sheds outliers as noise, is deterministic, and
needs no k.  This bench makes that argument quantitative: both
clusterers extract POIs from the same preprocessed trails, scored
against the generator's ground truth.
"""

import numpy as np
import pytest

from benchmarks.conftest import write_report
from repro.algorithms.djcluster import DJClusterParams
from repro.algorithms.sampling import sample_array
from repro.attacks.poi import extract_pois_kmeans, poi_attack
from repro.geo.synthetic import SyntheticConfig, generate_dataset
from repro.metrics.privacy import poi_recovery

PARAMS = DJClusterParams(radius_m=80.0, min_pts=6)


@pytest.fixture(scope="module")
def clusterer_scores():
    dataset, users = generate_dataset(SyntheticConfig(n_users=10, days=2, seed=404))
    dj_scores, km_scores = [], []
    for user in users:
        trail = sample_array(dataset.trail(user.user_id), 60.0)
        truth = user.pois
        dj = poi_attack(trail, PARAMS)
        dj_scores.append(poi_recovery(dj, truth, 150.0))
        # k-means gets the *true* k — the most charitable setting, which
        # a real adversary would not have.
        km = extract_pois_kmeans(
            trail, k=len(truth), min_traces=5, preprocess_params=PARAMS
        )
        km_scores.append(poi_recovery(km, truth, 150.0))
    dj_f1 = float(np.mean([s.f1 for s in dj_scores]))
    km_f1 = float(np.mean([s.f1 for s in km_scores]))
    dj_prec = float(np.mean([s.precision for s in dj_scores]))
    km_prec = float(np.mean([s.precision for s in km_scores]))
    dj_rec = float(np.mean([s.recall for s in dj_scores]))
    km_rec = float(np.mean([s.recall for s in km_scores]))
    lines = [
        "Ablation - POI extraction: DJ-Cluster vs k-means (10 users, true k given to k-means)",
        f"{'clusterer':<11} {'precision':>9} {'recall':>7} {'f1':>6}",
        f"{'dj-cluster':<11} {dj_prec:>9.2f} {dj_rec:>7.2f} {dj_f1:>6.2f}",
        f"{'k-means':<11} {km_prec:>9.2f} {km_rec:>7.2f} {km_f1:>6.2f}",
    ]
    print(write_report("ablation_clusterer", lines))
    return dj_f1, km_f1, dj_prec, km_prec


def test_djcluster_no_worse_than_kmeans(clusterer_scores):
    dj_f1, km_f1, _, _ = clusterer_scores
    assert dj_f1 >= km_f1 - 0.05


def test_djcluster_precision_advantage(clusterer_scores):
    """k-means must place all k centroids; spurious ones (dragged between
    POIs or onto residual transit) cost precision.  DJ-Cluster only
    reports dense regions."""
    _, _, dj_prec, km_prec = clusterer_scores
    assert dj_prec >= km_prec - 0.02


def test_both_find_some_pois(clusterer_scores):
    dj_f1, km_f1, _, _ = clusterer_scores
    assert dj_f1 > 0.5
    assert km_f1 > 0.2


def test_benchmark_poi_attack(benchmark, clusterer_scores):
    """Wall-clock of one user's full POI attack.  Depends on
    ``clusterer_scores`` so ``--benchmark-only`` still writes the report."""
    dataset, users = generate_dataset(SyntheticConfig(n_users=1, days=2, seed=7))
    trail = sample_array(dataset.trail(users[0].user_id), 60.0)
    pois = benchmark(poi_attack, trail, PARAMS)
    assert pois
