"""Extension bench — MapReduced MMC learning at corpus scale.

Section VIII's first planned extension ("learning a mobility model out
of the mobility traces of an individual, such as Mobility Markov
Chains") has no paper numbers; this bench demonstrates it working at the
evaluation's scale: DJ-Cluster POIs over the 10-min-sampled 178-user
corpus feed a single MapReduce job that learns one MMC per user, then a
prediction sweep scores the models.
"""

import numpy as np
import pytest

from benchmarks.conftest import make_runner, write_report
from repro.algorithms.djcluster import DJClusterParams, djcluster_sequential
from repro.algorithms.sampling import sample_array
from repro.attacks.mmc_mr import run_mmc_mapreduce
from repro.attacks.prediction import evaluate_next_place_prediction


@pytest.fixture(scope="module")
def mmc_models(corpus_128mb):
    array, users = corpus_128mb
    sampled = sample_array(array, 600.0)
    clusters = djcluster_sequential(sampled, DJClusterParams(radius_m=120, min_pts=8))
    pois = clusters.cluster_centroids()
    runner = make_runner(sampled, n_workers=5, chunk_mb=1, path="in")
    models = run_mmc_mapreduce(runner, "in", pois, attach_radius_m=250.0, smoothing=0.1)

    # Score next-place prediction on a longitudinal slice: the one-day
    # evaluation corpus yields visit sequences too short to split, so the
    # sweep uses a 20-user, 5-day corpus with its own POIs.
    from repro.geo.synthetic import SyntheticConfig, generate_dataset

    long_ds, long_users = generate_dataset(
        SyntheticConfig(n_users=20, days=5, seed=555)
    )
    accs, lifts = [], []
    for user in long_users:
        fine = sample_array(user.trail, 60.0)
        states = np.array([(p.latitude, p.longitude) for p in user.pois])
        report = evaluate_next_place_prediction(
            fine, states, train_fraction=0.6, attach_radius_m=250.0
        )
        if report.n_predictions >= 3:
            accs.append(report.accuracy)
            lifts.append(report.lift)
    lines = [
        "Extension - MapReduced Mobility Markov Chain learning",
        f"POI states (global DJ-Cluster centroids): {len(pois)}",
        f"users modelled: {len(models)} / {len(users)}",
        f"prediction sweep (20 users x 5 days): {len(accs)} evaluable users",
        f"mean next-place accuracy: {np.mean(accs):.0%}",
        f"mean lift over uniform guessing: {np.mean(lifts):.1f}x",
    ]
    print(write_report("extension_mmc", lines))
    return models, pois, accs, lifts


def test_every_user_modelled(mmc_models, corpus_128mb):
    models, _, _, _ = mmc_models
    _, users = corpus_128mb
    # A few sparse users lose all their traces to preprocessing/noise.
    assert len(models) >= 0.9 * len(users)


def test_models_are_valid_chains(mmc_models):
    models, pois, _, _ = mmc_models
    for mmc in list(models.values())[:20]:
        assert mmc.n_states == len(pois)
        assert np.allclose(mmc.transitions.sum(axis=1), 1.0)


def test_prediction_beats_chance(mmc_models):
    _, _, accs, lifts = mmc_models
    assert len(accs) >= 10
    assert np.mean(lifts) > 2.0


def test_benchmark_mmc_job(benchmark, corpus_128mb, mmc_models):
    """Wall-clock of the MMC-learning MapReduce job at 10-min scale.

    Depends on ``mmc_models`` so a ``--benchmark-only`` run still
    generates the extension report.
    """
    array, _ = corpus_128mb
    _, pois, _, _ = mmc_models
    sampled = sample_array(array, 600.0)

    def run():
        runner = make_runner(sampled, n_workers=5, chunk_mb=1, path="b/in")
        return run_mmc_mapreduce(runner, "b/in", pois, output_path="b/models")

    models = benchmark.pedantic(run, rounds=2, iterations=1)
    assert models
