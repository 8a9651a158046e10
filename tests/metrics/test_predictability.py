"""Unit tests for the Song-et-al. predictability metrics."""

import math

import numpy as np
import pytest

from repro.metrics.predictability import (
    max_predictability,
    predictability_report,
    random_entropy,
    real_entropy,
    temporal_uncorrelated_entropy,
)


class TestEntropies:
    def test_random_entropy_counts_states(self):
        assert random_entropy([0, 1, 2, 3]) == 2.0
        assert random_entropy([7, 7, 7]) == 0.0
        assert random_entropy([]) == 0.0
        assert temporal_uncorrelated_entropy([]) == 0.0

    def test_uncorrelated_entropy_uniform(self):
        # Four equally frequent places: 2 bits.
        seq = [0, 1, 2, 3] * 10
        assert temporal_uncorrelated_entropy(seq) == pytest.approx(2.0)

    def test_uncorrelated_entropy_skewed_below_random(self):
        seq = [0] * 90 + [1] * 5 + [2] * 5
        s_unc = temporal_uncorrelated_entropy(seq)
        assert s_unc < random_entropy(seq)

    def test_real_entropy_constant_sequence_near_zero(self):
        seq = [0] * 50
        assert real_entropy(seq) < 0.6  # finite-size floor, -> 0 as n grows

    def test_real_entropy_periodic_below_uncorrelated(self):
        seq = [0, 1] * 40
        assert real_entropy(seq) < temporal_uncorrelated_entropy(seq) + 0.3
        # And far below random order-free entropy of a random sequence.
        rng = np.random.default_rng(0)
        rand_seq = rng.integers(0, 2, 80)
        assert real_entropy(seq) < real_entropy(rand_seq)

    def test_real_entropy_random_sequence_near_log_n(self):
        rng = np.random.default_rng(1)
        seq = rng.integers(0, 4, 400)
        s = real_entropy(seq)
        assert 1.2 < s <= 2.6  # around log2(4)=2 with estimator bias

    def test_real_entropy_short_sequences(self):
        assert real_entropy([]) == 0.0
        assert real_entropy([3]) == 0.0

    def test_sequence_must_be_1d(self):
        with pytest.raises(ValueError):
            random_entropy(np.zeros((2, 2)))


class TestFanoBound:
    def test_zero_entropy_fully_predictable(self):
        assert max_predictability(0.0, 5) == pytest.approx(1.0, abs=1e-6)

    def test_max_entropy_gives_chance(self):
        n = 8
        assert max_predictability(math.log2(n), n) == pytest.approx(1.0 / n, abs=1e-6)

    def test_monotone_in_entropy(self):
        pis = [max_predictability(s, 10) for s in (0.0, 0.5, 1.0, 2.0, 3.0)]
        assert all(b <= a + 1e-9 for a, b in zip(pis, pis[1:]))

    def test_single_state(self):
        assert max_predictability(0.0, 1) == 1.0

    def test_invalid_states(self):
        with pytest.raises(ValueError):
            max_predictability(1.0, 0)

    def test_song_et_al_ballpark(self):
        """Song et al.'s famous result: S_real ~ 0.8 bits over ~46 places
        gives Pi_max ~ 0.93."""
        pi = max_predictability(0.8, 46)
        assert 0.88 < pi < 0.96


class TestReport:
    def test_commuter_is_highly_predictable(self):
        seq = [0, 1] * 50  # home-work metronome
        report = predictability_report(seq)
        assert report.n_states == 2
        assert report.pi_max > 0.75
        assert report.s_real <= report.s_unc + 0.3

    def test_wanderer_less_predictable(self):
        rng = np.random.default_rng(3)
        wander = predictability_report(rng.integers(0, 8, 300))
        commuter = predictability_report([0, 1] * 150)
        assert wander.pi_max < commuter.pi_max

    def test_on_synthetic_user(self, small_corpus):
        from repro.attacks.mmc import visit_sequence
        from repro.algorithms.sampling import sample_array

        dataset, users = small_corpus
        user = users[0]
        arr = sample_array(dataset.trail(user.user_id), 60.0)
        coords = np.array([(p.latitude, p.longitude) for p in user.pois])
        visits = visit_sequence(arr, coords)
        report = predictability_report(visits)
        assert report.n_visits == len(visits)
        # Schedule-driven synthetic users are far from random.
        if report.n_visits >= 6:
            assert report.pi_max > 1.0 / max(report.n_states, 1)
