"""Unit tests for next-place prediction."""

import numpy as np
import pytest

from repro.attacks.prediction import PredictionReport, evaluate_next_place_prediction

from tests.attacks.test_mmc import POIS, _trail_visiting


class TestEvaluation:
    def test_perfectly_periodic_user_predicted(self):
        # Strict alternation 0-1-0-1... is fully predictable.
        arr = _trail_visiting([0, 1] * 10)
        report = evaluate_next_place_prediction(arr, POIS, train_fraction=0.5)
        assert report.n_predictions > 0
        assert report.accuracy == 1.0
        assert report.lift > 1.0

    def test_random_user_near_baseline(self):
        rng = np.random.default_rng(0)
        seq = []
        prev = -1
        for _ in range(400):
            nxt = int(rng.integers(0, 3))
            if nxt == prev:
                continue
            seq.append(nxt)
            prev = nxt
        arr = _trail_visiting(seq, dwell=1)
        report = evaluate_next_place_prediction(arr, POIS, train_fraction=0.5)
        # With self-transitions excluded, chance is ~1/2 among 2 options.
        assert report.accuracy < 0.75

    def test_short_sequence_returns_empty_report(self):
        arr = _trail_visiting([0])
        report = evaluate_next_place_prediction(arr, POIS)
        assert report.n_predictions == 0
        assert report.accuracy == 0.0

    def test_train_fraction_validated(self):
        arr = _trail_visiting([0, 1, 0, 1])
        with pytest.raises(ValueError):
            evaluate_next_place_prediction(arr, POIS, train_fraction=1.0)
        with pytest.raises(ValueError):
            evaluate_next_place_prediction(arr, POIS, train_fraction=0.0)

    def test_baseline_is_uniform_over_states(self):
        arr = _trail_visiting([0, 1] * 5)
        report = evaluate_next_place_prediction(arr, POIS)
        assert report.baseline_accuracy == pytest.approx(1.0 / 3)
        assert report.n_states == 3

    def test_counts_consistent(self):
        arr = _trail_visiting([0, 1, 2] * 6)
        report = evaluate_next_place_prediction(arr, POIS, train_fraction=0.6)
        assert 0 <= report.n_correct <= report.n_predictions
        assert report.accuracy == pytest.approx(report.n_correct / report.n_predictions)

    def test_lift_handles_zero_baseline(self):
        r = PredictionReport(10, 5, 0.5, 0.0, 0)
        assert r.lift == float("inf")
        r2 = PredictionReport(10, 0, 0.0, 0.0, 0)
        assert r2.lift == 1.0


class TestOnSyntheticUsers:
    def test_synthetic_user_beats_chance(self, small_corpus):
        from repro.algorithms.sampling import sample_array

        dataset, users = small_corpus
        user = users[1]
        trail = sample_array(dataset.trail(user.user_id), 60.0)
        coords = np.array([(p.latitude, p.longitude) for p in user.pois])
        report = evaluate_next_place_prediction(trail, coords, train_fraction=0.6)
        if report.n_predictions >= 3:
            assert report.accuracy >= report.baseline_accuracy
