"""Unit tests for Mobility Markov Chains."""

import numpy as np
import pytest

from repro.attacks.mmc import (
    MobilityMarkovChain,
    build_mmc,
    mmc_link_score,
    visit_sequence,
)
from repro.geo.trace import TraceArray


POIS = np.array([[39.90, 116.40], [39.95, 116.50], [39.85, 116.30]])


def _trail_visiting(sequence, dwell=3, user="u"):
    """A trail dwelling `dwell` traces at each POI of `sequence`."""
    lat, lon, ts = [], [], []
    t = 0.0
    for state in sequence:
        for _ in range(dwell):
            lat.append(POIS[state, 0] + 1e-6)
            lon.append(POIS[state, 1] - 1e-6)
            ts.append(t)
            t += 60.0
        t += 600.0  # travel gap
    return TraceArray.from_columns([user], np.array(lat), np.array(lon), np.array(ts))


class TestVisitSequence:
    def test_collapses_consecutive_repeats(self):
        arr = _trail_visiting([0, 1, 0])
        seq = visit_sequence(arr, POIS)
        assert list(seq) == [0, 1, 0]

    def test_far_traces_are_transit(self):
        arr = TraceArray.from_columns(
            ["u"],
            np.array([39.90, 39.92, 39.95]),  # middle point ~2km from any POI
            np.array([116.40, 116.45, 116.50]),
            np.array([0.0, 60.0, 120.0]),
        )
        seq = visit_sequence(arr, POIS, attach_radius_m=200.0)
        assert list(seq) == [0, 1]

    def test_empty_inputs(self):
        assert len(visit_sequence(TraceArray.empty(), POIS)) == 0
        arr = _trail_visiting([0])
        assert len(visit_sequence(arr, np.empty((0, 2)))) == 0


class TestBuildMMC:
    def test_transition_counts(self):
        arr = _trail_visiting([0, 1, 0, 1, 0, 2])
        mmc = build_mmc(arr, POIS)
        # 0->1 twice, 0->2 once, 1->0 twice.
        assert mmc.transitions[0, 1] == pytest.approx(2 / 3)
        assert mmc.transitions[0, 2] == pytest.approx(1 / 3)
        assert mmc.transitions[1, 0] == pytest.approx(1.0)

    def test_rows_stochastic(self):
        arr = _trail_visiting([0, 1, 2, 0, 2, 1])
        mmc = build_mmc(arr, POIS)
        assert np.allclose(mmc.transitions.sum(axis=1), 1.0)

    def test_unvisited_state_row_uniform(self):
        arr = _trail_visiting([0, 1, 0])
        mmc = build_mmc(arr, POIS)
        assert np.allclose(mmc.transitions[2], 1.0 / 3)

    def test_smoothing_keeps_rows_stochastic(self):
        arr = _trail_visiting([0, 1])
        mmc = build_mmc(arr, POIS, smoothing=0.5)
        assert np.allclose(mmc.transitions.sum(axis=1), 1.0)
        assert np.all(mmc.transitions > 0)

    def test_requires_states(self):
        with pytest.raises(ValueError):
            build_mmc(_trail_visiting([0]), np.empty((0, 2)))
        with pytest.raises(ValueError):
            build_mmc(_trail_visiting([0]), np.zeros((2, 3)))

    def test_validation_of_matrix(self):
        with pytest.raises(ValueError):
            MobilityMarkovChain(
                states=POIS,
                transitions=np.ones((3, 3)),  # rows sum to 3
                visit_counts=np.zeros(3),
            )
        with pytest.raises(ValueError):
            MobilityMarkovChain(
                states=POIS,
                transitions=np.eye(2),
                visit_counts=np.zeros(2),
            )


class TestPredictionAndStationary:
    def test_predict_next_most_likely(self):
        arr = _trail_visiting([0, 1, 0, 1, 0, 2])
        mmc = build_mmc(arr, POIS)
        assert mmc.predict_next(0) == 1
        assert mmc.predict_next(1) == 0

    def test_predict_out_of_range(self):
        mmc = build_mmc(_trail_visiting([0, 1]), POIS)
        with pytest.raises(IndexError):
            mmc.predict_next(5)

    def test_stationary_is_fixed_point(self):
        arr = _trail_visiting([0, 1, 0, 2, 0, 1, 2, 0])
        mmc = build_mmc(arr, POIS, smoothing=0.1)
        pi = mmc.stationary_distribution()
        assert pi.sum() == pytest.approx(1.0)
        assert np.allclose(pi @ mmc.transitions, pi, atol=1e-9)

    def test_simulate_respects_support(self):
        arr = _trail_visiting([0, 1, 0, 1])
        mmc = build_mmc(arr, POIS)
        seq = mmc.simulate(start=0, steps=50, seed=3)
        assert seq[0] == 0
        assert set(seq.tolist()) <= {0, 1, 2}
        # 2 is unreachable from {0,1} support except via uniform row of 2.
        assert 2 not in set(seq.tolist())

    def test_next_distribution_is_copy(self):
        mmc = build_mmc(_trail_visiting([0, 1, 0]), POIS)
        dist = mmc.next_distribution(0)
        dist[:] = 0
        assert mmc.transitions[0].sum() == pytest.approx(1.0)


class TestLogLikelihood:
    def test_deterministic_sequence_zero_loglik(self):
        mmc = build_mmc(_trail_visiting([0, 1] * 6), POIS)
        # P=1.0 transitions: log-likelihood 0.
        assert mmc.log_likelihood([0, 1, 0, 1]) == pytest.approx(0.0)

    def test_impossible_transition_neg_inf(self):
        mmc = build_mmc(_trail_visiting([0, 1, 0, 1]), POIS)
        assert mmc.log_likelihood([0, 2]) == float("-inf")

    def test_own_data_beats_shuffled(self):
        seq = [0, 1, 0, 1, 0, 2, 0, 1, 0, 1]
        mmc = build_mmc(_trail_visiting(seq), POIS, smoothing=0.1)
        own = mmc.log_likelihood(seq)
        other = mmc.log_likelihood([2, 1, 2, 1, 2, 0, 2, 1, 2, 1])
        assert own > other

    def test_short_sequences_zero(self):
        mmc = build_mmc(_trail_visiting([0, 1]), POIS)
        assert mmc.log_likelihood([]) == 0.0
        assert mmc.log_likelihood([1]) == 0.0

    def test_out_of_range_rejected(self):
        mmc = build_mmc(_trail_visiting([0, 1]), POIS)
        with pytest.raises(IndexError):
            mmc.log_likelihood([0, 99])


class TestMMCDistance:
    def test_self_distance_zero(self):
        mmc = build_mmc(_trail_visiting([0, 1, 0, 2, 0]), POIS)
        assert mmc_link_score(mmc, mmc) == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_up_to_matching(self):
        a = build_mmc(_trail_visiting([0, 1, 0, 1, 2]), POIS)
        b = build_mmc(_trail_visiting([0, 2, 0, 2, 1]), POIS)
        assert mmc_link_score(a, b) == pytest.approx(mmc_link_score(b, a), rel=1e-6)

    def test_same_behavior_closer_than_different(self):
        a1 = build_mmc(_trail_visiting([0, 1, 0, 1, 0, 1]), POIS)
        a2 = build_mmc(_trail_visiting([0, 1, 0, 1, 0]), POIS)
        b = build_mmc(_trail_visiting([2, 0, 2, 0, 2, 2, 0]), POIS)
        assert mmc_link_score(a1, a2) < mmc_link_score(a1, b)
