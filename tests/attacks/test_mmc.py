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
        assert np.argmax(mmc.transitions[0]) == 1
        assert np.argmax(mmc.transitions[1]) == 0

    def test_stationary_is_fixed_point(self):
        arr = _trail_visiting([0, 1, 0, 2, 0, 1, 2, 0])
        mmc = build_mmc(arr, POIS, smoothing=0.1)
        pi = mmc.stationary_distribution()
        assert pi.sum() == pytest.approx(1.0)
        assert np.allclose(pi @ mmc.transitions, pi, atol=1e-9)


class TestMMCDistance:
    def test_self_distance_zero(self):
        mmc = build_mmc(_trail_visiting([0, 1, 0, 2, 0]), POIS)
        assert mmc_link_score(mmc, mmc) == pytest.approx(0.0, abs=1e-9)

    def test_a_chain_without_states_shares_nothing(self):
        empty = MobilityMarkovChain(
            states=np.empty((0, 2)), transitions=np.empty((0, 0)), visit_counts=np.empty(0)
        )
        mmc = build_mmc(_trail_visiting([0, 1, 0]), POIS)
        assert mmc_link_score(empty, mmc) is None and mmc_link_score(mmc, empty) is None

    def test_symmetric_up_to_matching(self):
        a = build_mmc(_trail_visiting([0, 1, 0, 1, 2]), POIS)
        b = build_mmc(_trail_visiting([0, 2, 0, 2, 1]), POIS)
        assert mmc_link_score(a, b) == pytest.approx(mmc_link_score(b, a), rel=1e-6)

    def test_same_behavior_closer_than_different(self):
        a1 = build_mmc(_trail_visiting([0, 1, 0, 1, 0, 1]), POIS)
        a2 = build_mmc(_trail_visiting([0, 1, 0, 1, 0]), POIS)
        b = build_mmc(_trail_visiting([2, 0, 2, 0, 2, 2, 0]), POIS)
        assert mmc_link_score(a1, a2) < mmc_link_score(a1, b)



def _random_chains(rng, n_chains):
    """Chains of 1-6 states near one city, with some uniform (unvisited) rows."""
    chains = []
    for k in rng.integers(1, 7, n_chains).tolist():
        counts = rng.integers(0, 4, (k, k)).astype(np.float64)
        sums = counts.sum(axis=1, keepdims=True)
        chains.append(MobilityMarkovChain(
            states=np.column_stack((rng.uniform(39.8, 40.0, k), rng.uniform(116.2, 116.5, k))),
            transitions=np.where(sums > 0, counts / np.where(sums == 0, 1, sums), 1.0 / k),
            visit_counts=rng.integers(0, 5, k).astype(np.float64),
        ))
    return chains


class TestRowSumCheck:
    @pytest.mark.parametrize("err, ok", [(1.0e-5, True), (1.2e-5, False)])
    def test_row_tolerance_is_allclose(self, err, ok):
        # allclose(rtol=1e-5, atol=1e-9) against 1: |row sum - 1| <= 1.001e-5.
        rows = np.array([[0.5 + err, 0.5], [0.5, 0.5]])
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9) is ok

        def make():
            return MobilityMarkovChain(
                states=np.zeros((2, 2)), transitions=rows, visit_counts=np.zeros(2)
            )

        if ok:
            make()
        else:
            with pytest.raises(ValueError, match="sum to 1"):
                make()

    def test_nan_row_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MobilityMarkovChain(
                states=np.zeros((2, 2)),
                transitions=np.array([[np.nan, 0.5], [0.5, 0.5]]),
                visit_counts=np.zeros(2),
            )


class TestLinkScoreTerms:
    def test_link_scores_are_the_numpy_scalar_scores(self):
        # The scoring as NumPy-scalar arithmetic, term by term: the
        # Python-float scoring must land on the same bits.
        from repro.geo.distance import haversine_m

        def oracle(a, b, max_dist_m=500.0, penalty=1.0):
            d = np.atleast_2d(haversine_m(
                a.states[:, None, 0], a.states[:, None, 1],
                b.states[None, :, 0], b.states[None, :, 1],
            ))
            pairs, used_a, used_b = [], set(), set()
            for flat in np.argsort(d, axis=None):
                i, j = np.unravel_index(flat, d.shape)
                if d[i, j] > max_dist_m:
                    break
                if i in used_a or j in used_b:
                    continue
                pairs.append((int(i), int(j)))
                used_a.add(int(i))
                used_b.add(int(j))
            if not pairs:
                return None
            pi_a, pi_b = a.stationary_distribution(), b.stationary_distribution()
            score = 0.0
            for i, j in pairs:
                score += abs(pi_a[i] - pi_b[j])
                for i2, j2 in pairs:
                    score += abs(a.transitions[i, i2] - b.transitions[j, j2]) * pi_a[i]
            score += penalty * float(
                sum(pi_a[i] for i in range(a.n_states) if i not in used_a)
                + sum(pi_b[j] for j in range(b.n_states) if j not in used_b)
            )
            return float(score)

        chains = _random_chains(np.random.default_rng(5), 30)
        scored = 0
        for a in chains:
            for b in chains:
                want = oracle(a, b, 5_000.0)
                got = mmc_link_score(a, b, max_match_dist_m=5_000.0)
                assert (got is None) == (want is None)
                if got is not None:
                    scored += 1
                    assert got.hex() == want.hex()
        assert scored > 100
