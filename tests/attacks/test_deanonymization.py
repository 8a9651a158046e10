"""Unit tests for the de-anonymization (linking) attack."""

import dataclasses

import numpy as np
import pytest

from repro.algorithms.djcluster import DJClusterParams
from repro.attacks.deanonymization import (
    DeanonymizationResult,
    deanonymization_attack,
    fingerprint_user,
)
from repro.algorithms.sampling import sample_dataset
from repro.geo.trace import TraceArray


@pytest.fixture(scope="module")
def split_corpus():
    """Synthetic users split into training days and pseudonymized target
    days — the linking-attack scenario from Section II."""
    from repro.geo.synthetic import SyntheticConfig, generate_dataset

    cfg = SyntheticConfig(n_users=4, days=4, seed=77)
    dataset, users = generate_dataset(cfg)
    sampled = sample_dataset(dataset, 60.0)
    cut = cfg.start_timestamp + 2 * 86400.0
    training, target = [], []
    ground_truth = {}
    for user, arr in zip(sampled.users, sampled.trails()):
        first = arr[arr.timestamp < cut]
        second = arr[arr.timestamp >= cut]
        if len(first):
            training.append(first)
        if len(second):
            pseud = f"anon-{user}"
            renamed = TraceArray.from_columns(
                [pseud],
                second.latitude.copy(),
                second.longitude.copy(),
                second.timestamp.copy(),
            )
            target.append(renamed)
            ground_truth[pseud] = user
    training, target = (TraceArray.concatenate(side).by_user() for side in (training, target))
    return training, target, ground_truth


PARAMS = DJClusterParams(radius_m=80, min_pts=5)


class TestFingerprint:
    def test_fingerprint_built_for_dense_trail(self, split_corpus):
        training, _, _ = split_corpus
        trail = training.trail(training.users[0])
        fp = fingerprint_user(trail, PARAMS)
        assert fp is not None
        assert fp.n_states >= 1
        assert np.allclose(fp.transitions.sum(axis=1), 1.0)

    def test_sparse_trail_unlinkable(self):
        trail = TraceArray.from_columns(
            ["ghost"], np.array([39.9]), np.array([116.4]), np.array([0.0])
        )
        assert fingerprint_user(trail, PARAMS) is None


class TestAttack:
    def test_attack_beats_random_guessing(self, split_corpus):
        training, target, truth = split_corpus
        result = deanonymization_attack(training, target, truth, PARAMS)
        assert result.n_targets == len(truth)
        # Random linking over 4 users succeeds 25% of the time; the
        # fingerprint attack must do clearly better on clean data.
        assert result.success_rate >= 0.5

    def test_linkage_covers_every_pseudonym(self, split_corpus):
        training, target, truth = split_corpus
        result = deanonymization_attack(training, target, truth, PARAMS)
        assert set(result.linkage) == set(truth)

    def test_scores_populated_for_linked(self, split_corpus):
        training, target, truth = split_corpus
        result = deanonymization_attack(training, target, truth, PARAMS)
        for pseud, link in result.linkage.items():
            if link is not None:
                assert pseud in result.scores

    def test_empty_training_links_nothing(self, split_corpus):
        _, target, truth = split_corpus
        result = deanonymization_attack(TraceArray.empty(), target, truth, PARAMS)
        assert all(v is None for v in result.linkage.values())
        assert result.success_rate == 0.0


def _renamed_trail(array: TraceArray, user: str) -> TraceArray:
    return TraceArray.from_columns(
        [user],
        array.latitude.copy(),
        array.longitude.copy(),
        array.timestamp.copy(),
    )


class TestTieBreakAndEvidence:
    """Regression tests for the deterministic tie-break and the
    no-spatial-evidence semantics (both fixed together: ties now break
    by (score, user_id), and penalty-only scores no longer count as
    linkage evidence)."""

    @pytest.fixture(scope="class")
    def one_user_corpus(self):
        from repro.attacks.linkage_mr import synthetic_linkage_corpus

        train, target, _truth = synthetic_linkage_corpus(1, seed=3)
        return train, target

    def test_equidistant_tie_goes_to_smaller_user_id(self, one_user_corpus):
        from repro.attacks.linkage_mr import SYNTH_ATTACK_PARAMS

        train, target = one_user_corpus
        tgt = _renamed_trail(target, "anon-x").by_user()
        truth = {"anon-x": "alice"}
        # Two training identities with byte-identical trails are exactly
        # equidistant from the target; the winner must be the
        # lexicographically smaller id whatever the insertion order.
        for order in (("alice", "bob"), ("bob", "alice")):
            training = TraceArray.concatenate([_renamed_trail(train, u) for u in order]).by_user()
            result = deanonymization_attack(
                training, tgt, truth, SYNTH_ATTACK_PARAMS
            )
            assert result.linkage["anon-x"] == "alice"
            assert "anon-x" in result.scores

    def test_no_spatial_evidence_means_unlinked(self, one_user_corpus):
        from repro.attacks.linkage_mr import SYNTH_ATTACK_PARAMS

        train, target = one_user_corpus
        # The only training user lives thousands of km away: every POI
        # pair is beyond max_match_dist_m, so the old penalty-only score
        # would have "linked" it; now there is no evidence at all.
        far = TraceArray.from_columns(
            ["far"],
            train.latitude - 20.0,
            train.longitude + 40.0,
            train.timestamp.copy(),
        )
        training = far.by_user()
        tgt = _renamed_trail(target, "anon-x").by_user()
        result = deanonymization_attack(
            training, tgt, {"anon-x": "far"}, SYNTH_ATTACK_PARAMS
        )
        assert result.linkage["anon-x"] is None
        assert "anon-x" not in result.scores

    def test_params_default_is_not_shared_mutable(self):
        import inspect

        from repro.algorithms.djcluster import (
            djcluster_sequential,
            run_djcluster_mapreduce,
        )
        from repro.attacks.poi import poi_attack

        for fn in (
            fingerprint_user,
            deanonymization_attack,
            poi_attack,
            djcluster_sequential,
            run_djcluster_mapreduce,
        ):
            default = inspect.signature(fn).parameters["params"].default
            assert default == DJClusterParams(), fn.__name__
            with pytest.raises(dataclasses.FrozenInstanceError):
                default.radius_m = 1.0  # shared, so it must not be mutable


class TestResultArithmetic:
    def test_success_rate(self):
        r = DeanonymizationResult(
            linkage={"p1": "a", "p2": "b", "p3": None},
            ground_truth={"p1": "a", "p2": "x", "p3": "c"},
        )
        assert r.n_targets == 3
        assert r.n_correct == 1
        assert r.success_rate == pytest.approx(1 / 3)

    def test_empty(self):
        r = DeanonymizationResult(linkage={}, ground_truth={})
        assert r.success_rate == 0.0
