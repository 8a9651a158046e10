"""Unit tests for pseudonymization."""

import numpy as np

from repro.geo.trace import TraceArray
from repro.sanitization import pseudonyms
from repro.sanitization.pseudonyms import ANONYMOUS_ID, Pseudonymizer
from repro.utils.hashrng import fnv1a64


def _ds(users=("alice", "bob")):
    trails = []
    for i, user in enumerate(users):
        trails.append(
            TraceArray.from_columns(
                [user],
                np.full(5, 39.9 + i * 0.01),
                np.full(5, 116.4),
                np.arange(5.0),
            )
        )
    return TraceArray.concatenate(trails).by_user()


class TestPseudonymizer:
    def test_identities_replaced_but_linkable(self):
        ds = _ds()
        out = Pseudonymizer(seed=1).sanitize_dataset(ds)
        assert len(out.users) == 2
        assert not set(out.users) & {"alice", "bob"}
        # Within-release linkability: each pseudonym still owns a full trail.
        for user in out.users:
            assert len(out.trail(user)) == 5

    def test_deterministic_and_seed_sensitive(self):
        p1 = Pseudonymizer(seed=1)
        p2 = Pseudonymizer(seed=2)
        alice, bob = p1.pseudonyms(["alice", "bob"])
        assert p1.pseudonyms(["alice"]) == [alice]
        assert alice != bob
        assert p2.pseudonyms(["alice"]) != [alice]

    def test_coordinates_untouched(self):
        ds = _ds()
        out = Pseudonymizer(seed=3).sanitize_dataset(ds)
        assert len(out) == len(ds)
        assert np.allclose(
            np.sort(out.latitude), np.sort(ds.latitude)
        )

    def test_anonymous_mode_merges_everyone(self):
        ds = _ds()
        out = Pseudonymizer(anonymous=True).sanitize_dataset(ds)
        assert out.users == (ANONYMOUS_ID,)
        assert len(out) == 10

    def test_chunk_invariant(self):
        arr = _ds()
        p = Pseudonymizer(seed=5)
        whole = p.sanitize_array(arr)
        parts = [p.sanitize_array(arr[:4]), p.sanitize_array(arr[4:])]
        recombined = list(parts[0].user_ids()) + list(parts[1].user_ids())
        assert list(whole.user_ids()) == recombined

    def test_defeated_by_fingerprinting(self, small_corpus):
        """The paper's core claim: pseudonymization alone does not stop
        the linking attack."""
        from repro.algorithms.djcluster import DJClusterParams
        from repro.algorithms.sampling import sample_dataset
        from repro.attacks.deanonymization import deanonymization_attack

        dataset, _ = small_corpus
        sampled = sample_dataset(dataset, 60.0)
        pseudonymizer = Pseudonymizer(seed=9)
        released = pseudonymizer.sanitize_dataset(sampled)
        truth = dict(zip(pseudonymizer.pseudonyms(sampled.users), sampled.users))
        result = deanonymization_attack(
            sampled, released, truth, DJClusterParams(radius_m=80, min_pts=5)
        )
        assert result.success_rate == 1.0


class TestLinearInUsers:
    """Pseudonymizing a dataset hashes each user once and sorts once."""

    def test_one_pseudonym_per_trail(self, monkeypatch):
        from repro.attacks.linkage_mr import synthetic_linkage_corpus

        n_users = 60
        training, _, _ = synthetic_linkage_corpus(n_users, seed=2)
        dataset = training.by_user()
        calls = []

        def counted(user_id):
            calls.append(user_id)
            return fnv1a64(user_id)

        monkeypatch.setattr(pseudonyms, "fnv1a64", counted)
        out = Pseudonymizer(seed=4).sanitize_dataset(dataset)
        assert tuple(sorted(calls)) == dataset.users
        assert len(out.users) == n_users

    def test_anonymous_release_is_the_recorded_trail(self):
        """Everyone merges into one ``unknown`` trail, tied timestamps in
        user order: the trail ``golden_trace_model.json`` recorded."""
        import json

        from repro.geo.synthetic import generate_dataset
        from tests.goldens.registry import committed
        from tests.goldens.trace_model import SYNTHETIC, describe

        dataset, _ = generate_dataset(SYNTHETIC)
        out = describe(Pseudonymizer(anonymous=True).sanitize_dataset(dataset))
        assert out["user_ids"] == [ANONYMOUS_ID]
        assert out == json.loads(committed("trace_model"))["sanitized"]["anonymous"]
