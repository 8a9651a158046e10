"""Unit tests for pseudonymization."""

import numpy as np

from repro.geo.trace import GeolocatedDataset, TraceArray
from repro.sanitization.pseudonyms import ANONYMOUS_ID, Pseudonymizer


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
    return GeolocatedDataset(trails)


class TestPseudonymizer:
    def test_identities_replaced_but_linkable(self):
        ds = _ds()
        out = Pseudonymizer(seed=1).sanitize_dataset(ds)
        assert out.num_users() == 2
        assert not set(out.user_ids) & {"alice", "bob"}
        # Within-release linkability: each pseudonym still owns a full trail.
        for user in out.user_ids:
            assert len(out.trail(user)) == 5

    def test_deterministic_and_seed_sensitive(self):
        p1 = Pseudonymizer(seed=1)
        p2 = Pseudonymizer(seed=2)
        assert p1.pseudonym_for("alice") == p1.pseudonym_for("alice")
        assert p1.pseudonym_for("alice") != p1.pseudonym_for("bob")
        assert p1.pseudonym_for("alice") != p2.pseudonym_for("alice")

    def test_coordinates_untouched(self):
        ds = _ds()
        out = Pseudonymizer(seed=3).sanitize_dataset(ds)
        assert len(out.flat()) == len(ds.flat())
        assert np.allclose(
            np.sort(out.flat().latitude), np.sort(ds.flat().latitude)
        )

    def test_anonymous_mode_merges_everyone(self):
        ds = _ds()
        out = Pseudonymizer(anonymous=True).sanitize_dataset(ds)
        assert out.user_ids == [ANONYMOUS_ID]
        assert len(out.flat()) == 10

    def test_chunk_invariant(self):
        arr = _ds().flat()
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
        truth = {
            pseudonymizer.pseudonym_for(u): u for u in sampled.user_ids
        }
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
        dataset = GeolocatedDataset.from_array(training)
        calls = []
        hash_one = Pseudonymizer.pseudonym_for

        def counted(self, user_id):
            calls.append(user_id)
            return hash_one(self, user_id)

        monkeypatch.setattr(Pseudonymizer, "pseudonym_for", counted)
        out = Pseudonymizer(seed=4).sanitize_dataset(dataset)
        assert sorted(calls) == dataset.user_ids
        assert out.num_users() == n_users

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
