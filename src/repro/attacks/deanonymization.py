"""De-anonymization (linking) attacks via mobility fingerprints.

"The POIs of an individual and his movement patterns constitute a form of
fingerprinting: simply anonymizing or pseudonymizing the geolocated data
is clearly not a sufficient form of privacy protection against linking or
de-anonymization attacks" (Section II).

The attack: the adversary holds a *training* dataset with known
identities (auxiliary information), receives a pseudonymized *target*
dataset, fingerprints every trail in both (POIs + MMC) and links each
pseudonym to the training identity with the closest fingerprint.

Links are chosen by ``min((score, user_id))``: ties on the raw
fingerprint distance break deterministically toward the lexicographically
smallest training identity, so the result is independent of trail
iteration order and reproducible by a distributed reduce.  Candidates
with no spatial evidence (no POI pair within ``max_match_dist_m``; see
:func:`repro.attacks.mmc.mmc_link_score`) are skipped rather than scored
by their constant unmatched-mass penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.djcluster import DJClusterParams, _dense_clusters, preprocess_array
from repro.attacks.mmc import MobilityMarkovChain, mmc_link_score, segmented_chains
from repro.attacks.poi import segmented_pois
from repro.checks import count, non_negative
from repro.geo.trace import GeolocatedDataset, TraceArray

__all__ = [
    "fingerprint_user",
    "fingerprint_users",
    "deanonymization_attack",
    "DeanonymizationResult",
]


def fingerprint_users(
    array: TraceArray,
    params: DJClusterParams = DJClusterParams(),
    max_pois: int = 8,
    attach_radius_m: float = 200.0,
) -> dict[int, MobilityMarkovChain | None]:
    """Mobility fingerprints (POIs + MMC) of every user of ``array``.

    One segmented pass over all users at once; a user's fingerprint
    depends on that user's rows alone and is the same to the bit whoever
    shares the array.  Maps each user index in ``array.user_index`` to
    the chain over the user's ``max_pois`` largest POIs, or to ``None``
    when no POI can be extracted (trail too sparse), which the attack
    treats as "unlinkable".
    """
    # A NaN radius would attach no trace and leave every row uniform.
    max_pois = count("max_pois", max_pois, 1)
    non_negative("attach_radius_m", attach_radius_m)
    trails = array.sort_by_time()
    prints: dict[int, MobilityMarkovChain | None] = dict.fromkeys(
        np.unique(trails.user_index).tolist()
    )
    _, prepared = preprocess_array(trails, params)
    members, starts = _dense_clusters(
        prepared.coordinates(), params, groups=prepared.user_index
    )
    if len(starts) == 0:
        return prints
    states, labels, owners, n_states = segmented_pois(prepared, members, starts, max_pois)
    transitions, visit_counts = segmented_chains(
        trails, states, owners, n_states, attach_radius_m
    )
    at = cell = 0
    for user, k in zip(owners.tolist(), n_states.tolist()):
        prints[user] = MobilityMarkovChain(
            states=states[at : at + k],
            transitions=transitions[cell : cell + k * k].reshape(k, k),
            visit_counts=visit_counts[at : at + k],
            labels=labels[at : at + k],
        )
        at += k
        cell += k * k
    return prints


def fingerprint_user(
    trail: TraceArray,
    params: DJClusterParams = DJClusterParams(),
    max_pois: int = 8,
    attach_radius_m: float = 200.0,
) -> MobilityMarkovChain | None:
    """One individual's mobility fingerprint: :func:`fingerprint_users`
    on a single trail."""
    prints = fingerprint_users(trail, params, max_pois, attach_radius_m)
    return next(iter(prints.values()), None)


@dataclass
class DeanonymizationResult:
    """Outcome of a linking attack on a pseudonymized dataset."""

    #: pseudonym -> linked training identity (or None when unlinkable).
    linkage: dict[str, str | None]
    #: pseudonym -> true identity (the evaluation ground truth).
    ground_truth: dict[str, str]
    #: pseudonym -> fingerprint distance of the chosen link.
    scores: dict[str, float] = field(default_factory=dict)

    @property
    def n_targets(self) -> int:
        return len(self.ground_truth)

    @property
    def n_correct(self) -> int:
        return sum(
            1
            for pseud, truth in self.ground_truth.items()
            if self.linkage.get(pseud) == truth
        )

    @property
    def success_rate(self) -> float:
        """Fraction of pseudonyms re-identified correctly."""
        return self.n_correct / self.n_targets if self.n_targets else 0.0


def deanonymization_attack(
    training: GeolocatedDataset,
    target: GeolocatedDataset,
    ground_truth: dict[str, str],
    params: DJClusterParams = DJClusterParams(),
    max_pois: int = 8,
    max_match_dist_m: float = 500.0,
    attach_radius_m: float = 200.0,
) -> DeanonymizationResult:
    """Link each pseudonymized trail of ``target`` to a ``training`` user.

    ``ground_truth`` maps target pseudonyms to true training identities
    and is used only for scoring, never by the attack itself.  A
    pseudonym links to ``None`` when it has no fingerprint, the training
    set is empty, or no training fingerprint shares spatial evidence with
    it (every candidate's :func:`~repro.attacks.mmc.mmc_link_score` is
    ``None``).
    """
    train_prints: dict[str, MobilityMarkovChain] = {}
    for user, trail in zip(training.user_ids, training.trails()):
        fp = fingerprint_user(trail, params, max_pois, attach_radius_m)
        if fp is not None:
            train_prints[user] = fp

    linkage: dict[str, str | None] = {}
    scores: dict[str, float] = {}
    for pseudonym, trail in zip(target.user_ids, target.trails()):
        fp = fingerprint_user(trail, params, max_pois, attach_radius_m)
        if fp is None or not train_prints:
            linkage[pseudonym] = None
            continue
        best: tuple[float, str] | None = None
        for user, train_fp in train_prints.items():
            score = mmc_link_score(fp, train_fp, max_match_dist_m=max_match_dist_m)
            if score is None:
                continue
            if best is None or (score, user) < best:
                best = (score, user)
        if best is None:
            linkage[pseudonym] = None
        else:
            linkage[pseudonym] = best[1]
            scores[pseudonym] = best[0]
    return DeanonymizationResult(linkage, dict(ground_truth), scores)
