#!/usr/bin/env python
"""De-anonymization: why pseudonyms are not privacy (Section II).

Scenario: a telecom releases two weeks of "anonymized" trails under
fresh pseudonyms.  The adversary holds older, identified data for the
same population (auxiliary information).  The attack fingerprints every
individual — POIs extracted with DJ-Cluster, movement patterns as a
Mobility Markov Chain — and links each pseudonym to the closest known
fingerprint.

Also demonstrates the future-work prediction attack: once the MMC is
built, the adversary predicts each user's next place.

Run:  python examples/deanonymization_attack.py
"""

import numpy as np

from repro import Gepeto
from repro.algorithms.djcluster import DJClusterParams
from repro.algorithms.sampling import sample_dataset
from repro.attacks.deanonymization import deanonymization_attack
from repro.attacks.poi import poi_attack
from repro.attacks.prediction import evaluate_next_place_prediction
from repro.geo.trace import TraceArray
from repro.sanitization import GaussianMask


def split_and_pseudonymize(dataset, cut_ts):
    """Older identified data vs newer pseudonymized release."""
    training, release = [], []
    truth = {}
    for i, (user, arr) in enumerate(zip(dataset.users, dataset.trails())):
        old = arr[arr.timestamp < cut_ts]
        new = arr[arr.timestamp >= cut_ts]
        if len(old):
            training.append(old)
        if len(new):
            pseud = f"pseudonym-{i:02d}"
            release.append(
                TraceArray.from_columns(
                    [pseud], new.latitude.copy(), new.longitude.copy(), new.timestamp.copy()
                )
            )
            truth[pseud] = user
    training, release = (TraceArray.concatenate(side).by_user() for side in (training, release))
    return training, release, truth


def main() -> None:
    gepeto, users = Gepeto.synthetic(n_users=6, days=4, seed=4242)
    sampled = sample_dataset(gepeto.dataset, 60.0)
    cut = 1175385600.0 + 2 * 86400.0  # first two days are "known"
    training, release, truth = split_and_pseudonymize(sampled, cut)
    params = DJClusterParams(radius_m=80.0, min_pts=5)

    for name, side in (("Training (identified)", training), ("Release (pseudonymized)", release)):
        print(f"{name}: {len(side.users)} users, {len(side):,} traces")
    print()

    result = deanonymization_attack(training, release, truth, params)
    print(f"{'pseudonym':<14} {'linked to':<10} {'truth':<6} {'correct':<8} score")
    for pseud in sorted(truth):
        link = result.linkage.get(pseud)
        ok = "yes" if link == truth[pseud] else "NO"
        score = result.scores.get(pseud, float("nan"))
        print(f"{pseud:<14} {str(link):<10} {truth[pseud]:<6} {ok:<8} {score:.3f}")
    print(f"\nRe-identification rate: {result.success_rate:.0%} "
          f"(random guessing: {1.0 / len(training.users):.0%})")

    # A mask degrades the linkage.
    masked_release = GaussianMask(300.0, seed=5).sanitize_dataset(release)
    masked_result = deanonymization_attack(training, masked_release, truth, params)
    print(
        f"After a 300 m Gaussian mask on the release: "
        f"{masked_result.success_rate:.0%} re-identified"
    )

    # Prediction attack: the linked identity's MMC predicts the future,
    # and the Song et al. bound says how predictable the victim can be.
    from repro.attacks.mmc import build_mmc, visit_sequence
    from repro.metrics.predictability import predictability_report
    from repro.viz import mmc_transition_table

    print("\nNext-place prediction and predictability (per identified user):")
    for user in users[:3]:
        trail = sampled.trail(user.user_id) if user.user_id in sampled.users else None
        if trail is None:
            continue
        pois = poi_attack(trail, params)
        if not pois:
            continue
        coords = np.array([p.coordinate for p in pois])
        report = evaluate_next_place_prediction(trail, coords, train_fraction=0.6)
        visits = visit_sequence(trail, coords)
        pred = predictability_report(visits)
        if report.n_predictions:
            print(
                f"  user {user.user_id}: {report.accuracy:.0%} top-1 accuracy over "
                f"{report.n_predictions} moves ({report.lift:.1f}x better than chance); "
                f"Fano bound Pi_max = {pred.pi_max:.0%} "
                f"(S_real {pred.s_real:.2f} bits over {pred.n_states} places)"
            )

    # The fingerprint itself, for the first user.
    first = users[0]
    pois = poi_attack(sampled.trail(first.user_id), params)
    if pois:
        coords = np.array([p.coordinate for p in pois[:5]])
        mmc = build_mmc(
            sampled.trail(first.user_id), coords, labels=[p.label for p in pois[:5]]
        )
        print(f"\nMobility Markov Chain of user {first.user_id}:")
        print(mmc_transition_table(mmc))


if __name__ == "__main__":
    main()
