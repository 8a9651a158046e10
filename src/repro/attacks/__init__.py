"""Inference attacks over geolocated datasets.

GEPETO's purpose is to let a data curator *evaluate* inference attacks
(Section II).  The clustering algorithms extract the Points Of Interest
of an individual — "one possible type of inference attack"; the modules
here implement that attack plus the extensions the paper's conclusion
plans: Mobility Markov Chains, next-location prediction and
de-anonymization (linking) attacks.

* :mod:`repro.attacks.poi` — POI extraction from clusters, with
  home/work labelling heuristics.
* :mod:`repro.attacks.mmc` — Mobility Markov Chains: a compact mobility
  model supporting prediction and fingerprint comparison.
* :mod:`repro.attacks.prediction` — next-location prediction evaluation.
* :mod:`repro.attacks.deanonymization` — linking pseudonymized trails to
  known users via MMC/POI fingerprints.
"""

from repro.attacks.poi import (
    PointOfInterestEstimate,
    extract_pois,
    poi_attack,
    label_home_work,
)
from repro.attacks.mmc import MobilityMarkovChain, build_mmc
from repro.attacks.prediction import evaluate_next_place_prediction, PredictionReport
from repro.attacks.deanonymization import (
    DeanonymizationResult,
    deanonymization_attack,
    fingerprint_user,
    fingerprint_users,
)
from repro.attacks.social import ColocationParams, colocation_graph, contact_events
from repro.attacks.mmc_mr import run_mmc_mapreduce
from repro.attacks.semantics import (
    SemanticPlace,
    SemanticVisit,
    label_places,
)

__all__ = [
    "PointOfInterestEstimate",
    "extract_pois",
    "poi_attack",
    "label_home_work",
    "MobilityMarkovChain",
    "build_mmc",
    "evaluate_next_place_prediction",
    "PredictionReport",
    "DeanonymizationResult",
    "deanonymization_attack",
    "fingerprint_user",
    "fingerprint_users",
    "ColocationParams",
    "colocation_graph",
    "contact_events",
    "run_mmc_mapreduce",
    "SemanticPlace",
    "SemanticVisit",
    "label_places",
]
