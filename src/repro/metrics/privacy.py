"""Privacy metrics: how well attacks still work after sanitization.

* :func:`poi_recovery` — precision/recall of POI extraction against the
  synthetic generator's ground truth (a recovered POI counts when it
  falls within a match radius of a true one);
* :func:`anonymity_set_sizes` — per (time window, cell) count of distinct
  users, the quantity spatial cloaking guarantees a floor on;
* :func:`mixzone_anonymity_sets` — per-zone count of users traversing it
  per window (the mixing an observer must break);
* :func:`privacy_report` — the attack-oriented bundle: POI recovery plus
  de-anonymization success rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.poi import PointOfInterestEstimate
from repro.geo.distance import haversine_m
from repro.geo.grid import grid_cells, time_windows, unique_rows
from repro.geo.synthetic import PointOfInterest
from repro.geo.trace import TraceArray
from repro.sanitization.mixzones import MixZone

__all__ = [
    "poi_recovery",
    "PoiRecoveryReport",
    "division_warnings",
    "reset_division_warnings",
    "anonymity_set_sizes",
    "mixzone_anonymity_sets",
    "home_work_anonymity",
    "PrivacyReport",
    "privacy_report",
    "WindowRisk",
    "window_reidentification_risk",
]

# Count of ratio computations whose denominator was empty (e.g. POI
# recovery scored with no extracted or no true POIs).  Such ratios come
# back 0.0 instead of raising — the same convention as
# ``DeanonymizationResult.success_rate`` — but the degenerate input is
# worth surfacing, so callers (and the bench gates) can check this
# counter after a run.
_division_warnings = 0


def division_warnings() -> int:
    """Number of guarded zero-denominator ratios since the last reset."""
    return _division_warnings


def reset_division_warnings() -> None:
    """Reset the zero-denominator warning counter (test/bench hygiene)."""
    global _division_warnings
    _division_warnings = 0


def _safe_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 (counted) on an empty denominator."""
    global _division_warnings
    if not denominator:
        _division_warnings += 1
        return 0.0
    return numerator / denominator


@dataclass
class PoiRecoveryReport:
    """Outcome of scoring extracted POIs against ground truth."""

    n_true: int
    n_extracted: int
    n_matched: int
    precision: float
    recall: float
    mean_match_error_m: float

    @property
    def f1(self) -> float:
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


def poi_recovery(
    extracted: list[PointOfInterestEstimate],
    ground_truth: list[PointOfInterest],
    match_radius_m: float = 150.0,
) -> PoiRecoveryReport:
    """Greedy one-to-one matching of extracted POIs to true POIs.

    Precision = matched / extracted; recall = matched / true.  A lower
    recovery after sanitization means the mechanism bought privacy.
    """
    if not extracted or not ground_truth:
        return PoiRecoveryReport(
            n_true=len(ground_truth),
            n_extracted=len(extracted),
            n_matched=0,
            precision=_safe_ratio(0, len(extracted)),
            recall=_safe_ratio(0, len(ground_truth)),
            mean_match_error_m=float("nan"),
        )
    ex = np.array([p.coordinate for p in extracted])
    gt = np.array([(p.latitude, p.longitude) for p in ground_truth])
    d = np.atleast_2d(
        haversine_m(ex[:, None, 0], ex[:, None, 1], gt[None, :, 0], gt[None, :, 1])
    )
    matched_errors: list[float] = []
    used_ex: set[int] = set()
    used_gt: set[int] = set()
    for flat in np.argsort(d, axis=None):
        i, j = np.unravel_index(flat, d.shape)
        if d[i, j] > match_radius_m:
            break
        if i in used_ex or j in used_gt:
            continue
        used_ex.add(int(i))
        used_gt.add(int(j))
        matched_errors.append(float(d[i, j]))
    n_matched = len(matched_errors)
    return PoiRecoveryReport(
        n_true=len(ground_truth),
        n_extracted=len(extracted),
        n_matched=n_matched,
        precision=_safe_ratio(n_matched, len(extracted)),
        recall=_safe_ratio(n_matched, len(ground_truth)),
        mean_match_error_m=float(np.mean(matched_errors)) if matched_errors else float("nan"),
    )


def bucket_user_rows(array: TraceArray, cell_m: float, window_s: float):
    """The distinct ``(window, lat band, lon band, user index)`` rows of a
    release, as four sorted columns — the quasi-identifier table both
    anonymity views count over."""
    lat_band, lon_band = grid_cells(array.latitude, array.longitude, cell_m)
    window = time_windows(array.timestamp, window_s)
    return unique_rows(window, lat_band, lon_band, array.user_index)


def anonymity_set_sizes(
    dataset: TraceArray,
    cell_m: float = 500.0,
    window_s: float = 3600.0,
) -> np.ndarray:
    """Distinct-user count of every occupied (window, cell) bucket.

    The distribution's minimum is the k-anonymity level the release
    actually achieves at that granularity.
    """
    *bucket, _ = bucket_user_rows(dataset, cell_m, window_s)
    _, counts = unique_rows(*bucket, return_counts=True)
    return np.sort(counts)


@dataclass(frozen=True)
class WindowRisk:
    """Re-identification exposure of one release (or stream window).

    ``exposed_users`` counts users who occupy at least one singleton
    (time window, cell) bucket — an observer with cell-level side
    knowledge pins such a user down uniquely, the same quasi-identifier
    logic as :func:`home_work_anonymity`.  ``risk`` is the exposed
    fraction; ``min_anonymity`` is the k-anonymity level the release
    actually achieves (0 when the release is empty).
    """

    n_users: int
    exposed_users: int
    risk: float
    min_anonymity: int
    median_anonymity: float

    def to_doc(self) -> dict:
        return {
            "n_users": self.n_users,
            "exposed_users": self.exposed_users,
            "risk": round(self.risk, 9),
            "min_anonymity": self.min_anonymity,
            "median_anonymity": self.median_anonymity,
        }


def window_reidentification_risk(
    dataset: TraceArray,
    cell_m: float = 500.0,
    window_s: float = 3600.0,
) -> WindowRisk:
    """Deterministic per-release re-identification risk score.

    Uses the same (time window, cell) binning as
    :func:`anonymity_set_sizes` but keeps track of *which* users land in
    singleton buckets, so the score is a user-level exposure fraction
    rather than a bucket-level distribution.  Pure NumPy over sorted
    unique rows — byte-stable across runs and backends, which is what
    lets the streaming layer treat it as part of its equivalence
    signature.
    """
    if len(dataset) == 0:
        return WindowRisk(0, 0, 0.0, 0, 0.0)
    *bucket, user = bucket_user_rows(dataset, cell_m, window_s)
    _, bucket_ids, counts = unique_rows(
        *bucket, return_inverse=True, return_counts=True
    )
    sizes = counts[bucket_ids]  # per (bucket, user) row: its bucket population
    n_users = int(len(np.unique(user)))
    exposed = int(len(np.unique(user[sizes == 1])))
    return WindowRisk(
        n_users=n_users,
        exposed_users=exposed,
        risk=exposed / n_users,
        min_anonymity=int(counts.min()),
        median_anonymity=float(np.median(counts)),
    )


def mixzone_anonymity_sets(
    dataset: TraceArray,
    zones: list[MixZone],
    window_s: float = 3600.0,
) -> dict[int, np.ndarray]:
    """Per-zone distribution of distinct users present per time window.

    Measured on the *original* dataset: it quantifies how much mixing
    each zone would provide if deployed.
    """
    out: dict[int, np.ndarray] = {}
    windows = time_windows(dataset.timestamp, window_s)
    for zi, zone in enumerate(zones):
        inside = zone.contains(dataset.latitude, dataset.longitude)
        zone_windows, _ = unique_rows(windows[inside], dataset.user_index[inside])
        _, counts = np.unique(zone_windows, return_counts=True)
        out[zi] = np.sort(counts)
    return out


def home_work_anonymity(
    pairs: dict[str, tuple[tuple[float, float], tuple[float, float]]],
    cell_m: float = 1000.0,
) -> dict[str, int]:
    """Anonymity set size of each user's (home, work) location pair.

    Golle & Partridge ("On the anonymity of home/work location pairs",
    cited in Section II): even coarse home and work locations form a
    quasi-identifier — at US-census granularity most pairs are unique.
    ``pairs`` maps each user to ((home_lat, home_lon), (work_lat,
    work_lon)); both locations are rounded to ``cell_m`` cells and the
    returned value is, per user, how many users share their exact
    (home cell, work cell) pair.  1 means uniquely identifiable.
    """
    places = np.array(list(pairs.values()), dtype=np.float64).reshape(-1, 4)
    home = grid_cells(places[:, 0], places[:, 1], cell_m)
    work = grid_cells(places[:, 2], places[:, 3], cell_m)
    _, signature, counts = unique_rows(
        *home, *work, return_inverse=True, return_counts=True
    )
    return dict(zip(pairs, counts[signature].tolist()))


@dataclass
class PrivacyReport:
    """Attack-oriented privacy summary for one sanitized release."""

    poi: PoiRecoveryReport
    deanonymization_rate: float = float("nan")
    min_anonymity_set: int = 0


def privacy_report(
    extracted: list[PointOfInterestEstimate],
    ground_truth: list[PointOfInterest],
    deanonymization_rate: float = float("nan"),
    anonymity_sets: np.ndarray | None = None,
    match_radius_m: float = 150.0,
) -> PrivacyReport:
    """Bundle POI recovery with optional linking/anonymity measurements."""
    poi = poi_recovery(extracted, ground_truth, match_radius_m)
    min_set = int(anonymity_sets.min()) if anonymity_sets is not None and len(anonymity_sets) else 0
    return PrivacyReport(poi=poi, deanonymization_rate=deanonymization_rate, min_anonymity_set=min_set)
