"""Mix zones: pseudonym churn inside designated regions.

A mix zone (Beresford & Stajano 2004, cited in Section VIII) is a region
where no location is reported; users entering it emerge with a *fresh
pseudonym*, so an observer cannot link the trajectory segments before and
after the zone.  The sanitizer:

1. suppresses every trace falling inside a zone;
2. splits each trail at zone traversals;
3. re-attributes each resulting segment to a fresh pseudonym derived
   deterministically from the user's seed and the segment index.

The anonymity a mix zone provides grows with how many users traverse it
per unit time — measured by :func:`repro.metrics.privacy.mixzone_anonymity_sets`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.checks import positive
from repro.geo.distance import haversine_m
from repro.geo.grid import unique_rows
from repro.geo.trace import TraceArray
from repro.sanitization.base import Sanitizer
from repro.utils.hashrng import fnv1a64, splitmix64

__all__ = ["MixZone", "MixZoneSanitizer"]


@dataclass(frozen=True)
class MixZone:
    """A circular mix zone."""

    latitude: float
    longitude: float
    radius_m: float

    def __post_init__(self) -> None:
        positive("radius_m", self.radius_m)

    def contains(self, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the zone (vectorized)."""
        return np.asarray(haversine_m(self.latitude, self.longitude, lat, lon)) <= self.radius_m


class MixZoneSanitizer(Sanitizer):
    """Suppress in-zone traces and change pseudonyms across zones."""

    def __init__(self, zones: list[MixZone], seed: int = 0):
        if not zones:
            raise ValueError("at least one mix zone is required")
        self.zones = list(zones)
        self.seed = seed

    def _inside_any(self, array: TraceArray) -> np.ndarray:
        inside = np.zeros(len(array), dtype=bool)
        lat, lon = array.latitude, array.longitude
        for zone in self.zones:
            inside |= zone.contains(lat, lon)
        return inside

    def _pseudonyms(self, user_ids: list[str], segments: np.ndarray) -> list[str]:
        """The pseudonym of each (user id, segment) pair: FNV-1a of the id
        (stable across processes, unlike Python's salted ``hash``) mixed
        with the segment and the seed, one splitmix64 call for them all."""
        digests = np.array([fnv1a64(u) for u in user_ids], dtype=np.uint64)
        mixed = digests ^ (
            segments.astype(np.uint64) * np.uint64(2654435761)
            + np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF)
        )
        return [f"pseud-{token:016x}" for token in splitmix64(mixed).tolist()]

    def sanitize_array(self, array: TraceArray) -> TraceArray:
        """Suppress in-zone rows and re-pseudonymize each user's segments.

        User scope: a user's segments are numbered over that user's rows
        alone, so on a multi-user array each user is renamed exactly as
        if sanitized on their own.
        """
        if len(array) == 0:
            return array
        ordered = array.sort_by_time()
        inside = self._inside_any(ordered)
        outside = ordered[~inside]
        if len(outside) == 0:
            return outside
        # A kept row's raw segment = suppressed rows so far; only a *gap*
        # (>=1 suppressed row between two kept ones) forces a new pseudonym.
        seg_raw = np.cumsum(inside)[~inside]
        (users, _), codes = unique_rows(outside.user_index, seg_raw, return_inverse=True)
        # Pairs are sorted by (user, raw segment): a pair's segment is its
        # index minus the index of its user's first pair.
        segments = np.arange(len(users)) - np.searchsorted(users, users)
        names = self._pseudonyms([outside.users[u] for u in users.tolist()], segments)
        return outside.renamed(codes, names)
