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
from repro.geo.trace import TraceArray
from repro.sanitization.base import Sanitizer
from repro.utils.hashrng import splitmix64

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

    def _pseudonym(self, user_id: str, segment: int) -> str:
        # FNV-1a over the user id keeps pseudonyms stable across processes
        # (Python's str hash is salted per interpreter).
        h = 0xCBF29CE484222325
        for byte in user_id.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        mixed = np.uint64(h) ^ np.uint64(segment * 2654435761 + self.seed)
        token = splitmix64(np.array([mixed], dtype=np.uint64))[0]
        return f"pseud-{int(token):016x}"

    def sanitize_array(self, array: TraceArray) -> TraceArray:
        """Per-array application: suppress + re-pseudonymize segments.

        Assumes the array holds whole trails (the dataset-level entry
        point passes one trail at a time).
        """
        if len(array) == 0:
            return array
        ordered = array.sort_by_time()
        inside = self._inside_any(ordered)
        outside = ordered[~inside]
        if len(outside) == 0:
            return outside
        # Segment index = number of suppressed gaps crossed so far.
        inside_cum = np.cumsum(inside)
        seg_raw = inside_cum[~inside]
        # Only a *gap* (>=1 suppressed trace between two kept ones) forces
        # a new pseudonym; renumber to consecutive segment ids.
        _, segments = np.unique(seg_raw, return_inverse=True)
        # One pseudonym per distinct (user, segment) pair, not per row.
        n_segments = int(segments.max()) + 1
        pairs, codes = np.unique(
            outside.user_index.astype(np.int64) * n_segments + segments, return_inverse=True
        )
        users, segments = np.divmod(pairs, n_segments)
        names = [
            self._pseudonym(outside.users[user], segment)
            for user, segment in zip(users.tolist(), segments.tolist())
        ]
        return outside.renamed(codes, names)
