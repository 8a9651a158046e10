"""Pseudonymization: the baseline (and insufficient) protection.

"A pseudonym is generally used as a first protection mechanism to hide
the identity of the user while still being able to link different
mobility traces that have been generated by him" (Section II).  The
paper's point — which :mod:`repro.attacks.deanonymization` demonstrates —
is that pseudonymization alone does not resist linking attacks, because
POIs and movement patterns fingerprint the individual.

Two flavours:

* :class:`Pseudonymizer` — one stable pseudonym per user (linkable
  within the release, unlinkable by name);
* full anonymization via ``Pseudonymizer(anonymous=True)`` — every trail
  attributed to ``"unknown"`` (the paper's full-anonymity identifier),
  destroying within-release linkability too.
"""

from __future__ import annotations

import numpy as np

from repro.geo.trace import TraceArray
from repro.sanitization.base import Sanitizer
from repro.utils.hashrng import splitmix64

__all__ = ["Pseudonymizer", "ANONYMOUS_ID"]

#: The identifier used "when full anonymity is required" (Section II).
ANONYMOUS_ID = "unknown"


class Pseudonymizer(Sanitizer):
    """Replace user identifiers by seeded pseudonyms (or ``"unknown"``).

    Pseudonyms are deterministic in (user id, seed) — stable across
    chunks and runs — and collision-resistant via splitmix64 over an
    FNV-1a digest of the identifier.
    """

    def __init__(self, seed: int = 0, anonymous: bool = False):
        self.seed = seed
        self.anonymous = anonymous

    def pseudonym_for(self, user_id: str) -> str:
        if self.anonymous:
            return ANONYMOUS_ID
        h = 0xCBF29CE484222325
        for byte in user_id.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        token = splitmix64(
            np.array([h ^ (self.seed & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
        )[0]
        return f"user-{int(token):016x}"

    def sanitize_array(self, array: TraceArray) -> TraceArray:
        if len(array) == 0:
            return array
        return array.renamed(array.user_index, [self.pseudonym_for(u) for u in array.users])

    def __repr__(self) -> str:
        return f"Pseudonymizer(seed={self.seed}, anonymous={self.anonymous})"
