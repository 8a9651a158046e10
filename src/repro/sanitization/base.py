"""The sanitizer protocol.

A sanitizer is a deterministic-given-its-seed transformation of a trace
array; :meth:`Sanitizer.sanitize_dataset` applies it trail by trail, and
the rows it returns land under whatever user ids they carry (a renamed
trail, or one split between pseudonyms).
"""

from __future__ import annotations

import abc

from repro.geo.trace import GeolocatedDataset, TraceArray

__all__ = ["Sanitizer"]


class Sanitizer(abc.ABC):
    """Base class of all geo-sanitization mechanisms."""

    @abc.abstractmethod
    def sanitize_array(self, array: TraceArray) -> TraceArray:
        """Return the sanitized version of ``array`` (never in place)."""

    def sanitize_dataset(self, dataset: GeolocatedDataset) -> GeolocatedDataset:
        """Apply to every trail; trails sanitized to emptiness are dropped."""
        return dataset.map_trails(lambda trail: self.sanitize_array(trail.traces))
